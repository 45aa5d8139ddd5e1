"""cjlab benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
One client sends one op at a time and starts the next only after the
previous one has finished and its outputs have been checked.  A run:

1. sets up SETUP_SAMPLES times, once before the first pass and once
   after each of the next passes, so the samples spread over the run:
   spawns a fresh worker interpreter that imports ``cjlab.cli`` and, for
   ``jacobi_cli``, runs one untimed warm-up op.  ``setup_s`` is the median
   spawn-to-ready time.  The first worker of ``jacobi_cli`` runs the
   timed ops;
2. repeats the workload's op list (a pass) for about ``--seconds``
   seconds, at least MIN_PASSES times.  ``cli_quick`` ops are whole
   ``cjl`` processes; ``jacobi_cli`` calls ``cjlab.cli.main`` in the
   worker.  Every pass fills the same slots, and ``wall_s`` sums each
   slot's median op time over the passes;
3. with ``--trace 1``, alternates untraced and traced passes and reports
   the per-layer metrics from the spans of the traced ones (per pass,
   median over passes) instead of the end-to-end metrics.

Every op's outputs are checked (see ``checks.py``); an op fails on an
unexpected exit code, an escaped traceback, its time limit or a failed
check.  The last line of standard output is the JSON result.  Spans,
per-op records and a description of the machine go to
``.perfbench_out/<workload>-seed<N>-trace<T>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
MIN_PASSES = 3
MIN_TRACED_PASSES = 4  # two untraced and two traced
OP_TIMEOUT_S = 60.0
DEADLINE_S = 170.0  # a run must end within 180 s
CJL = "import sys; from cjlab.cli import main; sys.exit(main())"  # the cjl entry point
DISK_NOTE = ("Data files are written to a local checkout and land in the page cache; "
             "io.* times and bytes are page-cache writes, not real disk behaviour.")


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, or set-up failed)."""


class Worker:
    """A ``worker.py serve`` process answering one JSON line per request."""

    def __init__(self, trace: bool, log: Path, env: dict) -> None:
        cmd = [sys.executable, *(["-X", "importtime"] if trace else []),
               str(HERE / "worker.py"), "serve", *(["--trace"] if trace else [])]
        self.log = log
        with open(log, "w") as err:
            self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         stderr=err, cwd=ROOT, env=env, text=True)

    def recv(self, timeout: float) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], max(timeout, 0.0))
        if not ready:
            raise TimeoutError
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited; see {self.log}")
        return json.loads(line)

    def request(self, payload: dict, timeout: float) -> dict:
        self.proc.stdin.write(json.dumps(payload) + "\n")
        self.proc.stdin.flush()
        return self.recv(timeout)

    def close(self) -> None:
        """End the worker (closing its input stops it) and reap it."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (BrokenPipeError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _wait(proc: subprocess.Popen, timeout: float) -> int | None:
    """Exit code of ``proc``, or None once it has been killed at ``timeout``.

    Waits on a pidfd, which is ready the moment the process exits;
    ``Popen.wait`` with a timeout polls, and would round op times up by as
    much as its 50 ms polling step.
    """
    fd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([fd], [], [], max(timeout, 0.0))
    finally:
        os.close(fd)
    if not ready:
        proc.kill()
        proc.wait()
        return None
    return proc.wait()


def _import_breakdown(log: Path) -> dict[str, float]:
    """Self import time (s) of the scipy, numpy and cjlab modules from ``-X importtime``."""
    total = Counter()
    for line in log.read_text().splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s+(\S+)", line)
        if m:
            top = m.group(2).split(".")[0]
            if top in ("scipy", "numpy", "cjlab"):
                total[top] += int(m.group(1)) * 1e-6
    return {f"cli.import.{k}_s": total[k] for k in ("scipy", "numpy", "cjlab")}


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool) -> None:
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.in_process = workloads.WARMUP[workload] is not None
        self.started = time.perf_counter()
        self.dir = ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.reference = json.loads((HERE / "reference_digests.json").read_text())["ops"]
        self.worker: Worker | None = None
        self.setup_s: list[float] = []
        self.import_s: list[float] = []
        self.imports: list[dict] = []
        self.versions: dict = {}
        self.passes: list[dict] = []
        self.records: list[dict] = []
        self.spans: list[dict] = []
        self.setup_rss_kb: list[int] = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    # -- set-up -----------------------------------------------------------
    def setup_sample(self, keep: bool) -> None:
        """Time one set-up; keep its worker to run the timed in-process ops."""
        warmup = workloads.WARMUP[self.workload]  # None for cli_quick: set-up is the import
        i = len(self.setup_s)
        start = time.perf_counter()
        worker = Worker(self.trace, self.dir / f"setup{i}.log", self.env)
        out = self.dir / "warmup"
        try:
            ready = worker.recv(OP_TIMEOUT_S)
            if warmup is not None:
                reply = worker.request({"op": "warmup", "trace": False,
                                        "argv": [*warmup.argv, "--out", str(out)]}, OP_TIMEOUT_S)
                if reply["rc"] != warmup.expect_rc:
                    raise BenchError(f"warm-up op exited {reply['rc']}: {reply['stderr']}")
                self.setup_rss_kb.append(reply["maxrss_kb"])
        except (TimeoutError, BenchError):
            worker.proc.kill()
            worker.close()
            raise
        self.setup_s.append(time.perf_counter() - start)
        shutil.rmtree(out, ignore_errors=True)
        self.import_s.append(ready["import_s"])
        self.versions = ready["versions"]
        if keep and warmup is not None:
            self.worker = worker
        else:
            worker.close()
        if self.trace:
            self.imports.append(_import_breakdown(worker.log))

    # -- timed passes -----------------------------------------------------
    def run_op(self, op: workloads.Op, pass_index: int, index: int, traced: bool) -> dict:
        name = f"p{pass_index}o{index}"
        work = self.dir / name  # the op's output directory and logs, removed once checked
        out = work / "out"
        work.mkdir()
        argv = [*op.argv, "--out", str(out)]
        timeout = min(OP_TIMEOUT_S, self.remaining())
        spans: list[dict] = []
        timed_out = False
        if self.in_process:
            try:
                reply = self.worker.request({"op": name, "argv": argv, "trace": traced}, timeout)
                rc, elapsed, stderr = reply["rc"], reply["time_s"], reply["stderr"]
                spans = reply.get("spans", [])
            except TimeoutError:
                timed_out, rc, elapsed, stderr = True, None, timeout, ""
                self.worker.proc.kill()
        else:
            spans_file = work / "spans.json"
            if traced:
                cmd = [sys.executable, str(HERE / "worker.py"), "once", "--spans", str(spans_file),
                       "--", *argv]
            else:
                cmd = [sys.executable, "-c", CJL, *argv]
            err_file = work / "stderr"
            with open(work / "stdout", "w") as so, open(err_file, "w") as se:
                start = time.perf_counter()
                proc = subprocess.Popen(cmd, stdout=so, stderr=se, cwd=ROOT, env=self.env)
                rc = _wait(proc, timeout)
                elapsed = time.perf_counter() - start
                timed_out = rc is None
            stderr = err_file.read_text()
            if traced and spans_file.is_file():
                spans = json.loads(spans_file.read_text())["spans"]
        if timed_out:
            problems, changed, stats = [f"no answer within {timeout:.0f} s"], [], {}
        else:
            problems, changed, stats = checks.check_op(op, rc, stderr, out, self.reference.get(op.key))
        shutil.rmtree(work)
        for span in spans:
            span.update(op=name, passno=pass_index, kind=op.kind)
        self.spans += spans
        record = {"pass": pass_index, "op": index, "slot": op.slot, "kind": op.kind, "key": op.key,
                  "traced": traced, "rc": rc, "time_s": elapsed, "problems": problems,
                  "changed": changed, "stats": stats}
        self.records.append(record)
        return record

    def run_passes(self) -> None:
        least = MIN_TRACED_PASSES if self.trace else MIN_PASSES
        start = time.perf_counter()
        while True:
            n = len(self.passes)
            last = self.passes[-1]["time_s"] if self.passes else 0.0
            if n >= least and time.perf_counter() - start + last > self.seconds:
                break
            if n and last > self.remaining():
                break
            traced = self.trace and n % 2 == 1
            records = []
            for i, op in enumerate(workloads.ops(self.workload, self.seed, n)):
                records.append(self.run_op(op, n, i, traced))
                if records[-1]["rc"] is None:  # timed out: the worker is gone
                    break
            self.passes.append({"index": n, "traced": traced,
                                "time_s": sum(r["time_s"] for r in records)})
            if records[-1]["rc"] is None:
                return
            if len(self.setup_s) < SETUP_SAMPLES:
                self.setup_sample(keep=False)
            print(f"pass {n}{' traced' if traced else ''}: {len(records)} ops, "
                  f"{self.passes[-1]['time_s']:.3f} s", flush=True)

    # -- metrics ----------------------------------------------------------
    def _pass_time(self, traced: bool) -> float:
        """Time of one pass: the sum over the pass's slots of each slot's
        median op time, over the traced or the untraced passes (0 if none)."""
        by_slot = defaultdict(list)
        for r in self.records:
            if r["traced"] == traced:
                by_slot[r["slot"]].append(r["time_s"])
        return sum(statistics.median(times) for times in by_slot.values())

    def end_to_end(self) -> dict[str, float]:
        # Memory of one op from a fresh start: the median set-up worker
        # (import plus a full-size warm-up op) or, for cli_quick, the largest
        # cjl process.  The timed worker's later peak is left out: it depends
        # on the order of everything the worker ran, which the seed shuffles.
        if self.in_process:
            peak_kb = statistics.median(self.setup_rss_kb)
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return {
            "setup_s": statistics.median(self.setup_s),
            "wall_s": self._pass_time(False),
            "peak_rss_mb": peak_kb / 1024.0,
        }

    def _per_pass_layers(self, pass_index: int) -> dict[str, float]:
        spans = [s for s in self.spans if s["passno"] == pass_index]
        selfs = tracing.self_times(spans)
        dur, own, calls, counts = defaultdict(float), defaultdict(float), Counter(), Counter()
        for s in spans:
            dur[s["name"]] += s["end"] - s["start"]
            own[s["name"]] += selfs[s["id"]]
            calls[s["name"]] += 1
            for key, value in s.get("counts", {}).items():
                counts[f"{s['name']}.{key}"] += value
        out = {f"{name}_s": dur[name] for name in tracing.SPAN_NAMES}
        out.update({
            "cli.self_s": own["cli.main"],
            "jacobi.solve_jacobi.self_s": own["jacobi.solve_jacobi"],
            "spectra.eigenvalues": counts["spectra.link_eigenvalues.eigenvalues"],
            "profile.samples": counts["profile.integrate_profile.samples"],
            "profile.accepted_steps": counts["profile.integrate_profile.accepted_steps"],
            "decay.fits": calls["decay.fit_power_law"],
            "plateau.samples": counts["plateau.plateau_profile.samples"],
            "io.csv_rows": counts["io.write_csv.rows"],
            "io.bytes_written": counts["io.write_csv.bytes"] + counts["io.write_json.bytes"],
        })
        return out

    def per_layer(self) -> dict[str, float]:
        traced = [p["index"] for p in self.passes if p["traced"]] or [None]
        per_pass = [self._per_pass_layers(i) for i in traced]
        out = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        out["cli.import_s"] = statistics.median(self.import_s)
        for key in self.imports[0]:
            out[key] = statistics.median(b[key] for b in self.imports)
        for kind in ("spectrum", "plateau", "usage_error"):
            out[f"cli.{kind}.process_s"] = 0.0 if self.in_process else statistics.median(
                sum(r["time_s"] for r in self.records if r["pass"] == p["index"] and r["kind"] == kind)
                for p in self.passes if not p["traced"])
        stats = [r["stats"] for r in self.records if r["stats"]]
        out["jacobi.residual_ratio"] = max((s["residual_ratio"] for s in stats), default=0.0)
        out["jacobi.wronskian_drift_middle"] = max(
            (s["wronskian_drift_middle"] for s in stats), default=0.0)
        out["io.changed_files"] = len({(r["key"], f) for r in self.records for f in r["changed"]})
        out["trace.overhead_s"] = self._pass_time(True) - self._pass_time(False)
        return out

    def machine(self) -> dict:
        return {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "python": platform.python_version(),
            **self.versions,
            "blas_threads": {k: os.environ.get(k, "unset")
                             for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
            "disk": DISK_NOTE,
        }

    def close(self) -> None:
        if self.worker is not None:
            self.worker.close()


def _result(run: Run, bench: dict) -> dict:
    section = "per_layer" if run.trace else "end_to_end"
    values = run.per_layer() if run.trace else run.end_to_end()
    units = {m["name"]: m["unit"] for m in bench[section]}
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    failed = sum(1 for r in run.records if r["problems"])
    return {"correct": failed == 0, "attempted": len(run.records), "failed": failed,
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "cjlab" / "cli.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'cjlab'} is missing", file=sys.stderr)
        return 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.setup_sample(keep=True)
        run.run_passes()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TimeoutError:
        print("error: a worker did not become ready in time", file=sys.stderr)
        return 1
    finally:
        run.close()
    result = _result(run, bench)
    machine = run.machine()
    with open(run.dir / "spans.jsonl", "w") as fh:
        fh.writelines(json.dumps(s) + "\n" for s in run.spans)
    (run.dir / "result.json").write_text(json.dumps(
        {"workload": run.workload, "seed": run.seed, "seconds": run.seconds, "trace": run.trace,
         "machine": machine, "setup_s": run.setup_s, "passes": run.passes,
         "ops": run.records, "result": result}, indent=1))
    fail_frac = result["failed"] / result["attempted"]
    print("machine: " + json.dumps(machine))
    if not run.trace:
        m = result["metrics"]
        print(f"{run.workload} seed {run.seed}: setup_s {m['setup_s']['value']:.4f} s, "
              f"wall_s {m['wall_s']['value']:.4f} s, fail_frac {fail_frac:.4f} ratio, "
              f"peak_rss_mb {m['peak_rss_mb']['value']:.1f} MB "
              f"({result['attempted']} ops in {len(run.passes)} passes)")
    else:
        print(f"{run.workload} seed {run.seed} traced: fail_frac {fail_frac:.4f} ratio "
              f"({result['attempted']} ops in {len(run.passes)} passes)")
    for r in run.records:
        for problem in r["problems"]:
            print(f"FAILED pass {r['pass']} op {r['op']} ({r['key']}): {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
