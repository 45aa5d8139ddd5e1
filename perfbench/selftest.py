"""Self-test of the benchmark's inputs and reference digests.

    python3 perfbench/selftest.py                    # check
    python3 perfbench/selftest.py --write-reference  # re-record reference_digests.json

Checks that the seed-to-inputs mapping is deterministic and never leaves
the workload's universe of ops, then runs every op any seed can produce
(and each warm-up op) once, in this process, against the checkout's
``src``: each must exit as expected, pass the output checks and, unless
``--write-reference`` is given, write data files byte-identical to the
recorded reference.  Takes about two minutes.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import traceback
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference_digests.json"
SEEDS = range(200)
PASSES = range(12)


def check_mapping() -> list[str]:
    problems = []
    for workload in workloads.WORKLOADS:
        known = {op.key for op in workloads.universe(workload)}
        for seed in SEEDS:
            for p in PASSES:
                first = workloads.ops(workload, seed, p)
                if first != workloads.ops(workload, seed, p):
                    problems.append(f"{workload} seed {seed} pass {p}: inputs not deterministic")
                problems += [f"{workload}: {op.key!r} is outside the universe"
                             for op in first if op.key not in known]
    return problems


def run_in_process(cli, op: workloads.Op, out: Path) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = cli.main([*op.argv, "--out", str(out)])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            rc = 1
            err.write(traceback.format_exc())
    return rc, err.getvalue()


def main(args: list[str]) -> int:
    write = args == ["--write-reference"]
    if args and not write:
        sys.exit(__doc__)
    sys.path.insert(0, str(ROOT / "src"))
    import cjlab.cli as cli

    problems = check_mapping()
    reference = {} if write else json.loads(REFERENCE.read_text())["ops"]
    recorded: dict[str, dict[str, str]] = {}
    scratch = ROOT / ".perfbench_out" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    ops = [op for w in workloads.WORKLOADS for op in workloads.universe(w)]
    timed = {op.key for op in ops}
    ops += [op for op in workloads.WARMUP.values() if op is not None]
    for i, op in enumerate(ops):
        out = scratch / str(i)
        rc, stderr = run_in_process(cli, op, out)
        found, changed, _ = checks.check_op(op, rc, stderr, out, reference.get(op.key))
        problems += [f"{op.key!r}: {p}" for p in found]
        if changed and not write and op.key in timed:
            problems.append(f"{op.key!r}: data files differ from the reference: {changed}")
        recorded[op.key] = checks.data_digests(out) if out.is_dir() else {}
        shutil.rmtree(out, ignore_errors=True)
    shutil.rmtree(scratch, ignore_errors=True)
    if write:
        lines = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                 for k, v in sorted(recorded.items()) if k in timed]
        REFERENCE.write_text(
            '{"note": "sha256 of every data file each timed op writes (manifest.json excluded)",\n'
            ' "ops": {\n' + ",\n".join(lines) + "\n }}\n")
    for p in problems:
        print(p)
    print(f"{len(ops)} ops run, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
