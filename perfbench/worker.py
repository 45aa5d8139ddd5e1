"""Benchmark worker: imports cjlab.cli from the checkout and runs cjl argvs.

``worker.py serve [--trace]``
    Imports ``cjlab.cli``, prints a ready line, then reads one JSON request
    per line on stdin (``{"op": id, "argv": [...], "trace": bool}``) until
    end of input, and answers each with one JSON line: exit code,
    time inside ``cjlab.cli.main``, captured stdout/stderr, the worker's
    peak resident memory so far and, for a traced op, its spans.  ``--trace`` installs the span wrappers once;
    each request turns them on or off.
``worker.py once --spans FILE -- ARGV...``
    One traced whole-process ``cjl ARGV``: writes the import time and the
    spans to FILE and exits with the command's exit code.

The program's PYTHONPATH must point at the checkout's ``src``; the worker
refuses to run a cjlab imported from anywhere else.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import tracing

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_cli():
    start = time.perf_counter()
    import cjlab.cli

    import_s = time.perf_counter() - start
    if Path(cjlab.cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"cjlab was imported from {cjlab.cli.__file__}, not from {SRC}")
    return cjlab.cli, import_s


def _versions() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # older numpy has no mode="dicts"
        blas = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}


def _run(cli, argv: list[str], tracer: tracing.Tracer | None, op_id: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = tracer.root(op_id, cli.main, argv) if tracer else cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an escaped exception is a failed op, not a dead worker
            rc = 1
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    reply = {"rc": rc, "time_s": elapsed, "stdout": out.getvalue(), "stderr": err.getvalue(),
             "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        reply["spans"] = tracer.spans
    return reply


def serve(trace: bool) -> None:
    # Answer on a private copy of stdout; anything the program writes to
    # file descriptor 1 goes to stderr instead of into the protocol.
    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    cli, import_s = _import_cli()
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracing.install(tracer)
    print(json.dumps({"ready": True, "import_s": import_s, "versions": _versions()}),
          file=proto, flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        use = tracer if request["trace"] else None
        print(json.dumps(_run(cli, request["argv"], use, request["op"])), file=proto, flush=True)


def once(spans_path: str, argv: list[str]) -> int:
    cli, import_s = _import_cli()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return tracer.root("0", cli.main, argv)
    finally:
        Path(spans_path).write_text(json.dumps({"import_s": import_s, "spans": tracer.spans}))


def main(args: list[str]) -> int:
    if args[:1] == ["serve"]:
        serve(trace="--trace" in args[1:])
        return 0
    if args[:2] == ["once", "--spans"] and args[3:4] == ["--"]:
        return once(args[2], args[4:])
    sys.exit("usage: worker.py serve [--trace] | worker.py once --spans FILE -- ARGV...")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
