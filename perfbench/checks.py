"""Output checks for one benchmark op.

Each check reads what the op left on disk and compares it with a source
other than the code that wrote it: the manifest's sha256 digests are
recomputed from the files, the spectrum is recomputed from its closed
form, and the data-file digests are compared with a reference recorded
from an earlier commit.  A digest that differs from the reference is
drift, not a failure: it is counted, so a change can show that its data
files stay byte-identical or say why they do not.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from workloads import Op

FLUX_TARGET = 1e-10
TRACEBACK = "Traceback (most recent call last)"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def data_digests(out: Path) -> dict[str, str]:
    """Relative path -> sha256 of every file the op wrote except its manifest."""
    return {p.relative_to(out).as_posix(): sha256(p)
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"}


def _harmonic_dim(degree: int, ambient: int) -> int:
    """Dimension of the degree-``degree`` spherical harmonics on S^(ambient-1)."""
    low = math.comb(degree + ambient - 3, ambient - 1) if degree >= 2 else 0
    return math.comb(degree + ambient - 1, ambient - 1) - low


def closed_form_eigenvalues(m: int, n: int, count: int) -> list[float]:
    """First ``count`` link eigenvalues, with multiplicity, from
    lambda_{l,k} = l(l+m-2)(N-1)/(m-1) + k(k+n-2)(N-1)/(n-1) - (N-1).

    lambda grows with l and k, and the modes (0..count-1, 0) alone give
    ``count`` eigenvalues, so degrees up to ``count`` cover the list.
    """
    N = m + n - 1
    modes = sorted(
        (l * (l + m - 2) * (N - 1) / (m - 1) + k * (k + n - 2) * (N - 1) / (n - 1) - (N - 1),
         _harmonic_dim(l, m) * _harmonic_dim(k, n))
        for l in range(count + 1) for k in range(count + 1)
    )
    out: list[float] = []
    for value, mult in modes:
        out.extend([value] * min(mult, count - len(out)))
        if len(out) == count:
            break
    return out


def _flag(argv: tuple[str, ...], name: str) -> str:
    return argv[argv.index(name) + 1]


def _check_manifest(out: Path, manifest: dict) -> list[str]:
    problems = []
    for name, digest in manifest["checksums"].items():
        if sha256(out / name) != digest:
            problems.append(f"manifest sha256 of {name} does not match the file on disk")
    return problems


def _check_spectrum(op: Op, out: Path) -> list[str]:
    m, n, count = (int(_flag(op.argv, f)) for f in ("--m", "--n", "--count"))
    if _flag(op.argv, "--format") == "json":
        got = json.loads((out / "spectrum.json").read_text())["lambdas"]
    else:
        with open(out / "spectrum.csv", newline="") as fh:
            got = [float(row["lambda"]) for row in csv.DictReader(fh)]
    want = closed_form_eigenvalues(m, n, count)
    if len(got) != len(want) or not all(
            math.isclose(g, w, rel_tol=1e-9, abs_tol=1e-9) for g, w in zip(got, want)):
        return [f"spectrum ({m},{n}) count {count} differs from the closed form"]
    return []


def check_op(op: Op, rc: int, stderr: str, out: Path,
             reference: dict[str, str] | None) -> tuple[list[str], list[str], dict]:
    """Return (problems, drifted data files, stats) for one finished op.

    ``reference`` maps the op's data files to their recorded digests;
    None means nothing is recorded for this op.
    """
    problems: list[str] = []
    stats: dict = {}
    if rc != op.expect_rc:
        problems.append(f"exit code {rc}, expected {op.expect_rc}")
    if TRACEBACK in stderr:
        problems.append("traceback escaped")
    if rc != 0 or problems:
        return problems, [], stats
    manifest = json.loads((out / "manifest.json").read_text())
    problems += _check_manifest(out, manifest)
    metrics = manifest["metrics"]
    if op.kind == "jacobi":
        if not metrics["residual_sup"] <= metrics["residual_target"]:
            problems.append(f"residual {metrics['residual_sup']} exceeds {metrics['residual_target']}")
        stats = {"residual_ratio": metrics["residual_sup"] / metrics["residual_target"],
                 "wronskian_drift_middle": metrics["wronskian_drift_middle"]}
    elif op.kind == "plateau":
        if not metrics["flux_residual_sup"] <= FLUX_TARGET:
            problems.append(f"flux residual {metrics['flux_residual_sup']} exceeds {FLUX_TARGET}")
    elif op.kind == "spectrum":
        problems += _check_spectrum(op, out)
    digests = data_digests(out)
    ref = reference or {}
    changed = sorted(k for k in digests.keys() | ref.keys() if digests.get(k) != ref.get(k))
    return problems, changed, stats
