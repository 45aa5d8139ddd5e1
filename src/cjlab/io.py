"""Deterministic CSV/JSON emission and run manifests.

All numbers are written with 10 significant digits and a ``.`` decimal
point, so identical run configurations produce byte-identical data
files.  The manifest (which records wall time) is written last and is
the only non-reproducible artifact.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

__all__ = ["fmt10", "write_csv", "write_json", "file_checksums"]


def fmt10(x: float) -> str:
    """10-significant-digit decimal rendering."""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".10g")


def _round10(obj):
    """Round floats to 10 significant digits inside a JSON-ready tree."""
    if isinstance(obj, Mapping):
        return {k: _round10(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round10(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if not np.isfinite(f):
            return repr(f)
        return float(format(f, ".10g"))
    if isinstance(obj, np.ndarray):
        return [_round10(v) for v in obj.tolist()]
    return obj


def write_csv(path: Path, header: Iterable[str], columns: Iterable[np.ndarray]) -> None:
    header = list(header)
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("columns must share a length")
    rendered = [
        [fmt10(x) for x in col]
        if not np.issubdtype(col.dtype, np.floating)
        else np.char.mod("%.10g", col).tolist()
        for col in columns
    ]
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in zip(*rendered))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(_round10(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def file_checksums(paths: Iterable[Path], root: Path) -> dict[str, str]:
    """sha256 of each file, keyed by its POSIX path relative to ``root``."""
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in paths}
