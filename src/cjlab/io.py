"""Deterministic CSV/JSON emission and run manifests.

All numbers are written with 10 significant digits and a ``.`` decimal
point, so identical run configurations produce byte-identical data
files.  A CSV row is one ``%`` format: ``%.10g`` (the bytes of
``format(x, ".10g")``) for floating columns, :func:`fmt10` text for the
others.  The manifest (which records wall time) is written last and is
the only non-reproducible artifact.

The module imports no numpy.  A column or value may be a numpy array or
scalar or a plain Python sequence or number; numpy values are turned into
Python ones with their ``tolist()``, so both give the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Iterable, Mapping, Sequence

__all__ = ["fmt10", "write_csv", "write_json", "file_checksums"]


def fmt10(x: float) -> str:
    """10-significant-digit decimal rendering."""
    if hasattr(x, "tolist"):  # a numpy scalar
        x = x.tolist()
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".10g")


def _round10(obj):
    """Round floats to 10 significant digits inside a JSON-ready tree."""
    if hasattr(obj, "tolist"):  # a numpy scalar or array
        obj = obj.tolist()
    if isinstance(obj, Mapping):
        return {k: _round10(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round10(v) for v in obj]
    if isinstance(obj, float):
        return float(format(obj, ".10g")) if math.isfinite(obj) else repr(obj)
    return obj


def write_csv(path: Path, header: Iterable[str], columns: Iterable[Sequence]) -> None:
    columns = list(columns)
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("columns must share a length")
    # An array column is floating by its dtype, with no per-cell check; a
    # sequence column when every cell is a float.
    floating = [c.dtype.kind == "f" if hasattr(c, "dtype")
                else all(isinstance(x, float) for x in c) for c in columns]
    row = ",".join("%.10g" if fl else "%s" for fl in floating) + "\n"
    cells = [c.tolist() if hasattr(c, "tolist") else c for c in columns]
    cells = [c if fl else [fmt10(x) for x in c] for c, fl in zip(cells, floating)]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n" + "".join(map(row.__mod__, zip(*cells))))


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(_round10(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def file_checksums(paths: Iterable[Path], root: Path) -> dict[str, str]:
    """sha256 of each file, keyed by its POSIX path relative to ``root``."""
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in paths}
