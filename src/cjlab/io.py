"""Deterministic CSV/JSON emission and run manifests.

All numbers are written with 10 significant digits and a ``.`` decimal
point, so identical run configurations produce byte-identical data
files.  Every floating CSV cell holds the bytes of ``format(x, ".10g")``,
and every other cell :func:`fmt10` text.  The manifest (which records wall
time) is written last and is the only non-reproducible artifact.  Each
writer returns the sha256 of the bytes it wrote, hashed as they are
written, and :func:`file_checksums` keys those digests for the manifest.

A CSV whose columns are all floating numpy arrays is rendered by the
vectorised ``%.10g`` of :mod:`cjlab.g10`, 2,000 rows at a time; any other
CSV is one ``%`` format per row.  The vectorised cells are the same bytes:

* ``e = floor(log10|x|)`` and ``y = |x|*10**(9-e)``.  For ``|9-e| <= 22``
  the power of ten is exact (a negative power is a division by an exact
  one), so y is one correctly rounded product: off from the exact value by
  at most half an ulp of y < 2**34, 9.5e-7.  Otherwise the power comes
  from a table of correctly rounded powers and y carries a second
  rounding, 2.3e-6 at most.
* Then ``rint(y)`` is the correctly rounded 10-digit significand whenever
  y lies farther than 4e-6 (one rounding) or 1e-4 (two) from a half
  integer: the exact value is on the same side of it, and cannot be a tie.
  A significand of 10**10 carries into the exponent.  Where log10 rounds
  across a power of ten, y misses [1e9, 1e10) by under 1e-5, and ``rint``
  still gives that power's digits.
* Cells inside that band (every exact tie among them), cells whose y
  misses [1e9, 1e10] by more than 0.01, ±0, nan, ±inf and |x| outside
  [1e-290, 1e290] fall back to ``format(x, ".10g")``.
* Digits, exponent and notation follow the ``%g`` rules: fixed point for
  exponents -4..9, trailing zeros and a bare point dropped, and an
  exponent of at least two digits.

The module imports no numpy: :mod:`cjlab.g10` is imported when a CSV of
float arrays is written, and builds its tables on first use.  json and
hashlib are imported by the functions that use them, so a usage error,
``--help`` or ``--version`` loads neither.  A column or
value may be a numpy array or scalar or a plain Python sequence or number;
numpy values are turned into Python ones with their ``tolist()``, so both
give the same bytes.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Mapping, Sequence

__all__ = ["fmt10", "write_csv", "write_json", "file_checksums"]

#: Rows per vectorised block: about 18,000 cells of a 9-column CSV, so the
#: temporaries stay small and cache-resident.
_BLOCK_ROWS = 2000


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


def _write_hashed(path: Path, chunks: Iterable[bytes]) -> str:
    """Write ``chunks`` to ``path``; the sha256 hex digest of those bytes."""
    import hashlib

    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
            digest.update(chunk)
    return digest.hexdigest()


def write_csv(path: Path, header: Iterable[str], columns: Iterable[Sequence]) -> str:
    """Write the CSV; the sha256 hex digest of its bytes."""
    columns = list(columns)
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("columns must share a length")
    return _write_hashed(path, _csv_chunks(header, columns, n))


def _csv_chunks(header: Iterable[str], columns: list, n: int) -> Iterable[bytes]:
    yield (",".join(header) + "\n").encode()
    if all(hasattr(c, "dtype") and c.dtype.kind == "f" for c in columns):
        from cjlab import g10  # numpy: only a CSV of float arrays loads it

        for start in range(0, n, _BLOCK_ROWS):
            yield g10.rows([c[start:start + _BLOCK_ROWS] for c in columns])
        return
    # An array column is floating by its dtype, with no per-cell check; a
    # sequence column when every cell is a float.
    floating = [c.dtype.kind == "f" if hasattr(c, "dtype")
                else all(isinstance(x, float) for x in c) for c in columns]
    row = ",".join("%.10g" if fl else "%s" for fl in floating) + "\n"
    cells = [c.tolist() if hasattr(c, "tolist") else c for c in columns]
    cells = [c if fl else [fmt10(x) for x in c] for c, fl in zip(cells, floating)]
    yield "".join(map(row.__mod__, zip(*cells))).encode()


def write_json(path: Path, payload: dict) -> str:
    """Write the payload as sorted, indented JSON; the sha256 hex digest of its bytes."""
    import json

    return _write_hashed(path, [(json.dumps(_round10(payload), indent=2, sort_keys=True)
                                 + "\n").encode()])


def file_checksums(digests: Mapping[Path, str], root: Path) -> dict[str, str]:
    """The writers' digests, keyed by each file's POSIX path relative to ``root``."""
    return {p.relative_to(root).as_posix(): d for p, d in digests.items()}
