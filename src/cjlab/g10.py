"""Vectorised ``%.10g``: CSV rows of float arrays, byte for byte the cells
``format(x, ".10g")`` gives.

:func:`cjlab.io.write_csv` imports this module for a CSV whose columns are
all floating numpy arrays; the :mod:`cjlab.io` docstring gives the argument
that the bytes are the same.  :func:`significands` rounds each |x| to a 10-digit integer
significand and picks the cells that fall back to ``format``;
:func:`rows` lays the digits out.  The lookup tables are built with numpy
arithmetic on first use (:func:`tables`).
"""

from __future__ import annotations

import functools

import numpy as np


@functools.cache
def tables():
    """Lookup tables of :func:`rows`, built with numpy arithmetic.

    Returns (pow10, quad, trailing, expo, notation, masks):

    * ``pow10[k]``, k < 1000: 10**k, correctly rounded (parsed from "1eKKK");
    * ``quad[q]``, q < 10**4: q's four digits, each followed by a ".", as a
      little-endian uint64;
    * ``trailing[q]``: the number of trailing zeros of q as 4 digits;
    * ``expo[E + 300]``: "e", the sign and three digits of E, in bytes 2-6
      of a uint64;
    * ``notation[E + 300]``: E + 4 for fixed point (-4 <= E <= 9), else 14
      for a two-digit and 15 for a three-digit exponent;
    * ``masks[key]``: four uint64 whose 0xff bytes keep a record's bytes for
      key = (negative*10 + significant digits - 1)*16 + notation.
    """
    ascii0 = ord("0")
    three = np.indices((10,) * 3, dtype=np.uint8).reshape(3, -1).T + ascii0  # "000".."999"
    text = np.empty((1000, 5), np.uint8)
    text[:, :2] = np.frombuffer(b"1e", np.uint8)
    text[:, 2:] = three
    pow10 = text.view("S5").ravel().astype(np.float64)

    place = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)  # place[i]: digit i of q
    quad = np.full((place.shape[1], 8), ord("."), np.uint8)
    quad[:, ::2] = place.T + ascii0
    trailing = np.logical_and.accumulate(place[::-1] == 0).sum(axis=0, dtype=np.int8)

    E = np.arange(-300, 301)
    expo = np.zeros((E.size, 8), np.uint8)
    expo[:, 2] = ord("e")
    expo[:, 3] = np.where(E < 0, ord("-"), ord("+"))
    expo[:, 4:7] = three[np.abs(E)]
    notation = np.where((E >= -4) & (E <= 9), E + 4, np.where(np.abs(E) < 100, 14, 15))

    neg, nsig, note = np.ix_(np.arange(2), np.arange(1, 11), np.arange(16))
    exp10 = note - 4  # the exponent, for fixed point
    fixed = note < 14
    small = fixed & (exp10 < 0)  # 0.000ddd
    digits = np.where(fixed & ~small, np.maximum(nsig, exp10 + 1), nsig)
    point = np.where(small, -1, np.where(fixed, exp10, 0))  # the digit the "." follows
    keep = np.zeros((2, 10, 16, 32), bool)
    keep[..., 0] = neg
    keep[..., 1] = keep[..., 2] = small
    keep[..., 3:6] = small[..., None] & (np.arange(3) < (-exp10 - 1)[..., None])
    keep[..., 6:26:2] = np.arange(10) < digits[..., None]
    keep[..., 7:26:2] = (np.arange(10) == point[..., None]) & (nsig > point + 1)[..., None]
    keep[..., 26:31] = ~fixed[..., None]
    keep[..., 28] = note == 15
    keep[..., 31] = True
    masks = (keep * np.uint8(0xFF)).reshape(-1, 32).view("<u8")
    return pow10, quad.view("<u8").ravel(), trailing, expo.view("<u8").ravel(), notation, masks


def significands(x) -> tuple:
    """(m, e, fallback) for the float64 array ``x``: |x| rounds to 10
    significant digits as m*10**(e-9), m a 10-digit integer, except at the
    indices ``fallback``, which must fall back to ``format(x, ".10g")``;
    see :mod:`cjlab.io`."""
    pow10 = tables()[0]
    y = np.abs(x)
    exact = (y >= 1e-290) & (y <= 1e290)  # False for 0, nan and inf
    y[~exact] = 1.0
    e = np.floor(np.log10(y)).astype(np.intp)
    k = 9 - e
    p = pow10[np.abs(k)]
    np.divide(y, p, out=y, where=k < 0)  # by an exact 10**-k
    np.multiply(y, p, out=y, where=k >= 0)
    m = np.rint(y)
    band = np.where(np.abs(k) <= 22, 4e-6, 1e-4)
    fallback = np.flatnonzero(~exact | (np.abs(y - m) > 0.5 - band)
                              | (y < 1e9 - 0.01) | (y > 1e10 + 0.01))
    m[fallback] = 1e9  # any 10-digit significand: these records are overwritten
    m = m.astype(np.intp)
    carry = m == 10**10
    m[carry] = 10**9
    return m, e + carry, fallback


def rows(block: list) -> bytes:
    """CSV rows of the floating arrays ``block`` (its columns), each cell the
    bytes of ``format(x, ".10g")``.

    Each cell fills a 32-byte record of four little-endian words::

        byte  0      "-"
        bytes 1-5    "0.000"               (0.000ddd)
        bytes 6-25   d0 . d1 . ... d9 .    (each digit is followed by a "." slot)
        bytes 26-30  e +/- h t u           (the exponent)
        byte  31     "," or "\\n"

    and a mask keyed by (sign, significant digits, notation) zeroes the
    bytes the cell does not use; dropping the zero bytes leaves the row.
    """
    _, quad, trailing, expo, notation, masks = tables()
    x = np.stack(block, axis=1, dtype=np.float64).ravel()
    m, e, fallback = significands(x)
    text = [format(v, ".10g") for v in x[fallback].tolist()]
    # m = 10**6*A + 100*B + C: digits d0-d3, d4-d7 and d8-d9
    A, m = np.divmod(m, 10**6)
    B, C = np.divmod(m, 100)
    tz = np.where(C != 0, trailing[C], 2 + np.where(B != 0, trailing[B], 4 + trailing[A]))
    key = (np.signbit(x) * 10 + 9 - tz) * 16 + notation[e + 300]
    del x, m, tz  # peak memory: keep only what each step still needs
    # The quads of A, B and C, then shifted: the digits start at byte 6, so
    # each word takes the last six bytes of one quad and the first two of
    # the next.
    rec = np.empty((key.size, 4), "<u8")
    rec[:, 0], rec[:, 1], rec[:, 2] = quad[A], quad[B], quad[C] >> np.uint64(32)
    rec[:, 3] = (rec[:, 2] >> np.uint64(16)) | expo[e + 300]
    del A, B, C, e
    seps = np.full(len(block), ord(","), "<u8")
    seps[-1] = ord("\n")
    rec.reshape(-1, len(block), 4)[:, :, 3] |= seps << np.uint64(56)
    rec[:, 2] = (rec[:, 1] >> np.uint64(16)) | (rec[:, 2] << np.uint64(48))
    rec[:, 1] = (rec[:, 0] >> np.uint64(16)) | (rec[:, 1] << np.uint64(48))
    rec[:, 0] = (rec[:, 0] << np.uint64(48)) | np.frombuffer(b"-0.000\0\0", "<u8")
    rec &= np.take(masks, key, axis=0)
    if text:
        rec.view(np.uint8)[fallback, :31] = np.array(text, "S31").view(np.uint8).reshape(-1, 31)
    return rec.tobytes().translate(None, b"\0")
