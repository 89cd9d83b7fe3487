"""Vectorized ``%.17g``: the text of a whole array of doubles at once.

``format_block`` turns a block of rows into lines whose bytes are those of
formatting every value on its own with ``FLOAT_FMT``.  ``_fill_records``
produces the digits with numpy integer arithmetic; values it cannot prove
exact, such as nan, infinities, subnormals and decimal ties, go through
``FLOAT_FMT`` itself.  The file writers of ``heatcavity.io`` format with it.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

FLOAT_FMT = "%.17g"

#: Magnitudes the kernel formats itself; others take the ``%`` fallback.
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
#: Decimal exponents k = floor(log10|x|) the tables cover; the fast range
#: and a one-step correction of k stay inside, and 10^(16-k) stays below
#: 1e301, so Veltkamp's split of it cannot overflow.
_K_LIM = 284
#: Veltkamp's splitting constant for binary64, 2^27 + 1.
_VELTKAMP = 134217729.0
#: Scaled values whose fraction is this close to 1/2 take the fallback.
_HALF_MARGIN = 2.0**-40
#: Values formatted per kernel pass; keeps its temporaries in cache.
_CHUNK = 8192

#: Byte slots of one value's record.  Every character ``%.17g`` can emit
#: has its own slot, and a slot a value does not use holds 0: the sign, the
#: "0." and up to three zeros of "0.000ddd", the 17 digits with a slot for
#: the point after each, "e", the exponent's sign, three exponent digits and
#: the separator.  Digits 1-16 and their point slots fill the 8-byte words
#: 1-4, four digits to a word.
_SIGN, _LEAD, _ZEROS, _DIGITS, _EXP, _SEP = 0, 1, 3, 6, 40, 45
_WIDTH = 48


class _FormatTables(NamedTuple):
    pow_hi: np.ndarray  # 10^(16-k) = pow_hi + pow_lo, by k + _K_LIM
    pow_lo: np.ndarray
    templates: np.ndarray  # records by (k + _K_LIM) * 18 + significant digits
    quads: np.ndarray  # ASCII of 0000..9999 in the even bytes of a word, 255 in the odd
    quad_last: np.ndarray  # (4, 10000): last nonzero digit of group i, 1-based


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: a = hi + lo exactly, each half of at most 26 bits."""
    t = a * _VELTKAMP
    hi = t - (t - a)
    return hi, a - hi


@functools.cache
def _format_tables() -> _FormatTables:
    """The kernel's lookup tables, built once per process on first use.

    Each power 10^q is split into two doubles from exact integers: Python's
    int-to-float and int/int conversions round correctly.
    """
    ks = np.arange(-_K_LIM, _K_LIM + 1)
    hi, lo = [], []
    for q in (16 - ks).tolist():
        if q >= 0:
            h = float(10**q)
            hi.append(h)
            lo.append(float(10**q - int(h)))
        else:
            d = 10**-q
            h = 1 / d
            num, den = h.as_integer_ratio()
            hi.append(h)
            lo.append((den - num * d) / (den * d))

    # %.17g writes k in fixed notation when -4 <= k < 17, else as d.ddde±XX
    fixed = (ks >= -4) & (ks < 17)
    below_one = fixed & (ks < 0)
    exponent = ~fixed
    digits_before_point = np.where(fixed, np.maximum(ks + 1, 0), 1)[:, None, None]
    significant = np.arange(18)[None, :, None]
    shown = np.maximum(significant, digits_before_point)
    j = np.arange(17)
    ek = np.abs(ks)

    def per_k(chars: np.ndarray, used: np.ndarray) -> np.ndarray:
        return np.where(used, chars, 0)[:, None]

    tpl = np.zeros((ks.size, 18, _WIDTH), np.uint8)
    tpl[:, :, _LEAD] = per_k(ord("0"), below_one)
    tpl[:, :, _LEAD + 1] = per_k(ord("."), below_one)
    zeros = below_one[:, None] & (j[:3] < -ks[:, None] - 1)
    tpl[:, :, _ZEROS : _ZEROS + 3] = np.where(zeros, ord("0"), 0)[:, None, :]
    tpl[:, :, _DIGITS : _DIGITS + 34 : 2] = np.where(j < shown, 255, 0)
    point = (j + 1 == digits_before_point) & (shown > digits_before_point)
    tpl[:, :, _DIGITS + 1 : _DIGITS + 34 : 2] = np.where(point, ord("."), 0)
    tpl[:, :, _EXP] = per_k(ord("e"), exponent)
    tpl[:, :, _EXP + 1] = per_k(np.where(ks < 0, ord("-"), ord("+")), exponent)
    tpl[:, :, _EXP + 2] = per_k(48 + ek // 100, exponent & (ek >= 100))
    tpl[:, :, _EXP + 3] = per_k(48 + ek // 10 % 10, exponent)
    tpl[:, :, _EXP + 4] = per_k(48 + ek % 10, exponent)

    group = np.arange(10000)
    ascii4 = np.stack([48 + group // p % 10 for p in (1000, 100, 10, 1)], axis=1)
    quads = np.full((10000, 8), 255, np.uint8)
    quads[:, ::2] = ascii4
    nonzero = ascii4 != 48
    last = np.where(group > 0, 4 - np.argmax(nonzero[:, ::-1], axis=1), 0)
    quad_last = np.stack([np.where(last > 0, last + 4 * i, 0) for i in range(4)])
    return _FormatTables(
        np.array(hi),
        np.array(lo),
        tpl.reshape(-1, _WIDTH),
        quads.view(np.uint64)[:, 0],
        quad_last.astype(np.uint8),
    )


def _scaled(a: np.ndarray, kid: np.ndarray, tab: _FormatTables):
    """Integer and fractional part of a * 10^(16-k), k = kid - _K_LIM."""
    p_hi = tab.pow_hi.take(kid)
    p_hh, p_hl = _split(p_hi)
    prod = a * p_hi
    a_hi, a_lo = _split(a)
    err = ((a_hi * p_hh - prod) + a_hi * p_hl + a_lo * p_hh) + a_lo * p_hl
    rest = err + a * tab.pow_lo.take(kid)
    whole = np.floor(rest)
    return prod.astype(np.int64) + whole.astype(np.int64), rest - whole


def _fill_records(x: np.ndarray, out: np.ndarray, tab: _FormatTables) -> None:
    """Write the ``%.17g`` record of each value of ``x`` into ``out``.

    For |x| in ``[_FAST_MIN, _FAST_MAX)`` let k = floor(log10|x|), taken from
    ``np.log10`` and corrected by one step when the truncated scaled value
    below falls outside [10^16, 10^17).  The 17 significant digits are
    D = round-half-even(P) for P = |x|·10^q, q = 16 - k.  The product is
    formed in double-double arithmetic:

    * 10^q = T_hi + T_lo + d with T_hi, T_lo rounded from exact integers,
      so |d| <= 2^-53 |T_lo| <= 2^-106 T_hi;
    * |x|·T_hi = p + e exactly (Dekker's two-product on Veltkamp halves;
      every nonzero partial product lies between 2^-106 P and 2P, with P
      below 10^18, so none over- or underflows);
    * r = fl(e + fl(|x|·T_lo)).

    The three roundings give |P - (p + r)| <= (2^-106 + 2^-106 + 2^-105)·P
    (1 + 2^-52) < 2^-103 P, which is below 2^-46 once P < 2^57 (it is below
    10^17 + 1 when k is right).  p >= 2^53 is then an integer, so with
    f = r - floor(r), computed with an error of at most 2^-53,
    D = p + floor(r) + [f > 1/2].  Where |f - 1/2| > 2^-40, more than 30
    times the error, the exact P lies on the same side of the half-integer
    and D is the correctly rounded value.  Nearer than that, among them the
    exact ties such as 1e15 + 0.25, and for nan, infinities, subnormals and
    magnitudes outside the range, the record is written from
    ``FLOAT_FMT % v``.  D = 10^17 carries into k.

    The digits come from scalar-divisor integer arithmetic and a table of
    four-digit groups; the layout, including trailing-zero removal, comes
    from a template per (k, significant digits).
    """
    n = x.size
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a < _FAST_MAX)
    a[~fast] = 1.0
    kid = np.floor(np.log10(a)).astype(np.intp) + _K_LIM
    D, frac = _scaled(a, kid, tab)
    step = (D < 10**16).astype(np.intp) - (D >= 10**17)
    fix = np.flatnonzero(step)
    if fix.size:
        kid[fix] -= step[fix]
        D[fix], frac[fix] = _scaled(a[fix], kid[fix], tab)
    D += frac > 0.5
    carry = D == 10**17
    D[carry] = 10**16
    kid += carry
    zero = x == 0
    D[zero] = 0
    kid[zero] = _K_LIM  # k = 0, shown as "0"
    exact = fast & (np.abs(frac - 0.5) > _HALF_MARGIN) & (D >= 10**16) & (D < 10**17)
    slow = np.flatnonzero(~(exact | zero))

    lead = D // 10**16
    rest = D - lead * 10**16
    upper = rest // 10**8
    groups = []  # digits 1-4, 5-8, 9-12 and 13-16
    for eight in (upper, rest - upper * 10**8):
        eight = eight.astype(np.uint32)
        high = eight // 10**4
        groups += [high, eight - high * 10**4]
    # position of the last nonzero digit after the lead
    last = [tab.quad_last[i].take(group) for i, group in enumerate(groups)]
    last = np.maximum(np.maximum(last[0], last[1]), np.maximum(last[2], last[3]))

    cls = kid * 18
    cls += last
    cls += 1
    # every class is in range; "clip" lets take write into out unbuffered
    tab.templates.take(cls, axis=0, out=out, mode="clip")
    out[:, _DIGITS] &= (lead + 48).astype(np.uint8)
    words = out.view(np.uint64)
    for col, group in enumerate(groups, start=1):
        words[:, col] &= tab.quads.take(group)
    out[:, _SIGN] = np.signbit(x) * np.uint8(ord("-"))
    if slow.size:
        text = b"".join((FLOAT_FMT % v).encode().ljust(_SEP, b"\0") for v in x[slow].tolist())
        out[slow, :_SEP] = np.frombuffer(text, np.uint8).reshape(-1, _SEP)


def format_block(block: np.ndarray, delimiter: str = " ") -> bytes:
    """Lines of one block of rows, byte for byte ``FLOAT_FMT`` with
    ``delimiter`` between the values of a row.

    Records are made and packed a chunk at a time in one reused buffer,
    which stays in cache.
    """
    rows, cols = block.shape
    if block.size == 0:
        return b"\n" * rows
    tab = _format_tables()
    values = block.ravel()
    size = min(_CHUNK, values.size)
    buf = bytearray(size * _WIDTH)
    chunk = np.frombuffer(buf, np.uint8).reshape(size, _WIDTH)
    parts = []
    for start in range(0, values.size, _CHUNK):
        stop = min(start + _CHUNK, values.size)
        out = chunk[: stop - start]
        _fill_records(values[start:stop], out, tab)
        out[:, _SEP] = ord(delimiter)
        out[(cols - 1 - start) % cols :: cols, _SEP] = ord("\n")
        chunk[stop - start :] = 0  # a short last chunk leaves no stale bytes
        parts.append(buf.translate(None, b"\0"))
    return b"".join(parts)
