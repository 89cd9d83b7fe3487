"""On-disk artifact formats.

All numeric text uses 17 significant digits, which round-trips IEEE
doubles exactly; reading back a written file therefore reproduces the
original arrays bit for bit.

The operator, gram and CSV writers format a block of rows at a time (one
node's ``Nt`` rows for STOP1) with a numpy kernel that produces the bytes
of ``%.17g`` for a whole array (see ``_fill_records``); values it cannot
prove exact, such as nan, infinities, subnormals and decimal ties, go
through ``%.17g`` itself, so the bytes are those of formatting every value
on its own.  A block in which at most half the values are distinct
formats each distinct bit pattern once: the Λ maps are lag operators whose
rows repeat the same few lags.  Telling values apart by bit pattern keeps
the sign of ``-0.0``.

``write_operators`` writes each operator's STOP1 file and gram whole in one
worker of a pool of forked processes, one per usable CPU, straight to
disk, so no text crosses a pipe and every byte is that of ``write_stop1``
and ``write_gram``.  ``read_stop1`` parses in the calling process: no
command reads STOP1 back, so it serves tests and export checks.

Formats:
  * STOP1 — dense operator matrix: ASCII header ``STOP1 <rows> <cols> <M>
    <Nt> <T>`` followed by one space-separated row per line.  The basis
    behind the columns/rows is node-major with the time cell varying
    fastest (index = node * Nt + cell).
  * ``.gram`` companion — one positive weight per line, same ordering.
  * CSV tables for spectra and indicator grids.
  * Flat ``key=value`` records for configs, metadata, and summaries.
"""

from __future__ import annotations

import functools
import os
import threading
import time
import warnings
from typing import NamedTuple

import numpy as np

FLOAT_FMT = "%.17g"

#: ``write_operators`` calls with fewer entries in all their matrices run
#: in this process.
PARALLEL_MIN_VALUES = 1 << 18


def format_float(x: float) -> str:
    return FLOAT_FMT % float(x)


class FormatError(ValueError):
    """Malformed artifact file."""


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


def _format_block(block: np.ndarray, delimiter: str = " ") -> bytes:
    """Lines of one C-contiguous block of rows, byte for byte ``FLOAT_FMT``
    with ``delimiter`` between the values of a row.

    When at most half of the block's bit patterns are distinct, each is
    formatted once into a record as wide as the longest text plus the
    separator, and those records are repeated.  Records are made and
    packed a chunk at a time in one reused buffer, which stays in cache.
    """
    rows, cols = block.shape
    if block.size == 0:
        return b"\n" * rows
    tab = _format_tables()
    values = block.ravel()
    bits = values.view(np.uint64)
    ordered = np.sort(bits)
    first = np.empty(bits.size, bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    distinct = ordered[first] if 2 * np.count_nonzero(first) <= bits.size else None
    width, sep = _WIDTH, _SEP
    if distinct is not None:
        known = np.empty((distinct.size, _WIDTH), np.uint8)
        _fill_records(distinct.view(float), known, tab)
        known[:, _SEP] = ord("\n")
        texts = known.tobytes().translate(None, b"\0").split(b"\n")[:-1]
        width = max(map(len, texts)) + 1
        sep = width - 1
        known = b"".join(text.ljust(width, b"\0") for text in texts)
        known = np.frombuffer(known, np.uint8).reshape(-1, width)
    buf = bytearray(_CHUNK * width)
    chunk = np.frombuffer(buf, np.uint8).reshape(_CHUNK, width)
    parts = []
    for start in range(0, bits.size, _CHUNK):
        stop = min(start + _CHUNK, bits.size)
        out = chunk[: stop - start]
        if distinct is None:
            _fill_records(values[start:stop], out, tab)
        else:
            index = np.searchsorted(distinct, bits[start:stop])
            known.take(index, axis=0, out=out, mode="clip")
        out[:, sep] = ord(delimiter)
        out[(cols - 1 - start) % cols :: cols, sep] = ord("\n")
        chunk[stop - start :] = 0  # a short last chunk leaves no stale bytes
        parts.append(buf.translate(None, b"\0"))
    return b"".join(parts)


def _write_rows(fh, matrix: np.ndarray, block_rows: int, delimiter: str = " ") -> None:
    """Write each row of a 2-D array as one line of values split by ``delimiter``.

    The text goes straight to ``fh`` from the process that formats it:
    handing it to another process through a pipe would cost about as much
    as formatting it.  ``write_operators`` runs whole files in workers.
    """
    matrix = np.ascontiguousarray(matrix, dtype=float)
    for start in range(0, matrix.shape[0], block_rows):
        fh.write(_format_block(matrix[start : start + block_rows], delimiter))


def write_stop1(path, matrix: np.ndarray, M: int, Nt: int, T: float) -> None:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("STOP1 stores 2-D matrices")
    rows, cols = matrix.shape
    with open(path, "wb") as fh:
        fh.write(f"STOP1 {rows} {cols} {M} {Nt} {format_float(T)}\n".encode())
        _write_rows(fh, matrix, max(int(Nt), 1))


#: Operators of the running ``write_operators`` calls, by path stem.  A
#: forked worker inherits the table as it stood at the fork, so it finds its
#: matrix there and none is pickled.
_WRITE_JOBS: dict[str, tuple] = {}


def _write_operator(stem: str) -> tuple[float, int]:
    """Write ``<stem>.stop1`` and ``<stem>.gram``; return the seconds and the pid."""
    matrix, gram, M, Nt, T = _WRITE_JOBS[stem]
    start = time.perf_counter()
    write_stop1(f"{stem}.stop1", matrix, M, Nt, T)
    write_gram(f"{stem}.gram", gram)
    return time.perf_counter() - start, os.getpid()


def write_operators(
    directory, operators: dict, M: int, Nt: int, T: float
) -> tuple[dict[str, float], int]:
    """Write ``<name>.stop1`` and ``<name>.gram`` for each ``name: (matrix, gram)``.

    Each operator is one task, which formats and writes both of its files
    itself, so the bytes do not depend on the CPU count.  With at least
    ``PARALLEL_MIN_VALUES`` entries in all, tasks run on a fork-based pool
    of one worker per usable CPU, which start in milliseconds without
    importing anything again; they run in this process on a host with one
    CPU or no ``fork``, and while other Python threads run, since a forked
    child could inherit a lock one of them holds.  Tasks start in the dict's
    order, so list the costliest first.  Returns each name's seconds,
    measured in the process that wrote them, and the number of processes.
    """
    jobs = {
        os.path.join(directory, name): (matrix, gram, M, Nt, T)
        for name, (matrix, gram) in operators.items()
    }
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cpus or 1, len(jobs))
    values = sum(np.size(job[0]) for job in jobs.values())
    fork = None
    if values >= PARALLEL_MIN_VALUES and workers >= 2 and threading.active_count() == 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            fork = multiprocessing.get_context("fork")
    _WRITE_JOBS.update(jobs)  # before the workers fork, so they inherit it
    try:
        if fork is None:
            done = list(map(_write_operator, jobs))
        else:
            with fork.Pool(workers) as pool:
                done = pool.map(_write_operator, jobs)
    finally:
        for stem in jobs:
            _WRITE_JOBS.pop(stem, None)
    seconds = {name: s for name, (s, _) in zip(operators, done)}
    return seconds, len({pid for _, pid in done})


def read_stop1(path) -> tuple[np.ndarray, dict]:
    with open(path, "rb") as fh:
        try:
            magic, *sizes, horizon = fh.readline().split()
            rows, cols, m, nt = map(int, sizes)
            head = {"rows": rows, "cols": cols, "M": m, "Nt": nt, "T": float(horizon)}
        except ValueError as exc:
            raise FormatError(f"{path}: not a STOP1 header") from exc
        if magic != b"STOP1":
            raise FormatError(f"{path}: not a STOP1 header")
        expected = f"{path}: expected {rows}x{cols} entries"
        start = fh.tell()
        size = fh.seek(0, os.SEEK_END) - start
        # every entry takes a digit and a separator; refuse before allocating
        if rows < 0 or cols < 0 or 2 * rows * cols > size:
            raise FormatError(f"{expected}, found {size} bytes of rows")
        fh.seek(start)
        if cols == 0:
            # a row without entries is an empty line
            if fh.read(rows + 1) != b"\n" * rows:
                raise FormatError(f"{expected}, found a body other than {rows} empty lines")
            return np.empty((rows, 0)), head
        try:
            with warnings.catch_warnings():
                # a body of blank lines is refused below as too few rows
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, ndmin=2)
        except ValueError as exc:
            raise FormatError(f"{path}: malformed line: {exc}") from exc
    if data.size and data.shape[1] != cols:
        raise FormatError(f"{expected}, found a row of {data.shape[1]} values")
    if len(data) > rows:
        raise FormatError(f"{expected}, found more than {rows} rows")
    if len(data) != rows:
        raise FormatError(f"{expected}, found {len(data)} rows")
    return data, head


def write_gram(path, gram: np.ndarray) -> None:
    gram = np.asarray(gram, dtype=float)
    if gram.ndim != 1:
        raise ValueError("a gram file stores one weight per line")
    with open(path, "wb") as fh:
        _write_rows(fh, gram.reshape(-1, 1), max(gram.size, 1))


def read_gram(path) -> np.ndarray:
    try:
        out = np.loadtxt(path, ndmin=1)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if out.ndim != 1 or not np.all(np.isfinite(out) & (out > 0)):
        raise FormatError(f"{path}: gram weights must be one finite positive value per line")
    return out


def _write_csv(path, header: str, columns: list) -> None:
    """Write ``header`` and the table of ``columns`` side by side (arrays of
    equal length), one comma-separated ``FLOAT_FMT`` row per line; integers
    and booleans print as such."""
    table = np.column_stack(columns)
    with open(path, "wb") as fh:
        fh.write(f"{header}\n".encode())
        _write_rows(fh, table, max(len(table), 1), ",")


def write_spectrum_csv(path, lambdas: np.ndarray) -> None:
    lambdas = np.asarray(lambdas, dtype=float)
    _write_csv(path, "n,lambda", [np.arange(1, lambdas.size + 1), lambdas])


def read_spectrum_csv(path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "n,lambda":
            raise FormatError(f"{path}: unexpected spectrum header {header!r}")
        vals = [float(line.split(",")[1]) for line in fh if line.strip()]
    return np.asarray(vals)


def write_indicator_csv(path, grid) -> None:
    """Write an indicator grid; columns y1,y2,s,W,normalized,mask,truth."""
    points = np.array([(*p.y, p.s) for p in grid.points], dtype=float).reshape(-1, 3)
    columns = [points, grid.values, grid.normalized, grid.mask, grid.truth]
    _write_csv(path, "y1,y2,s,W,normalized,mask,truth", columns)


def read_indicator_csv(path) -> dict:
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "y1,y2,s,W,normalized,mask,truth":
            raise FormatError(f"{path}: unexpected indicator header {header!r}")
        cols = [[], [], [], [], [], [], []]
        for line in fh:
            if not line.strip():
                continue
            parts = line.split(",")
            if len(parts) != 7:
                raise FormatError(f"{path}: malformed indicator row {line!r}")
            for c, v in zip(cols, parts):
                c.append(float(v))
    y1, y2, s, w, nv, mk, tr = (np.asarray(c) for c in cols)
    return {
        "y1": y1,
        "y2": y2,
        "s": s,
        "W": w,
        "normalized": nv,
        "mask": mk.astype(bool),
        "truth": tr.astype(bool),
    }


def write_kv(path, record: dict) -> None:
    """Flat key=value record; values are written as-is after str()."""
    with open(path, "w") as fh:
        for key, val in record.items():
            if "=" in str(key) or "\n" in str(key) or "\n" in str(val):
                raise ValueError(f"key/value not representable in flat record: {key!r}")
            fh.write(f"{key}={val}\n")


def read_kv(path) -> dict:
    out: dict[str, str] = {}
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            if "=" not in line:
                raise FormatError(f"{path}:{ln}: expected key=value, got {line!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out
