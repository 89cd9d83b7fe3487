"""On-disk artifact formats.

All numeric text uses 17 significant digits, which round-trips IEEE
doubles exactly; reading back a written file therefore reproduces the
original arrays bit for bit.

The operator, gram and CSV writers format a block of rows at a time (one
node's ``Nt`` rows for STOP1) with ``floatfmt.format_block``, a numpy
kernel that produces the bytes of ``%.17g`` for a whole array, so the bytes
are those of formatting every value on its own.  ``write_stop1_lags`` writes the STOP1 file of a block-Toeplitz
map from its lag stack: each lag is formatted once and the rows are
spliced from those texts, so the file costs little more than its bytes.

``write_operators`` writes each operator's STOP1 file and gram on a pool of
forked processes, one per usable CPU, straight to disk, so no text crosses
a pipe.  A dense matrix is split into one range of whole nodes per worker,
whose part files are appended in order; the bytes are those of
``write_stop1``, ``write_stop1_lags`` and ``write_gram`` whatever the CPU
count.  ``read_stop1`` parses in the calling process: no command reads
STOP1 back, so it serves tests and export checks.

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

import os
import shutil
import threading
import time
import warnings

import numpy as np

from .floatfmt import FLOAT_FMT, format_block

#: ``write_operators`` calls with fewer entries in all their matrices run
#: in this process.
PARALLEL_MIN_VALUES = 1 << 18


def format_float(x: float) -> str:
    return FLOAT_FMT % float(x)


class FormatError(ValueError):
    """Malformed artifact file."""


def _write_rows(fh, matrix: np.ndarray, block_rows: int, delimiter: str = " ") -> None:
    """Write each row of a 2-D array as one line of values split by ``delimiter``.

    The text goes straight to ``fh`` from the process that formats it:
    handing it to another process through a pipe would cost about as much
    as formatting it.  ``write_operators`` runs whole files or row ranges in
    workers.
    """
    matrix = np.ascontiguousarray(matrix, dtype=float)
    for start in range(0, matrix.shape[0], block_rows):
        fh.write(format_block(matrix[start : start + block_rows], delimiter))


def _write_lag_rows(fh, resp: np.ndarray) -> None:
    """Write the rows of the block-Toeplitz matrix with impulse responses
    ``resp`` (M_tgt, Nt, M_src), entry ((i, k), (j, l)) = resp[i, k - l, j]
    for k >= l and 0 otherwise (``ndmap._toeplitz_expand``), without forming it.

    Row (i, k) holds, for each source node j, lags k, k-1, ..., 0 of
    resp[i, :, j] and then Nt-1-k zeros.  So, a target node i at a time,
    the text of each j is formatted once, as lags Nt-1, ..., 0 followed by
    Nt-1 zeros with a space after every entry, and block j of row (i, k) is
    the run of Nt entries that starts at its entry Nt-1-k.  The space ending
    a row becomes a newline.
    """
    m_tgt, nt, m_src = resp.shape
    if resp.size == 0:
        # no columns: each row is an empty line; no targets: no rows
        fh.write(b"\n" * (m_tgt * nt))
        return
    width = 2 * nt - 1
    texts = np.zeros((m_src, width))
    for lags in resp[:, ::-1, :]:
        texts[:, :nt] = lags.T
        text = bytearray(format_block(texts))
        chars = np.frombuffer(text, np.uint8)
        # every entry ends in the one space or newline after it
        ends = np.flatnonzero(chars <= ord(" "))
        chars[ends] = ord(" ")
        ends += 1
        begins = np.concatenate([[0], ends[:-1]])
        # by row k, then source node j: entries Nt-1-k to 2Nt-2-k
        firsts = begins.reshape(m_src, width)[:, :nt][:, ::-1].T
        lasts = ends.reshape(m_src, width)[:, nt - 1 :][:, ::-1].T
        view = memoryview(text)
        rows = bytearray().join(
            [view[a:b] for a, b in zip(firsts.ravel().tolist(), lasts.ravel().tolist())]
        )
        np.frombuffer(rows, np.uint8)[np.cumsum((lasts - firsts).sum(axis=1)) - 1] = ord("\n")
        fh.write(rows)


def _stop1_header(rows: int, cols: int, M: int, Nt: int, T: float) -> bytes:
    return f"STOP1 {rows} {cols} {M} {Nt} {format_float(T)}\n".encode()


def write_stop1(path, matrix: np.ndarray, M: int, Nt: int, T: float) -> None:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("STOP1 stores 2-D matrices")
    with open(path, "wb") as fh:
        fh.write(_stop1_header(*matrix.shape, M, Nt, T))
        _write_rows(fh, matrix, max(int(Nt), 1))


def write_stop1_lags(path, resp: np.ndarray, M: int, Nt: int, T: float) -> None:
    """Write the STOP1 file of the block-Toeplitz matrix whose impulse
    responses are ``resp`` (M_tgt, Nt, M_src): the bytes of ``write_stop1``
    on ``ndmap._toeplitz_expand(resp)``, from the stack alone."""
    resp = np.asarray(resp, dtype=float)
    if resp.ndim != 3 or resp.shape[1] != Nt:
        raise ValueError(f"a lag stack has shape (M_tgt, Nt={Nt}, M_src), got {resp.shape}")
    m_tgt, nt, m_src = resp.shape
    with open(path, "wb") as fh:
        fh.write(_stop1_header(m_tgt * nt, m_src * nt, M, Nt, T))
        _write_lag_rows(fh, resp)


#: Operators of the running ``write_operators`` calls, by path stem: the
#: matrix or lag stack, the gram, the header's M, Nt and T, and the row
#: bounds of its parts.  A forked worker inherits the table as it stood at
#: the fork, so it finds its operator there and none is pickled.
_WRITE_JOBS: dict[str, tuple] = {}


def _part_path(stem: str, part: int) -> str:
    """Where part ``part`` of ``<stem>.stop1`` is written: the file itself
    for the first part, which holds the header, else a part file."""
    return f"{stem}.stop1" if part == 0 else f"{stem}.stop1.part{part}"


def _write_part(task: tuple[str, int]) -> tuple[float, float, int]:
    """Write one part of an operator's STOP1 file, and with the first its
    gram; return its start and end ``perf_counter`` and the pid.

    ``perf_counter`` is system-wide monotonic on Linux, so the ends of parts
    written in different processes compare."""
    stem, part = task
    array, gram, M, Nt, T, cuts = _WRITE_JOBS[stem]
    start = time.perf_counter()
    if array.ndim == 3:
        write_stop1_lags(f"{stem}.stop1", array, M, Nt, T)
    else:
        with open(_part_path(stem, part), "wb") as fh:
            if part == 0:
                fh.write(_stop1_header(*array.shape, M, Nt, T))
            _write_rows(fh, array[cuts[part] : cuts[part + 1]], max(int(Nt), 1))
    if part == 0:
        write_gram(f"{stem}.gram", gram)
    return start, time.perf_counter(), os.getpid()


def _stop1_shape(array: np.ndarray) -> tuple[int, int]:
    """Rows and columns of the STOP1 matrix of a dense matrix or a lag stack."""
    if array.ndim == 3:
        m_tgt, nt, m_src = array.shape
        return m_tgt * nt, m_src * nt
    return array.shape


def _row_cuts(array: np.ndarray, Nt: int, parts: int) -> list[int]:
    """Row bounds of the parts an operator is written in: for a dense
    matrix one range of whole nodes (``Nt`` rows each) per part, larger
    ranges first and empty ones dropped, but for the first, which holds the
    header; a lag stack is written whole."""
    rows = _stop1_shape(array)[0]
    if array.ndim == 3:
        return [0, rows]
    nt = max(int(Nt), 1)
    nodes = -(-rows // nt)
    cuts = [0] + [min(rows, nt * -(-nodes * p // parts)) for p in range(1, parts + 1)]
    return cuts[:2] + [hi for lo, hi in zip(cuts[1:], cuts[2:]) if hi > lo]


def write_operators(
    directory, operators: dict, M: int, Nt: int, T: float
) -> tuple[dict[str, float], int]:
    """Write ``<name>.stop1`` and ``<name>.gram`` for each ``name: (array, gram)``.

    ``array`` is a dense matrix, written as ``write_stop1`` writes it, or a
    lag stack (M_tgt, Nt, M_src), written as ``write_stop1_lags`` does.
    With at least ``PARALLEL_MIN_VALUES`` matrix entries in all, the files
    are written on a fork-based pool of one worker per usable CPU, which
    start in milliseconds without importing anything again.  There each
    dense matrix is split into one range of whole nodes per worker; the
    first range writes the header into ``<name>.stop1`` and later ones
    write part files, which this process appends in order and deletes, so
    the bytes do not depend on the CPU count.  A lag stack is one task.
    Everything runs in this process, one whole file per task, on a host
    with one CPU or no ``fork``, and while other Python threads run, since
    a forked child could inherit a lock one of them holds.  Tasks start in
    the dict's order, so list the costliest first.  No part file outlives
    the call, whether it succeeds or a task fails.  Returns each name's
    seconds, from its first part's start to its last part's end, and the
    number of processes that wrote.
    """
    operators = {name: (np.asarray(a, dtype=float), g) for name, (a, g) in operators.items()}
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    cpus = cpus or 1
    entries = sum(int(np.prod(_stop1_shape(array))) for array, _ in operators.values())
    fork = None
    if entries >= PARALLEL_MIN_VALUES and cpus >= 2 and threading.active_count() == 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            fork = multiprocessing.get_context("fork")
    parts = 1 if fork is None else cpus
    jobs = {
        os.path.join(directory, name): (array, gram, M, Nt, T, _row_cuts(array, Nt, parts))
        for name, (array, gram) in operators.items()
    }
    later_parts = {stem: range(1, len(cuts) - 1) for stem, (*_, cuts) in jobs.items()}
    tasks = [(stem, part) for stem, later in later_parts.items() for part in (0, *later)]
    _WRITE_JOBS.update(jobs)  # before the workers fork, so they inherit it
    try:
        if fork is None:
            done = list(map(_write_part, tasks))
        else:
            with fork.Pool(min(cpus, len(tasks))) as pool:
                done = pool.map(_write_part, tasks, chunksize=1)
        for stem, later in later_parts.items():
            if later:
                with open(f"{stem}.stop1", "ab") as dst:
                    for part in later:
                        with open(_part_path(stem, part), "rb") as src:
                            shutil.copyfileobj(src, dst)
    finally:
        for stem, later in later_parts.items():
            _WRITE_JOBS.pop(stem, None)
            for part in later:
                # a directory in a part's place made it fail, and is not ours
                if os.path.isfile(path := _part_path(stem, part)):
                    os.remove(path)
    spans: dict[str, tuple[float, float]] = {}
    for (stem, _), (start, end, _) in zip(tasks, done):
        first, last = spans.get(stem, (start, end))
        spans[stem] = min(first, start), max(last, end)
    seconds = {name: spans[stem][1] - spans[stem][0] for name, stem in zip(operators, jobs)}
    return seconds, len({pid for _, _, pid in done})


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
        with warnings.catch_warnings():
            # an empty file, or one of blank lines, holds no weights
            warnings.simplefilter("ignore", UserWarning)
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


def _read_csv(path, header: str) -> np.ndarray:
    """The rows under ``header`` of a file ``_write_csv`` wrote, as a float
    array with one column per header field; blank lines are skipped."""
    with open(path) as fh:
        found = fh.readline().strip()
        if found != header:
            raise FormatError(f"{path}: unexpected header {found!r}, expected {header!r}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    width = header.count(",") + 1
    try:
        if any(len(row) != width for row in rows):
            raise ValueError(f"a row without {width} entries")
        return np.array([[float(v) for v in row] for row in rows]).reshape(-1, width)
    except ValueError as exc:
        raise FormatError(f"{path}: malformed row: {exc}") from exc


def read_spectrum_csv(path) -> np.ndarray:
    return _read_csv(path, "n,lambda")[:, 1]


#: The columns of indicator.csv.
_INDICATOR_HEADER = "y1,y2,s,W,normalized,mask,truth"


def write_indicator_csv(path, grid) -> None:
    """Write an indicator grid, one _INDICATOR_HEADER row per probe point."""
    points = np.array([(*p.y, p.s) for p in grid.points], dtype=float).reshape(-1, 3)
    columns = [points, grid.values, grid.normalized, grid.mask, grid.truth]
    _write_csv(path, _INDICATOR_HEADER, columns)


def read_indicator_csv(path) -> dict:
    table = dict(zip(_INDICATOR_HEADER.split(","), _read_csv(path, _INDICATOR_HEADER).T))
    for flag in ("mask", "truth"):
        table[flag] = table[flag].astype(bool)
    return table


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
