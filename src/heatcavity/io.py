"""On-disk artifact formats.

All numeric text uses 17 significant digits, which round-trips IEEE
doubles exactly; reading back a written file therefore reproduces the
original arrays bit for bit.

The operator and gram writers format each distinct value of a block of
rows once (one node's ``Nt`` rows for STOP1) and assemble the lines from
those strings.  The Λ maps are lag operators whose rows repeat the same
few lags, so most of a block is repeats; the bytes are the same as
formatting every value on its own, because the same ``%.17g`` formats the
same doubles.  Values are told apart by bit pattern, so ``-0.0`` keeps
its sign.

STOP1 bodies of ``PARALLEL_MIN_VALUES`` entries or more are formatted and
parsed in a pool of forked processes, one per usable CPU.  The work is
split by the matrix (one task per node block) or by the file (one task
per line-aligned range of about ``RANGE_BYTES``), never by the worker
count, and results are taken in order, so the bytes written and the
arrays read do not depend on how many CPUs ran them.

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
import threading
from contextlib import contextmanager
from io import BytesIO

import numpy as np

FLOAT_FMT = "%.17g"

#: Matrices with fewer entries are formatted and parsed in this process.
PARALLEL_MIN_VALUES = 1 << 18

#: Nominal size of one parse task; each range ends at the next line end.
RANGE_BYTES = 1 << 20


def format_float(x: float) -> str:
    return FLOAT_FMT % float(x)


class FormatError(ValueError):
    """Malformed artifact file."""


@contextmanager
def _task_map(tasks: int, values: int):
    """Yield an in-order ``map`` for ``tasks`` independent tasks.

    Large jobs of more than one task go to a fork-based pool with one worker
    per usable CPU; everything else runs on the builtin ``map`` in this
    process.  So does a job on a host with one CPU or no ``fork``, and one
    started while other Python threads run, since a forked child could
    inherit a lock one of them holds.  Forked workers start in milliseconds
    without importing anything again.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cpus or 1, tasks)
    if values >= PARALLEL_MIN_VALUES and workers >= 2 and threading.active_count() == 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            with multiprocessing.get_context("fork").Pool(workers) as pool:
                yield pool.imap
            return
    yield map


def _format_block(block: np.ndarray) -> bytes:
    """Lines of one block of rows; each distinct bit pattern is formatted once."""
    uniq, inv = np.unique(block.view(np.uint64), return_inverse=True)
    text = ((FLOAT_FMT + "\n") * uniq.size) % tuple(uniq.view(float).tolist())
    words = np.array(text.split("\n")[:-1], dtype=object)
    lines = words[inv].reshape(block.shape).tolist()
    return "".join(" ".join(line) + "\n" for line in lines).encode()


def _write_rows(fh, matrix: np.ndarray, block_rows: int) -> None:
    """Write each row of a 2-D array as one line of space-separated values."""
    matrix = np.ascontiguousarray(matrix, dtype=float)
    starts = range(0, matrix.shape[0], block_rows)
    blocks = (matrix[start : start + block_rows] for start in starts)
    with _task_map(len(starts), matrix.size) as task_map:
        for text in task_map(_format_block, blocks):
            fh.write(text)


def write_stop1(path, matrix: np.ndarray, M: int, Nt: int, T: float) -> None:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("STOP1 stores 2-D matrices")
    rows, cols = matrix.shape
    with open(path, "wb") as fh:
        fh.write(f"STOP1 {rows} {cols} {M} {Nt} {format_float(T)}\n".encode())
        _write_rows(fh, matrix, max(int(Nt), 1))


def _read_header(fh, path) -> dict:
    header = fh.readline().split()
    if len(header) != 6 or header[0] != b"STOP1":
        raise FormatError(f"{path}: not a STOP1 header")
    try:
        rows, cols, m, nt = (int(v) for v in header[1:5])
        horizon = float(header[5])
    except ValueError as exc:
        raise FormatError(f"{path}: not a STOP1 header") from exc
    return {"rows": rows, "cols": cols, "M": m, "Nt": nt, "T": horizon}


def read_stop1_header(path) -> dict:
    """The STOP1 header fields, without reading the body."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def _parse_range(span: tuple) -> np.ndarray:
    """Parse the lines in bytes ``[start, stop)`` of a file as a 2-D array."""
    path, start, stop = span
    with open(path, "rb") as fh:
        fh.seek(start)
        lines = BytesIO(fh.read(stop - start))
    try:
        return np.loadtxt(lines, ndmin=2)
    except ValueError as exc:
        raise FormatError(f"{path}: malformed line in bytes {start}-{stop}: {exc}") from exc


def read_stop1(path) -> tuple[np.ndarray, dict]:
    with open(path, "rb") as fh:
        head = _read_header(fh, path)
        bounds = [fh.tell()]
        end = fh.seek(0, os.SEEK_END)
        while bounds[-1] < end:
            fh.seek(min(bounds[-1] + RANGE_BYTES, end) - 1)
            fh.readline()
            bounds.append(fh.tell())
    rows, cols = head["rows"], head["cols"]
    expected = f"{path}: expected {rows}x{cols} entries"
    # every entry takes a digit and a separator; refuse before allocating
    if rows < 0 or cols < 0 or 2 * rows * cols > end - bounds[0]:
        raise FormatError(f"{expected}, found {end - bounds[0]} bytes of rows")
    data = np.empty((rows, cols))
    filled = 0
    spans = [(path, start, stop) for start, stop in zip(bounds, bounds[1:])]
    with _task_map(len(spans), rows * cols) as task_map:
        for part in task_map(_parse_range, spans):
            if part.size == 0:
                continue
            if part.shape[1] != cols:
                raise FormatError(f"{expected}, found a row of {part.shape[1]} values")
            if filled + len(part) > rows:
                raise FormatError(f"{expected}, found more than {rows} rows")
            data[filled : filled + len(part)] = part
            filled += len(part)
    if filled != rows:
        raise FormatError(f"{expected}, found {filled} rows")
    return data, head


def write_gram(path, gram: np.ndarray) -> None:
    gram = np.asarray(gram, dtype=float)
    if gram.ndim != 1:
        raise ValueError("a gram file stores one weight per line")
    with open(path, "wb") as fh:
        _write_rows(fh, gram.reshape(-1, 1), max(gram.size, 1))


def read_gram(path) -> np.ndarray:
    out = np.loadtxt(path, ndmin=1)
    if out.ndim != 1 or np.any(out <= 0):
        raise FormatError(f"{path}: gram weights must be one positive value per line")
    return out


def write_spectrum_csv(path, lambdas: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("n,lambda\n")
        for i, lam in enumerate(np.asarray(lambdas, dtype=float), start=1):
            fh.write(f"{i},{format_float(lam)}\n")


def read_spectrum_csv(path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "n,lambda":
            raise FormatError(f"{path}: unexpected spectrum header {header!r}")
        vals = [float(line.split(",")[1]) for line in fh if line.strip()]
    return np.asarray(vals)


def write_indicator_csv(path, grid) -> None:
    """Write an indicator grid; columns y1,y2,s,W,normalized,mask,truth."""
    with open(path, "w") as fh:
        fh.write("y1,y2,s,W,normalized,mask,truth\n")
        for p, w, nv, mk, tr in zip(grid.points, grid.values, grid.normalized, grid.mask, grid.truth):
            fh.write(
                ",".join(
                    (
                        format_float(p.y[0]),
                        format_float(p.y[1]),
                        format_float(p.s),
                        format_float(w),
                        format_float(nv),
                        str(int(mk)),
                        str(int(tr)),
                    )
                )
                + "\n"
            )


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
