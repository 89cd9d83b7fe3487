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

import numpy as np

FLOAT_FMT = "%.17g"


def format_float(x: float) -> str:
    return FLOAT_FMT % float(x)


class FormatError(ValueError):
    """Malformed artifact file."""


def _write_rows(fh, matrix: np.ndarray, block_rows: int) -> None:
    """Write each row of a 2-D array as one line of space-separated values.

    Each block of ``block_rows`` rows formats its distinct bit patterns
    once and indexes the lines together from those strings.
    """
    matrix = np.ascontiguousarray(matrix, dtype=float)
    for start in range(0, matrix.shape[0], block_rows):
        block = matrix[start : start + block_rows]
        uniq, inv = np.unique(block.view(np.uint64), return_inverse=True)
        words = np.array([FLOAT_FMT % v for v in uniq.view(float).tolist()], dtype=object)
        lines = words[inv].reshape(block.shape).tolist()
        fh.write("".join(" ".join(line) + "\n" for line in lines))


def write_stop1(path, matrix: np.ndarray, M: int, Nt: int, T: float) -> None:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("STOP1 stores 2-D matrices")
    rows, cols = matrix.shape
    with open(path, "w") as fh:
        fh.write(f"STOP1 {rows} {cols} {M} {Nt} {format_float(T)}\n")
        _write_rows(fh, matrix, max(int(Nt), 1))


def read_stop1(path) -> tuple[np.ndarray, dict]:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 6 or header[0] != "STOP1":
            raise FormatError(f"{path}: not a STOP1 header")
        rows, cols, m, nt = (int(v) for v in header[1:5])
        horizon = float(header[5])
        data = np.loadtxt(fh, ndmin=2)
    if data.shape != (rows, cols):
        raise FormatError(f"{path}: expected {rows}x{cols} entries, found {data.shape}")
    return data, {"rows": rows, "cols": cols, "M": m, "Nt": nt, "T": horizon}


def write_gram(path, gram: np.ndarray) -> None:
    gram = np.asarray(gram, dtype=float)
    if gram.ndim != 1:
        raise ValueError("a gram file stores one weight per line")
    with open(path, "w") as fh:
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
