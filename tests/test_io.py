"""Artifact formats: bit-exact round trips and malformed-input rejection."""

import subprocess
import sys
import threading

import numpy as np
import pytest

from heatcavity import io as hio
from heatcavity.ndmap import _toeplitz_expand
from heatcavity.recon import IndicatorGrid, ProbePoint

TRICKY = np.array([0.1, 1.0 / 3.0, -1e308, 1e-300, 0.35, 0.0, -2.5e-17, 7.0])


class TestFormatFloat:
    def test_round_trips_doubles_exactly(self):
        for x in TRICKY:
            assert float(hio.format_float(x)) == x

    def test_shortest_forms(self):
        assert hio.format_float(7.0) == "7"
        assert hio.format_float(0.5) == "0.5"


class TestStop1:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(5)
        mat = rng.standard_normal((6, 8)) * 10.0 ** rng.integers(-12, 12, (6, 8))
        path = tmp_path / "op.stop1"
        hio.write_stop1(path, mat, M=2, Nt=4, T=0.5)
        back, header = hio.read_stop1(path)
        assert np.array_equal(back, mat)
        assert header == {"rows": 6, "cols": 8, "M": 2, "Nt": 4, "T": 0.5}

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError):
            hio.write_stop1(tmp_path / "x.stop1", np.arange(4.0), M=1, Nt=4, T=1.0)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.stop1"
        path.write_text("NOPE 2 2 1 2 0.5\n1 2\n3 4\n")
        with pytest.raises(hio.FormatError, match="not a STOP1 header"):
            hio.read_stop1(path)

    def test_rejects_truncated_body(self, tmp_path):
        path = tmp_path / "short.stop1"
        path.write_text("STOP1 3 2 1 2 0.5\n1 2\n3 4\n")
        with pytest.raises(hio.FormatError, match="expected 3x2"):
            hio.read_stop1(path)

    def test_rejects_short_header(self, tmp_path):
        path = tmp_path / "hdr.stop1"
        path.write_text("STOP1 2 2\n1 2\n3 4\n")
        with pytest.raises(hio.FormatError):
            hio.read_stop1(path)

    @pytest.mark.parametrize("size", ["100000 100000", "-2 2"], ids=["huge", "negative"])
    def test_rejects_header_the_body_cannot_hold(self, tmp_path, size):
        path = tmp_path / "big.stop1"
        path.write_text(f"STOP1 {size} 1 2 0.5\n1 2\n3 4\n")
        with pytest.raises(hio.FormatError, match="bytes of rows"):
            hio.read_stop1(path)

    def test_rejects_extra_rows(self, tmp_path):
        path = tmp_path / "long.stop1"
        path.write_text("STOP1 1 2 1 1 0.5\n1 2\n3 4\n")
        with pytest.raises(hio.FormatError, match="more than 1 rows"):
            hio.read_stop1(path)

    @pytest.mark.parametrize("range_bytes", [1 << 20, 1], ids=["one_range", "range_per_line"])
    @pytest.mark.parametrize(
        "body, width",
        [("1 2\n3 4\n5 6 7\n8 9 10\n", 2), ("1 2 3\n4 5 6\n7 8\n9 10\n", 3)],
        ids=["wider", "narrower"],
    )
    def test_ragged_rows_name_the_file(self, tmp_path, monkeypatch, range_bytes, body, width):
        # one byte per range puts every width change on a range boundary
        monkeypatch.setattr(hio, "RANGE_BYTES", range_bytes)
        path = tmp_path / "ragged.stop1"
        path.write_text(f"STOP1 4 {width} 2 2 0.5\n" + body)
        with pytest.raises(hio.FormatError, match="ragged.stop1"):
            hio.read_stop1(path)

    def test_rejects_non_numeric_entry(self, tmp_path):
        path = tmp_path / "word.stop1"
        path.write_text("STOP1 2 2 1 2 0.5\n1 2\n3 x\n")
        with pytest.raises(hio.FormatError, match="word.stop1"):
            hio.read_stop1(path)

    def test_header_alone(self, tmp_path):
        path = tmp_path / "op.stop1"
        hio.write_stop1(path, np.ones((4, 6)), M=2, Nt=2, T=0.25)
        assert hio.read_stop1_header(path) == {"rows": 4, "cols": 6, "M": 2, "Nt": 2, "T": 0.25}

    def test_no_columns_round_trip(self, tmp_path):
        path = tmp_path / "op.stop1"
        hio.write_stop1(path, np.zeros((3, 0)), M=1, Nt=2, T=0.5)
        back, header = hio.read_stop1(path)
        assert back.shape == (3, 0)
        assert (header["rows"], header["cols"]) == (3, 0)

    @pytest.mark.parametrize("body", ["\n\n", "\n\n\n\n", "1\n\n\n", " \n\n\n"])
    def test_no_columns_needs_exactly_rows_empty_lines(self, tmp_path, body):
        path = tmp_path / "op.stop1"
        path.write_text("STOP1 3 0 1 2 0.5\n" + body)
        with pytest.raises(hio.FormatError, match="op.stop1"):
            hio.read_stop1(path)

    def test_many_ranges_round_trip_bitwise(self, tmp_path, monkeypatch):
        matrix, nt = WRITER_CASES["specials"]
        path = tmp_path / "op.stop1"
        hio.write_stop1(path, matrix, M=2, Nt=nt, T=0.5)
        monkeypatch.setattr(hio, "RANGE_BYTES", 7)
        back, _ = hio.read_stop1(path)
        assert np.array_equal(back.view(np.uint64), matrix.view(np.uint64))


class _PoolSpy:
    """Counts fork-pool start-ups by wrapping ``multiprocessing.get_context``."""

    def __init__(self, monkeypatch, cpus):
        import multiprocessing

        self.starts = 0
        real = multiprocessing.get_context

        def spy(method=None):
            self.starts += 1
            return real(method)

        monkeypatch.setattr(multiprocessing, "get_context", spy)
        monkeypatch.setattr(hio.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


class TestWorkerCount:
    """STOP1 bytes and parsed arrays do not depend on how many CPUs ran them."""

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_lag_operator_bytes_and_read_back(self, tmp_path, monkeypatch, cpus):
        matrix, nt = WRITER_CASES["lag_many_blocks"]
        assert matrix.size >= hio.PARALLEL_MIN_VALUES
        spy = _PoolSpy(monkeypatch, cpus)
        path = tmp_path / "op.stop1"
        hio.write_stop1(path, matrix, M=16, Nt=nt, T=0.5)
        assert path.read_bytes() == stop1_reference(matrix, 16, nt, 0.5)
        assert path.stat().st_size > 2 * hio.RANGE_BYTES
        back, _ = hio.read_stop1(path)
        assert np.array_equal(back.view(np.uint64), matrix.view(np.uint64))
        assert spy.starts == (2 if cpus == 2 else 0)

    def test_single_block_write_and_small_read_start_no_process(self, tmp_path, monkeypatch):
        spy = _PoolSpy(monkeypatch, 2)
        big_block = _rng.standard_normal((8, hio.PARALLEL_MIN_VALUES // 8 + 1))
        hio.write_stop1(tmp_path / "one.stop1", big_block, M=1, Nt=8, T=0.5)
        small, nt = WRITER_CASES["toeplitz"]
        hio.write_stop1(tmp_path / "small.stop1", small, M=3, Nt=nt, T=0.5)
        back, _ = hio.read_stop1(tmp_path / "small.stop1")
        assert np.array_equal(back, small)
        hio.write_gram(tmp_path / "g.gram", np.ones(hio.PARALLEL_MIN_VALUES))
        assert spy.starts == 0

    def test_no_fork_while_other_threads_run(self, tmp_path, monkeypatch):
        spy = _PoolSpy(monkeypatch, 2)
        matrix, nt = WRITER_CASES["lag_many_blocks"]
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            hio.write_stop1(tmp_path / "op.stop1", matrix, M=16, Nt=nt, T=0.5)
            back, _ = hio.read_stop1(tmp_path / "op.stop1")
        finally:
            release.set()
            other.join(30)
        assert not other.is_alive()
        assert spy.starts == 0
        assert np.array_equal(back.view(np.uint64), matrix.view(np.uint64))


def stop1_reference(matrix, M, Nt, T) -> bytes:
    """Reference rendering: every value formatted on its own."""
    matrix = np.asarray(matrix, dtype=float)
    rows, cols = matrix.shape
    head = f"STOP1 {rows} {cols} {M} {Nt} {hio.format_float(T)}\n"
    body = "".join(" ".join(hio.format_float(v) for v in row) + "\n" for row in matrix)
    return (head + body).encode()


_rng = np.random.default_rng(11)
_SPECIALS = np.array(
    [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, 0.1, 7.0]
)


def _with_ulps(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, 0), np.nextafter(values, np.inf)])


_MAX = np.finfo(float).max
#: Values at the edges of the vectorized formatter and of %g's layout.
_EDGES = {
    "powers of ten": _with_ulps([float(f"1e{k}") for k in range(-280, 281)]),
    "notation boundaries": _with_ulps([1e-5, 9.9999999999999995e-5, 1e16, 1e17]),
    "exact ties": np.array([1e15 + 0.25, 1e15 + 0.75, 2e15 + 0.25]),
    "subnormals": np.array([5e-324, 1e-310, 2.2250738585072009e-308]),
    "specials": np.array([0.0, -0.0, np.inf, -np.inf, np.nan, _MAX, -_MAX]),
}
_EDGE_ROW = np.concatenate(list(_EDGES.values()))
WRITER_CASES = {
    # rows of one node repeat the same lags; 5 rows per node
    "toeplitz": (_toeplitz_expand(_rng.standard_normal((3, 5, 4))), 5),
    "dense": (_rng.standard_normal((12, 9)) * 10.0 ** _rng.integers(-20, 20, (12, 9)), 4),
    "signed_zeros": (np.array([[0.0, -0.0, 0.0], [-0.0, -0.0, 0.0]]), 2),
    "specials": (np.tile(_SPECIALS, (4, 1)) * np.array([[1.0], [-1.0], [1.0], [0.5]]), 2),
    "integers": (np.arange(-6, 6).reshape(4, 3), 2),
    "fortran": (np.asfortranarray(_rng.standard_normal((6, 5))), 3),
    "sliced": (_rng.standard_normal((9, 11))[::2, 1::3], 2),
    "ragged_last_block": (_rng.standard_normal((7, 3)), 3),
    "Nt_exceeds_rows": (_rng.standard_normal((3, 4)), 10),
    "no_rows": (np.zeros((0, 3)), 2),
    "no_columns": (np.zeros((3, 0)), 2),
    # a distinct block of the edges and their negatives, then a repeated one
    "edges": (np.stack([_EDGE_ROW, -_EDGE_ROW, _EDGE_ROW, _EDGE_ROW]), 2),
    # 16 node blocks of 32 rows, large enough for the process pool
    "lag_many_blocks": (_toeplitz_expand(_rng.standard_normal((16, 32, 16))), 32),
}


class TestWriterMatchesPerValue:
    """The block writer emits the bytes of formatting every value on its own."""

    @pytest.mark.parametrize("case", sorted(WRITER_CASES))
    def test_stop1_bytes(self, tmp_path, case):
        matrix, nt = WRITER_CASES[case]
        path = tmp_path / "op.stop1"
        hio.write_stop1(path, matrix, M=2, Nt=nt, T=0.5)
        assert path.read_bytes() == stop1_reference(matrix, 2, nt, 0.5)

    @pytest.mark.parametrize("case", ["dense", "toeplitz", "edges", "lag_many_blocks"])
    def test_stop1_bytes_in_small_chunks(self, tmp_path, monkeypatch, case):
        # chunks of 7 values cut rows and records at every offset
        monkeypatch.setattr(hio, "_CHUNK", 7)
        matrix, nt = WRITER_CASES[case]
        path = tmp_path / "op.stop1"
        hio.write_stop1(path, matrix, M=2, Nt=nt, T=0.5)
        assert path.read_bytes() == stop1_reference(matrix, 2, nt, 0.5)

    def test_exact_ties_round_half_even(self):
        line = hio._format_block(_EDGES["exact ties"].reshape(1, -1))
        assert line == b"1000000000000000.2 1000000000000000.8 2000000000000000.2\n"

    def test_random_bit_patterns(self):
        values = np.random.default_rng(20).integers(0, 2**64, 10**6, np.uint64).view(float)
        matrix = values.reshape(1000, 1000)
        expected = "".join(" ".join(hio.FLOAT_FMT % v for v in row) + "\n" for row in matrix.tolist())
        assert hio._format_block(matrix) == expected.encode()

    def test_tables_not_built_at_import(self):
        code = "import heatcavity.cli as c; print(c.io._format_tables.cache_info().currsize)"
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert run.stdout.strip() == "0"

    def test_negative_zero_keeps_sign(self, tmp_path):
        path = tmp_path / "z.stop1"
        hio.write_stop1(path, np.array([[0.0, -0.0]]), M=1, Nt=1, T=1.0)
        assert path.read_text().splitlines()[1] == "0 -0"

    @pytest.mark.parametrize(
        "gram",
        [
            np.array([0.1, 2.0, 1.0 / 3.0, 1e-12, 2.0, 0.1]),
            np.repeat(_rng.random(4) + 0.5, 6),
            _SPECIALS,
            np.arange(1, 5),
            _rng.random(10)[::3],
            np.zeros(0),
        ],
        ids=["mixed", "repeated", "specials", "integers", "sliced", "empty"],
    )
    def test_gram_bytes(self, tmp_path, gram):
        path = tmp_path / "g.gram"
        hio.write_gram(path, gram)
        expected = "".join(hio.format_float(w) + "\n" for w in np.asarray(gram, dtype=float))
        assert path.read_bytes() == expected.encode()

    def test_gram_rejects_non_1d(self, tmp_path):
        with pytest.raises(ValueError):
            hio.write_gram(tmp_path / "g.gram", np.ones((2, 2)))


class TestGram:
    def test_round_trip_bitwise(self, tmp_path):
        gram = np.array([0.1, 2.0, 1.0 / 3.0, 1e-12])
        path = tmp_path / "g.gram"
        hio.write_gram(path, gram)
        assert np.array_equal(hio.read_gram(path), gram)

    def test_rejects_nonpositive(self, tmp_path):
        path = tmp_path / "g.gram"
        path.write_text("1.0\n0.0\n2.0\n")
        with pytest.raises(hio.FormatError, match="positive"):
            hio.read_gram(path)

    def test_rejects_matrix_shaped(self, tmp_path):
        path = tmp_path / "g.gram"
        path.write_text("1.0 2.0\n3.0 4.0\n")
        with pytest.raises(hio.FormatError):
            hio.read_gram(path)


class TestSpectrumCsv:
    def test_round_trip_bitwise(self, tmp_path):
        lams = np.array([3.0, 1.0 / 7.0, 1e-15, -2e-18])
        path = tmp_path / "spectrum.csv"
        hio.write_spectrum_csv(path, lams)
        assert np.array_equal(hio.read_spectrum_csv(path), lams)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,lambda"
        assert lines[1].startswith("1,")

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "spectrum.csv"
        path.write_text("idx,val\n1,2.0\n")
        with pytest.raises(hio.FormatError, match="header"):
            hio.read_spectrum_csv(path)


class TestIndicatorCsv:
    def fake_grid(self):
        pts = [ProbePoint((0.1, -0.2), 0.25), ProbePoint((1.0 / 3.0, 0.7), 0.25)]
        return IndicatorGrid(
            points=pts,
            values=np.array([2.5, np.inf]),
            normalized=np.array([1.0, 0.125]),
            mask=np.array([True, False]),
            truth=np.array([False, True]),
        )

    def test_round_trip(self, tmp_path):
        grid = self.fake_grid()
        path = tmp_path / "indicator.csv"
        hio.write_indicator_csv(path, grid)
        back = hio.read_indicator_csv(path)
        assert np.array_equal(back["y1"], [0.1, 1.0 / 3.0])
        assert np.array_equal(back["y2"], [-0.2, 0.7])
        assert np.array_equal(back["s"], [0.25, 0.25])
        assert np.array_equal(back["W"], grid.values)
        assert np.array_equal(back["normalized"], grid.normalized)
        assert np.array_equal(back["mask"], grid.mask)
        assert np.array_equal(back["truth"], grid.truth)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "indicator.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(hio.FormatError, match="header"):
            hio.read_indicator_csv(path)

    def test_rejects_short_row(self, tmp_path):
        path = tmp_path / "indicator.csv"
        path.write_text("y1,y2,s,W,normalized,mask,truth\n1,2,3\n")
        with pytest.raises(hio.FormatError, match="malformed"):
            hio.read_indicator_csv(path)


class TestKeyValue:
    def test_round_trip(self, tmp_path):
        record = {"omega_kind": "circle", "Nt": 32, "T": hio.format_float(0.5)}
        path = tmp_path / "meta.txt"
        hio.write_kv(path, record)
        back = hio.read_kv(path)
        assert back == {"omega_kind": "circle", "Nt": "32", "T": "0.5"}

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# a comment\n\nkey=value\n   # indented comment\n")
        assert hio.read_kv(path) == {"key": "value"}

    def test_equals_in_value_kept(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("expr=a=b\n")
        assert hio.read_kv(path) == {"expr": "a=b"}

    def test_whitespace_stripped(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("  key  =  value  \n")
        assert hio.read_kv(path) == {"key": "value"}

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("just a line\n")
        with pytest.raises(hio.FormatError, match="key=value"):
            hio.read_kv(path)

    def test_unwritable_key_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            hio.write_kv(tmp_path / "m.txt", {"a=b": 1})
        with pytest.raises(ValueError):
            hio.write_kv(tmp_path / "m.txt", {"a": "x\ny"})
