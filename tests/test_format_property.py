"""Property tests: the vectorized STOP1 formatter writes the bytes of
``%.17g``, and the lag-stack writer those of the expanded matrix."""

import io

import numpy as np
import pytest

from heatcavity import floatfmt, io as hio
from heatcavity.ndmap import _toeplitz_expand

hypothesis = pytest.importorskip("hypothesis")
hnp = pytest.importorskip("hypothesis.extra.numpy")

_MATRICES = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, max_side=8),
    elements=hypothesis.strategies.floats(),
)


@hypothesis.settings(max_examples=500, deadline=None, derandomize=True)
@hypothesis.given(_MATRICES)
def test_rows_match_percent_format(matrix):
    expected = "".join(" ".join(floatfmt.FLOAT_FMT % v for v in row) + "\n" for row in matrix.tolist())
    assert floatfmt.format_block(matrix) == expected.encode()


_STACKS = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=3, max_dims=3, min_side=0, max_side=5),
    elements=hypothesis.strategies.floats(),
)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(_STACKS)
def test_lag_rows_match_expanded_rows(resp):
    lags, dense = io.BytesIO(), io.BytesIO()
    hio._write_lag_rows(lags, resp)
    hio._write_rows(dense, _toeplitz_expand(resp), max(resp.shape[1], 1))
    assert lags.getvalue() == dense.getvalue()
