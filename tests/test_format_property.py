"""Property test: the vectorized STOP1 formatter writes the bytes of ``%.17g``."""

import numpy as np
import pytest

from heatcavity import io as hio

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
    expected = "".join(" ".join(hio.FLOAT_FMT % v for v in row) + "\n" for row in matrix.tolist())
    assert hio._format_block(matrix) == expected.encode()
