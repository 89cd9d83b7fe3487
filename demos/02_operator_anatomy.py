"""Anatomy of the data operators: causality, the cavity's footprint, and N.

Assembles the flux-to-trace maps for a conductor with and without a
cavity at a deliberately coarse resolution, then inspects:

  * causality — the measured maps are block lower triangular in the time
    cells: a flux cell cannot influence earlier trace cells;
  * the cavity footprint — the difference between the two maps is small,
    structured, and grows with time as heat reaches the cavity and back;
  * the modified map N — the time-reversed composition is dense in time
    (it is not causal: the reversal trades causality for symmetry).
"""

import numpy as np

from heatcavity.forward import TimeGrid
from heatcavity.geometry import CurveSpec, make_curve
from heatcavity.ndmap import (
    ProblemSetup,
    assemble_N,
    assemble_lambda,
    symmetrize,
)


def block_norms(matrix: np.ndarray, m: int, nt: int) -> np.ndarray:
    """Frobenius norm of each (time-cell, time-cell) block."""
    out = np.zeros((nt, nt))
    resh = matrix.reshape(m, nt, m, nt)
    for i in range(nt):
        for j in range(nt):
            out[i, j] = np.linalg.norm(resh[:, i, :, j])
    return out


def stencil(blocks: np.ndarray, cut: float = 1e-13) -> str:
    rows = []
    scale = blocks.max()
    for row in blocks:
        rows.append(" ".join("#" if v > cut * scale else "." for v in row))
    return "\n".join(rows)


def main() -> None:
    omega = make_curve(CurveSpec("circle", (0.0, 0.0, 1.0)), 16)
    cavity = make_curve(CurveSpec("circle", (0.0, 0.0, 0.35)), 12)
    grid = TimeGrid(0.5, 8)
    setup = ProblemSetup.build(omega, cavity, grid)

    with_cavity = assemble_lambda(setup, True).matrix
    without = assemble_lambda(setup, False).matrix

    print("time-cell block stencil of the flux-to-trace map (8x8 cells):")
    print(stencil(block_norms(without, 16, 8)))
    print("\nblock stencil of the cavity-minus-free difference:")
    diff = with_cavity - without
    print(stencil(block_norms(diff, 16, 8), cut=1e-10))
    print(
        f"\nrelative size of the cavity footprint: "
        f"{np.linalg.norm(diff) / np.linalg.norm(without):.3e}"
    )
    per_cell = [np.linalg.norm(diff.reshape(16, 8, 16, 8)[:, i]) for i in range(8)]
    print("difference energy per output time cell (heat needs time to visit the cavity):")
    print("  " + "  ".join(f"{v:.1e}" for v in per_cell))

    N = assemble_N(setup)
    nmat = N.matrix
    print("\nblock stencil of the modified map N (time reversal makes it dense):")
    print(stencil(block_norms(nmat, 16, 8), cut=1e-10))

    S, defect = symmetrize(N)
    print(f"\nN's symmetry defect ||N - N'|| / ||N|| in the Gram norm: {defect:.3f}")
    print(f"symmetrized N: relative asymmetry {np.linalg.norm(S - S.T) / np.linalg.norm(S):.2e}")


if __name__ == "__main__":
    main()
