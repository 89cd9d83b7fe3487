"""End-to-end cavity reconstruction with an ASCII picture of the result.

Runs the full pipeline at a coarse desk scale: synthesize the data maps
for a conductor holding an off-center kite-shaped cavity, symmetrize and
decompose the modified map, sweep the probe indicator over a sampling
lattice, and draw the thresholded mask next to the true cavity.

Legend:   #  mask and truth agree the point is inside
          o  mask says inside, truth says outside (false alarm)
          x  truth says inside, mask missed it
          .  both say outside
"""

import numpy as np

from heatcavity.forward import TimeGrid
from heatcavity.geometry import CurveSpec, make_curve
from heatcavity.ndmap import ProblemSetup, assemble_N, symmetrize
from heatcavity.recon import SamplingSpec, eigendecompose, jaccard, reconstruct


def ascii_mask(grid_out) -> str:
    xs = sorted({p.y[0] for p in grid_out.points})
    ys = sorted({p.y[1] for p in grid_out.points})
    char = {}
    for p, mk, tr in zip(grid_out.points, grid_out.mask, grid_out.truth):
        char[(p.y[0], p.y[1])] = "#" if mk and tr else "o" if mk else "x" if tr else "."
    rows = []
    for y in reversed(ys):
        rows.append(" ".join(char.get((x, y), " ") for x in xs))
    return "\n".join(rows)


def main() -> None:
    omega = make_curve(CurveSpec("circle", (0.0, 0.0, 1.0)), 24)
    cavity = make_curve(CurveSpec("kite", (-0.1, 0.05, 0.25)), 18)
    grid = TimeGrid(0.5, 16)
    print("synthesizing data maps for a kite-shaped cavity...")
    setup = ProblemSetup.build(omega, cavity, grid)
    op = assemble_N(setup)

    S, _ = symmetrize(op)
    eig = eigendecompose(S, op.gram_domain, 1e-8)
    print(f"lambda_1 = {eig.lambdas[0]:.3e}, retained pairs = {eig.retained}")

    print("sweeping the probe indicator over a 19x19 lattice...")
    grid_out = reconstruct(
        eig,
        omega,
        grid,
        SamplingSpec(19, 19, 1, 0.15),
        0.2,
        cavity=cavity,
        region=setup.omega_system,
    )
    print(ascii_mask(grid_out))
    j = jaccard(grid_out.mask, grid_out.truth)
    hits = int(np.sum(grid_out.mask & grid_out.truth))
    print(
        f"\njaccard = {j:.3f}  "
        f"(mask {int(grid_out.mask.sum())} pts, truth {int(grid_out.truth.sum())} pts, "
        f"overlap {hits})"
    )
    print("a coarse grid and a non-convex cavity: the mask finds the body of the")
    print("kite; resolving its concavity would need finer grids and more probes")


if __name__ == "__main__":
    main()
