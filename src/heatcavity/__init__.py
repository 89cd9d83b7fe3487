"""Numerical laboratory for recovering a cavity in a 2D heat conductor.

The package synthesizes boundary measurement operators for transient heat
conduction with and without an interior cavity, and locates the cavity
through a spectral probe indicator on the modified operator N.  The
reconstruction reads only N, and N is composed from the impulse responses
of the virtual maps FL and Lhat, which are built on the true cavity; no
command derives N from the measured maps Lambda_D and Lambda_0.
``simulate`` hands those responses to ``reconstruct`` and ``spectrum`` in
``N_responses.npz``, and exports the dense operators as STOP1 text that
no command reads back.

Layout
------
``geometry``
    Parametric boundary curves, arclength quadrature, point classification.
``kernels``
    Heat kernel, its gradients, and exact time integrals over lag windows.
``forward``
    Space-time boundary-element solver for interior Neumann problems.
``oracles``
    Radial finite-difference reference that ``verify`` checks the solver by.
``ndmap``
    Flux-to-trace maps by name over one impulse-response table, as matrices
    or applied to fields; N, time reversal, symmetrization, noise.
``recon``
    Spectral cutoff, probe indicator, sampling grids, cavity masks.
``verify``
    Self-contained checks of the discrete theory on a benchmark geometry.
``io``
    On-disk formats for operators, spectra, indicator grids, and records;
    operator files are written by a fork pool and read in one process.
``cli``
    The ``simulate`` / ``reconstruct`` / ``spectrum`` / ``verify`` driver.
"""

from .forward import TimeGrid, assemble_blocks
from .geometry import CurveSpec, make_curve
from .ndmap import ProblemSetup, assemble_N, symmetrize
from .recon import SamplingSpec, eigendecompose, jaccard, reconstruct

__all__ = [
    "CurveSpec",
    "ProblemSetup",
    "SamplingSpec",
    "TimeGrid",
    "assemble_N",
    "assemble_blocks",
    "eigendecompose",
    "jaccard",
    "make_curve",
    "reconstruct",
    "symmetrize",
]

__version__ = "0.1.0"
