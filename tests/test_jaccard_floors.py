"""Every benchmark config meets the jaccard floor recorded for it.

The configs and floors are those of ``perfbench/workloads.py``: the 25 kite
centres, concentric-48 and the gate case.  Each case runs in-process the path
``reconstruct`` takes, from the impulse responses ``simulate`` hands off:
``compose_N``, ``symmetrize``, ``eigendecompose`` and ``recon.reconstruct``.
A method change that moves a mask shows here on every config at once.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from heatcavity import cli, ndmap, recon


def _load_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up
    spec.loader.exec_module(module)
    return module


_WL = _load_workloads()
#: config text and recorded floor, by case name
CASES = {
    f"kite-{x},{y}": (_WL.KITE_32.format(x=x, y=y), floor)
    for (x, y), floor in _WL.KITE_JACCARD.items()
}
CASES["concentric-48"] = (_WL.CONCENTRIC_48, _WL.CONCENTRIC_48_JACCARD)
CASES["gate-16"] = (_WL.GATE, _WL.GATE_JACCARD)


def test_every_benchmark_config_is_a_case():
    assert len(CASES) == 27


@pytest.mark.parametrize("name", list(CASES))
def test_jaccard_meets_recorded_floor(name):
    text, floor = CASES[name]
    cfg = cli.parse_config(text)
    setup = cli._build_problem(cfg)
    op = ndmap.compose_N(setup.omega, setup.grid, *ndmap.n_responses(setup))
    S, _ = ndmap.symmetrize(op)
    eig = recon.eigendecompose(S, op.gram_domain, cfg.effective_tau)
    del op
    grid = recon.reconstruct(
        eig, setup.omega, setup.grid, cfg.sampling, cfg.threshold,
        cavity=setup.cavity, region=setup.omega_system,
    )
    assert recon.jaccard(grid.mask, grid.truth) >= floor
    # no point sits so near the threshold that rounding could flip it
    assert recon.mask_margins(grid.normalized, cfg.threshold).min() >= recon.NEAR_CUT
