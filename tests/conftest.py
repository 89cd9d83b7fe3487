"""Shared fixtures: cached benchmark assemblies and check reports.

The expensive objects (lag-block assemblies, operator matrices, the
benchmark eigensystem) are session-scoped so that unit tests and the
acceptance suite reuse one computation.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

import heatcavity
from heatcavity import ndmap, verify
from heatcavity.forward import TimeGrid, assemble_blocks
from heatcavity.geometry import CurveSpec, make_curve


@pytest.fixture(scope="session", autouse=True)
def cli_subprocess_path():
    """Let ``python -m heatcavity.cli`` subprocesses import the package under test."""
    src = str(Path(heatcavity.__file__).resolve().parents[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", src, prepend=os.pathsep)
        yield


@pytest.fixture(scope="session")
def verify_ctx() -> verify.VerifyContext:
    return verify.VerifyContext()


@pytest.fixture(scope="session")
def check_reports(verify_ctx):
    """Run each verification check at most once per session.

    ``get.seconds`` records the wall time of each first computation,
    including any shared-cache building that call triggered.
    """
    cache: dict[str, verify.CheckReport] = {}
    seconds: dict[str, float] = {}

    def get(check) -> verify.CheckReport:
        key = check.__name__
        if key not in cache:
            t0 = time.perf_counter()
            cache[key] = check(verify_ctx)
            seconds[key] = time.perf_counter() - t0
        return cache[key]

    get.seconds = seconds
    return get


@pytest.fixture(scope="session")
def bench_setup(verify_ctx) -> ndmap.ProblemSetup:
    return verify_ctx.setup(verify.BASE_RESOLUTION)


@pytest.fixture(scope="session")
def bench_ops(verify_ctx) -> dict:
    return verify_ctx.operator_matrices(verify.BASE_RESOLUTION)


@pytest.fixture(scope="session")
def small_setup() -> ndmap.ProblemSetup:
    """Coarse concentric pair for fast operator-level unit tests."""
    omega = make_curve(CurveSpec("circle", (0.0, 0.0, 1.0)), 16)
    cavity = make_curve(CurveSpec("circle", (0.0, 0.0, 0.35)), 12)
    return ndmap.ProblemSetup.build(omega, cavity, TimeGrid(0.5, 8))


@pytest.fixture(scope="session")
def small_ops(small_setup) -> dict:
    return {
        "lambda_D": ndmap.assemble_lambda(small_setup, True),
        "lambda_0": ndmap.assemble_lambda(small_setup, False),
        "L": ndmap.assemble_L(small_setup),
        "Lhat": ndmap.assemble_Lhat(small_setup),
        "FL": ndmap.assemble_FL(small_setup),
        "N": ndmap.assemble_N(small_setup),
    }


@pytest.fixture(scope="session")
def disk_region():
    """Single unit-circle region at coarse resolution for solver tests."""
    omega = make_curve(CurveSpec("circle", (0.0, 0.0, 1.0)), 16)
    return assemble_blocks(omega, TimeGrid(0.5, 8))
