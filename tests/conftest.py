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


class PoolSpy:
    """Counts fork-pool start-ups by wrapping ``multiprocessing.get_context``,
    with ``os.sched_getaffinity`` reporting ``cpus`` usable CPUs."""

    def __init__(self, monkeypatch, cpus):
        import multiprocessing

        self.starts = 0
        real = multiprocessing.get_context

        def spy(method=None):
            self.starts += 1
            return real(method)

        monkeypatch.setattr(multiprocessing, "get_context", spy)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


@pytest.fixture
def pool_spy(monkeypatch):
    """``pool_spy(cpus)`` patches the CPU count and returns a ``PoolSpy``."""
    return lambda cpus: PoolSpy(monkeypatch, cpus)


@pytest.fixture
def failing_lapack(monkeypatch):
    """``failing_lapack(name)`` stands in for one LAPACK routine of
    recon._LAPACK_ARGS (dsyevd's workspace query or one of its three stages,
    which eigendecompose calls, or the radial oracle's dgttrf or dgttrs) a
    C-callable stub that sets info=3, as a solve that fails to converge
    does; the others stay numpy's."""
    import ctypes

    from heatcavity import recon

    real = recon._lapack()
    if real is None:
        pytest.skip("numpy's LAPACK exports no 64-bit dsyevd stages")

    def fail(name):
        chars, refs = recon._LAPACK_ARGS[name]

        def stub(*args):
            ctypes.c_int64.from_address(args[chars + refs - 1]).value = 3  # INFO

        args = [ctypes.c_void_p] * (chars + refs) + [ctypes.c_size_t] * chars
        fn = ctypes.CFUNCTYPE(None, *args)(stub)  # the patched lookup keeps it alive
        monkeypatch.setattr(recon, "_lapack", lambda: {**real, name: fn})

    return fail


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
def small_setup() -> ndmap.ProblemSetup:
    """Coarse concentric pair for fast operator-level unit tests."""
    omega = make_curve(CurveSpec("circle", (0.0, 0.0, 1.0)), 16)
    cavity = make_curve(CurveSpec("circle", (0.0, 0.0, 0.35)), 12)
    return ndmap.ProblemSetup.build(omega, cavity, TimeGrid(0.5, 8))


@pytest.fixture(scope="session")
def kite_setup() -> ndmap.ProblemSetup:
    """Ellipse conductor with an off-centre kite cavity, M != M_cavity."""
    omega = make_curve(CurveSpec("ellipse", (0.0, 0.0, 1.2, 0.9)), 20)
    cavity = make_curve(CurveSpec("kite", (0.1, 0.05, 0.3)), 14)
    return ndmap.ProblemSetup.build(omega, cavity, TimeGrid(0.5, 10))


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
