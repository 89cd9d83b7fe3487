"""Spectral cutoff, probe indicator, sampling grids, and masks."""

import numpy as np
import pytest

from heatcavity import recon
from heatcavity.forward import BoundaryField, TimeGrid, assemble_blocks
from heatcavity.geometry import CurveSpec, OnBoundaryError, make_curve, point_in_region
from heatcavity.ndmap import symmetrize
from heatcavity.recon import (
    EigenSystem,
    SamplingSpec,
    eigendecompose,
    jaccard,
    picard_indicator,
    picard_partial_sums,
    reconstruct,
    sampling_points,
    slice_times,
)

UNIT_CIRCLE = CurveSpec("circle", (0.0, 0.0, 1.0))


def make_field(curve, grid, vec):
    return BoundaryField(curve, grid, np.asarray(vec, dtype=float).reshape(curve.M, grid.Nt))


TOY_DIM = 12  # M=3 nodes, Nt=4 cells


def toy_field(vec):
    curve = make_curve(UNIT_CIRCLE, 3)
    grid = TimeGrid(1.0, 4)
    return make_field(curve, grid, vec)


@pytest.fixture(scope="module")
def toy_eig():
    """Well-understood full-rank system with non-flat gram weights."""
    rng = np.random.default_rng(14)
    gram = rng.uniform(0.5, 2.0, TOY_DIM)
    a = rng.standard_normal((TOY_DIM, TOY_DIM))
    s = a @ a.T + TOY_DIM * np.eye(TOY_DIM)
    return eigendecompose(s, gram, 1e-8)


class TestEigendecompose:
    def test_identity_retains_all(self):
        eig = eigendecompose(np.eye(2), np.ones(2), 1e-8)
        assert np.allclose(eig.lambdas, [1.0, 1.0])
        assert eig.retained == 2

    def test_relative_cutoff(self):
        eig = eigendecompose(np.diag([3.0, 1.0]), np.ones(2), 0.5)
        assert eig.retained == 1
        assert np.allclose(eig.lambdas, [3.0, 1.0])

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((40, 40))
        s = 0.5 * (a + a.T) + 40 * np.eye(40)
        gram = np.ones(40)
        eig = eigendecompose(s, gram, 1e-8)
        psi = eig.vectors  # gram = 1 so these are the raw eigenvectors
        rebuilt = psi @ np.diag(eig.lambdas) @ psi.T
        assert np.linalg.norm(rebuilt - s) <= 1e-12 * np.linalg.norm(s)

    def test_vectors_are_W_orthonormal(self, toy_eig):
        gm = toy_eig.gram
        overlap = toy_eig.vectors.T @ (gm[:, None] * toy_eig.vectors)
        assert np.allclose(overlap, np.eye(TOY_DIM), rtol=0, atol=1e-12)

    def test_nonpositive_operator_rejected(self):
        with pytest.raises(ValueError, match="operator not positive"):
            eigendecompose(-np.eye(2), np.ones(2), 1e-8)

    def test_asymmetric_rejected(self):
        s = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            eigendecompose(s, np.ones(2), 1e-8)

    def test_bad_cutoff_rejected(self):
        for tau in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                eigendecompose(np.eye(2), np.ones(2), tau)

    def test_negative_eigenvalues_dropped_not_absed(self):
        s = np.diag([2.0, -0.5])
        eig = eigendecompose(s, np.ones(2), 1e-8)
        assert eig.retained == 1
        assert eig.lambdas[1] == pytest.approx(-0.5)


class TestPicardIndicator:
    def test_single_pair_unit_value(self):
        gram = np.ones(TOY_DIM)
        psi = np.ones((TOY_DIM, 1)) / np.sqrt(TOY_DIM)  # W-normalized
        eig = EigenSystem(np.array([1.0]), psi, 1, gram)
        assert picard_indicator(eig, toy_field(psi[:, 0])) == pytest.approx(1.0, rel=1e-14)

    def test_orthogonal_probe_returns_inf(self):
        gram = np.ones(TOY_DIM)
        vecs = np.zeros((TOY_DIM, 1))
        vecs[0, 0] = 1.0
        eig = EigenSystem(np.array([1.0]), vecs, 1, gram)
        probe = np.zeros(TOY_DIM)
        probe[1] = 1.0
        assert picard_indicator(eig, toy_field(probe)) == np.inf

    def test_zero_probe_returns_inf(self, toy_eig):
        assert picard_indicator(toy_eig, toy_field(np.zeros(TOY_DIM))) == np.inf

    def test_scale_invariance(self, toy_eig):
        rng = np.random.default_rng(22)
        vec = rng.standard_normal(TOY_DIM)
        w1 = picard_indicator(toy_eig, toy_field(vec))
        w2 = picard_indicator(toy_eig, toy_field(137.0 * vec))
        w3 = picard_indicator(toy_eig, toy_field(-vec))
        assert w1 == pytest.approx(w2, rel=1e-12)
        assert w1 == pytest.approx(w3, rel=1e-12)

    def test_eigenvector_sign_flip_invariance(self, toy_eig):
        rng = np.random.default_rng(23)
        vec = rng.standard_normal(TOY_DIM)
        signs = np.where(rng.uniform(size=TOY_DIM) < 0.5, -1.0, 1.0)
        flipped = EigenSystem(
            toy_eig.lambdas.copy(),
            toy_eig.vectors * signs[None, :],
            toy_eig.retained,
            toy_eig.gram,
        )
        w1 = picard_indicator(toy_eig, toy_field(vec))
        w2 = picard_indicator(flipped, toy_field(vec))
        assert w1 == pytest.approx(w2, rel=1e-12)

    def test_nonnegative(self, toy_eig):
        rng = np.random.default_rng(30)
        for _ in range(20):
            w = picard_indicator(toy_eig, toy_field(rng.standard_normal(TOY_DIM)))
            assert w >= 0.0

    def test_truncation_monotonicity(self, toy_eig):
        # more retained terms -> larger sum -> smaller (never larger) W
        rng = np.random.default_rng(24)
        vec = rng.standard_normal(TOY_DIM)
        values = []
        for keep in range(1, TOY_DIM + 1):
            trunc = EigenSystem(toy_eig.lambdas, toy_eig.vectors, keep, toy_eig.gram)
            values.append(picard_indicator(trunc, toy_field(vec)))
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_partial_sums_nondecreasing(self, toy_eig):
        rng = np.random.default_rng(25)
        sums = picard_partial_sums(toy_eig, toy_field(rng.standard_normal(TOY_DIM)))
        assert sums.shape == (toy_eig.retained,)
        assert np.all(np.diff(sums) >= 0)

    def test_no_retained_pairs_rejected(self, toy_eig):
        broken = EigenSystem(toy_eig.lambdas, toy_eig.vectors, 0, toy_eig.gram)
        with pytest.raises(ValueError):
            picard_indicator(broken, toy_field(np.ones(TOY_DIM)))


class TestSamplingGrid:
    def test_points_inside_with_margin(self):
        omega = make_curve(UNIT_CIRCLE, 64)
        pts, margin = sampling_points(omega, SamplingSpec(15, 15, 1, 0.2))
        assert margin == 0.2
        assert len(pts) > 0
        radii = np.hypot(pts[:, 0], pts[:, 1])
        assert np.all(radii <= 1.0 - 0.2 + 1e-9)

    def test_default_margin_twice_node_spacing(self):
        omega = make_curve(UNIT_CIRCLE, 64)
        _, margin = sampling_points(omega, SamplingSpec(5, 5, 1, None))
        assert margin == pytest.approx(2.0 * omega.perimeter / 64)

    def test_on_boundary_lattice_points_dropped(self):
        # the 3x3 lattice over the circle's bounding box puts four points on
        # the curve, well inside the TOL_GEOM band
        omega = make_curve(UNIT_CIRCLE, 16)
        with pytest.raises(OnBoundaryError):
            point_in_region((1.0, 0.0), omega)
        pts, _ = sampling_points(omega, SamplingSpec(3, 3, 1, 0.0))
        assert pts.tolist() == [[0.0, 0.0]]

    def test_huge_margin_empties_grid(self):
        omega = make_curve(UNIT_CIRCLE, 32)
        pts, _ = sampling_points(omega, SamplingSpec(9, 9, 1, 5.0))
        assert len(pts) == 0

    def test_slice_times_interior(self):
        grid = TimeGrid(0.8, 8)
        assert np.allclose(slice_times(grid, 1), [0.4])
        assert np.allclose(slice_times(grid, 3), [0.2, 0.4, 0.6])

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            SamplingSpec(0, 5, 1, None)
        with pytest.raises(ValueError):
            SamplingSpec(5, 5, 0, None)
        with pytest.raises(ValueError):
            SamplingSpec(5, 5, 1, -0.1)


@pytest.fixture(scope="module")
def tiny_pipeline(small_setup):
    """End-to-end spectral data at coarse resolution."""
    from heatcavity.ndmap import assemble_N

    N = assemble_N(small_setup)
    _, S = symmetrize(N)
    eig = eigendecompose(S, N.gram_domain, 1e-8)
    return small_setup, eig


class TestReconstruct:
    def test_threshold_zero_masks_everything(self, tiny_pipeline):
        st, eig = tiny_pipeline
        grid_out = reconstruct(
            eig,
            st.omega,
            st.grid,
            SamplingSpec(7, 7, 1, 0.25),
            0.0,
            cavity=st.cavity,
            region=st.omega_system,
        )
        assert np.all(grid_out.mask)

    def test_identical_probes_all_equal(self, tiny_pipeline, monkeypatch):
        st, eig = tiny_pipeline
        fixed = None

        import heatcavity.recon as recon_mod

        real = recon_mod.green_probe_traces

        def same_probe(points, s, omega, grid, region=None):
            nonlocal fixed
            out = real(points, s, omega, grid, region=region)
            if fixed is None:
                fixed = out[:, :, :1].copy()
            return np.repeat(fixed, out.shape[2], axis=2)

        monkeypatch.setattr(recon_mod, "green_probe_traces", same_probe)
        grid_out = reconstruct(
            eig,
            st.omega,
            st.grid,
            SamplingSpec(7, 7, 1, 0.25),
            1.0,
            region=st.omega_system,
        )
        assert np.allclose(grid_out.normalized, 1.0)
        assert np.all(grid_out.mask)

    def test_empty_grid_is_an_error(self, tiny_pipeline):
        st, eig = tiny_pipeline
        with pytest.raises(ValueError, match="no admissible probe points"):
            reconstruct(
                eig,
                st.omega,
                st.grid,
                SamplingSpec(5, 5, 1, 5.0),
                0.2,
                region=st.omega_system,
            )

    def test_truth_matches_geometry(self, tiny_pipeline):
        st, eig = tiny_pipeline
        grid_out = reconstruct(
            eig,
            st.omega,
            st.grid,
            SamplingSpec(9, 9, 1, 0.2),
            0.2,
            cavity=st.cavity,
            region=st.omega_system,
        )
        for pt, truth in zip(grid_out.points, grid_out.truth):
            assert truth == (np.hypot(*pt.y) < 0.35)

    def test_chunk_map_scheduling_invariance(self, tiny_pipeline):
        st, eig = tiny_pipeline
        kw = dict(cavity=st.cavity, region=st.omega_system)
        ref = reconstruct(eig, st.omega, st.grid, SamplingSpec(9, 9, 1, 0.2), 0.2, **kw)

        def scrambled_map(fn, jobs):
            jobs = list(jobs)
            order = list(reversed(range(len(jobs))))
            results = {i: fn(jobs[i]) for i in order}
            return [results[i] for i in range(len(jobs))]

        alt = reconstruct(
            eig, st.omega, st.grid, SamplingSpec(9, 9, 1, 0.2), 0.2,
            chunk_map=scrambled_map, **kw,
        )
        assert np.array_equal(ref.values, alt.values)
        assert np.array_equal(ref.mask, alt.mask)

    def test_values_follow_points_across_time_slices(self, tiny_pipeline):
        # each chunk computes all slices of its points; values stay s-major
        st, eig = tiny_pipeline
        from heatcavity.forward import green_probe_trace

        grid_out = reconstruct(
            eig, st.omega, st.grid, SamplingSpec(13, 13, 2, 0.2), 0.2, region=st.omega_system
        )
        n = len(grid_out) // 2
        assert n > recon.PROBE_CHUNK
        for i in (0, n - 1, n, 2 * n - 1, n + recon.PROBE_CHUNK + 3):
            pt = grid_out.points[i]
            probe = green_probe_trace(pt.y, pt.s, st.omega, st.grid, region=st.omega_system)
            want = picard_indicator(eig, probe)
            assert grid_out.values[i] == pytest.approx(want, rel=1e-10)

    def test_degenerate_probe_time_yields_inf_sentinel(self, tiny_pipeline):
        # s below the first collocation instant leaves no live cells: the
        # probe is identically zero and the indicator flags it as infinite
        st, eig = tiny_pipeline
        from heatcavity.forward import green_probe_trace

        s_tiny = 0.25 * st.grid.dt
        p = green_probe_trace((0.1, 0.0), s_tiny, st.omega, st.grid, region=st.omega_system)
        assert np.all(p.values == 0.0)
        assert picard_indicator(eig, p) == np.inf


class TestJaccard:
    def test_identical_masks(self):
        m = np.array([True, False, True])
        assert jaccard(m, m) == 1.0

    def test_disjoint_masks(self):
        assert jaccard(np.array([True, False]), np.array([False, True])) == 0.0

    def test_empty_union(self):
        z = np.zeros(4, dtype=bool)
        assert jaccard(z, z) == 1.0

    def test_half_overlap(self):
        a = np.array([True, True, False, False])
        b = np.array([True, False, True, False])
        assert jaccard(a, b) == pytest.approx(1.0 / 3.0)
