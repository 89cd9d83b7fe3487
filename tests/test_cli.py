"""Pipeline driver: config handling, artifacts, exit codes, reproducibility."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import heatcavity
from heatcavity import cli, io as hio, recon, verify
from heatcavity.cli import (
    DEFAULT_CONFIG,
    ConfigError,
    RunConfig,
    config_hash,
    load_config,
    parse_config,
    serialize_config,
)
from heatcavity.geometry import make_curve
from heatcavity.ndmap import NoiseSpec

SMALL_CFG = """\
omega_kind=circle
omega_params=0,0,1
cavity_kind=circle
cavity_params=0,0,0.35
M_omega=16
M_cavity=12
Nt=8
T=0.5
tau=auto
noise_level=0
noise_seed=0
nx=9
ny=9
s_slices=1
margin=0.2
threshold=0.2
"""


def write_cfg(tmp_path, text=SMALL_CFG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def with_keys(lines, text=SMALL_CFG):
    """text with the key=value lines given in place of its own lines for
    those keys: a config may name each key once."""
    keys = {line.split("=", 1)[0] for line in lines.splitlines()}
    kept = [line for line in text.splitlines(keepends=True) if line.split("=", 1)[0] not in keys]
    return "".join(kept) + lines


#: 32/24/32: each operator has 1024² entries, past ``io.PARALLEL_MIN_VALUES``,
#: so simulate writes them in the fork pool on a host with two CPUs.
POOLED_CFG = (
    SMALL_CFG.replace("M_omega=16", "M_omega=32")
    .replace("M_cavity=12", "M_cavity=24")
    .replace("Nt=8", "Nt=32")
)
OPERATOR_FILES = [f"{n}.{ext}" for n in ("lambda_D", "lambda_0", "N") for ext in ("stop1", "gram")]
RESPONSES = cli.RESPONSES_FILE


class TestConfigRoundTrip:
    def test_parse_serialize_identity(self):
        assert parse_config(serialize_config(DEFAULT_CONFIG)) == DEFAULT_CONFIG

    def test_empty_text_gives_defaults(self):
        assert parse_config("") == DEFAULT_CONFIG

    def test_floats_round_trip_exactly(self):
        text = serialize_config(DEFAULT_CONFIG)
        line = next(l for l in text.splitlines() if l.startswith("cavity_params="))
        assert float(line.split("=")[1].split(",")[2]) == 0.35

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# header\n\nM_omega=48\n  # note\n")
        assert cfg.M_omega == 48

    def test_no_cavity_spelled_none(self):
        cfg = parse_config("cavity_kind=none\n")
        assert cfg.cavity is None
        text = serialize_config(cfg)
        assert "cavity_kind=none\ncavity_params=\n" in text
        assert parse_config(text).cavity is None


class TestConfigValidation:
    @pytest.mark.parametrize(
        "line",
        [
            "M_omega=4",
            "M_cavity=7",
            "Nt=2",
            "nx=3",
            "ny=0",
            "s_slices=0",
            "margin=nan",
            "T=-0.5",
            "T=0",
            "T=nan",
            "T=inf",
            "tau=0",
            "tau=1.5",
            "noise_level=-0.1",
            "noise_level=1.0",
            "noise_seed=-1",
            "threshold=1.5",
            "threshold=-0.2",
            "cavity_params=0,0,1.5",
            "cavity_params=0.8,0,0.4",
            "omega_kind=square",
            "M_omega=notanint",
            "frobnicate=1",
            "just a line",
        ],
    )
    def test_bad_config_rejected(self, line):
        with pytest.raises(ConfigError):
            parse_config(line + "\n")

    def test_unknown_key_message(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config("frobnicate=1\n")

    def test_cavity_inside_message(self):
        with pytest.raises(ConfigError, match="strictly inside"):
            parse_config("cavity_params=0,0,1.5\n")

    def test_cavity_on_conductor_boundary_is_config_error(self):
        with pytest.raises(ConfigError, match="on-boundary point"):
            parse_config("cavity_params=0,0,1\n")


class TestEffectiveTau:
    def test_auto_clean(self):
        assert DEFAULT_CONFIG.effective_tau == cli.TAU_CLEAN

    def test_auto_tracks_noise(self):
        cfg = parse_config("noise_level=0.01\n")
        assert cfg.effective_tau == 0.01

    def test_explicit_wins(self):
        cfg = parse_config("tau=0.003\nnoise_level=0.01\n")
        assert cfg.effective_tau == 0.003


class TestLoadConfig:
    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config("/nonexistent/run.cfg", {})

    def test_overrides(self, tmp_path):
        # each replaces its key, which the config also gives
        path = write_cfg(tmp_path, with_keys("out_dir=a\n"))
        cfg = load_config(path, {"out": str(tmp_path / "o"), "noise": 0.05})
        assert cfg.out_dir == str(tmp_path / "o")
        assert cfg.noise == NoiseSpec(0.05, 0)

    def test_override_validation_applies(self, tmp_path):
        path = write_cfg(tmp_path)
        with pytest.raises(ConfigError):
            load_config(path, {"noise": 1.5})

    def test_overrides_validated_once(self, tmp_path, monkeypatch):
        calls = []
        real = RunConfig.validate
        monkeypatch.setattr(RunConfig, "validate", lambda cfg: calls.append(cfg) or real(cfg))
        cfg = load_config(write_cfg(tmp_path), {"out": str(tmp_path / "o"), "noise": 0.05})
        assert calls == [cfg]


#: A valid value other than SMALL_CFG's for every config key.
OTHER_VALUE = {
    "omega_kind": "kite",
    "omega_params": "0,0,1.1",
    "cavity_kind": "peanut",
    "cavity_params": "0.1,0,0.3",
    "M_omega": "17",
    "M_cavity": "13",
    "Nt": "9",
    "T": "0.6",
    "tau": "0.01",
    "noise_level": "0.001",
    "noise_seed": "1",
    "nx": "10",
    "ny": "10",
    "s_slices": "2",
    "margin": "0.25",
    "threshold": "0.5",
    "out_dir": "other",
}


class TestConfigHash:
    def test_matches_git_blob_oracle(self, tmp_path):
        cfg = parse_config(SMALL_CFG)
        blob = tmp_path / "canonical.cfg"
        blob.write_text(serialize_config(cfg))
        oracle = subprocess.run(
            ["git", "hash-object", str(blob)], capture_output=True, text=True, check=True
        ).stdout.strip()
        assert config_hash(cfg) == oracle

    def test_sensitive_to_any_field(self):
        base = parse_config(SMALL_CFG)
        assert config_hash(base) == config_hash(parse_config(SMALL_CFG))
        assert config_hash(base) != config_hash(parse_config(SMALL_CFG + "out_dir=other\n"))

    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(RunConfig)])
    def test_operator_hash_follows_exactly_the_operator_keys(self, key):
        base = parse_config(SMALL_CFG)
        moved = parse_config(with_keys(f"{key}={OTHER_VALUE[key]}\n"))
        assert getattr(moved, key) != getattr(base, key)
        changed = cli._operator_hash(moved) != cli._operator_hash(base)
        assert changed == (key in cli._OPERATOR_KEYS)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One simulate + reconstruct run shared by artifact-inspection tests."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg_path = write_cfg(root)
    out = str(root / "out")
    assert cli.main(["simulate", "--config", cfg_path, "--out", out]) == 0
    assert cli.main(["reconstruct", "--config", cfg_path, "--out", out]) == 0
    return {"root": root, "cfg_path": cfg_path, "out": root / "out"}


class TestPipelineArtifacts:
    def test_simulate_writes_operator_files(self, pipeline):
        for name in ("lambda_D", "lambda_0", "N"):
            assert (pipeline["out"] / f"{name}.stop1").exists()
            assert (pipeline["out"] / f"{name}.gram").exists()
        assert (pipeline["out"] / "meta").exists()
        assert (pipeline["out"] / RESPONSES).exists()

    def test_hand_off_holds_the_responses_and_operator_hash(self, pipeline):
        cfg = load_config(pipeline["cfg_path"], {})
        with np.load(pipeline["out"] / RESPONSES, allow_pickle=False) as data:
            assert sorted(data.files) == ["f", "h", "operator_hash"]
            assert data["f"].shape == (12, 8, 16) and data["h"].shape == (16, 8, 12)
            assert str(data["operator_hash"]) == cli._operator_hash(cfg)

    def test_meta_contents(self, pipeline):
        meta = hio.read_kv(pipeline["out"] / "meta")
        cfg = load_config(pipeline["cfg_path"], {"out": str(pipeline["out"])})
        assert meta["command"] == "simulate"
        assert meta["input_hash"] == config_hash(cfg)
        assert meta["config.M_omega"] == "16"
        assert meta["config.tau"] == "auto"
        assert float(meta["seconds.total"]) > 0.0

    def test_meta_stage_timings(self, pipeline):
        meta = hio.read_kv(pipeline["out"] / "meta")
        for stage in ("blocks", "responses", "lambda_0", "lambda_D", "N", "write"):
            assert float(meta[f"seconds.{stage}"]) >= 0.0

    @pytest.mark.parametrize("cavity, solves", [("circle", 3), ("none", 1)])
    def test_simulate_runs_one_solve_set_per_flux_source(self, tmp_path, monkeypatch, cavity, solves):
        from heatcavity import ndmap

        calls = []
        real = ndmap.solve_neumann
        monkeypatch.setattr(ndmap, "solve_neumann", lambda *a: calls.append(1) or real(*a))
        cfg_path = write_cfg(tmp_path, SMALL_CFG.replace("cavity_kind=circle", f"cavity_kind={cavity}"))
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == solves

    def test_N_noise_is_timed_in_its_stage(self, tmp_path, monkeypatch):
        from heatcavity import ndmap

        real = ndmap.add_noise
        monkeypatch.setattr(ndmap, "add_noise", lambda *a: time.sleep(0.3) or real(*a))
        cfg_path = write_cfg(tmp_path, with_keys("noise_level=0.01\n"))
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
        assert float(hio.read_kv(tmp_path / "out" / "meta")["seconds.N"]) >= 0.3

    def test_meta_write_seconds_per_operator(self, pipeline):
        meta = hio.read_kv(pipeline["out"] / "meta")
        parts = [float(meta[f"seconds.write.{name}"]) for name in ("lambda_D", "lambda_0", "N")]
        assert all(part >= 0.0 for part in parts)
        assert sum(parts) <= float(meta["seconds.write"])

    @pytest.mark.parametrize("record", ["meta", "summary"])
    def test_peak_rss_recorded(self, pipeline, record):
        # the pipeline runs in this process, which holds numpy and the operators
        assert float(hio.read_kv(pipeline["out"] / record)["peak_rss_mb"]) > 10.0

    def test_summary_counts_infinite_probes(self, pipeline):
        table = hio.read_indicator_csv(pipeline["out"] / "indicator.csv")
        summary = hio.read_kv(pipeline["out"] / "summary")
        assert int(summary["inf_probes"]) == int(np.isinf(table["W"]).sum())

    def test_summary_stage_timings(self, pipeline):
        summary = hio.read_kv(pipeline["out"] / "summary")
        for stage in ("read", "symmetrize", "eigh", "probes", "write", "total"):
            assert float(summary[f"seconds.{stage}"]) >= 0.0
        # the eigensolve's stages, timed inside it
        eigh = [float(summary[f"seconds.eigh.{s}"]) for s in ("tridiagonal", "values", "vectors")]
        assert all(part >= 0.0 for part in eigh) and eigh[1] > 0.0
        assert sum(eigh) <= float(summary["seconds.eigh"])
        # the probe sweep's stages, timed inside it
        probes = [float(summary[f"seconds.probes.{s}"]) for s in ("lattice", "traces", "indicator")]
        assert all(part > 0.0 for part in probes)
        assert sum(probes) <= float(summary["seconds.probes"])

    def test_summary_records_eigh_route(self, pipeline):
        summary = hio.read_kv(pipeline["out"] / "summary")
        assert summary["eigh_route"] == recon.eigh_route()

    def test_meta_operator_hash_ignores_reconstruct_keys(self, pipeline):
        meta = hio.read_kv(pipeline["out"] / "meta")
        steer = SMALL_CFG.replace("threshold=0.2", "threshold=0.5").replace("nx=9", "nx=11")
        steered = parse_config(with_keys("tau=0.01\n", steer))
        assert meta["operator_hash"] == cli._operator_hash(steered)
        moved = SMALL_CFG.replace("T=0.5", "T=0.6")
        assert meta["operator_hash"] != cli._operator_hash(parse_config(moved))

    def test_operator_headers(self, pipeline):
        mat, head = hio.read_stop1(pipeline["out"] / "N.stop1")
        assert head["M"] == 16 and head["Nt"] == 8 and head["T"] == 0.5
        assert mat.shape == (128, 128)
        gram = hio.read_gram(pipeline["out"] / "N.gram")
        assert gram.shape == (128,)

    def test_reconstruct_artifacts(self, pipeline):
        lams = hio.read_spectrum_csv(pipeline["out"] / "spectrum.csv")
        assert lams[0] > 0
        assert np.all(np.diff(lams) <= 1e-15 * lams[0])  # sorted descending
        table = hio.read_indicator_csv(pipeline["out"] / "indicator.csv")
        summary = hio.read_kv(pipeline["out"] / "summary")
        assert int(summary["points"]) == len(table["W"])
        assert int(summary["mask_size"]) == int(table["mask"].sum())
        assert int(summary["retained"]) >= 1
        assert 0.0 <= float(summary["jaccard"]) <= 1.0
        radii = np.hypot(table["y1"], table["y2"])
        assert np.array_equal(table["truth"], radii < 0.35)
        assert np.all(table["s"] == 0.25)

    def test_summary_lambda_min_ratio_matches_spectrum(self, pipeline):
        lams = hio.read_spectrum_csv(pipeline["out"] / "spectrum.csv")
        summary = hio.read_kv(pipeline["out"] / "summary")
        assert float(summary["lambda_min_ratio"]) == lams[-1] / lams[0]

    def test_summary_symmetry_defect_matches_N(self, pipeline):
        nmat, _ = hio.read_stop1(pipeline["out"] / "N.stop1")
        sqrt_g = np.sqrt(hio.read_gram(pipeline["out"] / "N.gram"))
        b = nmat * (sqrt_g[:, None] / sqrt_g[None, :])
        summary = hio.read_kv(pipeline["out"] / "summary")
        want = np.linalg.norm(b - b.T) / np.linalg.norm(b)
        assert float(summary["symmetry_defect"]) == pytest.approx(want, rel=1e-12)

    def test_summary_jaccard_matches_columns(self, pipeline):
        from heatcavity.recon import jaccard

        table = hio.read_indicator_csv(pipeline["out"] / "indicator.csv")
        summary = hio.read_kv(pipeline["out"] / "summary")
        assert float(summary["jaccard"]) == jaccard(table["mask"], table["truth"])

    def test_summary_w_contrast_matches_indicator(self, pipeline):
        W = hio.read_indicator_csv(pipeline["out"] / "indicator.csv")["W"]
        finite = W[np.isfinite(W)]
        summary = hio.read_kv(pipeline["out"] / "summary")
        assert float(summary["w_contrast"]) == np.log10(finite.max() / finite.min())
        assert float(summary["w_contrast"]) > 1.0  # a clean run spans decades

    def test_summary_mask_margin_matches_indicator(self, pipeline):
        normalized = hio.read_indicator_csv(pipeline["out"] / "indicator.csv")["normalized"]
        summary = hio.read_kv(pipeline["out"] / "summary")
        margins = np.abs(normalized / 0.2 - 1.0)
        assert float(summary["mask_margin"]) == margins.min() > 0.0
        assert int(summary["mask_near_cut"]) == int(np.sum(margins < 1e-6))


@pytest.fixture(scope="module")
def pooled_simulate(tmp_path_factory):
    """simulate on POOLED_CFG with two usable CPUs."""
    root = tmp_path_factory.mktemp("pooled")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        argv = ["simulate", "--config", write_cfg(root, POOLED_CFG), "--out", str(root / "out")]
        assert cli.main(argv) == 0
    return root / "out"


class TestOperatorWriteWorkers:
    """simulate writes each operator file whole in one process of the fork pool."""

    def test_meta_write_seconds_per_operator_pooled(self, pooled_simulate):
        # measured in the workers, which write concurrently, so they overlap
        meta = hio.read_kv(pooled_simulate / "meta")
        assert meta["write_workers"] == "2"
        for name in ("lambda_D", "lambda_0", "N"):
            assert 0.0 <= float(meta[f"seconds.write.{name}"]) <= float(meta["seconds.write"])

    @pytest.mark.parametrize(
        "cpus,other_thread,starts,writers", [(1, False, 0, 1), (2, False, 1, 2), (2, True, 0, 1)]
    )
    def test_bytes_do_not_depend_on_writers(
        self, tmp_path, pool_spy, pooled_simulate, cpus, other_thread, starts, writers
    ):
        spy = pool_spy(cpus)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        if other_thread:
            other.start()
        argv = ["simulate", "--config", write_cfg(tmp_path, POOLED_CFG), "--out", str(tmp_path)]
        try:
            code = cli.main(argv)
        finally:
            release.set()
            if other_thread:
                other.join(30)
        assert code == 0 and not other.is_alive()
        assert spy.starts == starts
        assert hio.read_kv(tmp_path / "meta")["write_workers"] == str(writers)
        for name in OPERATOR_FILES + [RESPONSES]:
            assert (tmp_path / name).read_bytes() == (pooled_simulate / name).read_bytes(), name

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_failed_write_raises_its_own_type_and_leaves_no_meta(
        self, tmp_path, pool_spy, cpus, capsys
    ):
        spy = pool_spy(cpus)
        (tmp_path / "lambda_0.stop1").mkdir()
        (tmp_path / "meta").write_text("command=simulate\n")  # left by an earlier run
        argv = ["simulate", "--config", write_cfg(tmp_path, POOLED_CFG), "--out", str(tmp_path)]
        # the worker's IsADirectoryError reaches main whole, file name and reason
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: {tmp_path / 'lambda_0.stop1'}: Is a directory\n"
        assert spy.starts == (1 if cpus == 2 else 0)
        assert not (tmp_path / "meta").exists()
        assert hio._WRITE_JOBS == {}


    def test_failed_part_raises_its_own_type_and_leaves_no_part_file(
        self, tmp_path, pool_spy, capsys
    ):
        pool_spy(2)
        (tmp_path / "N.stop1.part1").mkdir()  # N's second row range cannot be written
        (tmp_path / "meta").write_text("command=simulate\n")
        argv = ["simulate", "--config", write_cfg(tmp_path, POOLED_CFG), "--out", str(tmp_path)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: {tmp_path / 'N.stop1.part1'}: Is a directory\n"
        assert not (tmp_path / "meta").exists()
        assert [p.name for p in tmp_path.glob("*.part*")] == ["N.stop1.part1"]
        assert hio._WRITE_JOBS == {}


class TestSimulateMemory:
    """simulate writes Λ_0 and Λ_D from their lag stacks, clean or noisy."""

    @pytest.mark.parametrize(
        "lines", ["", "noise_level=0.001\n", "noise_level=0.001\ncavity_kind=none\n"],
        ids=["clean", "noisy", "noisy_no_cavity"],
    )
    def test_no_flux_map_is_expanded(self, tmp_path, monkeypatch, lines):
        from heatcavity import ndmap

        calls = []
        real = ndmap._toeplitz_expand
        monkeypatch.setattr(ndmap, "_toeplitz_expand", lambda r: calls.append(r.shape) or real(r))
        cfg_path = write_cfg(tmp_path, with_keys(lines))
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
        assert calls == []

    def traced_peak(self, tmp_path, pool_spy, text):
        """simulate's traced peak at 32/24/32, written in this process, less
        its lag blocks and impulse responses, in n^2 doubles."""
        pool_spy(1)
        cfg_path = write_cfg(tmp_path, text)
        tracemalloc.start()
        try:
            assert cli.main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        setup = cli._build_problem(parse_config(text))
        regions = (setup.omega_system, setup.cavity_system)
        blocks = sum(b.single.nbytes + b.adjoint.nbytes for b in regions)
        stacks = blocks + sum(r.nbytes for r in setup.responses.values())
        n = 32 * 32
        return (peak - stacks) / (n * n * 8)

    def test_clean_simulate_traced_peak(self, tmp_path, pool_spy):
        # N and a writer block, near 1.35 n^2 doubles beyond the stacks;
        # expanding Λ_0 and Λ_D as well peaked near 3.8
        assert self.traced_peak(tmp_path, pool_spy, POOLED_CFG) <= 1.5

    def test_noisy_simulate_traced_peak(self, tmp_path, pool_spy):
        # N and its noise draw, near 2.1 n^2 doubles beyond the stacks;
        # adding Λ_D's noise on its expanded dense map peaked near 3.1
        noisy = with_keys("noise_level=0.001\n", POOLED_CFG)
        assert self.traced_peak(tmp_path, pool_spy, noisy) <= 2.5


class TestHandOff:
    """reconstruct and spectrum compose N from the hand-off file alone."""

    def test_reconstruct_starts_no_process(self, tmp_path, pool_spy, pooled_simulate):
        # N.stop1 here holds 1024² entries, past io.PARALLEL_MIN_VALUES
        out = tmp_path / "out"
        shutil.copytree(pooled_simulate, out)
        spy = pool_spy(2)
        argv = ["reconstruct", "--config", write_cfg(tmp_path, POOLED_CFG), "--out", str(out)]
        assert cli.main(argv) == 0
        assert spy.starts == 0

    def test_reconstruct_needs_no_operator_file(self, pipeline, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        for path in out.iterdir():
            if path.suffix in (".stop1", ".gram", ".csv") or path.name in ("meta", "summary"):
                path.unlink()
        assert cli.main(["reconstruct", "--config", pipeline["cfg_path"], "--out", str(out)]) == 0
        for name in ("spectrum.csv", "indicator.csv"):
            assert (out / name).read_bytes() == (pipeline["out"] / name).read_bytes(), name

    @pytest.mark.parametrize(
        "lines",
        ["", "noise_level=0.01\nnoise_seed=3\n", "cavity_kind=none\n"],
        ids=["clean", "noisy", "no_cavity"],
    )
    def test_composed_N_is_the_exported_N(self, tmp_path, lines):
        cfg_path = write_cfg(tmp_path, with_keys(lines))
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
        cfg = load_config(cfg_path, {"out": str(out)})
        op = cli._load_operator(cfg, make_curve(cfg.omega, cfg.M_omega))
        exported, _ = hio.read_stop1(out / "N.stop1")
        assert np.array_equal(op.matrix.view(np.uint64), exported.view(np.uint64))
        assert np.array_equal(op.gram_domain, hio.read_gram(out / "N.gram"))


class TestSpectralData:
    def test_one_walk_per_tile_pass(self, pipeline, monkeypatch):
        # symmetrize fills S and sums N's defect in one walk; the eigensolve
        # checks S's symmetry and transposes it in place
        from heatcavity import ndmap

        if recon._lapack() is None:
            pytest.skip("numpy's LAPACK exports no 64-bit dsyevd stages")
        walks = []
        real = ndmap._tile_pairs

        def spy(n):
            walks.append(sys._getframe(1).f_code.co_name)
            return real(n)

        monkeypatch.setattr(ndmap, "_tile_pairs", spy)
        monkeypatch.setattr(recon, "_tile_pairs", spy)
        cfg = load_config(pipeline["cfg_path"], {"out": str(pipeline["out"])})
        cli._spectral_data(cfg, make_curve(cfg.omega, cfg.M_omega), {})
        assert walks == ["symmetrize", "_skew_norm", "_transpose_in_place"]


class TestDeterminism:
    def test_outputs_independent_of_out_dir_and_rerun(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        blobs = {}
        for run in ("a", "b"):
            out = str(tmp_path / run)
            assert cli.main(["simulate", "--config", cfg_path, "--out", out]) == 0
            assert cli.main(["reconstruct", "--config", cfg_path, "--out", out]) == 0
            blobs[run] = {
                name: (tmp_path / run / name).read_bytes()
                for name in ("N.stop1", "N.gram", RESPONSES, "spectrum.csv", "indicator.csv")
            }
        assert blobs["a"] == blobs["b"]

    def test_eigh_routes_agree(self, pipeline, tmp_path, monkeypatch):
        # the pipeline took the LAPACK stages where numpy exports them; the
        # eigenvalues keep their bits, the retained vectors move by rounding
        out = tmp_path / "numpy_route"
        shutil.copytree(pipeline["out"], out)
        monkeypatch.setattr(recon, "_lapack", lambda: None)
        assert cli.main(["reconstruct", "--config", pipeline["cfg_path"], "--out", str(out)]) == 0
        assert hio.read_kv(out / "summary")["eigh_route"] == "numpy"
        name = "spectrum.csv"
        assert (out / name).read_bytes() == (pipeline["out"] / name).read_bytes()
        got, want = (hio.read_indicator_csv(d / "indicator.csv") for d in (out, pipeline["out"]))
        assert np.array_equal(got["mask"], want["mask"])
        finite = np.isfinite(want["W"])
        assert np.array_equal(np.isfinite(got["W"]), finite)
        assert np.allclose(got["W"][finite], want["W"][finite], rtol=1e-12, atol=0)

    def test_noise_reproducible_and_seed_sensitive(self, tmp_path):
        cfg_path = write_cfg(tmp_path, with_keys("noise_level=0.01\n"))
        outs = {}
        for run in ("a", "b"):
            out = str(tmp_path / run)
            assert cli.main(["simulate", "--config", cfg_path, "--out", out]) == 0
            outs[run] = (tmp_path / run / "N.stop1").read_bytes()
        assert outs["a"] == outs["b"]
        cfg2 = write_cfg(tmp_path, with_keys("noise_level=0.01\nnoise_seed=5\n"), "n2.cfg")
        out = str(tmp_path / "d")
        assert cli.main(["simulate", "--config", cfg2, "--out", out]) == 0
        assert (tmp_path / "d" / "N.stop1").read_bytes() != outs["a"]

    def test_noisy_lambda_D_is_a_noisy_causal_stack(self, tmp_path):
        from heatcavity import ndmap

        cfg_path = write_cfg(tmp_path, with_keys("noise_level=0.001\nnoise_seed=7\n"))
        files = []
        for run in ("a", "b"):
            assert cli.main(["simulate", "--config", cfg_path, "--out", str(tmp_path / run)]) == 0
            files.append((tmp_path / run / "lambda_D.stop1").read_bytes())
        assert files[0] == files[1]
        mat, _ = hio.read_stop1(tmp_path / "a" / "lambda_D.stop1")
        # column (j, 0) of a causal block-Toeplitz map holds every lag from source j
        stack = mat[:, ::8].reshape(16, 8, 16)
        assert np.array_equal(mat, ndmap._toeplitz_expand(stack))
        resp = cli._build_problem(parse_config(SMALL_CFG)).responses["lambda_D"]
        clean = ndmap._toeplitz_expand(resp)
        rel = np.linalg.norm(mat - clean) / np.linalg.norm(clean)
        assert rel == pytest.approx(0.001, rel=1e-12)

    def test_noisy_operators_match_per_value_rendering(self, tmp_path):
        cfg_path = write_cfg(tmp_path, with_keys("noise_level=0.01\n"))
        out = tmp_path / "noisy"
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
        for name in ("lambda_D", "lambda_0", "N"):
            mat, head = hio.read_stop1(out / f"{name}.stop1")
            expected = f"STOP1 {head['rows']} {head['cols']} 16 8 0.5\n" + "".join(
                " ".join(hio.format_float(v) for v in row) + "\n" for row in mat
            )
            assert (out / f"{name}.stop1").read_text() == expected

    def test_noise_changes_operator(self, pipeline, tmp_path):
        out = str(tmp_path / "noisy")
        code = cli.main(
            ["simulate", "--config", pipeline["cfg_path"], "--out", out, "--noise", "0.01"]
        )
        assert code == 0
        clean = (pipeline["out"] / "N.stop1").read_bytes()
        assert (tmp_path / "noisy" / "N.stop1").read_bytes() != clean


class TestExitCodes:
    def test_bad_config_exits_1(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, with_keys("M_omega=4\n"))
        assert cli.main(["simulate", "--config", cfg_path]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("lines", ["T=nan\n", "T=inf\n", "noise_level=0.01\nnoise_seed=-1\n"])
    def test_bad_value_exits_1_before_any_operator_is_written(self, tmp_path, capsys, lines):
        out = tmp_path / "out"
        cfg_path = write_cfg(tmp_path, with_keys(lines))
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert not list(tmp_path.rglob("*.stop1"))

    @pytest.mark.parametrize("command", ["simulate", "reconstruct", "spectrum", "verify"])
    @pytest.mark.parametrize(
        "out, line",
        [("", ""), (None, "out_dir=\n"), ("nl\nx", "")],
        ids=["empty", "empty_key", "newline"],
    )
    def test_bad_out_dir_exits_1_before_any_work(
        self, tmp_path, monkeypatch, capsys, command, out, line
    ):
        # a relative write lands in tmp_path, where the last assert sees it
        monkeypatch.chdir(tmp_path)
        argv = [command, "--config", write_cfg(tmp_path, SMALL_CFG + line)]
        assert cli.main(argv + ([] if out is None else ["--out", out])) == 1
        assert capsys.readouterr().err == (
            f"config error: out_dir must be a path on one line, got {out or ''!r}\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize("command", ["simulate", "reconstruct", "spectrum", "verify"])
    @pytest.mark.parametrize("out", [" spaced", "spaced ", "\tx", " "])
    def test_padded_out_dir_exits_1_before_any_work(
        self, tmp_path, monkeypatch, capsys, command, out
    ):
        # meta's config echo would read such a directory back stripped
        monkeypatch.chdir(tmp_path)
        argv = [command, "--config", write_cfg(tmp_path, SMALL_CFG), "--out", out]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            f"config error: out_dir must not start or end with whitespace, got {out!r}\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_duplicate_key_exits_1(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, SMALL_CFG + "M_omega=64\n")
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "config error: line 17: duplicate config key 'M_omega' (first on line 5)\n"
        )
        assert not (tmp_path / "out").exists()

    def test_undecodable_config_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_bytes(SMALL_CFG.encode() + b"# \xff\n")
        argv = ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith(f"config error: cannot read config {cfg_path}: ")
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_missing_config_exits_1(self, capsys):
        assert cli.main(["simulate", "--config", "/no/such/file.cfg"]) == 1
        assert "cannot read config" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_exits_1(self, tmp_path, capsys, threads):
        out = tmp_path / "out"
        assert cli.main(["simulate", "--out", str(out), "--threads", threads]) == 1
        assert capsys.readouterr().err == f"config error: --threads must be >= 1, got {threads}\n"
        assert not out.exists()

    def test_master_seed_key_exits_1(self, tmp_path, capsys):
        # the noise draw reads noise_seed; there is no master seed to set
        cfg_path = write_cfg(tmp_path, SMALL_CFG + "seed=0\n")
        assert cli.main(["simulate", "--config", cfg_path]) == 1
        assert "unknown config key 'seed'" in capsys.readouterr().err

    def test_reconstruct_before_simulate_exits_1(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path)
        out = str(tmp_path / "empty")
        assert cli.main(["reconstruct", "--config", cfg_path, "--out", out]) == 1
        assert "run simulate first" in capsys.readouterr().err

    def test_resolution_mismatch_exits_1(self, pipeline, tmp_path, capsys):
        mismatched = write_cfg(tmp_path, SMALL_CFG.replace("Nt=8", "Nt=16"), "mis.cfg")
        code = cli.main(
            ["reconstruct", "--config", mismatched, "--out", str(pipeline["out"])]
        )
        assert code == 1
        assert "simulated for another" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new",
        [
            ("omega_kind=circle\nomega_params=0,0,1", "omega_kind=ellipse\nomega_params=0,0,1.2,0.9"),
            ("cavity_params=0,0,0.35", "cavity_params=0.1,0,0.3"),
            ("noise_level=0", "noise_level=0.01"),
        ],
    )
    def test_operators_for_another_problem_exit_1(self, pipeline, tmp_path, capsys, old, new):
        other = write_cfg(tmp_path, SMALL_CFG.replace(old, new), "other.cfg")
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        assert cli.main(["reconstruct", "--config", other, "--out", str(out)]) == 1
        assert "simulated for another" in capsys.readouterr().err
        assert cli.main(["spectrum", "--config", other, "--out", str(out)]) == 1

    def test_noise_override_against_clean_operators_exits_1(self, pipeline, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        args = ["--config", pipeline["cfg_path"], "--out", str(out), "--noise", "0.01"]
        assert cli.main(["reconstruct", *args]) == 1
        assert "simulated for another" in capsys.readouterr().err

    @staticmethod
    def hand_off_dir(pipeline, tmp_path, **changes):
        """A directory holding only the pipeline's hand-off file, with the
        given keys replaced; a None value drops the key."""
        out = tmp_path / "out"
        out.mkdir()
        with np.load(pipeline["out"] / RESPONSES, allow_pickle=False) as data:
            arrays = {key: data[key] for key in data.files}
        arrays.update(changes)
        np.savez(out / RESPONSES, **{k: v for k, v in arrays.items() if v is not None})
        return out

    def refused(self, pipeline, out, capsys) -> str:
        """Run reconstruct and spectrum on out; both exit 1 and write nothing."""
        errs = []
        for command in ("reconstruct", "spectrum"):
            assert cli.main([command, "--config", pipeline["cfg_path"], "--out", str(out)]) == 1
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] and errs[0].startswith("config error: ")
        assert str(out / RESPONSES) in errs[0]
        assert [p.name for p in out.iterdir()] == [RESPONSES]
        return errs[0]

    def test_truncated_hand_off_exits_1_naming_the_file(self, pipeline, tmp_path, capsys):
        out = self.hand_off_dir(pipeline, tmp_path)
        body = (out / RESPONSES).read_bytes()
        (out / RESPONSES).write_bytes(body[: len(body) // 2])
        self.refused(pipeline, out, capsys)

    @pytest.mark.parametrize("key", ["f", "h", "operator_hash"])
    def test_hand_off_missing_a_key_exits_1(self, pipeline, tmp_path, capsys, key):
        out = self.hand_off_dir(pipeline, tmp_path, **{key: None})
        assert f"{key} is not a file" in self.refused(pipeline, out, capsys)

    def test_foreign_operator_hash_exits_1(self, pipeline, tmp_path, capsys):
        out = self.hand_off_dir(pipeline, tmp_path, operator_hash=np.array("0" * 64))
        assert "simulated for another" in self.refused(pipeline, out, capsys)

    def test_pickled_hand_off_exits_1(self, pipeline, tmp_path, capsys):
        made_for = np.array([cli._operator_hash(load_config(pipeline["cfg_path"], {}))], object)
        out = self.hand_off_dir(pipeline, tmp_path, operator_hash=made_for)
        assert "pickled" in self.refused(pipeline, out, capsys)

    @pytest.mark.parametrize(
        "key, stack",
        [
            ("f", np.zeros((12, 8, 15))),
            ("h", np.zeros((16, 7, 12))),
            ("f", np.zeros((12, 8))),
            ("h", np.zeros((16, 8, 12), np.int64)),
        ],
        ids=["f_nodes", "h_cells", "f_2d", "h_integer"],
    )
    def test_wrong_shape_exits_1(self, pipeline, tmp_path, capsys, key, stack):
        out = self.hand_off_dir(pipeline, tmp_path, **{key: stack})
        assert f"{key} is {stack.dtype} {stack.shape}, expected float64" in self.refused(
            pipeline, out, capsys
        )

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("key", ["f", "h"])
    def test_non_finite_entry_exits_1(self, pipeline, tmp_path, capsys, key, value):
        with np.load(pipeline["out"] / RESPONSES, allow_pickle=False) as data:
            stack = data[key]
        stack[3, 5, 7] = value
        out = self.hand_off_dir(pipeline, tmp_path, **{key: stack})
        assert f"{key} holds non-finite entries" in self.refused(pipeline, out, capsys)

    def test_hand_off_copied_alone_vouches_only_for_its_config(self, pipeline, tmp_path, capsys):
        out = tmp_path / "bare"
        out.mkdir()
        shutil.copy(pipeline["out"] / RESPONSES, out / RESPONSES)
        other = write_cfg(tmp_path, SMALL_CFG.replace("0,0,0.35", "0.1,0,0.3"), "other.cfg")
        for command in ("reconstruct", "spectrum"):
            assert cli.main([command, "--config", other, "--out", str(out)]) == 1
            assert "simulated for another" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == [RESPONSES]
        assert cli.main(["reconstruct", "--config", pipeline["cfg_path"], "--out", str(out)]) == 0

    def test_failed_eigensolve_exits_2(self, pipeline, tmp_path, capsys, failing_lapack):
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        args = ["reconstruct", "--config", pipeline["cfg_path"], "--out", str(out)]
        for name in ("syevd", "sytrd", "stedc", "ormtr"):  # the eigensolve's routines
            failing_lapack(name)
            assert cli.main(args) == 2
            err = capsys.readouterr().err
            assert "numerical failure" in err and f"d{name} failed with info=3" in err

    def test_no_cavity_data_has_no_spectrum_exits_2(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, SMALL_CFG.replace("cavity_kind=circle", "cavity_kind=none"))
        out = str(tmp_path / "empty_cavity")
        assert cli.main(["simulate", "--config", cfg_path, "--out", out]) == 0
        lam_d = (tmp_path / "empty_cavity" / "lambda_D.stop1").read_bytes()
        lam_0 = (tmp_path / "empty_cavity" / "lambda_0.stop1").read_bytes()
        assert lam_d == lam_0
        assert cli.main(["reconstruct", "--config", cfg_path, "--out", out]) == 2
        assert "operator not positive" in capsys.readouterr().err


class TestSpectrumCommand:
    def test_spectrum_matches_reconstruct_output(self, pipeline, tmp_path):
        out = tmp_path / "spec_only"
        out.mkdir()
        shutil.copy(pipeline["out"] / RESPONSES, out / RESPONSES)
        code = cli.main(["spectrum", "--config", pipeline["cfg_path"], "--out", str(out)])
        assert code == 0
        assert (out / "spectrum.csv").read_bytes() == (
            pipeline["out"] / "spectrum.csv"
        ).read_bytes()


class TestThresholdEdge:
    def test_threshold_zero_masks_every_point(self, pipeline, tmp_path):
        cfg_path = write_cfg(tmp_path, SMALL_CFG.replace("threshold=0.2", "threshold=0"))
        out = tmp_path / "thr0"
        out.mkdir()
        shutil.copy(pipeline["out"] / RESPONSES, out / RESPONSES)
        assert cli.main(["reconstruct", "--config", cfg_path, "--out", str(out)]) == 0
        table = hio.read_indicator_csv(out / "indicator.csv")
        assert np.all(table["mask"])


class TestSamplingLattice:
    @pytest.mark.parametrize(
        "edits, kept",
        [
            # margin=auto (0.785) keeps only (0, 0), which lies in this cavity
            ({"cavity_params": "0.2,0,0.3", "margin": "auto"}, "1 probe points, 1 inside"),
            ({"margin": "5"}, "0 probe points, 0 inside"),
            ({"cavity_params": "0,0,0.8", "margin": "0.3"}, "21 probe points, 21 inside"),
        ],
        ids=["one_point", "empty", "all_inside"],
    )
    def test_lattice_that_cannot_score_exits_1_before_reading(
        self, pipeline, tmp_path, capsys, monkeypatch, edits, kept
    ):
        def compose(cfg, omega):
            raise AssertionError("N composed before the lattice check")

        monkeypatch.setattr(cli, "_load_operator", compose)
        lines = (ln.split("=", 1) for ln in SMALL_CFG.splitlines())
        cfg_path = write_cfg(tmp_path, "".join(f"{k}={edits.get(k, v)}\n" for k, v in lines))
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        assert cli.main(["reconstruct", "--config", cfg_path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "nx=9, ny=9 with margin" in err
        assert kept in err

    def test_cavity_free_lattice_without_points_exits_1(self, tmp_path, capsys):
        text = SMALL_CFG.replace("cavity_kind=circle", "cavity_kind=none")
        cfg_path = write_cfg(tmp_path, text.replace("margin=0.2", "margin=5"))
        assert cli.main(["reconstruct", "--config", cfg_path, "--out", str(tmp_path)]) == 1
        assert "keeps 0 probe points, too few" in capsys.readouterr().err

    def test_lattice_is_classified_once(self, pipeline, tmp_path, monkeypatch):
        calls = []
        real = recon.probe_lattice
        monkeypatch.setattr(recon, "probe_lattice", lambda *a: calls.append(a) or real(*a))
        out = tmp_path / "again"
        shutil.copytree(pipeline["out"], out)
        assert cli.main(["reconstruct", "--config", pipeline["cfg_path"], "--out", str(out)]) == 0
        assert len(calls) == 1
        assert (out / "indicator.csv").read_bytes() == (pipeline["out"] / "indicator.csv").read_bytes()


class TestVerifyCommand:
    def fake_report(self, name, passed):
        return verify.CheckReport(name, passed, {"residual": 0.5}, {"resolution": [8, 8]})

    def test_all_pass_exits_0_and_writes_report(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(
            verify,
            "ALL_CHECKS",
            (lambda ctx: self.fake_report("alpha", True), lambda ctx: self.fake_report("beta", True)),
        )
        cfg_path = write_cfg(tmp_path)
        out = str(tmp_path / "v")
        assert cli.main(["verify", "--config", cfg_path, "--out", out]) == 0
        import json

        payload = json.loads((tmp_path / "v" / "verify.json").read_text())
        assert payload["all_passed"] is True
        assert [c["name"] for c in payload["checks"]] == ["alpha", "beta"]
        assert "alpha: pass" in capsys.readouterr().out

    def test_report_carries_seconds_per_check(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            verify,
            "ALL_CHECKS",
            (lambda ctx: self.fake_report("alpha", True), lambda ctx: self.fake_report("beta", False)),
        )
        out = tmp_path / "v"
        cli.main(["verify", "--config", write_cfg(tmp_path), "--out", str(out)])
        for check in json.loads((out / "verify.json").read_text())["checks"]:
            assert isinstance(check["seconds"], float)
            assert 0.0 <= check["seconds"] < 60.0

    def test_any_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(
            verify,
            "ALL_CHECKS",
            (lambda ctx: self.fake_report("alpha", True), lambda ctx: self.fake_report("beta", False)),
        )
        cfg_path = write_cfg(tmp_path)
        out = str(tmp_path / "v")
        assert cli.main(["verify", "--config", cfg_path, "--out", out]) == 3
        import json

        payload = json.loads((tmp_path / "v" / "verify.json").read_text())
        assert payload["all_passed"] is False
        assert "beta: FAIL" in capsys.readouterr().out


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        out = str(tmp_path / "out")
        proc = subprocess.run(
            [sys.executable, "-m", "heatcavity.cli", "simulate", "--config", cfg_path, "--out", out],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "N.stop1").exists()

    def test_entry_point_config_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "heatcavity.cli", "simulate", "--config", "/no/file"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "config error" in proc.stderr


class TestImportCost:
    SCRIPT = """\
import json, sys
from heatcavity import cli
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
seen = {"import": scipy_modules()}
for command in ("simulate", "reconstruct", "spectrum"):
    assert cli.main([command, "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
seen["pipeline"] = scipy_modules()
print(json.dumps(seen))
"""

    VERIFY_SCRIPT = """\
import json, sys
import numpy as np
from heatcavity import oracles, verify
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
seen = {"import": scipy_modules()}
oracles.radial_disk_trace(np.array([0.05, 0.1]), dr=5e-3, dt=1e-3)
seen["oracle"] = scipy_modules()
st = verify.VerifyContext().setup((16, 12, 16))
verify._energy_identity(st, verify._smooth_field(st.omega, st.grid, np.random.default_rng(3)))
seen["energy"] = scipy_modules()
print(json.dumps(seen))
"""

    @staticmethod
    def run(script, *args):
        src = str(Path(heatcavity.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", script, *args],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_cli_simulate_and_reconstruct_load_no_scipy(self, tmp_path):
        # SMALL_CFG is the acceptance gate's case.  Importing scipy.linalg
        # costs 0.25-0.29 s of start-up per command
        seen = self.run(self.SCRIPT, write_cfg(tmp_path), str(tmp_path / "out"))
        assert seen == {"import": [], "pipeline": []}

    def test_verify_oracle_and_energy_identity_load_no_scipy(self):
        # the radial oracle steps through numpy's own dgttrf/dgttrs; scipy's
        # wrappers are the fallback where numpy's library exports neither
        if recon._lapack() is None:
            pytest.skip("numpy's LAPACK exports no 64-bit dgttrf/dgttrs")
        seen = self.run(self.VERIFY_SCRIPT)
        assert seen == {"import": [], "oracle": [], "energy": []}

    def test_cli_import_loads_no_multiprocessing(self):
        # the fork pool is imported when a large STOP1 write first needs it, and
        # no command needs concurrent.futures (with its logging and queue)
        script = (
            "import json, sys\nfrom heatcavity import cli\n"
            "packages = ('multiprocessing', 'concurrent')\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] in packages]\n"
            "print(json.dumps(sorted(loaded)))"
        )
        assert self.run(script) == []

    def test_cli_import_resolves_no_lapack_routine(self):
        # the LAPACK symbols are looked up by the first eigensolve
        script = "from heatcavity import cli\nprint(cli.recon._lapack.cache_info().currsize)"
        assert self.run(script) == 0
