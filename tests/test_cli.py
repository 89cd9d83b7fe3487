"""Pipeline driver: config handling, artifacts, exit codes, reproducibility."""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from heatcavity import cli, io as hio, verify
from heatcavity.cli import (
    DEFAULT_CONFIG,
    ConfigError,
    RunConfig,
    config_hash,
    load_config,
    parse_config,
    serialize_config,
)
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
seed=0
"""


def write_cfg(tmp_path, text=SMALL_CFG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


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
        assert "cavity_kind=none" in text
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
            "T=-0.5",
            "T=0",
            "tau=0",
            "tau=1.5",
            "noise_level=-0.1",
            "noise_level=1.0",
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
        path = write_cfg(tmp_path)
        cfg = load_config(path, {"out": str(tmp_path / "o"), "seed": 7, "noise": 0.05})
        assert cfg.out_dir == str(tmp_path / "o")
        assert cfg.seed == 7
        assert cfg.noise == NoiseSpec(0.05, 0)

    def test_override_validation_applies(self, tmp_path):
        path = write_cfg(tmp_path)
        with pytest.raises(ConfigError):
            load_config(path, {"noise": 1.5})


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
        assert config_hash(base) != config_hash(parse_config(SMALL_CFG + "seed=1\n"))


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
        for stage in ("blocks", "write"):
            assert float(meta[f"seconds.{stage}"]) >= 0.0

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
        for stage in ("read", "eigh", "probes", "write", "total"):
            assert float(summary[f"seconds.{stage}"]) >= 0.0

    def test_meta_operator_hash_ignores_reconstruct_keys(self, pipeline):
        meta = hio.read_kv(pipeline["out"] / "meta")
        steer = SMALL_CFG.replace("threshold=0.2", "threshold=0.5").replace("nx=9", "nx=11")
        assert meta["operator_hash"] == cli._operator_hash(parse_config(steer + "seed=3\n"))
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

    def test_summary_jaccard_matches_columns(self, pipeline):
        from heatcavity.recon import jaccard

        table = hio.read_indicator_csv(pipeline["out"] / "indicator.csv")
        summary = hio.read_kv(pipeline["out"] / "summary")
        assert float(summary["jaccard"]) == jaccard(table["mask"], table["truth"])


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
                for name in ("N.stop1", "N.gram", "spectrum.csv", "indicator.csv")
            }
        assert blobs["a"] == blobs["b"]

    def test_threads_do_not_change_bits(self, pipeline, tmp_path):
        out = tmp_path / "threaded"
        shutil.copytree(pipeline["out"], out)
        before = (out / "indicator.csv").read_bytes()
        code = cli.main(
            ["reconstruct", "--config", pipeline["cfg_path"], "--out", str(out), "--threads", "3"]
        )
        assert code == 0
        assert (out / "indicator.csv").read_bytes() == before

    def test_threads_do_not_change_bits_across_chunks(self, tmp_path):
        # 129 probe points fill three probe chunks, so worker threads solve
        # concurrently on the shared lag-block factorization
        cfg_path = write_cfg(tmp_path, SMALL_CFG.replace("nx=9\nny=9", "nx=17\nny=17"))
        out = tmp_path / "serial"
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
        shutil.copytree(out, tmp_path / "threaded")
        for name, threads in (("serial", "1"), ("threaded", "2")):
            args = ["--config", cfg_path, "--out", str(tmp_path / name), "--threads", threads]
            assert cli.main(["reconstruct", *args]) == 0
        assert hio.read_kv(out / "summary")["points"] == "129"
        serial = (out / "indicator.csv").read_bytes()
        assert (tmp_path / "threaded" / "indicator.csv").read_bytes() == serial

    def test_threads_do_not_change_bits_with_shared_window_cache(self, tmp_path):
        # 258 probes: three chunks of points, each at two off-grid s values;
        # worker threads store the region's per-s lag-block stacks concurrently
        cfg_text = SMALL_CFG.replace("nx=9\nny=9", "nx=17\nny=17")
        cfg_path = write_cfg(tmp_path, cfg_text.replace("s_slices=1", "s_slices=2"))
        out = tmp_path / "serial"
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
        shutil.copytree(out, tmp_path / "threaded")
        for name, threads in (("serial", "1"), ("threaded", "2")):
            args = ["--config", cfg_path, "--out", str(tmp_path / name), "--threads", threads]
            assert cli.main(["reconstruct", *args]) == 0
        assert hio.read_kv(out / "summary")["points"] == "258"
        serial = (out / "indicator.csv").read_bytes()
        assert (tmp_path / "threaded" / "indicator.csv").read_bytes() == serial

    def test_noise_reproducible_and_seed_sensitive(self, tmp_path):
        cfg_path = write_cfg(tmp_path, SMALL_CFG + "noise_level=0.01\n")
        outs = {}
        for run, extra in (("a", []), ("b", []), ("c", ["--seed", "1"])):
            out = str(tmp_path / run)
            assert cli.main(["simulate", "--config", cfg_path, "--out", out, *extra]) == 0
            outs[run] = (tmp_path / run / "N.stop1").read_bytes()
        assert outs["a"] == outs["b"]
        # master seed does not feed the noise draw; the noise_seed key does
        assert outs["a"] == outs["c"]
        cfg2 = write_cfg(tmp_path, SMALL_CFG + "noise_level=0.01\nnoise_seed=5\n", "n2.cfg")
        out = str(tmp_path / "d")
        assert cli.main(["simulate", "--config", cfg2, "--out", out]) == 0
        assert (tmp_path / "d" / "N.stop1").read_bytes() != outs["a"]

    def test_noisy_operators_match_per_value_rendering(self, tmp_path):
        cfg_path = write_cfg(tmp_path, SMALL_CFG + "noise_level=0.01\n")
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
        cfg_path = write_cfg(tmp_path, SMALL_CFG + "M_omega=4\n")
        assert cli.main(["simulate", "--config", cfg_path]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exits_1(self, capsys):
        assert cli.main(["simulate", "--config", "/no/such/file.cfg"]) == 1
        assert "cannot read config" in capsys.readouterr().err

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
        assert "was produced at" in capsys.readouterr().err

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

    def test_meta_without_operator_hash_exits_1(self, pipeline, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        meta = hio.read_kv(out / "meta")
        del meta["operator_hash"]
        hio.write_kv(out / "meta", meta)
        assert cli.main(["reconstruct", "--config", pipeline["cfg_path"], "--out", str(out)]) == 1
        assert "simulated for another" in capsys.readouterr().err

    def test_truncated_operator_exits_1_naming_the_file(self, pipeline, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        body = (out / "N.stop1").read_bytes()
        (out / "N.stop1").write_bytes(body[: len(body) // 2])
        assert cli.main(["reconstruct", "--config", pipeline["cfg_path"], "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "N.stop1" in err

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("Nt=8", "Nt=16", "was produced at"),
            ("cavity_params=0,0,0.35", "cavity_params=0.1,0,0.3", "simulated for another"),
        ],
    )
    def test_mismatch_refused_before_parsing(
        self, pipeline, tmp_path, capsys, monkeypatch, old, new, message
    ):
        def parse(path):
            raise AssertionError(f"{path} parsed before the checks")

        monkeypatch.setattr(hio, "read_stop1", parse)
        other = write_cfg(tmp_path, SMALL_CFG.replace(old, new), "other.cfg")
        assert cli.main(["reconstruct", "--config", other, "--out", str(pipeline["out"])]) == 1
        assert message in capsys.readouterr().err

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
        for name in ("N.stop1", "N.gram"):
            shutil.copy(pipeline["out"] / name, out / name)
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
        for name in ("N.stop1", "N.gram"):
            shutil.copy(pipeline["out"] / name, out / name)
        assert cli.main(["reconstruct", "--config", cfg_path, "--out", str(out)]) == 0
        table = hio.read_indicator_csv(out / "indicator.csv")
        assert np.all(table["mask"])


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
