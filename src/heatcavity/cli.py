"""Pipeline driver: simulate, reconstruct, spectrum, and verify commands.

Runs are described by a flat ``key=value`` config file; every artifact a
command writes is reproducible bit for bit from the config and seeds, no
matter how many worker threads evaluate probe batches.

Exit codes: 0 success, 1 config error, 2 numerical failure, 3 check
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from . import io, ndmap, recon, verify
from .forward import SolverError, TimeGrid, assemble_blocks
from .geometry import CurveSpec, GeometryError, OnBoundaryError, make_curve, points_in_region
from .ndmap import NoiseSpec
from .recon import SamplingSpec

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_CHECK = 3

#: Default cutoff when the config says ``tau=auto``: a deep cutoff for
#: clean data, the noise level itself when noise is present.
TAU_CLEAN = 1e-8


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    omega: CurveSpec
    cavity: CurveSpec | None
    M_omega: int
    M_cavity: int
    Nt: int
    T: float
    tau: float | None          # None means "auto" (see effective_tau)
    noise: NoiseSpec
    sampling: SamplingSpec
    threshold: float
    out_dir: str
    seed: int

    def validate(self) -> None:
        counts = {
            "M_omega": self.M_omega,
            "M_cavity": self.M_cavity,
            "Nt": self.Nt,
            "nx": self.sampling.nx,
            "ny": self.sampling.ny,
        }
        for name, val in counts.items():
            if val < 8:
                raise ConfigError(f"{name} must be >= 8, got {val}")
        if self.sampling.s_slices < 1:
            raise ConfigError("s_slices must be >= 1")
        if self.T <= 0:
            raise ConfigError(f"T must be positive, got {self.T}")
        if self.tau is not None and not 0.0 < self.tau < 1.0:
            raise ConfigError(f"tau must be in (0, 1) or auto, got {self.tau}")
        if not 0.0 <= self.noise.level < 1.0:
            raise ConfigError(f"noise_level must be in [0, 1), got {self.noise.level}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError(f"threshold must be in [0, 1], got {self.threshold}")
        if self.cavity is not None:
            cavity = make_curve(self.cavity, max(self.M_cavity, 64))
            omega = make_curve(self.omega, max(self.M_omega, 64))
            try:
                inside = points_in_region(cavity.nodes, omega).all()
            except (GeometryError, OnBoundaryError) as exc:
                raise ConfigError(str(exc)) from exc
            if not inside:
                raise ConfigError("cavity must lie strictly inside the conductor")

    @property
    def effective_tau(self) -> float:
        if self.tau is not None:
            return self.tau
        return self.noise.level if self.noise.level > 0 else TAU_CLEAN


DEFAULT_CONFIG = RunConfig(
    omega=CurveSpec("circle", (0.0, 0.0, 1.0)),
    cavity=CurveSpec("circle", (0.0, 0.0, 0.35)),
    M_omega=32,
    M_cavity=24,
    Nt=32,
    T=0.5,
    tau=None,
    noise=NoiseSpec(0.0, 0),
    sampling=SamplingSpec(21, 21, 1, None),
    threshold=0.2,
    out_dir="out",
    seed=0,
)

_CONFIG_KEYS = (
    "omega_kind",
    "omega_params",
    "cavity_kind",
    "cavity_params",
    "M_omega",
    "M_cavity",
    "Nt",
    "T",
    "tau",
    "noise_level",
    "noise_seed",
    "nx",
    "ny",
    "s_slices",
    "margin",
    "threshold",
    "out_dir",
    "seed",
)


def serialize_config(cfg: RunConfig) -> str:
    def params(spec):
        return ",".join(io.format_float(p) for p in spec.params)

    vals = {
        "omega_kind": cfg.omega.kind,
        "omega_params": params(cfg.omega),
        "cavity_kind": cfg.cavity.kind if cfg.cavity else "none",
        "cavity_params": params(cfg.cavity) if cfg.cavity else "",
        "M_omega": cfg.M_omega,
        "M_cavity": cfg.M_cavity,
        "Nt": cfg.Nt,
        "T": io.format_float(cfg.T),
        "tau": "auto" if cfg.tau is None else io.format_float(cfg.tau),
        "noise_level": io.format_float(cfg.noise.level),
        "noise_seed": cfg.noise.seed,
        "nx": cfg.sampling.nx,
        "ny": cfg.sampling.ny,
        "s_slices": cfg.sampling.s_slices,
        "margin": "auto" if cfg.sampling.margin is None else io.format_float(cfg.sampling.margin),
        "threshold": io.format_float(cfg.threshold),
        "out_dir": cfg.out_dir,
        "seed": cfg.seed,
    }
    return "".join(f"{k}={vals[k]}\n" for k in _CONFIG_KEYS)


def parse_config(text: str) -> RunConfig:
    raw: dict[str, str] = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {ln}: expected key=value, got {line!r}")
        key, val = stripped.split("=", 1)
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {ln}: unknown config key {key!r}")
        raw[key] = val.strip()

    def get(key, default):
        return raw.get(key, default)

    try:
        omega = CurveSpec(
            get("omega_kind", "circle"),
            tuple(float(v) for v in get("omega_params", "0,0,1").split(",")),
        )
        cavity_kind = get("cavity_kind", "circle")
        if cavity_kind == "none":
            cavity = None
        else:
            cavity = CurveSpec(
                cavity_kind,
                tuple(float(v) for v in get("cavity_params", "0,0,0.35").split(",")),
            )
        tau_raw = get("tau", "auto")
        margin_raw = get("margin", "auto")
        cfg = RunConfig(
            omega=omega,
            cavity=cavity,
            M_omega=int(get("M_omega", "32")),
            M_cavity=int(get("M_cavity", "24")),
            Nt=int(get("Nt", "32")),
            T=float(get("T", "0.5")),
            tau=None if tau_raw == "auto" else float(tau_raw),
            noise=NoiseSpec(float(get("noise_level", "0")), int(get("noise_seed", "0"))),
            sampling=SamplingSpec(
                int(get("nx", "21")),
                int(get("ny", "21")),
                int(get("s_slices", "1")),
                None if margin_raw == "auto" else float(margin_raw),
            ),
            threshold=float(get("threshold", "0.2")),
            out_dir=get("out_dir", "out"),
            seed=int(get("seed", "0")),
        )
    except (ValueError, GeometryError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc
    cfg.validate()
    return cfg


def load_config(path: str | None, overrides: dict) -> RunConfig:
    if path is None:
        cfg = DEFAULT_CONFIG
    else:
        try:
            with open(path) as fh:
                cfg = parse_config(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        updates = {}
        if overrides.get("out") is not None:
            updates["out_dir"] = overrides["out"]
        if overrides.get("seed") is not None:
            updates["seed"] = int(overrides["seed"])
        if overrides.get("noise") is not None:
            level = float(overrides["noise"])
            updates["noise"] = NoiseSpec(level, cfg.noise.seed)
        if updates:
            cfg = replace(cfg, **updates)
        cfg.validate()
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc
    return cfg


def config_hash(cfg: RunConfig) -> str:
    """Content hash of the canonical config text (blob-style SHA-1)."""
    body = serialize_config(cfg).encode()
    return hashlib.sha1(b"blob %d\0" % len(body) + body).hexdigest()


#: Config keys that determine the operators ``simulate`` writes.
_OPERATOR_KEYS = (
    "omega_kind",
    "omega_params",
    "cavity_kind",
    "cavity_params",
    "M_omega",
    "M_cavity",
    "Nt",
    "T",
    "noise_level",
    "noise_seed",
)


def _operator_hash(cfg: RunConfig) -> str:
    """SHA-256 of the canonical config lines that ``simulate`` depends on."""
    lines = serialize_config(cfg).splitlines(keepends=True)
    body = "".join(ln for ln in lines if ln.split("=", 1)[0] in _OPERATOR_KEYS)
    return hashlib.sha256(body.encode()).hexdigest()


def _build_problem(cfg: RunConfig) -> ndmap.ProblemSetup:
    omega = make_curve(cfg.omega, cfg.M_omega)
    cavity = make_curve(cfg.cavity, cfg.M_cavity) if cfg.cavity else None
    return ndmap.ProblemSetup.build(omega, cavity, TimeGrid(cfg.T, cfg.Nt))


def _out_path(cfg: RunConfig, name: str):
    import os

    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


@contextmanager
def _timed(timings: dict, stage: str):
    """Add the ``perf_counter`` seconds of the enclosed block to ``timings[stage]``."""
    start = time.perf_counter()
    yield
    timings[stage] = timings.get(stage, 0.0) + time.perf_counter() - start


def _peak_rss_mb() -> str:
    """Peak resident set size of this process and its reaped children, in MiB."""
    import resource

    who = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    kib = max(resource.getrusage(w).ru_maxrss for w in who)  # KiB on Linux
    return f"{kib / 1024:.1f}"


def cmd_simulate(cfg: RunConfig, threads: int = 1) -> int:
    t0 = time.perf_counter()
    timings: dict[str, float] = {}
    with _timed(timings, "blocks"):
        setup = _build_problem(cfg)
    print(f"[simulate] assembled lag blocks ({timings['blocks']:.1f}s)")

    ops = {}
    stages = [
        ("lambda_0", lambda: ndmap.assemble_lambda(setup, False)),
        # without a cavity the measured map is the cavity-free one
        ("lambda_D", lambda: ndmap.assemble_lambda(setup, True) if cfg.cavity else ops["lambda_0"]),
        ("N", lambda: ndmap.assemble_N(setup)),
    ]
    for name, build in stages:
        with _timed(timings, name):
            ops[name] = build()
        print(f"[simulate] {name}: {ops[name].matrix.shape[0]} columns ({timings[name]:.1f}s)")

    if cfg.noise.level > 0:
        ops["lambda_D"] = ndmap.add_noise(
            ops["lambda_D"], NoiseSpec(cfg.noise.level, cfg.noise.seed)
        )
        ops["N"] = ndmap.add_noise(ops["N"], NoiseSpec(cfg.noise.level, cfg.noise.seed + 1))

    with _timed(timings, "write"):
        for name in ("lambda_D", "lambda_0", "N"):
            op = ops[name]
            with _timed(timings, f"write.{name}"):
                io.write_stop1(
                    _out_path(cfg, f"{name}.stop1"), op.matrix, cfg.M_omega, cfg.Nt, cfg.T
                )
                io.write_gram(_out_path(cfg, f"{name}.gram"), op.gram_domain)

    meta = {
        "command": "simulate",
        "input_hash": config_hash(cfg),
        "operator_hash": _operator_hash(cfg),
    }
    for line in serialize_config(cfg).strip().splitlines():
        k, v = line.split("=", 1)
        meta[f"config.{k}"] = v
    for name, dt in timings.items():
        meta[f"seconds.{name}"] = io.format_float(dt)
    meta["seconds.total"] = io.format_float(time.perf_counter() - t0)
    meta["peak_rss_mb"] = _peak_rss_mb()
    io.write_kv(_out_path(cfg, "meta"), meta)
    print(f"[simulate] wrote operators to {cfg.out_dir} ({timings['write']:.1f}s)")
    return EXIT_OK


def _load_operator(cfg: RunConfig, name: str):
    """Read an operator and its gram, refusing files made for another problem.

    The header and the provenance hash are checked before the body is parsed.
    """
    import os

    mpath = os.path.join(cfg.out_dir, f"{name}.stop1")
    gpath = os.path.join(cfg.out_dir, f"{name}.gram")
    if not os.path.exists(mpath) or not os.path.exists(gpath):
        raise ConfigError(f"missing operator files {mpath} / {gpath}; run simulate first")
    try:
        head = io.read_stop1_header(mpath)
        if (head["M"], head["Nt"]) != (cfg.M_omega, cfg.Nt) or head["T"] != cfg.T:
            raise ConfigError(
                f"{mpath} was produced at (M={head['M']}, Nt={head['Nt']}, T={head['T']}), "
                f"config wants (M={cfg.M_omega}, Nt={cfg.Nt}, T={cfg.T})"
            )
        n = cfg.M_omega * cfg.Nt
        if (head["rows"], head["cols"]) != (n, n):
            raise ConfigError(f"{mpath} has unexpected shape ({head['rows']}, {head['cols']})")
        # operators copied without their meta carry no provenance to compare
        meta_path = os.path.join(cfg.out_dir, "meta")
        if os.path.exists(meta_path):
            made_by = io.read_kv(meta_path).get("operator_hash")
            if made_by != _operator_hash(cfg):
                raise ConfigError(
                    f"{mpath} was simulated for another geometry, resolution or noise "
                    f"(operator_hash {made_by} in {meta_path}); run simulate with this config"
                )
        matrix, _ = io.read_stop1(mpath)
        gram = io.read_gram(gpath)
    except io.FormatError as exc:
        raise ConfigError(str(exc)) from exc
    return matrix, gram


def _spectral_data(cfg: RunConfig, timings: dict):
    with _timed(timings, "read"):
        nmat, gram = _load_operator(cfg, "N")
    with _timed(timings, "eigh"):
        omega = make_curve(cfg.omega, cfg.M_omega)
        grid = TimeGrid(cfg.T, cfg.Nt)
        op = ndmap.SpaceTimeOperator(nmat, (omega, grid), (omega, grid), gram, gram)
        _, S = ndmap.symmetrize(op)
        eig = recon.eigendecompose(S, gram, cfg.effective_tau)
    return omega, grid, eig


def cmd_spectrum(cfg: RunConfig, threads: int = 1) -> int:
    _, _, eig = _spectral_data(cfg, {})
    io.write_spectrum_csv(_out_path(cfg, "spectrum.csv"), eig.lambdas)
    print(
        f"[spectrum] lambda_1={eig.lambdas[0]:.6e}  retained n*={eig.retained} "
        f"at tau={cfg.effective_tau:g}"
    )
    return EXIT_OK


def cmd_reconstruct(cfg: RunConfig, threads: int = 1) -> int:
    t0 = time.perf_counter()
    timings: dict[str, float] = {}
    omega, grid, eig = _spectral_data(cfg, timings)
    with _timed(timings, "write"):
        io.write_spectrum_csv(_out_path(cfg, "spectrum.csv"), eig.lambdas)
    with _timed(timings, "probes"):
        region = assemble_blocks(omega, grid)
        cavity = make_curve(cfg.cavity, cfg.M_cavity) if cfg.cavity else None
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                grid_out = recon.reconstruct(
                    eig,
                    omega,
                    grid,
                    cfg.sampling,
                    cfg.threshold,
                    cavity=cavity,
                    region=region,
                    chunk_map=pool.map,
                )
        else:
            grid_out = recon.reconstruct(
                eig, omega, grid, cfg.sampling, cfg.threshold, cavity=cavity, region=region
            )
    with _timed(timings, "write"):
        io.write_indicator_csv(_out_path(cfg, "indicator.csv"), grid_out)

    summary = {
        "command": "reconstruct",
        "lambda_1": io.format_float(eig.lambdas[0]),
        "retained": eig.retained,
        "tau_effective": io.format_float(cfg.effective_tau),
        "threshold": io.format_float(cfg.threshold),
        "points": len(grid_out),
        "inf_probes": int(np.sum(np.isinf(grid_out.values))),
        "mask_size": int(np.sum(grid_out.mask)),
    }
    if cavity is not None:
        summary["jaccard"] = io.format_float(recon.jaccard(grid_out.mask, grid_out.truth))
    for name in ("read", "eigh", "probes", "write"):
        summary[f"seconds.{name}"] = io.format_float(timings[name])
    total = time.perf_counter() - t0
    summary["seconds.total"] = io.format_float(total)
    summary["peak_rss_mb"] = _peak_rss_mb()
    io.write_kv(_out_path(cfg, "summary"), summary)
    print(
        f"[reconstruct] {len(grid_out)} probes, n*={eig.retained}"
        + (f", jaccard={summary['jaccard']}" if "jaccard" in summary else "")
        + f" ({total:.1f}s)"
    )
    return EXIT_OK


def cmd_verify(cfg: RunConfig, threads: int = 1) -> int:
    ctx = verify.VerifyContext()
    reports = []
    for chk in verify.ALL_CHECKS:
        t0 = time.perf_counter()
        rep = chk(ctx)
        reports.append(rep)
        status = "pass" if rep.passed else "FAIL"
        print(f"[verify] {rep.name}: {status} ({time.perf_counter()-t0:.1f}s)")
    text = verify.report_to_json(reports)
    with open(_out_path(cfg, "verify.json"), "w") as fh:
        fh.write(text + "\n")
    if not all(r.passed for r in reports):
        return EXIT_CHECK
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatcavity",
        description="Cavity reconstruction laboratory for transient heat conduction",
    )
    parser.add_argument("command", choices=("simulate", "reconstruct", "verify", "spectrum"))
    parser.add_argument("--config", metavar="PATH", help="flat key=value config file")
    parser.add_argument("--out", metavar="DIR", help="override output directory")
    parser.add_argument("--seed", metavar="N", type=int, help="override master seed")
    parser.add_argument("--noise", metavar="LEVEL", type=float, help="override noise level")
    parser.add_argument(
        "--threads", metavar="N", type=int, default=1, help="worker threads for probe batches"
    )
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "reconstruct": cmd_reconstruct,
    "verify": cmd_verify,
    "spectrum": cmd_spectrum,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, vars(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](cfg, threads=max(1, args.threads))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
