"""Pipeline driver: simulate, reconstruct, spectrum, and verify commands.

Runs are described by a flat ``key=value`` config file; every artifact a
command writes is reproducible bit for bit from the config.

Exit codes: 0 success, 1 config or file error, 2 numerical failure, 3 check
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from . import io, ndmap, recon
from .forward import SolverError, TimeGrid, gram_weights
from .geometry import CurveSpec, make_curve, points_in_region
from .ndmap import NoiseSpec
from .recon import SamplingSpec
from .timing import timed

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
    """One run's config: a field per key, in canonical order, with its default.

    A field's annotation says how its value is written (see ``_parse_value``).
    """

    omega_kind: str = "circle"
    omega_params: tuple[float, ...] = (0.0, 0.0, 1.0)
    cavity_kind: str = "circle"    # "none" for a cavity-free conductor
    cavity_params: tuple[float, ...] = (0.0, 0.0, 0.35)
    M_omega: int = 32
    M_cavity: int = 24
    Nt: int = 32
    T: float = 0.5
    tau: float | None = None       # None means "auto" (see effective_tau)
    noise_level: float = 0.0
    noise_seed: int = 0
    nx: int = 21
    ny: int = 21
    s_slices: int = 1
    margin: float | None = None    # None means "auto" (see SamplingSpec)
    threshold: float = 0.2
    out_dir: str = "out"

    def __post_init__(self):
        if self.cavity_kind == "none":
            # a cavity-free config has no cavity parameters to echo
            object.__setattr__(self, "cavity_params", ())

    @property
    def omega(self) -> CurveSpec:
        return CurveSpec(self.omega_kind, self.omega_params)

    @property
    def cavity(self) -> CurveSpec | None:
        if self.cavity_kind == "none":
            return None
        return CurveSpec(self.cavity_kind, self.cavity_params)

    @property
    def noise(self) -> NoiseSpec:
        return NoiseSpec(self.noise_level, self.noise_seed)

    @property
    def sampling(self) -> SamplingSpec:
        return SamplingSpec(self.nx, self.ny, self.s_slices, self.margin)

    def validate(self) -> None:
        # meta's config echo holds a path on one line, without padding
        if self.out_dir.splitlines() != [self.out_dir]:
            raise ConfigError(f"out_dir must be a path on one line, got {self.out_dir!r}")
        if self.out_dir != self.out_dir.strip():
            raise ConfigError(
                f"out_dir must not start or end with whitespace, got {self.out_dir!r}"
            )
        for name in ("M_omega", "M_cavity", "Nt", "nx", "ny"):
            if getattr(self, name) < 8:
                raise ConfigError(f"{name} must be >= 8, got {getattr(self, name)}")
        if self.tau is not None and not 0.0 < self.tau < 1.0:
            raise ConfigError(f"tau must be in (0, 1) or auto, got {self.tau}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError(f"threshold must be in [0, 1], got {self.threshold}")
        try:
            # each spec refuses the values it cannot take
            _ = TimeGrid(self.T, self.Nt), self.noise, self.sampling
            omega, cavity = self.omega, self.cavity
            if cavity is not None:
                inside = points_in_region(
                    make_curve(cavity, max(self.M_cavity, 64)).nodes,
                    make_curve(omega, max(self.M_omega, 64)),
                ).all()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if cavity is not None and not inside:
            raise ConfigError("cavity must lie strictly inside the conductor")

    @property
    def effective_tau(self) -> float:
        if self.tau is not None:
            return self.tau
        return self.noise_level if self.noise_level > 0 else TAU_CLEAN


DEFAULT_CONFIG = RunConfig()

#: The annotation of each RunConfig field, by config key.
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(kind: str, text: str):
    """The value of a config key from its text, by its field's annotation:
    ``auto`` for None, a comma list for a float tuple."""
    if kind == "float | None":
        return None if text == "auto" else float(text)
    if kind == "tuple[float, ...]":
        return tuple(float(p) for p in text.split(",")) if text else ()
    return {"int": int, "float": float, "str": str}[kind](text)


def _format_value(value) -> str:
    """The canonical text of a config value; floats keep 17 digits."""
    if value is None:
        return "auto"
    if isinstance(value, tuple):
        return ",".join(io.format_float(p) for p in value)
    return io.format_float(value) if isinstance(value, float) else str(value)


def serialize_config(cfg: RunConfig) -> str:
    return "".join(f"{f.name}={_format_value(getattr(cfg, f.name))}\n" for f in fields(cfg))


def _config_keys(text: str) -> dict[str, str]:
    """The key=value map of a config text; unknown and repeated keys are refused."""
    raw: dict[str, str] = {}
    first: dict[str, int] = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {ln}: expected key=value, got {line!r}")
        key, val = stripped.split("=", 1)
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {ln}: unknown config key {key!r}")
        if key in first:
            raise ConfigError(
                f"line {ln}: duplicate config key {key!r} (first on line {first[key]})"
            )
        first[key] = ln
        raw[key] = val.strip()
    return raw


def _config_from_keys(raw: dict[str, str]) -> RunConfig:
    """Parse and validate a key map; absent keys take their defaults."""
    try:
        cfg = RunConfig(**{key: _parse_value(_FIELD_TYPES[key], val) for key, val in raw.items()})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    cfg.validate()
    return cfg


def parse_config(text: str) -> RunConfig:
    return _config_from_keys(_config_keys(text))


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """The config at path (the defaults when None) with the --out and --noise
    overrides applied to its keys before the one parse and validation."""
    raw: dict[str, str] = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = _config_keys(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if overrides.get("out") is not None:
        raw["out_dir"] = overrides["out"]
    if overrides.get("noise") is not None:
        raw["noise_level"] = str(overrides["noise"])
    # an empty key map is the default config, valid as written
    return _config_from_keys(raw) if raw else DEFAULT_CONFIG


def config_hash(cfg: RunConfig) -> str:
    """Content hash of the canonical config text (blob-style SHA-1)."""
    body = serialize_config(cfg).encode()
    return hashlib.sha1(b"blob %d\0" % len(body) + body).hexdigest()


#: The file in which ``simulate`` hands N's impulse responses to
#: ``reconstruct`` and ``spectrum``, with the ``operator_hash`` they were made for.
RESPONSES_FILE = "N_responses.npz"

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
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


def _peak_rss_mb() -> str:
    """Peak resident set size of this process and its reaped children, in MiB."""
    import resource

    who = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    kib = max(resource.getrusage(w).ru_maxrss for w in who)  # KiB on Linux
    return f"{kib / 1024:.1f}"


def _add_N_noise(cfg: RunConfig, N: ndmap.SpaceTimeOperator) -> ndmap.SpaceTimeOperator:
    """N with the noise of the config: its level, drawn with noise_seed + 1."""
    return ndmap.add_noise(N, NoiseSpec(cfg.noise_level, cfg.noise_seed + 1))


def cmd_simulate(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    timings: dict[str, float] = {}
    with timed(timings, "blocks"):
        setup = _build_problem(cfg)
    print(f"[simulate] assembled lag blocks ({timings['blocks']:.1f}s)")

    with timed(timings, "responses"):
        resp = setup.responses  # every impulse solve: the stages below solve nothing
    print(f"[simulate] impulse responses ({timings['responses']:.1f}s)")

    # without a cavity the measured map is the cavity-free one
    measured = resp["lambda_D" if cfg.cavity else "lambda_0"]
    ops = {}
    stages = [
        ("lambda_0", lambda: resp["lambda_0"]),
        ("lambda_D", lambda: ndmap.add_response_noise(measured, cfg.noise)),
        ("N", lambda: _add_N_noise(cfg, ndmap.assemble_N(setup)).matrix),
    ]
    for name, build in stages:
        with timed(timings, name):
            ops[name] = build()
        print(f"[simulate] {name}: {cfg.M_omega * cfg.Nt} columns ({timings[name]:.1f}s)")

    meta_path = _out_path(cfg, "meta")
    if os.path.exists(meta_path):
        # a meta left by an earlier run must not vouch for half-written operators
        os.remove(meta_path)
    with timed(timings, "write"):
        # costliest first: N is dense and all distinct, Λ_D and Λ_0 are
        # written from their lag stacks; all three map the conductor
        # boundary to itself, so they share one gram
        gram = gram_weights(setup.omega, setup.grid)
        operators = {name: (ops[name], gram) for name in ("N", "lambda_D", "lambda_0")}
        seconds, writers = io.write_operators(cfg.out_dir, operators, cfg.M_omega, cfg.Nt, cfg.T)
        # reconstruct and spectrum compose N again from these stacks; np.savez
        # stamps no time, so the file's bytes follow from the config
        f, h = ndmap.n_responses(setup)
        np.savez(
            _out_path(cfg, RESPONSES_FILE), f=f, h=h, operator_hash=np.array(_operator_hash(cfg))
        )
    timings.update({f"write.{name}": dt for name, dt in seconds.items()})

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
    meta["write_workers"] = writers
    io.write_kv(meta_path, meta)
    print(f"[simulate] wrote operators to {cfg.out_dir} ({timings['write']:.1f}s)")
    return EXIT_OK


def _load_operator(cfg: RunConfig, omega) -> ndmap.SpaceTimeOperator:
    """N composed from the impulse responses ``simulate`` handed off, with the
    config's noise drawn again as ``simulate`` drew it.

    The file is refused when it is missing or unreadable, lacks a key, was
    simulated for another problem (its ``operator_hash``), or holds stacks
    of the wrong shape or non-finite entries.
    """
    import zipfile  # for np.load's archive errors; not needed at start-up

    path = os.path.join(cfg.out_dir, RESPONSES_FILE)
    if not os.path.exists(path):
        raise ConfigError(f"missing {path}; run simulate first")
    try:
        # np.load leaves a file it opened itself open when it is no zip
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            made_by, f, h = str(data["operator_hash"]), data["f"], data["h"]
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if made_by != _operator_hash(cfg):
        raise ConfigError(
            f"{path} was simulated for another geometry, resolution or noise "
            f"(operator_hash {made_by}); run simulate with this config"
        )
    m, m_c, nt = cfg.M_omega, cfg.M_cavity if cfg.cavity else 0, cfg.Nt
    for name, stack, shape in (("f", f, (m_c, nt, m)), ("h", h, (m, nt, m_c))):
        if stack.dtype != np.float64 or stack.shape != shape:
            raise ConfigError(
                f"{path}: {name} is {stack.dtype} {stack.shape}, expected float64 {shape}"
            )
        if not np.isfinite(stack).all():
            raise ConfigError(f"{path}: {name} holds non-finite entries")
    N = ndmap.compose_N(omega, TimeGrid(cfg.T, cfg.Nt), f, h)
    return _add_N_noise(cfg, N)


def _spectral_data(cfg: RunConfig, omega, timings: dict, vectors: bool = True):
    """The eigensystem of the symmetrized N, with its retained vectors when
    asked, and N's symmetry defect.  timings gains the stages of
    recon.eigendecompose as ``eigh.<stage>``."""
    with timed(timings, "read"):
        op = _load_operator(cfg, omega)
    with timed(timings, "symmetrize"):
        S, defect = ndmap.symmetrize(op)
        gram = op.gram_domain
        del op  # eigh runs without N in memory
    eigh_timings: dict[str, float] = {}
    with timed(timings, "eigh"):
        # S's buffer becomes the eigenvectors
        eig = recon.eigendecompose(S, gram, cfg.effective_tau, vectors, eigh_timings)
    timings.update((f"eigh.{stage}", t) for stage, t in eigh_timings.items())
    return eig, defect


def _scoring_lattice(cfg: RunConfig, omega, cavity):
    """recon.probe_lattice of the config, refused when it keeps no point or,
    with a cavity, no point on one side of the cavity boundary: a constant
    truth mask makes any mask's jaccard meaningless."""
    pts, inside, margin = lattice = recon.probe_lattice(omega, cfg.sampling, cavity)
    # inside.all() == inside.any(): every kept point lies on one side
    if len(pts) == 0 or (cavity is not None and inside.all() == inside.any()):
        need = "" if cavity is None else f", {int(inside.sum())} inside the cavity"
        raise ConfigError(
            f"sampling lattice nx={cfg.nx}, ny={cfg.ny} with margin "
            f"{margin:.6g} keeps {len(pts)} probe points{need}, too few to score a mask: "
            "raise nx and ny or lower margin"
        )
    return lattice


def cmd_spectrum(cfg: RunConfig) -> int:
    eig, defect = _spectral_data(cfg, make_curve(cfg.omega, cfg.M_omega), {}, vectors=False)
    io.write_spectrum_csv(_out_path(cfg, "spectrum.csv"), eig.lambdas)
    print(
        f"[spectrum] lambda_1={eig.lambdas[0]:.6e}  retained n*={eig.retained} "
        f"at tau={cfg.effective_tau:g}  symmetry defect={defect:.3e}"
    )
    return EXIT_OK


def cmd_reconstruct(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    timings: dict[str, float] = {}
    omega = make_curve(cfg.omega, cfg.M_omega)
    cavity = make_curve(cfg.cavity, cfg.M_cavity) if cfg.cavity else None
    probe_timings: dict[str, float] = {}
    with timed(timings, "probes"), timed(probe_timings, "lattice"):
        # before N is composed: a lattice that cannot score is refused
        lattice = _scoring_lattice(cfg, omega, cavity)
    eig, defect = _spectral_data(cfg, omega, timings)
    with timed(timings, "write"):
        io.write_spectrum_csv(_out_path(cfg, "spectrum.csv"), eig.lambdas)
    with timed(timings, "probes"):
        grid = TimeGrid(cfg.T, cfg.Nt)
        grid_out = recon.reconstruct(
            eig,
            omega,
            grid,
            cfg.sampling,
            cfg.threshold,
            cavity=cavity,
            lattice=lattice,
            timings=probe_timings,
        )
    with timed(timings, "write"):
        io.write_indicator_csv(_out_path(cfg, "indicator.csv"), grid_out)

    finite = grid_out.values[np.isfinite(grid_out.values)]
    margins = recon.mask_margins(grid_out.normalized, cfg.threshold)
    summary = {
        "command": "reconstruct",
        "lambda_1": io.format_float(eig.lambdas[0]),
        "lambda_min_ratio": io.format_float(eig.lambdas[-1] / eig.lambdas[0]),
        # ||N - N'|| / ||N|| in the Gram norm: twice the relative size of
        # the part that symmetrize discards
        "symmetry_defect": io.format_float(defect),
        "retained": eig.retained,
        "tau_effective": io.format_float(cfg.effective_tau),
        "threshold": io.format_float(cfg.threshold),
        "points": len(grid_out),
        "inf_probes": int(np.sum(np.isinf(grid_out.values))),
        # decades W spans: small when noise has flattened the indicator
        "w_contrast": io.format_float(
            np.log10(finite.max() / finite.min()) if finite.size else np.nan
        ),
        "mask_size": int(np.sum(grid_out.mask)),
        # how near the mask is to flipping a point: its smallest relative
        # distance from the threshold, and the points within NEAR_CUT
        "mask_margin": io.format_float(margins.min()),
        "mask_near_cut": int(np.sum(margins < recon.NEAR_CUT)),
    }
    if cavity is not None:
        summary["jaccard"] = io.format_float(recon.jaccard(grid_out.mask, grid_out.truth))
    for name in ("read", "symmetrize", "eigh", "probes", "write"):
        summary[f"seconds.{name}"] = io.format_float(timings[name])
    for stage in ("tridiagonal", "values", "vectors"):
        # np.linalg.eigh does not split its solve: it reads as values alone
        summary[f"seconds.eigh.{stage}"] = io.format_float(timings.get(f"eigh.{stage}", 0.0))
    for stage in ("lattice", "traces", "indicator"):
        summary[f"seconds.probes.{stage}"] = io.format_float(probe_timings[stage])
    total = time.perf_counter() - t0
    summary["seconds.total"] = io.format_float(total)
    # lapack-inplace solves in S's buffer plus 1.5n^2 doubles; numpy holds
    # about 2.5n^2 more
    summary["eigh_route"] = recon.eigh_route()
    summary["peak_rss_mb"] = _peak_rss_mb()
    io.write_kv(_out_path(cfg, "summary"), summary)
    print(
        f"[reconstruct] {len(grid_out)} probes, n*={eig.retained}"
        + (f", jaccard={summary['jaccard']}" if "jaccard" in summary else "")
        + f" ({total:.1f}s)"
    )
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    from . import verify  # its checks and oracles; no other command loads them

    ctx = verify.VerifyContext()
    reports = []
    for chk in verify.ALL_CHECKS:
        t0 = time.perf_counter()
        rep = chk(ctx)
        rep.seconds = time.perf_counter() - t0
        reports.append(rep)
        status = "pass" if rep.passed else "FAIL"
        print(f"[verify] {rep.name}: {status} ({rep.seconds:.1f}s)")
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
    parser.add_argument("--noise", metavar="LEVEL", type=float, help="override noise level")
    # kept, with its >= 1 check, so that existing command lines still parse
    parser.add_argument(
        "--threads", metavar="N", type=int, default=1, help="has no effect: probes run serially"
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
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        cfg = load_config(args.config, vars(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        # a failed write may name no file, as a full disk does
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
