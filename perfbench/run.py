#!/usr/bin/env python3
"""Benchmark of the heatcavity CLI: time, memory and output checks per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is the checkout's own
``src/heatcavity``, put on PYTHONPATH (there is nothing to build).

One client runs a closed loop: each pass issues the workload's CLI commands
one after another, each a fresh ``python -m heatcavity.cli`` process, and
passes repeat until ``--seconds`` is used up (at least one pass).  Before
the loop come one untimed warm-up and four timed set-up probes; four more
follow it, so the set-up median spans more than one phase of the host's
CPU speed.  Every command's output is checked; a nonzero exit or a failed check counts the
command as a failed operation.

With ``--trace 0`` the last line holds the end-to-end metrics listed in
BENCHMARK.json.  With ``--trace 1`` passes run in-process instead, alternately
untraced and traced (see tracer.py), and the last line holds the per-layer
metrics and the tracing overhead.  Every temporary file lives under
``.perfbench_work/`` in the checkout and is removed before exit.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import span_totals
from workloads import KITE_32_THREADED, SELFTEST, WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Every run must end within 180 s; children still running at this point
#: are killed and the run fails without a result.
DEADLINE_S = 170.0
#: Timed set-up probes, half before the passes and half after them.
SETUP_SAMPLES = 8
SETUP_CODE = (
    "import sys\n"
    "from heatcavity.cli import load_config\n"
    "load_config(sys.argv[1] or None, {})\n"
)


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Step:
    name: str
    argv: list[str]  # arguments of heatcavity.cli.main
    out: Path
    copy_to: Path | None = None


def plan(wl: Workload, cfg: Path | None, pass_dir: Path) -> list[Step]:
    out, out_t = pass_dir / "out", pass_dir / "out_threaded"
    conf = ["--config", str(cfg)] if cfg else []
    steps = []
    for name in wl.steps:
        if name == "simulate":
            copy_to = out_t if "reconstruct_threaded" in wl.steps else None
            steps.append(Step(name, ["simulate", *conf, "--out", str(out)], out, copy_to))
        elif name == "reconstruct":
            steps.append(Step(name, ["reconstruct", *conf, "--out", str(out), "--threads", "1"], out))
        elif name == "reconstruct_threaded":
            threads = str(cpu_count())
            steps.append(Step(name, ["reconstruct", *conf, "--out", str(out_t), "--threads", threads], out_t))
        else:
            steps.append(Step(name, ["verify", *conf, "--out", str(out)], out))
    return steps


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Checker:
    """Checks the artifacts each step leaves, for one run.

    Operator files are re-read through ``heatcavity.io`` the first time a
    digest is seen; later passes must reproduce the first pass's digests.
    """

    def __init__(self, cfg_text: str | None, jaccard_floor: float | None):
        from heatcavity import cli

        cfg = cli.parse_config(cfg_text) if cfg_text else cli.DEFAULT_CONFIG
        self.shape = (cfg.M_omega, cfg.Nt, cfg.T)
        self.floor = jaccard_floor
        self.first: dict[str, str] = {}
        self.read_back: set[str] = set()

    def _same_as_first(self, key: str, path: Path) -> str | None:
        digest = sha256(path)
        if self.first.setdefault(key, digest) != digest:
            return f"{path.name} differs from the first pass"
        return None

    def check(self, step: Step, serial_out: Path | None) -> str | None:
        """None when the step's outputs pass, else the reason they fail."""
        from heatcavity import io

        try:
            if step.name == "simulate":
                return self._simulate(step.out, io)
            if step.name == "verify":
                with open(step.out / "verify.json") as fh:
                    report = json.load(fh)
                return None if report["all_passed"] is True else "verify.json: all_passed is false"
            return self._reconstruct(step, serial_out, io)
        except (OSError, ValueError, KeyError) as exc:
            return f"{type(exc).__name__}: {exc}"

    def _simulate(self, out: Path, io) -> str | None:
        n = self.shape[0] * self.shape[1]
        for name in ("lambda_D", "lambda_0", "N"):
            for suffix in (".stop1", ".gram"):
                path = out / f"{name}{suffix}"
                reason = self._same_as_first(f"simulate/{path.name}", path)
                if reason:
                    return reason
                if path.name in self.read_back:
                    continue
                if suffix == ".stop1":
                    mat, head = io.read_stop1(path)
                    if mat.shape != (n, n) or (head["M"], head["Nt"], head["T"]) != self.shape:
                        return f"{path.name}: shape {mat.shape}, header {head}"
                elif io.read_gram(path).shape != (n,):
                    return f"{path.name}: expected {n} weights"
                self.read_back.add(path.name)
        return None

    def _reconstruct(self, step: Step, serial_out: Path | None, io) -> str | None:
        for name in ("spectrum.csv", "indicator.csv"):
            if step.name == "reconstruct_threaded":
                if (step.out / name).read_bytes() != (serial_out / name).read_bytes():
                    return f"{name} differs from the --threads 1 run"
            else:
                reason = self._same_as_first(f"reconstruct/{name}", step.out / name)
                if reason:
                    return reason
        m, nt, _ = self.shape
        if io.read_spectrum_csv(step.out / "spectrum.csv").shape != (m * nt,):
            return "spectrum.csv: expected one eigenvalue per basis function"
        summary = io.read_kv(step.out / "summary")
        points = len(io.read_indicator_csv(step.out / "indicator.csv")["W"])
        if points == 0 or points != int(summary["points"]):
            return f"indicator.csv: {points} rows, summary says {summary['points']}"
        jaccard = float(summary["jaccard"])
        if self.floor is not None and jaccard < self.floor:
            return f"jaccard {jaccard!r} below the recorded {self.floor!r}"
        return None


class Session:
    """One benchmark run: its deadline, scratch directory, config and op counts."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.work = work
        self.deadline = time.perf_counter() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        text = workload.config(seed)
        self.cfg = None
        if text is not None:
            self.cfg = work / "run.cfg"
            self.cfg.write_text(text)
        self.checker = Checker(text, workload.jaccard_floor(seed))

    def spawn(self, argv: list[str], log: Path) -> tuple[int, float, float]:
        """Run a child to completion: exit code, wall seconds, peak RSS in MB."""
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise TimeoutError("run deadline passed")
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if time.perf_counter() >= self.deadline:
            raise TimeoutError(f"run deadline passed during {argv[1:3]}")
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def count(self, label: str, ok: bool, reason: str, log: Path | None = None) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"# FAILED {label}: {reason}")
            tail = log.read_text(errors="replace")[-400:] if log and log.exists() else ""
            for line in tail.strip().splitlines():
                print(f"#   {line}")

    def setup_probe(self) -> float:
        log = self.work / "setup.log"
        cfg = str(self.cfg) if self.cfg else ""
        rc, wall, _ = self.spawn([sys.executable, "-c", SETUP_CODE, cfg], log)
        self.count("set-up probe", rc == 0, f"exit code {rc}", log)
        return wall

    def check_pass(self, steps: list[Step], rcs: list[int], label: str) -> None:
        serial_out = next((s.out for s in steps if s.name == "reconstruct"), None)
        for step, rc in zip(steps, rcs):
            log = step.out.parent / f"{step.name}.log"
            reason = f"exit code {rc}" if rc != 0 else self.checker.check(step, serial_out)
            self.count(f"{label} {step.name}", reason is None, reason, log)

    def new_pass_dir(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.work, prefix="pass-"))

    def command(self, step: Step) -> list[str]:
        if step.name == "verify":
            return [sys.executable, str(BENCH_DIR / "launch.py"), *step.argv]
        return [sys.executable, "-m", "heatcavity.cli", *step.argv]


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def keep_going(start: float, passes: int, seconds: float) -> bool:
    """Start another pass only if it should end inside the window."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / passes <= seconds


def cli_pass(session: Session) -> dict:
    """One closed-loop pass of fresh CLI processes; returns its measurements."""
    pass_dir = session.new_pass_dir()
    steps = plan(session.workload, session.cfg, pass_dir)
    walls, rss, rcs = {}, {}, []
    for step in steps:
        rc, walls[step.name], rss[step.name] = session.spawn(
            session.command(step), pass_dir / f"{step.name}.log"
        )
        rcs.append(rc)
        if step.copy_to and rc == 0:
            shutil.copytree(step.out, step.copy_to)
    jaccard = None
    session.check_pass(steps, rcs, "pass")
    if (steps[0].out / "summary").exists():
        from heatcavity import io

        jaccard = float(io.read_kv(steps[0].out / "summary").get("jaccard", "nan"))
    artifact = dir_bytes(steps[0].out) if steps[0].out.exists() else 0
    shutil.rmtree(pass_dir)
    return {"walls": walls, "rss": rss, "artifact": artifact, "jaccard": jaccard}


def inproc_pass(session: Session, trace: bool) -> dict:
    """One pass with every command in a single fresh interpreter."""
    pass_dir = session.new_pass_dir()
    steps = plan(session.workload, session.cfg, pass_dir)
    plan_path, result_path = pass_dir / "plan.json", pass_dir / "result.json"
    plan_path.write_text(
        json.dumps(
            {
                "trace": trace,
                "steps": [
                    {
                        "name": s.name,
                        "argv": s.argv,
                        "out": str(s.out),
                        "copy_to": str(s.copy_to) if s.copy_to else None,
                    }
                    for s in steps
                ],
            }
        )
    )
    argv = [sys.executable, str(BENCH_DIR / "inproc.py"), str(plan_path), str(result_path)]
    rc, _, _ = session.spawn(argv, pass_dir / "inproc.log")
    if rc != 0:
        raise RuntimeError(f"in-process pass exited {rc}: {(pass_dir / 'inproc.log').read_text()[-2000:]}")
    with open(result_path) as fh:
        result = json.load(fh)
    session.check_pass(steps, [s["rc"] for s in result["steps"]], "traced" if trace else "untraced")
    shutil.rmtree(pass_dir)
    return result


def quantile_line(name: str, values: list[float], unit: str, better: str) -> str:
    """Median, the highest percentile with ten samples beyond it, and n."""
    n = len(values)
    med = statistics.median(values)
    if n >= 11:
        ordered = sorted(values)
        tail = f"p{100.0 * (n - 10) / n:.0f}={ordered[n - 11]:.6g}"
    else:
        tail = "tail percentile needs n>=11"
    return f"{name} = {med:.6g} {unit} ({better} is better; median of n={n}; {tail})"


def timed_run(session: Session, seconds: float) -> dict[str, list[float]]:
    """End-to-end samples: passes for the window, between two halves of the
    set-up probes."""
    session.setup_probe()  # warm-up: loads the interpreter and libraries from disk
    setup = [session.setup_probe() for _ in range(SETUP_SAMPLES // 2)]
    passes = []
    start = time.perf_counter()
    while not passes or keep_going(start, len(passes), seconds):
        passes.append(cli_pass(session))
    setup += [session.setup_probe() for _ in range(SETUP_SAMPLES - len(setup))]

    samples = {
        "setup_s": setup,
        "pass_s": [sum(p["walls"].values()) for p in passes],
        "peak_rss_mb": [max(p["rss"].values()) for p in passes],
        "artifact_mb": [p["artifact"] / 2**20 for p in passes],
    }
    # per-command breakdown, printed for reading only
    for step in session.workload.steps:
        print("# " + quantile_line(f"{step}_s", [p["walls"][step] for p in passes], "s", "lower"))
        print("# " + quantile_line(f"{step}_rss_mb", [p["rss"][step] for p in passes], "MB", "lower"))
    jaccards = [p["jaccard"] for p in passes if p["jaccard"] is not None]
    if jaccards:
        print("# " + quantile_line("jaccard", jaccards, "ratio", "higher"))
    return samples


def layer_values(record: dict) -> dict[str, float]:
    """Every per-layer metric one traced pass gives; 0 where no call was made."""
    totals = span_totals(record["spans"])
    counts = record["counts"]
    values = dict(counts)
    for fn in record["functions"]:
        row = totals.get(fn, {})
        for key in ("calls", "s", "self_s"):
            values[f"{fn}.{key}"] = row.get(key, 0)
        if fn.startswith("verify.check_"):
            values[f"verify.{fn.removeprefix('verify.check_')}.s"] = row.get("s", 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values["geometry.point_in_region.calls_per_point"] = ratio(
        values["geometry.point_in_region.calls"], counts["geometry.point_in_region.points"]
    )
    values["recon.finite_frac"] = ratio(
        counts["recon.probes"] - counts["recon.inf_probes"], counts["recon.probes"]
    )
    values["recon.retained_frac"] = ratio(counts["recon.retained"], counts["recon.eigendecompose.n"])
    return values


def traced_run(session: Session, seconds: float, names: list[str]) -> dict:
    session.setup_probe()  # warm-up, as in the timed run
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or keep_going(start, len(traced), seconds):
        untraced.append(inproc_pass(session, trace=False))
        traced.append(inproc_pass(session, trace=True))
    per_pass = [layer_values(rec) for rec in traced]
    traced_s = statistics.median(r["total"] for r in traced)
    untraced_s = statistics.median(r["total"] for r in untraced)
    for values, rec in zip(per_pass, traced):
        values.update(
            {
                "trace.traced_s": traced_s,
                "trace.untraced_s": untraced_s,
                "trace.overhead_s": traced_s - untraced_s,
                "trace.spans": len(rec["spans"]),
            }
        )
    missing = [name for name in names if name not in per_pass[0]]
    if missing:
        raise KeyError(f"per-layer metrics no traced function gives: {missing}")
    values = {name: statistics.median(p[name] for p in per_pass) for name in names}
    trace_file = WORK / f"trace-{session.workload.name}.json"
    with open(trace_file, "w") as fh:
        json.dump({"columns": ["id", "name", "start", "end", "parent"], "spans": traced[-1]["spans"]}, fh)
    print(f"# spans of the last traced pass: {trace_file.relative_to(ROOT)}")
    return values


def blas_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                threads = getattr(handle, sym)()
    return {"blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads}


def system_info() -> dict:
    import numpy as np
    import scipy

    model = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": cpu_count(),
        "cpu": model or platform.processor(),
        **blas_info(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one benchmark invocation and return its result object."""
    bench = spec()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK, prefix=f"{workload.name}-"))
    try:
        session = Session(workload, seed, work)
        print("# system " + json.dumps(system_info()))
        print(f"# workload {workload.name} seed {seed}: {workload.why}")
        metrics_spec = bench["per_layer" if trace else "end_to_end"]
        metrics = {}
        if trace:
            values = traced_run(session, seconds, [m["name"] for m in metrics_spec])
            for m in metrics_spec:
                print(f"# {m['name']} = {values[m['name']]:.6g} {m['unit']} ({m['better']} is better)")
        else:
            samples = timed_run(session, seconds)
            values = {name: statistics.median(vals) for name, vals in samples.items()}
            for m in metrics_spec:
                print("# " + quantile_line(m["name"], samples[m["name"]], m["unit"], m["better"]))
        for m in metrics_spec:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(
            f"# failed_frac = {session.failed}/{session.attempted} = "
            f"{session.failed / session.attempted:.6g} ratio (lower is better)"
        )
        return {
            "correct": session.failed == 0,
            "attempted": session.attempted,
            "failed": session.failed,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    workloads = dict(WORKLOADS, **{wl.name: wl for wl in (KITE_32_THREADED, SELFTEST)})
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "heatcavity" / "cli.py").is_file():
        print(f"no heatcavity sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(workloads[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
