"""Fast self-test of the benchmark harness on the acceptance gate's 16/12/8
circle (about half a minute on a 2-core Xeon).

    python3 perfbench/selftest.py

Asserts that both modes emit every metric of BENCHMARK.json with its unit,
that each metric has a direction, that the per-command breakdown and
failed_frac are printed, and that a forced bad exit counts as exactly one
failed operation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from workloads import SELFTEST

PRINTED = (
    "simulate_s",
    "reconstruct_s",
    "reconstruct_threaded_s",
    "simulate_rss_mb",
    "reconstruct_rss_mb",
    "reconstruct_threaded_rss_mb",
    "jaccard",
    "failed_frac",
)


def emitted(trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", SELFTEST.name,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=run.ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def check_metrics() -> None:
    spec = run.spec()
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        result, text = emitted(trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
        names = [m["name"] for m in spec[group]]
        assert list(result["metrics"]) == names, sorted(set(names) ^ set(result["metrics"]))
        for m in spec[group]:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float)), (m, got)
            assert m["better"] in ("lower", "higher"), m
            assert f"# {m['name']} = " in text and f"({m['better']} is better" in text, m["name"]
        if trace == 0:
            for name in PRINTED:
                assert f"# {name} = " in text, name
        else:
            assert result["metrics"]["recon.probes"]["value"] > 0, "traced pass saw no probes"


def check_forced_failure() -> None:
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=run.WORK, prefix="selftest-"))
    try:
        session = run.Session(SELFTEST, 0, work)
        command = session.command
        session.command = lambda step: (
            [sys.executable, "-c", "raise SystemExit(3)"]
            if step.name == "reconstruct_threaded"
            else command(step)
        )
        run.cli_pass(session)
        assert (session.attempted, session.failed) == (3, 1), (session.attempted, session.failed)
    finally:
        shutil.rmtree(work)


if __name__ == "__main__":
    sys.path.insert(0, str(run.SRC))
    check_metrics()
    check_forced_failure()
    print("perfbench self-test passed")
