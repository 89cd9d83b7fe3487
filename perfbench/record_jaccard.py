"""Print the serial-reconstruct mask overlap for every config the benchmark
can generate; the values are the floors recorded in ``workloads.py``.

    python3 perfbench/record_jaccard.py

Runs ``heatcavity simulate`` and ``heatcavity reconstruct --threads 1`` once
per config (about ten minutes on a 2-core Xeon) under ``.perfbench_work/``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import CONCENTRIC_48, GATE, KITE_32, KITE_X, KITE_Y

ROOT = Path(__file__).resolve().parent.parent


def jaccard(cfg_text: str, work: Path) -> float:
    cfg = work / "run.cfg"
    cfg.write_text(cfg_text)
    out = work / "out"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for command in ("simulate", "reconstruct"):
        subprocess.run(
            [sys.executable, "-m", "heatcavity.cli", command, "--config", str(cfg), "--out", str(out)],
            check=True,
            env=env,
            stdout=subprocess.DEVNULL,
        )
    summary = dict(line.split("=", 1) for line in (out / "summary").read_text().splitlines())
    shutil.rmtree(out)
    return float(summary["jaccard"])


def main() -> None:
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_work"))
    try:
        print("GATE_JACCARD =", repr(jaccard(GATE, work)))
        print("CONCENTRIC_48_JACCARD =", repr(jaccard(CONCENTRIC_48, work)))
        print("KITE_JACCARD = {")
        for x in KITE_X:
            for y in KITE_Y:
                value = jaccard(KITE_32.format(x=x, y=y), work)
                print(f"    ({x!r}, {y!r}): {value!r},", flush=True)
        print("}")
    finally:
        shutil.rmtree(work)


if __name__ == "__main__":
    main()
