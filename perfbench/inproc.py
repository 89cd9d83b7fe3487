"""Run one pass of a workload inside this interpreter, traced or not.

    python3 perfbench/inproc.py PLAN.json RESULT.json

PLAN.json holds ``{"trace": bool, "steps": [{"name", "argv", "out", "copy_to"}]}``;
each step's argv goes to ``heatcavity.cli.main`` exactly as the command line
would.  RESULT.json receives each step's exit code and wall time, the pass
total, and with tracing on every span and count, written once at exit.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
import traceback

from launch import scale_verify
from tracer import Tracer


def main(plan_path: str, result_path: str) -> None:
    with open(plan_path) as fh:
        plan = json.load(fh)
    scale_verify()
    tracer = Tracer() if plan["trace"] else None
    if tracer:
        tracer.install()
    from heatcavity import cli

    steps = []
    for step in plan["steps"]:
        start = time.perf_counter()
        try:
            rc = cli.main(step["argv"])
        except Exception:
            traceback.print_exc()
            rc = 1
        steps.append({"name": step["name"], "rc": rc, "wall": time.perf_counter() - start})
        if step["copy_to"] and rc == 0:
            shutil.copytree(step["out"], step["copy_to"])
    result = {"steps": steps, "total": sum(s["wall"] for s in steps)}
    if tracer:
        result.update(tracer.records())
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
