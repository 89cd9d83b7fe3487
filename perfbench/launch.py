"""Run the heatcavity CLI with the verify suite at the benchmark's resolutions.

    python3 perfbench/launch.py verify --out DIR

Everything else about the command is the CLI's own ``main``.
"""

from __future__ import annotations

import sys

from workloads import VERIFY_RESOLUTIONS


def scale_verify() -> None:
    from heatcavity import verify

    verify.BASE_RESOLUTION, verify.DOUBLED_RESOLUTION = VERIFY_RESOLUTIONS


if __name__ == "__main__":
    scale_verify()
    from heatcavity import cli

    sys.exit(cli.main(sys.argv[1:]))
