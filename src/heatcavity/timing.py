"""Stage timer shared by the commands and the reconstruction."""

from __future__ import annotations

import contextlib
import time


@contextlib.contextmanager
def timed(timings: dict, stage: str):
    """Add the ``perf_counter`` seconds of the enclosed block to ``timings[stage]``."""
    start = time.perf_counter()
    yield
    timings[stage] = timings.get(stage, 0.0) + time.perf_counter() - start
