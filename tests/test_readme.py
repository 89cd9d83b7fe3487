"""The README's documented library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_minimal_in_process_pipeline_runs(capsys):
    text = README.read_text()
    block = re.search(r"Minimal in-process pipeline:\s*```python\n(.*?)```", text, re.S)
    assert block is not None, "README lost its minimal in-process pipeline block"
    exec(compile(block.group(1), str(README), "exec"), {})
    printed = capsys.readouterr().out
    overlap = re.fullmatch(r"overlap with truth: (\S+)\n", printed)
    assert overlap is not None, printed
    assert 0.0 < float(overlap.group(1)) <= 1.0
