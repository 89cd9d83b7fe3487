"""The README's documented library example runs as written."""

import dataclasses
import importlib
import re
from pathlib import Path
from types import ModuleType

import pytest

import heatcavity
from heatcavity import cli, io as hio

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def example_block() -> str:
    text = README.read_text()
    block = re.search(r"Minimal in-process pipeline:\s*```python\n(.*?)```", text, re.S)
    assert block is not None, "README lost its minimal in-process pipeline block"
    return block.group(1)


def test_minimal_in_process_pipeline_runs(capsys):
    exec(compile(example_block(), str(README), "exec"), {})
    printed = capsys.readouterr().out
    overlap = re.fullmatch(r"overlap with truth: (\S+)\n", printed)
    assert overlap is not None, printed
    assert 0.0 < float(overlap.group(1)) <= 1.0


def test_export_list_covers_the_documented_imports():
    for name in heatcavity.__all__:
        assert hasattr(heatcavity, name), name
    public = {
        name
        for name, obj in vars(heatcavity).items()
        if not name.startswith("_") and not isinstance(obj, ModuleType)
    }
    assert public == set(heatcavity.__all__)
    readme = re.search(r"from heatcavity import \((.*?)\)", example_block(), re.S)
    assert readme is not None, "README's example lost its top-level import"
    # the reproducer in perfbench/NOTES.md imports from the top level too
    notes = re.findall(r"^from heatcavity import (.*)$", (ROOT / "perfbench/NOTES.md").read_text(), re.M)
    names = {n.strip() for text in [readme.group(1), *notes] for n in text.split(",")}
    names.discard("")
    assert names and names <= set(heatcavity.__all__)


def test_config_table_lists_every_key_with_its_default():
    table = re.search(r"### Config keys\n\n(.*?)\n\n", README.read_text(), re.S)
    assert table is not None, "README lost its config-keys table"
    documented = {}
    for row in table.group(1).splitlines()[2:]:
        keys, defaults = row.split(" | ")[:2]
        names = re.findall(r"`(\w+)`", keys)
        texts = [d.strip("` ") for d in defaults.split(", ")]
        assert len(names) == len(texts), row
        documented.update(zip(names, texts))
    fields = dataclasses.fields(cli.RunConfig)
    assert list(documented) == [f.name for f in fields]
    for f in fields:
        assert cli._parse_value(f.type, documented[f.name]) == f.default, f.name


#: The acceptance gate's coarse case.
GATE_CFG = """\
omega_kind=circle
omega_params=0,0,1
cavity_kind=circle
cavity_params=0,0,0.35
M_omega=16
M_cavity=12
Nt=8
T=0.5
nx=9
ny=9
margin=0.2
threshold=0.2
"""


@pytest.fixture(scope="module")
def gate_out(tmp_path_factory):
    """The directory simulate and reconstruct wrote for the gate config."""
    root = tmp_path_factory.mktemp("gate")
    cfg = root / "gate.cfg"
    cfg.write_text(GATE_CFG)
    out = root / "out"
    for command in ("simulate", "reconstruct"):
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
    return out


def artifacts_names() -> set[str]:
    """Every name the README's Artifacts section sets in backticks."""
    section = re.search(r"### Artifacts\n(.*?)\n## ", README.read_text(), re.S)
    assert section is not None, "README lost its Artifacts section"
    return set(re.findall(r"`([^`\s]+)`", section.group(1)))


def test_artifacts_list_names_every_file_the_commands_write(gate_out):
    documented = artifacts_names()
    missing = sorted(p.name for p in gate_out.iterdir() if p.name not in documented)
    assert not missing, f"README's Artifacts list does not name {missing}"


def expanded_artifacts_names() -> set[str]:
    """artifacts_names, with each key pattern the section sets expanded:
    `<operator>` over the three operators and `config.<key>` over the
    RunConfig fields."""
    documented = artifacts_names()
    for pattern in ("seconds.<operator>", "seconds.write.<operator>"):
        if pattern in documented:
            documented |= {pattern.replace("<operator>", op) for op in ("lambda_D", "lambda_0", "N")}
    if "config.<key>" in documented:
        documented |= {f"config.{f.name}" for f in dataclasses.fields(cli.RunConfig)}
    return documented


def test_artifacts_list_names_every_stage_timing(gate_out):
    documented = expanded_artifacts_names()
    timed = {
        key
        for record in ("meta", "summary")
        for key in hio.read_kv(gate_out / record)
        if key.startswith("seconds.")
    }
    missing = sorted(timed - documented)
    assert not missing, f"README's Artifacts section does not name {missing}"


def test_artifacts_section_names_every_summary_key(gate_out):
    # not only the seconds.* keys: a new headline number is documented too
    missing = sorted(set(hio.read_kv(gate_out / "summary")) - artifacts_names())
    assert not missing, f"README's Artifacts section does not name {missing}"


def test_artifacts_section_names_every_meta_key(gate_out):
    missing = sorted(set(hio.read_kv(gate_out / "meta")) - expanded_artifacts_names())
    assert not missing, f"README's Artifacts section does not name {missing}"


def tour_rows() -> list[tuple[str, list[ModuleType], str]]:
    """(module cell, its modules, the rest of the row) per library tour row."""
    tour = re.search(r"## Library tour\n\n(.*?)\n\n", README.read_text(), re.S)
    assert tour is not None, "README lost its library tour"
    rows = [row for row in tour.group(1).splitlines() if row.startswith("| `heatcavity.")]
    assert len(rows) >= 10
    out = []
    for row in rows:
        first, rest = row[1:].split(" | ", 1)
        modules = [importlib.import_module(m) for m in re.findall(r"`(heatcavity\.\w+)`", first)]
        out.append((first.strip(), modules, rest))
    return out


def assert_resolves(pattern: str) -> None:
    """Each (qualifier, name) the pattern finds in a tour row is an attribute
    of the module it is qualified with, or else of one of the row's modules."""
    for first, modules, rest in tour_rows():
        for qualifier, name in re.findall(pattern, rest):
            owners = [importlib.import_module(f"heatcavity.{qualifier}")] if qualifier else modules
            assert any(hasattr(m, name) for m in owners), f"{first} names {name}"


def test_library_tour_private_names_resolve():
    # a private name in a row is looked up in that row's module(s), or in
    # the module it is qualified with
    assert_resolves(r"`(?:(\w+)\.)?(_\w+)`")


def test_library_tour_call_forms_resolve():
    # so is every name written as a call, `name(...)` or `module.name(...)`
    assert_resolves(r"`(?:(\w+)\.)?(\w+)\(")
