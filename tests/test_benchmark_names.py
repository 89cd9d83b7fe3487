"""BENCHMARK.json's per-layer metric names point at functions that exist."""

import importlib
import inspect
import json
from pathlib import Path

import pytest

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
#: Three-part names, <layer>.<function>.<suffix>; the others are counters
#: of the harness itself (trace.*) or per-layer totals (recon.probes).
TRACED = sorted(
    {tuple(m["name"].split(".")[:2]) for m in SPEC["per_layer"] if m["name"].count(".") == 2}
)


@pytest.mark.parametrize("layer,name", TRACED, ids=[".".join(t) for t in TRACED])
def test_traced_name_is_a_public_function_of_its_layer(layer, name):
    # verify.<check>.s times the check function verify.check_<check>
    attr = f"check_{name}" if layer == "verify" else name
    mod = importlib.import_module(f"heatcavity.{layer}")
    obj = getattr(mod, attr, None)
    assert not name.startswith("_")
    assert inspect.isfunction(obj), f"heatcavity.{layer} has no function {attr}"
    assert obj.__module__ == mod.__name__, f"{layer}.{name} is defined in {obj.__module__}"
