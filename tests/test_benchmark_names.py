"""Every function the benchmark traces by name still exists where it is traced.

The traced benchmark run wraps each module's public functions (its
``__all__``, or every public function of a module without one) and reports
one ``<module>.<function>`` metric per name in ``BENCHMARK.json``; a name
that no longer resolves makes that run fail on a missing metric.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PER_LAYER = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
TRACED = sorted(n for n in PER_LAYER if f"{n}.calls" in PER_LAYER)


@pytest.mark.parametrize("name", TRACED)
def test_traced_name_is_a_public_function(name):
    module_name, fn_name = name.split(".")
    mod = importlib.import_module(f"lovedisp.{module_name}")
    public = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
    assert fn_name in public
    fn = getattr(mod, fn_name)
    assert inspect.isfunction(fn) and fn.__module__ == mod.__name__
