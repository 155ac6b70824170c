"""perfbench/spans.py wraps primchaos functions by name for the traced
benchmark run (`LAYERS`); a name that no longer resolves breaks only that
run.  This test reads the table, without importing the benchmark package,
and fails on the rename instead."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import primchaos

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()
NAMES = [(layer, short) for layer, fns in spans.LAYERS.items() for short in fns]


@pytest.mark.parametrize("layer,short", NAMES,
                         ids=[f"{layer}.{short}" for layer, short in NAMES])
def test_layer_name_resolves(layer, short):
    # the lookups `spans.instrument` makes on the imported package
    importlib.import_module(f"primchaos.{layer}")
    home = getattr(primchaos, layer)
    owner, _, method = short.rpartition(".")
    if short in spans.CLASS_ENTRY:
        owner, method = short, spans.CLASS_ENTRY[short]
    if owner:
        assert callable(vars(getattr(home, owner)).get(method))
    else:
        assert callable(getattr(home, short, None))


def test_counters_hook_listed_names():
    listed = {short for fns in spans.LAYERS.values() for short in fns}
    assert set(spans.RESULT_COUNTERS) <= listed
    assert set(spans.ARG_COUNTERS) <= listed
