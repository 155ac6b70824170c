"""perfbench/spans.py wraps primchaos functions by name for the traced
benchmark run (`LAYERS`); a name that no longer resolves breaks only that
run.  This test reads the table, without importing the benchmark package,
and fails on the rename instead."""

import importlib
import importlib.util
import json
from collections import Counter
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


# One small real call per counter hook: the function's arguments, and the
# counters the hook should add, each from an independent count.  The hooks
# bind arguments by parameter name and read attributes of the arguments and
# results, so a rename there breaks only the traced run too.
def _counter_calls():
    from fractions import Fraction as F

    from primchaos import chaos, embedding, fintop, geometry, surject

    half = F(1, 2)
    tree = embedding.build_refinement(embedding.make_model("interval"), 2)
    discrete = fintop.discrete_space(["a", "b"])
    blocks_a = [surject.ClopenBlock(("0",)), surject.ClopenBlock(("1",))]
    blocks_b = blocks_a[::-1]
    ws = surject.waypoint_surjection(
        surject.waypoint_map([(half, (half, half))], "square"))
    halves = [geometry.Box((F(0),), (half,)), geometry.Box((half,), (F(1),))]
    doc = {"a": 1}
    return {
        "region": ((halves,), {"geometry.region.boxes_in": 2,
                               "geometry.region.boxes_out": 1}),
        # the depth-2 tree holds 1 + 2 + 4 cells
        "build_refinement": ((embedding.make_model("interval"), 2),
                             {"embedding.cells_built": 7}),
        "check_stage_invariants": ((tree, 1),
                                   {"embedding.cells_certified": 2}),
        # the discrete, indiscrete and two Sierpinski topologies
        "all_topologies": ((["a", "b"],), {"fintop.spaces_enumerated": 4}),
        "is_continuous": ((fintop.finite_map(discrete, discrete,
                                             {"a": "a", "b": "b"}),),
                          {"fintop.is_continuous.accepted": 1}),
        "realize_witness": ((chaos.make_system("doubling"), "011"),
                            {"chaos.symbols": 3}),
        "encode_document": ((doc, "json", None), {
            "cli.document_bytes": len(json.dumps(doc, indent=2)) + 1}),
        "main": ((["chaos", "realize", "--system", "doubling",
                   "--word", "01"],), {"cli.exit.0": 1}),
        # the cells_checked counts are the argument-based guesses spans.py
        # makes today (ROADMAP item 1), not the work the certificates do
        "verify_cover_map": ((surject.CantorMap("interleave"), 3),
                             {"surject.cells_checked": 2 ** 3}),
        "verify_curve": ((2,), {"surject.cells_checked": 4 ** 2}),
        # four depth-1 cylinders, 2^(3-1) depth-3 words under each
        "verify_block_surjection": (
            (surject.block_surjection(blocks_a, blocks_b), blocks_a,
             blocks_b, 3), {"surject.cells_checked": 4 * 2 ** 2}),
        "verify_waypoint_surjection": (
            (ws, 2), {"surject.cells_checked":
                      4 ** 2 * len(surject.sweep_segments(ws))}),
    }


HOOKED = sorted({"region", *spans.RESULT_COUNTERS, *spans.ARG_COUNTERS})
LAYER_OF = {short: layer for layer, short in NAMES}


@pytest.mark.parametrize("short", HOOKED)
def test_counter_hook_counts_a_real_call(short):
    args, want = _counter_calls()[short]
    fn = getattr(importlib.import_module(f"primchaos.{LAYER_OF[short]}"),
                 short)
    hook = spans._hook(short, fn, primchaos)
    counters = Counter()
    hook(counters, args, {}, fn(*args))
    assert counters == want
