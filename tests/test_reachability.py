"""Reachability census: src holds only what a product path runs or a
declared reason needs.

One subprocess sets a profile hook, then imports primchaos, so the calls
its modules make while they import count too.  It runs `cli.main` on every
golden case (`cli_cases.CASES`), on the out-of-range argv of the CLI tests
and on their csv and `--decimal` cases; parses the argv of the parser
oracle test (help, errors and unusual spellings among them) by the route
`main` takes; and runs the five demos.  It reports every code object it
entered.

A function is keyed by its code object's file and first line (a decorated
function's first decorator), and named by walking its module's `ast`:
`module.Class.method`, with `<locals>` before a nested function, as
`__qualname__` writes it (`co_qualname` needs Python 3.11).

Every src function never entered is either a span name of the traced
benchmark (`perfbench/spans.py` `LAYERS`, read as test_layer_names reads
it), or has a row in `UNREACHED` that says why it stays and names a test
that reaches it.  The test fails on a function no path enters and no row
names, and on a row for a function that a path now enters or that is
gone: delete the function, or add (or drop) its row."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from cli_cases import CASES
from test_cli import OUT_OF_RANGE, PARSER_ORACLE_ARGVS, REALIZE
from test_layer_names import spans

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "primchaos"

# "module.qualname": why the function stays, and a test that reaches it
UNREACHED = {
    "chaos.AffineBranch.preimage_box":
        "the per-box step of the span-named `AffineBranch.preimage`, the "
        "Fraction reference of the integer kernels: test_chaos::"
        "test_preimage_law_count_must_match_the_axes",
    "chaos._no_witness":
        "error path, a word whose witness set is empty: test_chaos::"
        "test_unrealizable_word_fails_the_check",
    "chaos._sensitivity_partners.<locals>.cantor":
        "sensitivity partners on shift_cantor, a system no golden case or "
        "demo checks for sensitivity: test_chaos::"
        "test_sensitivity_shift_cantor",
    "embedding._check_cell":
        "public API, the cell check of `RefinementTree(model, cells)`: "
        "test_embedding::test_tree_constructor_rejects_malformed_cells",
    "embedding._checked_depth":
        "public API, the address check of `RefinementTree(model, cells)`: "
        "test_embedding::test_tree_constructor_rejects_addresses_off_its_depth",
    "embedding.RefinementTree.__init__":
        "public API, a tree of given rational cells: test_embedding::"
        "test_tree_constructor_rejects_addresses_off_its_depth",
    "fintop.FiniteMap._trusted":
        "builds the maps of the span-named `all_maps` and of "
        "`continuous_maps`: test_fintop::"
        "test_enumerated_maps_pass_the_validating_constructor",
    "fintop.FiniteMap.is_injective":
        "half of the span-named `is_homeomorphism`: test_fintop::"
        "test_homeomorphism_examples",
    "fintop.HypothesisResult.__bool__":
        "public API, a verifier's verdict as a bool: test_fintop::"
        "test_hypothesis_result_is_true_when_the_claim_holds",
    "fintop.continuous_maps":
        "acceptance criterion 4, the continuous maps between finite spaces: "
        "test_acceptance::test_criterion_4_finite_topology_exhaustive",
    "fintop.continuous_maps.<locals>.rec":
        "the target-by-target recursion of `continuous_maps`: test_fintop::"
        "test_continuous_maps_are_the_all_maps_filter",
    "fintop.is_topology":
        "public API, the topology axioms on a given family: test_fintop::"
        "test_is_topology_examples",
    "geometry.AxisIndex.near":
        "the stage checks' exact scans, which run only when a premise "
        "fails: test_embedding::"
        "test_built_trees_are_certified_without_the_exact_scans",
    "geometry.box_disjoint":
        "the test of the span-named `regions_disjoint`, and of the overlap "
        "sweep once two boxes meet on axis 0: test_geometry::"
        "test_disjointness_is_closed_semantics",
    "surject._extensions":
        "the sources under an A cylinder shorter than them, and the B "
        "words no image reaches: test_surject::"
        "test_sorted_lookups_match_the_scans",
    "surject._piece_source":
        "error path, the witness of a piece whose image leaves its B "
        "block: test_surject::test_wrong_target_blocks_fail_verification",
}

SPANNED = {f"{layer}.{short}.{spans.CLASS_ENTRY[short]}"
           if short in spans.CLASS_ENTRY else f"{layer}.{short}"
           for layer, shorts in spans.LAYERS.items() for short in shorts}

CHILD = r"""
import contextlib, io, json, os, runpy, sys, tempfile

job = json.load(sys.stdin)
entered = set()
# the frame of every event, a C call's too, is a Python frame once entered
sys.setprofile(lambda frame, event, arg: entered.add(frame.f_code))
from primchaos import cli

out = io.TextIOWrapper(io.BytesIO())
with tempfile.TemporaryDirectory() as tmp, \
        contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
    os.chdir(tmp)
    for argv in job["main"]:
        cli.main(argv)
    for argv in job["parse"]:
        try:
            cli._parse_args(argv)
        except SystemExit:
            pass
    for demo in job["demos"]:
        runpy.run_path(demo, run_name="__main__")
sys.setprofile(None)
print(json.dumps([[c.co_filename, c.co_firstlineno] for c in entered
                  if c.co_filename.startswith(job["src"])]))
"""


def _job() -> dict:
    main = ([argv for _, argv, _, _ in CASES]
            + [argv + ["--out", "out.json"] for argv in OUT_OF_RANGE]
            + [REALIZE + ["--out", "doc.csv", "--format", "csv"],
               REALIZE + ["--out", "doc.csv", "--format", "csv",
                          "--decimal", "4"]])
    return {"src": str(SRC), "main": main,
            "parse": [argv for argv in PARSER_ORACLE_ARGVS
                      if argv not in main],
            "demos": [str(p) for p in sorted((ROOT / "demos").glob("*.py"))]}


def _functions(tree, prefix=""):
    """(first line, qualname) of every function under an ast node."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + node.name
            yield min([node.lineno]
                      + [d.lineno for d in node.decorator_list]), name
            yield from _functions(node, name + ".<locals>.")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, prefix + node.name + ".")
        else:
            yield from _functions(node, prefix)


def src_functions() -> dict:
    """(file, first line) -> "module.qualname" of every src function."""
    return {(str(path), line): f"{path.stem}.{name}"
            for path in sorted(SRC.glob("*.py"))
            for line, name in _functions(ast.parse(path.read_text()))}


def entered_functions() -> set:
    """(file, first line) of every code object the census run entered."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", CHILD], env=env,
                          input=json.dumps(_job()), capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return {tuple(key) for key in json.loads(done.stdout)}


def test_every_unreached_function_is_declared():
    functions = src_functions()
    entered = entered_functions()
    unreached = {name for key, name in functions.items()
                 if key not in entered} - SPANNED
    assert sorted(unreached - set(UNREACHED)) == [], \
        "never entered, and no row in UNREACHED"
    assert sorted(set(UNREACHED) - unreached) == [], \
        "a row for a function that is entered, span-named or gone"
