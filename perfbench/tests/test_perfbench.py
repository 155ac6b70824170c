"""Tests of the benchmark's own machinery.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
from workloads import WORKLOADS, answers  # noqa: E402
from workloads.job import Job  # noqa: E402


def test_self_time_nested_and_overlapping_spans():
    # 0 [0,10] has children 1 [1,4] and 2 [3,6], which overlap, and 4
    # [8,12], which runs past its parent; 3 [2,3] nests inside 1; span 2
    # also had 1 s of children folded into leaf totals
    start = [0.0, 1.0, 3.0, 2.0, 8.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0]
    parent = [-1, 0, 0, 1, 0]
    leaf_s = [0.0, 0.0, 1.0, 0.0, 0.0]
    assert list(spans.self_times(start, end, parent, leaf_s)) == \
        [3.0, 2.0, 2.0, 1.0, 4.0]
    assert list(spans.self_times(start, end, parent)) == \
        [3.0, 2.0, 3.0, 1.0, 4.0]


def test_tracer_folds_leaves_and_accounts_for_all_time():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 9.0, 10.0])
    t = spans.Tracer(clock=lambda: next(ticks))
    inner, leaf = t.name_id("x.inner"), t.name_id("x.leaf")
    t.job_id = 7
    root = t.open(0)            # 0.0
    a = t.open(inner)           # 1.0
    b = t.open(leaf)            # 2.0
    t.close(b)                  # 3.0: leaf of inner, folded
    t.close(a)                  # 4.0: has a child, stored
    c = t.open(leaf)            # 6.0
    t.close(c, raised=True)     # 9.0: leaf of the root, folded
    t.close(root)               # 10.0
    assert list(t.name) == [0, inner]
    assert t.leaves == {(7, inner, leaf): [1, 1.0], (7, 0, leaf): [1, 3.0]}
    assert t.raised[leaf] == 1
    selfs = spans.self_times(t.start, t.end, t.parent, t.leaf_s)
    assert list(selfs) == [4.0, 2.0]
    assert sum(selfs) + 1.0 + 3.0 == 10.0


def test_job_time_is_scaled_by_the_probes_around_it():
    marks = probe.Marks()
    marks.at, marks.probe_s = [0.0, 1.0, 2.0], [0.002, 0.004, 0.008]
    assert marks.scale(1.5, 1.9) == pytest.approx(probe.REFERENCE_S / 0.006)
    assert marks.scale(0.1, 1.5) == pytest.approx(probe.REFERENCE_S / 0.005)
    assert marks.scale(2.5, 2.6) == pytest.approx(probe.REFERENCE_S / 0.008)


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.min_samples(0.9) == 100
    assert stats.min_samples(0.5) == 20
    with pytest.raises(ValueError):
        stats.percentile(list(range(99)), 0.9)
    with pytest.raises(ValueError):
        stats.percentile(list(range(19)), 0.5)
    assert stats.percentile(list(range(1, 101)), 0.9) == pytest.approx(90.9)
    assert stats.percentile(list(range(1, 21)), 0.5) == 10.5


@pytest.fixture(scope="module")
def pc():
    return harness.import_package(ROOT)


def _bindings(pc):
    mods = [pc] + [getattr(pc, m) for m in
                   ("geometry", "embedding", "fintop", "chaos", "surject",
                    "cli")]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()
            if callable(v)} | {
        ("FiniteMap", "__init__"): pc.fintop.FiniteMap.__dict__["__init__"],
        ("AffineBranch", "preimage"): pc.chaos.AffineBranch.__dict__["preimage"]}


def test_instrument_binds_every_reference_and_restores(pc):
    before = _bindings(pc)
    orig_region = pc.geometry.region
    with spans.instrument(pc, spans.Tracer()):
        assert pc.embedding.region is not orig_region
        assert pc.embedding.region is pc.geometry.region is pc.region
        assert pc.cli.region_doc is pc.geometry.region_doc
        assert pc.fintop.FiniteMap.__init__.__wrapped__ is \
            before[("FiniteMap", "__init__")]
        wrapped = sum(before[k] is not v for k, v in _bindings(pc).items())
        assert wrapped >= sum(map(len, spans.LAYERS.values()))
    after = _bindings(pc)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_instrument_restores_after_an_exception(pc):
    before = _bindings(pc)
    with pytest.raises(RuntimeError):
        with spans.instrument(pc, spans.Tracer()):
            raise RuntimeError("boom")
    assert all(_bindings(pc)[k] is before[k] for k in before)


@pytest.mark.parametrize("case", ["chaos_realize_doubling_01",
                                  "embed_interval_d3", "fintop_prop5_discrete4",
                                  "chaos_realize_bad_symbol"])
def test_golden_cli_case_byte_identical_under_tracing(pc, case, tmp_path,
                                                      monkeypatch):
    cases = {c[0]: c for c in WORKLOADS["cli-mix"]._load_cases(ROOT)}
    _, argv, code, has_doc = cases[case]
    gdir = ROOT / "tests" / "goldens"
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PRIMCHAOS_MAX_DEPTH", raising=False)
    tracer = spans.Tracer()
    out, err = io.StringIO(), io.StringIO()
    with spans.instrument(pc, tracer):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert pc.cli.main(argv) == code
    assert out.getvalue() == (gdir / f"{case}.out").read_text()
    assert err.getvalue() == (gdir / f"{case}.err").read_text()
    doc = tmp_path / "out.json"
    assert (doc.read_bytes() == (gdir / f"{case}.doc.json").read_bytes()) \
        if has_doc else not doc.exists()
    metrics, _ = spans.layer_metrics(tracer)
    assert metrics["cli.main.calls"] == 1
    assert metrics[f"cli.exit.{code}"] == 1


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    assert names == [n for n, _ in spans.per_layer_names()] + [
        "trace.jobs_per_s.untraced", "trace.jobs_per_s.traced",
        "trace.overhead", "trace.attributed_share"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    notes = json.loads((BENCH / "spec.json").read_text())
    for name, mod in WORKLOADS.items():
        ctx = mod.setup(harness.import_package(ROOT), ROOT)
        if hasattr(mod, "prepare"):
            mod.prepare(ctx, ROOT)
        assert len(mod.round_jobs(ctx, random.Random(0), 0)) == \
            notes["workloads"][name]["jobs_per_round"]


def _recording_workload(per_job: bool):
    """A workload of three jobs per round that record the package they run
    in (its surject module) and whether that module's name is set."""
    seen = []

    def record(ctx):
        seen.append((ctx.pc.surject, ctx.pc.surject.__name__))

    def round_jobs(ctx, rng, r):
        return [Job("record", lambda: record(ctx)) for _ in range(3)]
    return SimpleNamespace(setup=lambda pc, root: SimpleNamespace(pc=pc),
                           round_jobs=round_jobs, FRESH_PER_JOB=per_job), seen


@pytest.mark.parametrize("per_job", [False, True])
def test_every_round_or_job_gets_a_fresh_package(tmp_path, per_job):
    mod, seen = _recording_workload(per_job)
    done = harness.run_rounds("fake", mod, ROOT, tmp_path, 1, 0, rounds=2)
    assert done.count == 2 and done.jobs == 6 and not done.problems
    assert len({id(m) for m, _ in seen}) == (6 if per_job else 2)
    assert all(name == "primchaos.surject" for _, name in seen)
    # each package is emptied when its round (or job) ends, caches and all
    assert all(vars(m) == {} for m, _ in seen)


def test_setup_is_timed_in_new_processes():
    setup_s, raw = harness.timed_setup("cli-mix", ROOT)
    assert 0 < raw < 10 and setup_s > 0


def test_no_two_jobs_of_a_round_repeat_an_input(pc):
    ctx = WORKLOADS["cantor-refine"].setup(pc, ROOT)
    kinds = [j.kind for j in WORKLOADS["cantor-refine"].round_jobs(
        ctx, random.Random(3), 0)]
    assert len(set(kinds)) == len(kinds)
    chaos = WORKLOADS["chaos-witness"]
    ctx = chaos.setup(pc, ROOT)
    jobs = chaos.round_jobs(ctx, random.Random(3), 0)
    assert len([j for j in jobs if j.kind.startswith("transitivity.")]) == 4
    rng = random.Random(3)
    for n in chaos.LENGTHS:
        a, b = chaos._distinct_words(rng, n, 2)
        assert a != b and len(a) == len(b) == n > chaos.BATCH_LENGTH


def test_closed_forms_match_the_theory():
    assert [answers.bell(n) for n in range(1, 7)] == [1, 2, 5, 15, 52, 203]
    assert sum(answers.surjections(5, c) for c in range(1, 5)) == 421
    assert answers.components(answers.closure(5, [(0, 1), (2, 3)])) == 3
    assert len(answers.open_masks(answers.closure(3, []))) == 8
    # tent itinerary 11 is the interval [1/2, 3/4]; its fixed point is 2/3
    assert answers.enclosure("tent", "11") == [((Fraction(1, 2),),
                                                (Fraction(3, 4),))]
    assert answers.periodic_point("tent", "1") == (Fraction(2, 3),)
    assert answers.periodic_point("baker", "01") == \
        (Fraction(1, 3), Fraction(2, 3))


def test_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
