"""Nested Cantor construction: subdivision rule, refinement trees, and the
finite-stage certificates the limit argument rests on."""

import gc
import sys
from fractions import Fraction as F
from functools import lru_cache
from types import MappingProxyType

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from primchaos import embedding, geometry
from primchaos.embedding import (
    MODEL_KINDS,
    Cell,
    PeanoModel,
    RefinementTree,
    build_refinement,
    check_stage_invariants,
    evaluate_address,
    make_model,
    subdivide,
    tree_document,
)
from primchaos.errors import ConstructionError, DegenerateInputError, InputError
from primchaos.geometry import (
    AxisIndex,
    Box,
    diameter,
    distance,
    lexmax_point,
    lexmin_point,
    region,
    regions_disjoint,
    region_subset,
)
from geometry_oracle import box1, box2, checked_boxes
from refinement_oracle import (oracle_build, oracle_check,
                               oracle_fraction_cell, oracle_subdivide)


@pytest.fixture(scope="module")
def trees():
    return {kind: build_refinement(make_model(kind), 6)
            for kind in ("interval", "square", "tripod")}


# ---------------------------------------------------------------------------
# subdivide
# ---------------------------------------------------------------------------


def test_subdivide_interval_root():
    m = make_model("interval")
    (r1, mk1), (r2, mk2) = subdivide(m, m.root, ((F(0),), (F(1),)))
    # L = d/4 anchoring rule, derived by hand: d = 1, balls of radius 1/4
    assert r1 == region(box1(0, F(1, 4)))
    assert r2 == region(box1(F(3, 4), 1))
    assert mk1 == ((F(0),), (F(1, 4),))
    assert mk2 == ((F(3, 4),), (F(1),))


def test_subdivide_interval_smaller_cell():
    m = make_model("interval")
    cell = region(box1(0, F(1, 4)))
    (r1, _), (r2, _) = subdivide(m, cell, ((F(0),), (F(1, 4),)))
    # d = 1/4, L = 1/16
    assert r1 == region(box1(0, F(1, 16)))
    assert r2 == region(box1(F(3, 16), F(1, 4)))


def test_subdivide_square_root():
    m = make_model("square")
    (r1, _), (r2, _) = subdivide(m, m.root, ((F(0), F(0)), (F(1), F(1))))
    # Chebyshev d = 1, corner squares of side 1/4
    assert r1 == region(box2(0, F(1, 4), 0, F(1, 4)))
    assert r2 == region(box2(F(3, 4), 1, F(3, 4), 1))


def test_subdivide_postconditions_hold():
    for kind in ("interval", "square", "tripod"):
        m = make_model(kind)
        cell = m.root
        for _ in range(5):
            marked = (lexmin_point(cell), lexmax_point(cell))
            d = distance(*marked)
            (r1, mk1), (r2, mk2) = subdivide(m, cell, marked)
            assert diameter(r1) < d / 3 and diameter(r2) < d / 3
            assert regions_disjoint(r1, r2)
            assert r1.contains_point(marked[0]) and r2.contains_point(marked[1])
            assert region_subset(r1, cell) and region_subset(r2, cell)
            cell = r1


def test_subdivide_rejects_equal_marked_points():
    m = make_model("interval")
    with pytest.raises(DegenerateInputError):
        subdivide(m, m.root, ((F(1, 2),), (F(1, 2),)))


def test_make_model_rejects_an_unknown_kind():
    with pytest.raises(InputError) as info:
        make_model("torus")
    assert str(info.value) == \
        f"unknown model kind 'torus'; expected one of {MODEL_KINDS}"


def test_cell_with_one_distinct_marked_point_reported():
    # the root and both children are all marked (0, 0), and both children
    # are [0, 1/4]: the marked points inside the root are one point
    zero = (F(0),)
    child = Cell(region(box1(0, F(1, 4))), (zero, zero))
    t = RefinementTree(make_model("interval"), {
        "": Cell(region(box1(0, 1)), (zero, zero)), "0": child, "1": child})
    rep = check_stage_invariants(t, 0)
    assert rep == oracle_check(t, 0)
    assert [c.witness for c in rep.checks
            if c.name == "perfectness_witness"] == \
        ["cell '' holds fewer than two marked points"]


def test_subdivide_rejects_cell_outside_model():
    m = make_model("interval")
    with pytest.raises(InputError):
        subdivide(m, region(box1(0, 2)), ((F(0),), (F(2),)))


def test_tree_cells_are_read_only():
    t = build_refinement(make_model("interval"), 1)
    with pytest.raises(TypeError):
        t.cells["0"] = t.cells["1"]


def test_fraction_cells_are_built_at_most_once(monkeypatch):
    t = build_refinement(make_model("tripod"), 4)
    # the view builds each `Fraction` box as a trusted Box
    built, real = [], Box._trusted

    def counting_trusted(cls, lo, hi):
        built.append(lo)
        return real(lo, hi)
    monkeypatch.setattr(Box, "_trusted", classmethod(counting_trusted))
    first = {a: t.cells[a] for a in t.grid}
    for _ in range(3):  # a fresh `tree.cells` access on every lookup
        assert all(t.cells[a] is first[a] for a in t.grid)
        assert dict(t.cells.items()) == first
        tree_document(t)
        evaluate_address(t, "0110")
    assert len(built) == sum(len(c.region.boxes) for c in t.grid.values())
    assert t.cells is t.cells


def test_build_refinement_skips_the_root_check(monkeypatch):
    # each child lies in its parent, so no step re-checks the model's root
    def no_root_check(*args):
        raise AssertionError("build_refinement called region_subset")
    monkeypatch.setattr(embedding, "region_subset", no_root_check)
    for kind in MODEL_KINDS:
        build_refinement(make_model(kind), 5)
    with pytest.raises(AssertionError):  # the public step keeps the check
        m = make_model("interval")
        subdivide(m, m.root, ((F(0),), (F(1),)))


# ---------------------------------------------------------------------------
# build_refinement / evaluate_address
# ---------------------------------------------------------------------------


def test_depth_zero_is_single_root_cell():
    for kind in ("interval", "square", "tripod"):
        t = build_refinement(make_model(kind), 0)
        assert t.level(0) == [""]
        assert evaluate_address(t, "") == make_model(kind).root


def test_interval_depth2_leaves_derived():
    t = build_refinement(make_model("interval"), 2)
    leaves = [t.cells[a].region for a in t.level(2)]
    assert leaves == [region(box1(0, F(1, 16))),
                      region(box1(F(3, 16), F(1, 4))),
                      region(box1(F(3, 4), F(13, 16))),
                      region(box1(F(15, 16), 1))]


def test_square_depth1_leaves_derived():
    t = build_refinement(make_model("square"), 1)
    leaves = [t.cells[a].region for a in t.level(1)]
    assert leaves == [region(box2(0, F(1, 4), 0, F(1, 4))),
                      region(box2(F(3, 4), 1, F(3, 4), 1))]


def test_evaluate_address_examples():
    t = build_refinement(make_model("interval"), 2)
    assert evaluate_address(t, "00") == region(box1(0, F(1, 16)))
    assert evaluate_address(t, "1") == region(box1(F(3, 4), 1))
    with pytest.raises(InputError):
        evaluate_address(t, "000")
    with pytest.raises(InputError):
        evaluate_address(t, "02")


def test_leaf_count_and_disjointness(trees):
    for kind, t in trees.items():
        for k in range(t.depth + 1):
            addrs = t.level(k)
            assert len(addrs) == 2 ** k
            regions = [t.cells[a].region for a in addrs]
            for i in range(len(regions)):
                for j in range(i + 1, len(regions)):
                    assert regions_disjoint(regions[i], regions[j]), (kind, k)


def test_tripod_cells_stay_connected(trees):
    # clipping to the tripod's segments keeps every cell a single segment
    # piece below the root (the root itself is the three-armed union)
    t = trees["tripod"]
    for a, cell in t.cells.items():
        if a:
            assert len(cell.region.boxes) == 1
            box = cell.region.boxes[0]
            assert box.lo[1] == box.hi[1]  # a horizontal bar segment


def test_monotone_nesting(trees):
    for kind, t in trees.items():
        for a, cell in t.cells.items():
            if len(a) < t.depth:
                for j in "01":
                    assert region_subset(t.cells[a + j].region, cell.region)


def test_leaf_diameter_bounds(trees):
    # construction gives the 4^-n bound, stronger than the required 3^-n
    for kind, t in trees.items():
        root_dia = diameter(t.cells[""].region)
        for k in range(t.depth + 1):
            for a in t.level(k):
                dia = diameter(t.cells[a].region)
                assert dia <= root_dia / 4 ** k
                assert dia <= root_dia / 3 ** k


def test_sibling_separation(trees):
    # sibling cells keep a Chebyshev gap of at least d(marked)/2
    for kind, t in trees.items():
        for a, cell in t.cells.items():
            if len(a) == t.depth:
                continue
            d = distance(*cell.marked)
            r0, r1 = t.cells[a + "0"].region, t.cells[a + "1"].region
            gap = min(
                max(max(b0.lo[ax] - b1.hi[ax], b1.lo[ax] - b0.hi[ax])
                    for ax in range(b0.dim))
                for b0 in r0.boxes for b1 in r1.boxes)
            assert gap >= d / 2, (kind, a)


def test_marked_points_inherited(trees):
    # child j keeps the parent's marked point j as one of its own extremes
    for kind, t in trees.items():
        for a, cell in t.cells.items():
            if len(a) == t.depth:
                continue
            for j, mp in enumerate(cell.marked):
                child = t.cells[a + str(j)]
                assert mp in child.marked
                assert child.region.contains_point(mp)


def test_distinct_limit_addresses_disjoint(trees):
    # addresses differing at position k have disjoint deeper enclosures
    t = trees["interval"]
    words = [format(i, "06b") for i in range(64)]
    for i, u in enumerate(words):
        for v in words[i + 1:]:
            k = next(idx for idx in range(6) if u[idx] != v[idx])
            n = min(k + 2, 6)
            assert regions_disjoint(
                t.cells[u[:n]].region, t.cells[v[:n]].region)


# ---------------------------------------------------------------------------
# stage invariants
# ---------------------------------------------------------------------------


def test_stage_invariants_pass(trees):
    for kind, t in trees.items():
        for level in range(t.depth + 1):
            rep = check_stage_invariants(t, level)
            assert rep.all_passed, (kind, level, rep.to_document())


def test_stage_invariants_example_interval_depth3_level2():
    t = build_refinement(make_model("interval"), 3)
    rep = check_stage_invariants(t, 2)
    assert rep.all_passed
    assert [c.name for c in rep.checks] == [
        "cells_pairwise_disjoint", "diameter_shrink",
        "perfectness_witness", "clopen_trace"]


def test_stage_invariants_square_depth2_level1():
    t = build_refinement(make_model("square"), 2)
    assert check_stage_invariants(t, 1).all_passed


def _corrupt(kind, depth, addr, lo=None, hi=None, marked=None, extra=None):
    """A tree whose `Fraction` cell at addr gets a new box or marked pair,
    or a second box `extra` beside its own."""
    t = build_refinement(make_model(kind), depth)
    cells = dict(t.cells)
    cell = cells[addr]
    if lo is not None:
        cell = Cell(region(Box(lo, hi)), cell.marked)
    if extra is not None:
        cell = Cell(region([*cell.region.boxes, extra]), cell.marked)
    cells[addr] = Cell(cell.region, marked or cell.marked)
    return RefinementTree(t.model, cells)


CORRUPTED = {
    # leaf "00" stretched over its sibling "01"
    "overlapping_leaves": lambda: _corrupt(
        "interval", 2, "00", (F(0),), (F(2, 9),)),
    # the two depth-1 cells overlap, so neither complement is closed-exact
    "overlapping_halves": lambda: _corrupt(
        "interval", 1, "0", (F(0),), (F(4, 5),)),
    # leaf "001" stretched over "010" and "011", cells of another subtree
    "across_subtrees": lambda: _corrupt(
        "interval", 3, "001", (F(3, 64),), (F(1, 4),)),
    # diameter exactly a third of the parent's marked distance
    "a_third_too_wide": lambda: _corrupt(
        "interval", 1, "0", (F(0),), (F(1, 3),)),
    # a mark of cell "10" moved into cell "0"
    "foreign_mark": lambda: _corrupt(
        "interval", 2, "10", marked=((F(1, 8),), (F(13, 16),))),
    # cell "0" marks a point none of its children marks
    "lost_mark": lambda: _corrupt(
        "interval", 2, "0", marked=((F(0),), (F(1, 5),))),
    # square leaf "01" grown over its whole parent, swallowing "00"
    "square_corner_overlap": lambda: _corrupt(
        "square", 2, "01", (F(0), F(0)), (F(1, 4), F(1, 4))),
    # leaf "10" marks 1/16, which leaf "00" marks too, inside cell "0": the
    # point has the owners "0" and "1", and "1" is foreign to cell "0"
    "shared_mark_first": lambda: _corrupt(
        "interval", 2, "10", marked=((F(1, 16),), (F(13, 16),))),
    # leaf "00" marks 3/4, which leaf "10" marks too, inside cell "1": the
    # point has the owners "0" and "1", and "0" is foreign to cell "1"
    "shared_mark_last": lambda: _corrupt(
        "interval", 2, "00", marked=((F(0),), (F(3, 4),))),
    # cell "0" gains a second box [7/8, 1] inside cell "1": the window of
    # cell "0" must span both its boxes to see "1"
    "two_box_cell": lambda: _corrupt(
        "interval", 1, "0", extra=box1(F(7, 8), 1)),
    # the root shrunk to the point 0: its children stick out of it, so of
    # their marks only 0 lies in it, and its own mark 1 is lost
    "root_shrunk": lambda: _corrupt("interval", 1, "", (F(0),), (F(0),)),
}


def test_corrupted_tree_fails_disjointness():
    rep = check_stage_invariants(CORRUPTED["overlapping_leaves"](), 2)
    assert not rep.all_passed
    names = {c.name: c.passed for c in rep.checks}
    assert names["cells_pairwise_disjoint"] is False


def test_corrupted_tree_fails_clopen_trace():
    rep = check_stage_invariants(CORRUPTED["overlapping_halves"](), 1)
    names = {c.name: c.passed for c in rep.checks}
    assert names["clopen_trace"] is False


def test_corrupted_tree_fails_clopen_trace_across_non_siblings():
    broken = CORRUPTED["across_subtrees"]()
    names = {c.name: c.passed for c in check_stage_invariants(broken, 3).checks}
    assert names["clopen_trace"] is False
    assert names["cells_pairwise_disjoint"] is False


def test_corrupted_trees_fail_their_check():
    def failed(name, level):
        rep = check_stage_invariants(CORRUPTED[name](), level)
        return [c.name for c in rep.checks if not c.passed]

    assert failed("a_third_too_wide", 1) == ["diameter_shrink"]
    assert failed("foreign_mark", 1) == ["perfectness_witness"]
    assert failed("lost_mark", 1) == ["perfectness_witness"]
    assert failed("two_box_cell", 1) == ["cells_pairwise_disjoint",
                                         "diameter_shrink", "clopen_trace"]
    assert check_stage_invariants(CORRUPTED["two_box_cell"](), 1).checks[3] \
        .witness == "complement of cell '0' is not the other cells"
    for name in ("shared_mark_first", "shared_mark_last"):
        rep = check_stage_invariants(CORRUPTED[name](), 1)
        assert [c.witness for c in rep.checks if not c.passed] == \
            [f"cell {'01'[name.endswith('last')]!r} contains a foreign "
             f"marked point"], name
    # (i) holds at the root level, but its children are not nested in it
    rep = check_stage_invariants(CORRUPTED["root_shrunk"](), 0)
    assert [(c.name, c.witness) for c in rep.checks if not c.passed] == \
        [("perfectness_witness", "cell '' lost a marked point")]
    assert check_stage_invariants(CORRUPTED["root_shrunk"](), 1).all_passed


def test_built_trees_are_certified_without_the_exact_scans(trees,
                                                           monkeypatch):
    # disjointness and nesting hold on every built level, so neither the
    # window subtraction of (iv) nor the mark lookups of (iii) run; the
    # tripod root is the one multi-box parent, tested by `region_subset`
    calls = []
    real_diff, real_near = geometry.closed_difference, AxisIndex.near

    def recording_diff(minuend, subtrahend):
        calls.append(("closed_difference", tuple(subtrahend)))
        return real_diff(minuend, subtrahend)

    def recording_near(self, lo, hi):
        calls.append(("near", lo, hi))
        return real_near(self, lo, hi)
    for module in (geometry, embedding):
        monkeypatch.setattr(module, "closed_difference", recording_diff)
    monkeypatch.setattr(AxisIndex, "near", recording_near)
    for kind, t in trees.items():
        calls.clear()
        assert all(check_stage_invariants(t, k).all_passed
                   for k in range(t.depth + 1))
        root = ("closed_difference", t.grid[""].region.boxes)
        assert calls == ([root, root] if kind == "tripod" else []), kind
    # a failed premise runs the scan derived from it
    for name, scans in (("foreign_mark", {"near"}),
                        ("overlapping_halves", {"near", "closed_difference"})):
        t = CORRUPTED[name]()
        calls.clear()
        check_stage_invariants(t, 1)
        assert {call[0] for call in calls} == scans, name


def test_tree_constructor_rejects_addresses_off_its_depth():
    t = build_refinement(make_model("interval"), 2)
    cells = dict(t.cells)
    missing = {a: c for a, c in cells.items() if a != "01"}
    for given_cells, message in (
            (missing, "tree of depth 2 has no cell '01'"),
            ({**cells, "012": cells["01"]}, "must be a string of 0s and 1s"),
            ({**cells, "000": cells["00"]}, "tree of depth 3 has no cell '001'"),
            ({a: c for a, c in cells.items() if a}, "needs its root cell"),
            ({}, "needs its root cell")):
        with pytest.raises(InputError, match=message):
            RefinementTree(t.model, given_cells)
    assert RefinementTree(t.model, {"": cells[""]}).depth == 0


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_tree_constructor_takes_the_longest_address_as_its_depth(kind):
    for depth in range(5):
        t = build_refinement(make_model(kind), depth)
        rebuilt = RefinementTree(t.model, dict(t.cells))
        assert rebuilt.depth == t.depth == depth
        assert dict(rebuilt.cells) == dict(t.cells)


def test_model_dimension_is_its_roots():
    # a model built on the square's root is 2-d whatever its kind, and its
    # cells keep both axes
    square = make_model("square")
    model = PeanoModel("lying", square.root)
    assert [m.dim for m in (model, square)] == [2, 2]
    assert [make_model(k).dim for k in MODEL_KINDS] == [1, 2, 2]
    t = build_refinement(model, 2)
    assert all(len(p) == 2 for c in t.cells.values()
               for p in (*c.marked, *(x for b in c.region.boxes
                                      for x in (b.lo, b.hi))))
    assert dict(t.cells) == dict(build_refinement(square, 2).cells)


def _linear_window(cells, lo, hi):
    """Reference for `AxisIndex.near`: scan every box of the level."""
    return [(j, b) for j, c in enumerate(cells) for b in c.region.boxes
            if not any(b.lo[ax] > hi[ax] or b.hi[ax] < lo[ax]
                       for ax in range(len(lo)))]


def test_axis_index_matches_linear_window(trees):
    def key(entries):
        return sorted((j, b.sort_key()) for j, b in entries)

    for kind, t in trees.items():
        for level in range(t.depth + 1):
            cells = [t.cells[a] for a in t.level(level)]
            index = AxisIndex([c.region.boxes for c in cells])
            for c in cells:
                boxes = c.region.boxes
                lo = tuple(min(b.lo[ax] for b in boxes)
                           for ax in range(t.model.dim))
                hi = tuple(max(b.hi[ax] for b in boxes)
                           for ax in range(t.model.dim))
                for q in ((lo, hi), (c.marked[0], c.marked[0]),
                          (c.marked[1], c.marked[1])):
                    assert key(index.near(*q)) == \
                        key(_linear_window(cells, *q)), (kind, level, q)


def test_tree_document_deterministic_and_sorted():
    t = build_refinement(make_model("interval"), 2)
    doc = tree_document(t)
    assert doc["model"] == "interval" and doc["depth"] == 2
    addrs = [c["address"] for c in doc["cells"]]
    assert addrs == ["", "0", "1", "00", "01", "10", "11"]
    assert doc == tree_document(build_refinement(make_model("interval"), 2))
    assert doc["cells"][1]["region"] == [[["0/1", "1/4"]]]
    assert doc["cells"][1]["marked_points"] == ["0/1", "1/4"]


def test_build_rejects_negative_depth():
    with pytest.raises(InputError):
        build_refinement(make_model("interval"), -1)


@pytest.mark.parametrize("depth", [2.0, "3", None])
def test_build_rejects_a_depth_that_is_not_an_int(depth):
    with pytest.raises(InputError, match="depth must be >= 0"):
        build_refinement(make_model("interval"), depth)


@pytest.mark.parametrize("level, message", [
    (1.0, "level must be an int >= 0, got 1.0"),
    ("1", "level must be an int >= 0, got '1'"),
    (None, "level must be an int >= 0, got None"),
    (-1, "level must be an int >= 0, got -1"),
    (3, "level 3 outside tree depth 2")])
def test_checks_reject_a_level_off_the_tree(level, message):
    t = build_refinement(make_model("interval"), 2)
    for check in (t.level, lambda k: check_stage_invariants(t, k)):
        with pytest.raises(InputError) as info:
            check(level)
        assert str(info.value) == message


# ---------------------------------------------------------------------------
# the integer grid against the Fraction construction it replaced
# ---------------------------------------------------------------------------


def _coords(cell):
    for b in cell.region.boxes:
        yield from (*b.lo, *b.hi)
    for p in cell.marked:
        yield from p


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_grid_build_matches_fraction_oracle(kind):
    model = make_model(kind)
    for depth in range(9):
        assert dict(build_refinement(model, depth).cells) == \
            oracle_build(model, depth), depth


def _view_matches_grid_box_route(t):
    """Each `tree.cells` Cell equals, in value and corner type, the Cell
    the grid_box route builds; a one-box cell marked at its corners shares
    their tuples as its marked points.  Returns how many cells share."""
    shared = 0
    with checked_boxes():
        for a in t.grid:
            got, want = t.cells[a], oracle_fraction_cell(t, a)
            assert got == want, a
            assert all(type(x) is F for x in _coords(got)), a
            (b, *rest), grid = got.region.boxes, t.grid[a]
            if not rest and grid.marked == (grid.region.boxes[0].lo,
                                            grid.region.boxes[0].hi):
                assert got.marked[0] is b.lo and got.marked[1] is b.hi, a
                shared += 1
    return shared


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_fraction_view_matches_the_grid_box_route(kind):
    model = make_model(kind)
    for depth in range(7):
        t = build_refinement(model, depth)
        # every cell but a tripod root is one box marked at its corners
        assert _view_matches_grid_box_route(t) == \
            len(t.grid) - (kind == "tripod")
    # marked points off the corners, or at one corner only: only the point
    # cell "0" shares its corners
    half, quarter = (F(1, 2),) * model.dim, [(F(1, 4),) * model.dim,
                                             (F(3, 4),) * model.dim]
    cells = {"": Cell(region(Box((F(0),) * model.dim, (F(1),) * model.dim)),
                      tuple(quarter)),
             "0": Cell(region(Box(quarter[0], quarter[0])),
                       (quarter[0], quarter[0])),
             "1": Cell(region(Box(half, quarter[1])),
                       (half, (F(5, 8),) * model.dim))}
    with checked_boxes():
        t = RefinementTree(model, cells)
    assert _view_matches_grid_box_route(t) == 1


def test_grid_checks_match_fraction_oracle(trees):
    for kind, t in trees.items():
        for level in range(t.depth + 1):
            assert check_stage_invariants(t, level) == \
                oracle_check(t, level), (kind, level)


@pytest.mark.parametrize("name", sorted(CORRUPTED))
def test_corrupted_checks_match_fraction_oracle(name):
    t = CORRUPTED[name]()
    reports = [check_stage_invariants(t, k) for k in range(t.depth + 1)]
    assert reports == [oracle_check(t, k) for k in range(t.depth + 1)]
    assert not all(rep.all_passed for rep in reports)


def test_grid_corners_are_ints_and_cells_are_fractions(trees):
    for kind, t in trees.items():
        assert type(t.scale) is int
        assert all(type(x) is int
                   for cell in t.grid.values() for x in _coords(cell)), kind
        assert all(type(x) is F
                   for cell in t.cells.values() for x in _coords(cell)), kind
        rebuilt = RefinementTree(t.model, dict(t.cells))
        assert dict(rebuilt.cells) == dict(t.cells)
        assert "0" * t.depth in t.cells and "0" * (t.depth + 1) not in t.cells


def _affine_image(t, a, b):
    """The tree's cells under x -> a*x + b on every axis, a > 0, through
    the public constructor."""
    def f(p):
        return tuple(a * x + b for x in p)
    return RefinementTree(t.model, {
        addr: Cell(region([Box(f(bx.lo), f(bx.hi)) for bx in c.region.boxes]),
                   (f(c.marked[0]), f(c.marked[1])))
        for addr, c in t.cells.items()})


@pytest.mark.parametrize("name", sorted(CORRUPTED) + list(MODEL_KINDS))
def test_non_dyadic_cells_give_the_same_verdicts(name):
    # every check is invariant under a positive homothety and a translation
    t = CORRUPTED[name]() if name in CORRUPTED else \
        build_refinement(make_model(name), 5)
    image = _affine_image(t, F(5, 7), F(1, 3))
    assert image.scale % 21 == 0
    for level in range(t.depth + 1):
        rep = check_stage_invariants(image, level)
        assert rep == check_stage_invariants(t, level)
        assert rep == oracle_check(image, level)


def test_subdivide_on_the_grid_is_exact():
    m = PeanoModel("interval", region(Box((0,), (8,))))
    (r1, mk1), (r2, mk2) = subdivide(m, m.root, ((0,), (8,)))
    assert (r1, mk1) == (region(Box((0,), (2,))), ((0,), (2,)))
    assert (r2, mk2) == (region(Box((6,), (8,))), ((6,), (8,)))
    assert all(type(x) is int for r in (r1, r2) for b in r.boxes
               for x in (*b.lo, *b.hi))
    with pytest.raises(ConstructionError):
        subdivide(m, region(Box((0,), (6,))), ((0,), (6,)))
    with pytest.raises(InputError):
        subdivide(m, region(Box((0,), (12,))), ((0,), (12,)))


@st.composite
def split_steps(draw):
    """(model, `Fraction` cell, marked pair) on the interval or the square.
    The cell is mostly one box, else that box and a second one, and the
    marked points lie anywhere in the first box.  A square box's second
    axis may be degenerate, as on the tripod.  Now and then a marked point
    lies outside the cell, both are one point, or the cell sticks out of
    the model."""
    model = make_model(draw(st.sampled_from(("interval", "square"))))
    den = draw(st.sampled_from([4, 6, 64]))
    odd = draw(st.sampled_from([None] * 7 + ["past", "outside", "same"]))
    past = odd == "past"

    def box():
        axes = []
        for ax in range(model.dim):
            lo = draw(st.integers(-past, den + past - 1))
            flat = ax == 1 and draw(st.sampled_from([False] * 3 + [True]))
            hi = lo if flat else draw(st.integers(lo + 1, den + past))
            axes.append((F(lo, den), F(hi, den)))
        return axes
    axes = box()
    inside = st.tuples(*(st.fractions(lo, hi, max_denominator=4 * den)
                         for lo, hi in axes))
    marked = draw(st.lists(inside, min_size=2, max_size=2, unique=True))
    if odd == "outside":
        marked[1] = tuple(F(n, den) for n in draw(
            st.tuples(*[st.integers(-1, den + 1)] * model.dim)))
    if odd == "same":
        marked[1] = marked[0]
    boxes = [axes]
    if draw(st.sampled_from([False] * 3 + [True])):
        boxes.append(box())
    cell = region([Box(tuple(lo for lo, _ in ax), tuple(hi for _, hi in ax))
                   for ax in boxes])
    return model, cell, tuple(marked)


def _outcome(step, *args):
    try:
        return step(*args)
    except (InputError, ConstructionError) as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(split_steps())
def test_split_matches_fraction_oracle(case):
    # one-box cells are split by a per-axis clamp, others by regions
    with checked_boxes():
        assert _outcome(subdivide, *case) == _outcome(oracle_subdivide, *case)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, 2]), st.data())
def test_grid_split_off_the_grid_raises_on_both_paths(dim, data):
    # a marked distance that is no multiple of 4 has no grid radius, on a
    # one-box cell and on the same cell beside a second box alike
    model = PeanoModel("grid", region(Box((0,) * dim, (40,) * dim)))
    axes = [sorted(data.draw(st.tuples(st.integers(0, 16),
                                       st.integers(0, 16))))
            for _ in range(dim)]
    box = Box(tuple(lo for lo, _ in axes), tuple(hi for _, hi in axes))
    point = st.tuples(*(st.integers(lo, hi) for lo, hi in axes))
    marked = (data.draw(point), data.draw(point))
    assume(distance(*marked) % 4)
    two_boxes = region([box, Box((32,) * dim, (40,) * dim)])
    assert len(two_boxes.boxes) > 1
    for cell in (region(box), two_boxes):
        with pytest.raises(ConstructionError):
            subdivide(model, cell, marked)


def graph_size(root):
    """`sys.getsizeof` summed over the distinct objects reachable from root,
    each counted once by id: container items, dict keys and values, and
    instance attributes in `__dict__` or `__slots__`.  A function of the
    object graph alone, unlike a heap snapshot, which also sees what the
    interpreter's free lists hold back."""
    seen = set()
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, (dict, MappingProxyType)):
            stack.extend(obj.keys())
            stack.extend(obj.values())
            if isinstance(obj, MappingProxyType):
                stack.extend(gc.get_referents(obj))  # the dict it wraps
        elif isinstance(obj, (tuple, list, set, frozenset)):
            stack.extend(obj)
        else:
            stack.extend(getattr(obj, "__dict__", {}).values())
            for cls in type(obj).__mro__:
                slots = cls.__dict__.get("__slots__", ())
                for name in (slots,) if isinstance(slots, str) else slots:
                    if hasattr(obj, name):
                        stack.append(getattr(obj, name))
    return total


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_grid_tree_no_larger_than_fraction_tree(kind):
    model = make_model(kind)
    sizes = [graph_size(build(model, 9))
             for build in (build_refinement, oracle_build)]
    assert sizes[0] <= sizes[1], sizes


# ---------------------------------------------------------------------------
# the stage checks against the Fraction oracle on random trees
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _built(kind, depth):
    return build_refinement(make_model(kind), depth)


@st.composite
def perturbed_trees(draw):
    """A built tree with up to three cells redrawn, through the public
    constructor: a cell may gain boxes (multi-box cells, often overlapping
    others or too wide) and take marks from its boxes' corners or from any
    cell's marks (lost, foreign and shared marks)."""
    kind = draw(st.sampled_from(MODEL_KINDS))
    t = _built(kind, draw(st.integers(0, 3)))
    cells = dict(t.cells)
    dim = t.model.dim
    den = draw(st.sampled_from([4, 16, 64]))
    coord = st.integers(0, den).map(lambda n: F(n, den))
    box = st.lists(st.tuples(coord, coord).map(sorted),
                   min_size=dim, max_size=dim).map(
        lambda ax: Box(tuple(lo for lo, _ in ax), tuple(hi for _, hi in ax)))
    for a in draw(st.lists(st.sampled_from(sorted(cells)), max_size=3,
                           unique=True)):
        cell = cells[a]
        boxes = list(cell.region.boxes) if draw(st.booleans()) else []
        boxes += draw(st.lists(box, min_size=0 if boxes else 1, max_size=2))
        r = region(boxes)
        pool = [p for b in r.boxes for p in (b.lo, b.hi)] + \
            [p for c in cells.values() for p in c.marked]
        marked = draw(st.one_of(st.just(cell.marked),
                                st.tuples(st.sampled_from(pool),
                                          st.sampled_from(pool))))
        cells[a] = Cell(r, marked)
    return RefinementTree(t.model, cells)


@settings(max_examples=300, deadline=None)
@given(perturbed_trees())
def test_checks_match_fraction_oracle_on_random_trees(t):
    with checked_boxes():
        t = RefinementTree(t.model, dict(t.cells))  # `_onto_grid` checked
        for level in range(t.depth + 1):
            assert check_stage_invariants(t, level) == \
                oracle_check(t, level), level
    _view_matches_grid_box_route(t)
