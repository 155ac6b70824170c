"""Nested Cantor construction: subdivision rule, refinement trees, and the
finite-stage certificates the limit argument rests on."""

from fractions import Fraction as F

import pytest

from primchaos.embedding import (
    Cell,
    RefinementTree,
    _AxisIndex,
    build_refinement,
    check_stage_invariants,
    evaluate_address,
    make_model,
    subdivide,
    tree_document,
)
from primchaos.errors import DegenerateInputError, InputError
from primchaos.geometry import (
    Address,
    box1,
    box2,
    diameter,
    distance,
    lexmax_point,
    lexmin_point,
    region,
    regions_disjoint,
    region_subset,
)

A = Address.from_string


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


def test_subdivide_rejects_cell_outside_model():
    m = make_model("interval")
    with pytest.raises(InputError):
        subdivide(m, region(box1(0, 2)), ((F(0),), (F(2),)))


def test_tree_cells_are_read_only():
    t = build_refinement(make_model("interval"), 1)
    with pytest.raises(TypeError):
        t.cells["0"] = t.cells["1"]


# ---------------------------------------------------------------------------
# build_refinement / evaluate_address
# ---------------------------------------------------------------------------


def test_depth_zero_is_single_root_cell():
    for kind in ("interval", "square", "tripod"):
        t = build_refinement(make_model(kind), 0)
        assert t.level(0) == [""]
        assert evaluate_address(t, A("")) == make_model(kind).root


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
    assert evaluate_address(t, A("00")) == region(box1(0, F(1, 16)))
    assert evaluate_address(t, A("1")) == region(box1(F(3, 4), 1))
    with pytest.raises(InputError):
        evaluate_address(t, A("000"))
    with pytest.raises(InputError):
        evaluate_address(t, Address((0, 2), alphabet=3))


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


def test_corrupted_tree_fails_disjointness():
    t = build_refinement(make_model("interval"), 2)
    cells = dict(t.cells)
    # hand-corrupt: stretch leaf "00" so it overlaps its sibling "01"
    bad = region(box1(0, F(2, 9)))
    cells["00"] = Cell(bad, cells["00"].marked)
    broken = RefinementTree(t.model, t.depth, cells)
    rep = check_stage_invariants(broken, 2)
    assert not rep.all_passed
    names = {c.name: c.passed for c in rep.checks}
    assert names["cells_pairwise_disjoint"] is False


def test_corrupted_tree_fails_clopen_trace():
    t = build_refinement(make_model("interval"), 1)
    cells = dict(t.cells)
    # overlap the two depth-1 cells so neither complement is closed-exact
    cells["0"] = Cell(region(box1(0, F(4, 5))), cells["0"].marked)
    broken = RefinementTree(t.model, t.depth, cells)
    rep = check_stage_invariants(broken, 1)
    names = {c.name: c.passed for c in rep.checks}
    assert names["clopen_trace"] is False


def test_corrupted_tree_fails_clopen_trace_across_non_siblings():
    t = build_refinement(make_model("interval"), 3)
    cells = dict(t.cells)
    # stretch leaf "001" over "010" and "011", cells of another subtree
    lo = cells["001"].region.boxes[0].lo[0]
    hi = cells["011"].region.boxes[0].hi[0]
    cells["001"] = Cell(region(box1(lo, hi)), cells["001"].marked)
    broken = RefinementTree(t.model, t.depth, cells)
    names = {c.name: c.passed for c in check_stage_invariants(broken, 3).checks}
    assert names["clopen_trace"] is False
    assert names["cells_pairwise_disjoint"] is False


def _linear_window(cells, lo, hi):
    """Reference for `_AxisIndex.near`: scan every box of the level."""
    return [(j, b) for j, c in enumerate(cells) for b in c.region.boxes
            if not any(b.lo[ax] > hi[ax] or b.hi[ax] < lo[ax]
                       for ax in range(len(lo)))]


def test_axis_index_matches_linear_window(trees):
    def key(entries):
        return sorted((j, b.sort_key()) for j, b in entries)

    for kind, t in trees.items():
        for level in range(t.depth + 1):
            cells = [t.cells[a] for a in t.level(level)]
            index = _AxisIndex(cells)
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
