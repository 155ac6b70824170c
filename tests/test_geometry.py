"""Substrate tests: exact rationals, metric, boxes, regions, addresses."""

import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primchaos import geometry
from primchaos.errors import InputError
from primchaos.geometry import (
    MAX_DECIMAL_DIGITS,
    AxisIndex,
    Box,
    Region,
    binary_word,
    bounding_box,
    box_disjoint,
    box_in_boxes,
    box_intersect,
    chebyshev_ball,
    closed_difference,
    cylinder,
    decimal_str,
    diameter,
    distance,
    eval_ternary_address,
    grid_box,
    grid_point,
    lexmax_point,
    lexmin_point,
    parse_rational,
    rat,
    rational_str,
    region,
    region_intersect,
    region_subset,
    regions_disjoint,
)
from geometry_oracle import (
    box1,
    box2,
    checked_boxes,
    oracle_box_disjoint,
    oracle_box_in_boxes,
    oracle_box_intersect,
    oracle_closed_difference,
    oracle_decimal_str,
    oracle_region,
    oracle_region_intersect,
    oracle_region_subset,
)


def corner_pair_diameter(boxes):
    """Independent diameter oracle: max Chebyshev distance over all pairs of
    box corners (attained there for any finite box union)."""
    corners = []
    for b in boxes:
        axes = [(b.lo[i], b.hi[i]) for i in range(b.dim)]
        corners.extend(product(*axes))
    return max(max(abs(p[i] - q[i]) for i in range(len(p)))
               for p in corners for q in corners)


def rand_fraction(rng, max_den=1000):
    den = rng.randint(1, max_den)
    return F(rng.randint(-max_den, max_den), den)


# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------


def test_rational_round_trips_10k_pairs():
    rng = random.Random(20240817)
    for _ in range(10_000):
        a, b = rand_fraction(rng), rand_fraction(rng)
        assert (a + b) - b == a


def test_rational_normalization_idempotent():
    rng = random.Random(99)
    for _ in range(1000):
        a = rand_fraction(rng)
        again = F(a.numerator, a.denominator)
        assert again.numerator == a.numerator
        assert again.denominator == a.denominator
        assert a.denominator > 0


def test_rational_serialization():
    assert rational_str(F(3, 8)) == "3/8"
    assert rational_str(F(0)) == "0/1"
    assert rational_str(F(-2, 6)) == "-1/3"
    assert parse_rational("3/8") == F(3, 8)
    assert parse_rational("-7") == F(-7)
    with pytest.raises(InputError):
        parse_rational("x/y")
    with pytest.raises(InputError):
        parse_rational("1/0")


def test_rat_reads_strings_and_rejects_floats():
    assert rat("3/4") == F(3, 4)
    assert rat(" -5/10 ") == F(-1, 2)
    assert rat("7") == rat(7) == F(7)
    with pytest.raises(InputError):
        rat("3/4/5")
    with pytest.raises(InputError) as exc:
        rat(0.5)
    assert str(exc.value) == "floats are not accepted; pass an int, " \
                             "Fraction or 'p/q' string"
    # other types are not Fraction's TypeError; a bool is an int
    for value in (None, []):
        with pytest.raises(InputError) as exc:
            rat(value)
        assert str(exc.value) == f"not a rational: {value!r}; pass an int, " \
                                 "Fraction or 'p/q' string"
    assert rat(True) == 1


def test_decimal_str_truncates():
    assert decimal_str(F(1, 3), 4) == "0.3333"
    assert decimal_str(F(2, 3), 4) == "0.6666"  # truncated, not rounded
    assert decimal_str(F(-1, 8), 2) == "-0.12"
    assert decimal_str(F(5), 0) == "5"


@settings(max_examples=300)
@given(st.fractions(), st.integers(0, 64))
@example(F(0), 0)
@example(F(0), 5)
@example(F(-7, 3), 0)
@example(F(-1, 1000), 2)
@example(F(-12345, 7), 64)
def test_decimal_str_matches_long_division(x, digits):
    # sign, truncation toward zero and the digits == 0 form, on random
    # fractions, zero and negatives, against one division step per digit
    assert decimal_str(x, digits) == oracle_decimal_str(x, digits)


@given(st.fractions(), st.fractions())
def test_rational_addition_exact(a, b):
    assert (a + b) - b == a


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------


def test_distance_examples():
    assert distance((F(0), F(0)), (F(1), F(1))) == 1
    assert distance((F(1, 3),), (F(2, 3),)) == F(1, 3)
    # hand oracle: max(|3/4-1/4|, |1/8-0|) = max(1/2, 1/8)
    assert distance((F(1, 4), F(0)), (F(3, 4), F(1, 8))) == F(1, 2)


def test_distance_dimension_mismatch():
    with pytest.raises(InputError):
        distance((F(0),), (F(0), F(0)))


def test_metric_axioms_random_triples():
    rng = random.Random(7)
    for _ in range(1000):
        p, q, r = (tuple(F(rng.randint(0, 64), 64) for _ in range(2))
                   for _ in range(3))
        assert distance(p, q) == distance(q, p)
        assert (distance(p, q) == 0) == (p == q)
        assert distance(p, r) <= distance(p, q) + distance(q, r)


# ---------------------------------------------------------------------------
# diameter
# ---------------------------------------------------------------------------


def test_diameter_examples_against_corner_oracle():
    cases = [
        region(box1(0, F(1, 4))),
        region([box1(0, F(1, 16)), box1(F(3, 16), F(1, 4))]),
        region(box2(0, 1, 0, 1)),
    ]
    expected = [F(1, 4), F(1, 4), F(1)]
    for r, want in zip(cases, expected):
        assert diameter(r) == want
        assert diameter(r) == corner_pair_diameter(r.boxes)


@settings(max_examples=200)
@given(st.lists(st.tuples(st.integers(0, 32), st.integers(0, 32),
                          st.integers(0, 32), st.integers(0, 32)),
                min_size=1, max_size=5))
def test_diameter_matches_corner_oracle(raw):
    boxes = [box2(F(min(a, b), 32), F(max(a, b), 32),
                  F(min(c, d), 32), F(max(c, d), 32))
             for a, b, c, d in raw]
    r = region(boxes)
    assert diameter(r) == corner_pair_diameter(boxes)


# ---------------------------------------------------------------------------
# cylinders and ternary evaluation
# ---------------------------------------------------------------------------


def cyl_oracle(bits):
    """Independent middle-third oracle: left endpoint as a ternary digit sum."""
    lo = sum(2 * int(b) * F(1, 3 ** (i + 1)) for i, b in enumerate(bits))
    return lo, lo + F(1, 3 ** len(bits))


def test_cylinder_examples():
    assert cylinder("").boxes == (box1(0, 1),)
    assert cylinder("0").boxes == (box1(0, F(1, 3)),)
    assert cylinder("01").boxes == (box1(F(2, 9), F(1, 3)),)


def test_cylinder_matches_oracle_exhaustive_depth_8():
    for n in range(9):
        for bits in product("01", repeat=n):
            word = "".join(bits)
            b = cylinder(word).boxes[0]
            lo, hi = cyl_oracle(word)
            assert (b.lo[0], b.hi[0]) == (lo, hi)


def test_cylinder_diameter_is_3_pow_minus_n_exhaustive_depth_12():
    for n in range(13):
        width = F(1, 3 ** n)
        for i in range(2 ** n):
            word = format(i, f"0{n}b") if n else ""
            assert diameter(cylinder(word)) == width


def test_cylinder_children_nest_and_are_disjoint_depth_10():
    for n in range(11):
        for i in range(2 ** n):
            word = format(i, f"0{n}b") if n else ""
            parent = cylinder(word)
            c0 = cylinder(word + "0")
            c1 = cylinder(word + "1")
            assert region_subset(c0, parent) and region_subset(c1, parent)
            assert c0.boxes[0].hi[0] < c1.boxes[0].lo[0]  # disjoint with a gap


def test_cylinder_requires_binary():
    with pytest.raises(InputError):
        cylinder("02")


def test_eval_ternary_address():
    assert eval_ternary_address("", "zeros") == 0
    assert eval_ternary_address("", "ones") == 1
    # geometric series oracle: 2*(1/3)/(1 - 1/9) = 3/4
    assert eval_ternary_address("10", "repeat") == F(3, 4)
    assert eval_ternary_address("10", "zeros") == F(2, 3)
    assert eval_ternary_address("1", "repeat") == 1
    with pytest.raises(InputError):
        eval_ternary_address("", "repeat")
    with pytest.raises(InputError):
        eval_ternary_address("0", "fives")
    # every finite evaluation lands inside its cylinder
    for i in range(64):
        word = format(i, "06b")
        b = cylinder(word).boxes[0]
        for ext in ("zeros", "ones", "repeat"):
            x = eval_ternary_address(word, ext)
            assert b.lo[0] <= x <= b.hi[0]


def test_address_parsing_and_str():
    assert binary_word("0101") == "0101" and binary_word("") == ""
    with pytest.raises(InputError):
        binary_word("0x1")


# ---------------------------------------------------------------------------
# region canonicalization
# ---------------------------------------------------------------------------


def grid_membership(boxes, p):
    return any(all(l <= c <= h for l, c, h in zip(b.lo, p, b.hi))
               for b in boxes)


frac32 = st.integers(0, 32).map(lambda n: F(n, 32))
boxes_1d = st.lists(
    st.tuples(frac32, frac32).map(lambda t: box1(min(t), max(t))),
    min_size=1, max_size=6)
boxes_2d = st.lists(
    st.tuples(frac32, frac32, frac32, frac32).map(
        lambda t: box2(min(t[0], t[1]), max(t[0], t[1]),
                       min(t[2], t[3]), max(t[2], t[3]))),
    min_size=1, max_size=5)


@settings(max_examples=300)
@given(boxes_1d)
def test_canonical_idempotent_and_pointwise_1d(boxes):
    r = region(boxes)
    assert region(list(r.boxes)) == r  # idempotent
    for i in range(33):
        p = (F(i, 32),)
        assert r.contains_point(p) == grid_membership(boxes, p)


@settings(max_examples=200, deadline=None)
@given(boxes_2d)
def test_canonical_idempotent_and_pointwise_2d(boxes):
    r = region(boxes)
    assert region(list(r.boxes)) == r
    for i in range(0, 33, 4):
        for j in range(0, 33, 4):
            p = (F(i, 32), F(j, 32))
            assert r.contains_point(p) == grid_membership(boxes, p)


@settings(max_examples=200, deadline=None)
@given(boxes_2d)
def test_canonical_route_independent_2d(boxes):
    # shuffled and duplicated box lists describe the same set
    doubled = boxes + boxes[::-1]
    assert region(boxes) == region(doubled)


@settings(max_examples=200, deadline=None)
@given(boxes_2d, st.randoms(use_true_random=False))
def test_canonical_survives_box_splitting(boxes, rng):
    # cutting boxes in two along random axes never changes the canonical form
    pieces = []
    for b in boxes:
        axis = rng.choice([0, 1])
        if b.lo[axis] < b.hi[axis]:
            mid = (b.lo[axis] + b.hi[axis]) / 2
            lo2 = list(b.lo)
            hi1 = list(b.hi)
            hi1[axis] = mid
            lo2[axis] = mid
            pieces.append(Box(b.lo, tuple(hi1)))
            pieces.append(Box(tuple(lo2), b.hi))
        else:
            pieces.append(b)
    rng.shuffle(pieces)
    assert region(pieces) == region(boxes)


def test_canonical_merges_and_absorbs():
    assert region([box1(0, F(1, 2)), box1(F(1, 2), 1)]) == region(box1(0, 1))
    assert region([box2(0, 1, 0, 1), box2(1, 2, 0, 1)]) == region(box2(0, 2, 0, 1))
    # degenerate edge absorbed by a full box
    assert region([box2(0, 1, 0, 1), box2(1, 1, 0, 1)]) == region(box2(0, 1, 0, 1))
    # protruding degenerate content survives
    r = region([box2(0, 1, 0, 1), box2(F(1, 2), F(1, 2), 0, 2)])
    assert r.contains_point((F(1, 2), F(3, 2)))
    assert not r.contains_point((F(1, 4), F(3, 2)))


def test_box_and_region_dimensions_must_agree():
    with pytest.raises(InputError) as info:
        Box((F(0),), (F(1), F(1)))
    assert str(info.value) == "box corner dimension mismatch"
    with pytest.raises(InputError) as info:
        region([box1(0, 1), box2(0, 1, 0, 1)])
    assert str(info.value) == "all boxes of a region must share one dimension"


def test_grid_box_builds_lowest_terms_fractions():
    b = grid_box((2, 3), (4, 6), (4, 9))
    assert b == box2(F(1, 2), 1, F(1, 3), F(2, 3))
    assert all(type(x) is F for x in (*b.lo, *b.hi))
    assert grid_point((-3,), (6,)) == (F(-1, 2),)
    for lo, hi, dens in [((1,), (0,), (1,)), ((0,), (1, 1), (1, 1)),
                         ((0,) * 3, (1,) * 3, (1,) * 3), ((), (), ())]:
        with pytest.raises(InputError):
            grid_box(lo, hi, dens)
    with pytest.raises(InputError):
        chebyshev_ball((F(1, 2),), F(-1, 4))


def test_region_equality_is_point_set_equality():
    a = region([box1(0, F(1, 3)), box1(F(1, 3), F(2, 3))])
    b = region(box1(0, F(2, 3)))
    assert a == b


def test_region_subset_and_intersect():
    big = region(box2(0, 1, 0, 1))
    small = region(box2(F(1, 4), F(1, 2), F(1, 4), F(1, 2)))
    assert region_subset(small, big) and not region_subset(big, small)
    assert region_intersect(small, big) == small
    left = region(box1(0, F(1, 3)))
    right = region(box1(F(2, 3), 1))
    assert region_intersect(left, right) is None
    # closed boxes that touch meet in a degenerate box
    assert region_intersect(region(box1(0, F(1, 2))), region(box1(F(1, 2), 1))) \
        == region(box1(F(1, 2), F(1, 2)))
    assert region_intersect(region(box2(0, 1, 0, 1)), region(box2(1, 2, 1, 2))) \
        == region(box2(1, 1, 1, 1))
    # subset of a split cover needs the refinement argument
    cover = region([box1(0, F(1, 2)), box1(F(1, 2), 1)])
    assert region_subset(region(box1(F(1, 4), F(3, 4))), cover)
    assert box_in_boxes(box1(0, 1), [box1(0, F(1, 2)), box1(F(5, 8), 1)]) is False


def test_disjointness_is_closed_semantics():
    assert not box_disjoint(box1(0, F(1, 2)), box1(F(1, 2), 1))  # touch
    assert box_disjoint(box1(0, F(1, 3)), box1(F(2, 3), 1))
    assert not box_disjoint(box2(0, 1, 0, 1), box2(1, 2, 1, 2))  # corner
    assert regions_disjoint(region(box1(0, F(1, 4))),
                            region(box1(F(1, 2), 1)))


def test_closed_difference():
    # closure of ([0,1] minus [1/3,2/3]) = two closed thirds
    diff = closed_difference([box1(0, 1)], [box1(F(1, 3), F(2, 3))])
    assert region(diff) == region([box1(0, F(1, 3)), box1(F(2, 3), 1)])
    # subtracting a separated box passes others through untouched
    diff = closed_difference([box1(0, F(1, 4)), box1(F(3, 4), 1)],
                             [box1(F(3, 4), 1)])
    assert diff == [box1(0, F(1, 4))]
    # full subtraction empties
    assert closed_difference([box1(0, 1)], [box1(0, 1)]) == []
    # a box inside one of several subtrahend boxes drops out
    assert closed_difference([box2(0, F(1, 2), 0, 1)],
                             [box2(F(1, 2), 1, 0, 1), box2(0, 1, 0, 1)]) == []
    # a box covered only jointly by two subtrahend boxes drops out too
    assert closed_difference([box2(0, 1, 0, 1)],
                             [box2(0, F(1, 2), 0, 1), box2(F(1, 2), 1, 0, 1)]) == []
    # a box meeting a subtrahend box at a corner keeps all of itself
    assert closed_difference([box2(0, 1, 0, 1)], [box2(1, 2, 1, 2)]) == \
        [box2(0, 1, 0, 1)]


def test_closed_difference_drops_a_box_inside_one_subtrahend_unrefined(
        monkeypatch):
    # the clopen trace subtracts each cell from a window holding its own
    # boxes; those must drop out without refining, touching or not
    def no_refinement(*args):
        raise AssertionError("refined a box that lies inside one subtrahend")
    monkeypatch.setattr(geometry, "_axis_grid", no_refinement)
    cell = [box2(0, 1, 0, 1), box2(1, 1, 1, 2)]
    assert closed_difference(cell, cell + [box2(1, 2, 0, 1)]) == []
    assert closed_difference([box1(F(1, 4), F(1, 2))], [box1(0, F(1, 2))]) == []
    assert box_in_boxes(box2(0, F(1, 2), 0, 1), cell)


def test_lex_extremes():
    r = region([box2(F(1, 2), F(1, 2), 0, F(1, 2)), box2(0, 1, F(1, 2), F(1, 2))])
    assert lexmin_point(r) == (F(0), F(1, 2))
    assert lexmax_point(r) == (F(1), F(1, 2))


def test_box_validation():
    with pytest.raises(InputError):
        Box((F(1),), (F(0),))
    with pytest.raises(InputError):
        region([])


# ---------------------------------------------------------------------------
# the closed-difference engine against the code it replaced
# ---------------------------------------------------------------------------


# corners on a small grid, so boxes are often degenerate, touching or equal;
# int corners as the integer kernels hold them, Fraction ones as the API does
CORNER = st.sampled_from([lambda n: n, lambda n: F(n, 3)])


@st.composite
def box_lists(draw, dim, max_size=5):
    corner = draw(CORNER)
    axis = st.tuples(st.integers(0, 6), st.integers(0, 6)).map(sorted)
    box = st.lists(axis, min_size=dim, max_size=dim).map(
        lambda ax: Box(tuple(corner(lo) for lo, _ in ax),
                       tuple(corner(hi) for _, hi in ax)))
    return draw(st.lists(box, min_size=1, max_size=max_size))


def _typed(boxes):
    return [(b.lo, b.hi, [type(x) for x in (*b.lo, *b.hi)]) for b in boxes]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([1, 2]).flatmap(lambda dim: box_lists(dim, 7)))
def test_region_matches_column_pass_oracle(boxes):
    with checked_boxes():
        assert _typed(region(boxes).boxes) == _typed(oracle_region(boxes).boxes)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 2]).flatmap(lambda dim: box_lists(dim, 4)))
def test_trusted_box_is_the_checked_box(boxes):
    for b in boxes:
        t = Box._trusted(b.lo, b.hi)
        assert (t.lo, t.hi) == (b.lo, b.hi) and t == b and hash(t) == hash(b)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([1, 2]).flatmap(
    lambda dim: st.tuples(box_lists(dim), box_lists(dim))))
def test_containment_and_difference_match_oracle(pair):
    # corners of the two lists may differ in type; they compare exactly
    minuend, subtrahend = pair
    with checked_boxes():
        assert _typed(closed_difference(minuend, subtrahend)) == \
            _typed(oracle_closed_difference(minuend, subtrahend))
        for target in minuend:
            assert box_in_boxes(target, subtrahend) is \
                oracle_box_in_boxes(target, subtrahend)
        a, b = region(minuend), region(subtrahend)
        assert region_subset(a, b) is oracle_region_subset(a, b)
        assert region_subset(b, a) is oracle_region_subset(b, a)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([1, 2]).flatmap(
    lambda dim: st.tuples(box_lists(dim, 1), box_lists(dim, 1))))
@example(([box1(0, 1)], [Box((1,), (2,))]))
@example(([box2(0, 1, 0, 1)], [Box((0, 0), (1, 2))]))
@example(([box2(0, 1, 1, 1)], [box2(0, 1, 1, 1)]))
def test_one_box_subset_is_the_closed_difference_verdict(pair):
    # the corner test `region_subset` makes for one box in one box against
    # the emptiness of their difference, on degenerate, touching, equal and
    # mixed int/Fraction boxes
    (a,), (b,) = pair
    for x, y in ((a, b), (b, a)):
        assert region_subset(Region((x,)), Region((y,))) is \
            (not closed_difference([x], [y]))


# ---------------------------------------------------------------------------
# the per-axis primitives and their one-box shortcuts against the code they
# replaced and against their general paths
# ---------------------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([1, 2]).flatmap(
    lambda dim: st.tuples(box_lists(dim, 3), box_lists(dim, 3))))
@example(([Box((F(0), F(0)), (F(1, 3), F(1)))],
          [Box((0, 0), (0, 1)), Box((0, 1), (1, 1))]))
def test_region_intersect_matches_pairwise_oracle(pair):
    # corners on a 7-point grid make touching, equal and degenerate boxes
    # common; each pair of boxes is also met as two one-box regions.  Where
    # the two lists differ in corner type, which of two equal corners a
    # region keeps is unspecified, so only values are compared
    mixed = len({type(x) for boxes in pair for box in boxes
                 for x in (*box.lo, *box.hi)}) > 1

    def boxes_of(boxes):
        return [(box.lo, box.hi) for box in boxes] if mixed else _typed(boxes)

    def typed(r):
        return None if r is None else boxes_of(r.boxes)

    with checked_boxes():
        a, b = region(pair[0]), region(pair[1])
        assert typed(region_intersect(a, b)) == \
            typed(oracle_region_intersect(a, b))
        for ba in pair[0]:
            for bb in pair[1]:
                hit, want = box_intersect(ba, bb), oracle_box_intersect(ba, bb)
                assert (hit is None) is (want is None)
                assert hit is None or boxes_of([hit]) == boxes_of([want])
                assert box_disjoint(ba, bb) is oracle_box_disjoint(ba, bb) \
                    is (want is None)
                one_a, one_b = Region((ba,)), Region((bb,))
                assert typed(region_intersect(one_a, one_b)) == \
                    typed(oracle_region_intersect(one_a, one_b))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 2]).flatmap(lambda dim: box_lists(dim, 4)))
def test_bounding_box_and_diameter_match_their_references(boxes):
    # a one-box list is its own bounding box; the same box twice takes the
    # general path and must agree with it
    lo = tuple(min(b.lo[ax] for b in boxes) for ax in range(boxes[0].dim))
    hi = tuple(max(b.hi[ax] for b in boxes) for ax in range(boxes[0].dim))
    assert bounding_box(boxes) == (lo, hi)
    assert diameter(Region(tuple(boxes))) == corner_pair_diameter(boxes)
    for b in boxes:
        assert bounding_box((b,)) == bounding_box((b, b)) == (b.lo, b.hi)
        assert diameter(Region((b,))) == diameter(Region((b, b))) == \
            corner_pair_diameter([b])


def test_one_box_diameter_reads_every_axis():
    assert diameter(region(box2(0, F(1, 4), 0, 1))) == 1
    assert diameter(region(box2(0, 1, F(1, 2), F(1, 2)))) == 1
    assert diameter(region(box2(F(1, 2), F(1, 2), 0, F(1, 3)))) == F(1, 3)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 2]).flatmap(lambda dim: st.tuples(
    st.lists(box_lists(dim, 3), min_size=1, max_size=4), box_lists(dim, 1))))
def test_axis_index_near_matches_a_scan(case):
    groups, (query,) = case
    want = sorted((j, b.sort_key()) for j, boxes in enumerate(groups)
                  for b in boxes if not oracle_box_disjoint(b, query))
    got = AxisIndex(groups).near(query.lo, query.hi)
    assert sorted((j, b.sort_key()) for j, b in got) == want


# ---------------------------------------------------------------------------
# the input contract: a malformed data argument raises InputError
# ---------------------------------------------------------------------------

ONE_BOX = box1(0, 1)


@pytest.mark.parametrize("call", [
    lambda: region(None),
    lambda: region(1),
    lambda: region("01"),
    lambda: region([None]),
    lambda: region([(0, 1)]),
    lambda: region([ONE_BOX, None]),
    lambda: region([Box((), ()), Box((), ())]),
    lambda: region([Box((0,) * 3, (1,) * 3), Box((0, 0, 5), (1, 1, 6))]),
    lambda: region([Box((0, 0, 0), (1, 1, 1))]),
    lambda: diameter(region(Box((0.1,), (0.3,)))),
    lambda: distance(None, (1,)),
    lambda: distance((1,), None),
    lambda: distance(("x",), (1,)),
    lambda: distance((), ()),
    lambda: decimal_str(None, 2),
    lambda: decimal_str(1.5, 2),
    lambda: parse_rational(None),
], ids=["region_none", "region_int", "region_str", "region_none_box",
        "region_pair", "region_box_and_none", "region_no_axes",
        "region_three_axes", "region_one_three_axis_box", "box_float_corners",
        "distance_none_p", "distance_none_q", "distance_str_axis",
        "distance_no_axes", "decimal_none", "decimal_float", "parse_none"])
def test_malformed_data_arguments_raise_input_error(call):
    with pytest.raises(InputError):
        call()


LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.fractions(max_denominator=99), st.text(max_size=6),
    st.binary(max_size=6), st.sampled_from(["", "0", "101", "1/2", "zeros"]),
    st.sampled_from([ONE_BOX, box1(F(1, 2), 2), box2(0, 1, 0, 1)]))
# None, bools, ints, floats, strings, bytes, boxes, and lists and tuples
# of them, empty, nested and of any length
JUNK = st.recursive(LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.tuples(inner),
    st.tuples(inner, inner, inner)), max_leaves=6)
# a digit count, small or at the edge of MAX_DECIMAL_DIGITS, past which it
# is rejected before 10 ** digits is built
DIGITS = st.one_of(st.integers(-2, 40),
                   st.integers(MAX_DECIMAL_DIGITS - 1, MAX_DECIMAL_DIGITS + 2),
                   st.none(), st.floats(), st.text(max_size=2))

# box corners: tuples of 0-3 ints, bools, Fractions or floats, or junk
CORNERS = st.one_of(
    st.lists(st.one_of(st.integers(-3, 3), st.booleans(),
                       st.fractions(max_denominator=9), st.floats()),
             max_size=3).map(tuple), JUNK)

CONTRACT_CALLS = {
    "rat": lambda draw: rat(draw(JUNK)),
    "parse_rational": lambda draw: parse_rational(draw(JUNK)),
    "decimal_str": lambda draw: decimal_str(draw(JUNK), draw(DIGITS)),
    "binary_word": lambda draw: binary_word(draw(JUNK)),
    "cylinder": lambda draw: cylinder(draw(JUNK)),
    "eval_ternary_address": lambda draw: eval_ternary_address(
        draw(JUNK), draw(JUNK)),
    "region": lambda draw: region(draw(JUNK)),
    "Box": lambda draw: diameter(region(Box(draw(CORNERS), draw(CORNERS)))),
    "distance": lambda draw: distance(draw(JUNK), draw(JUNK)),
}


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(sorted(CONTRACT_CALLS)), st.data())
def test_data_arguments_return_or_raise_input_error(name, data):
    try:
        CONTRACT_CALLS[name](data.draw)
    except InputError:
        pass
