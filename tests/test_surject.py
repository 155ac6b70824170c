"""Surjections with certified enclosures: expansion maps, clopen blocks,
glued block surjections, curve quadrants, and waypoint maps."""

import random
import tracemalloc
from fractions import Fraction as F
from collections import Counter
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surject_oracle as oracle
from geometry_oracle import box1, box2, checked_boxes
from surject_oracle import (
    blocks_cover,
    midpoint,
    oracle_consistent,
    region_agrees,
    sampled_cells,
    sweep_cell_enclosure,
)
from primchaos import surject
from primchaos.embedding import build_refinement, evaluate_address, make_model
from primchaos.errors import InputError
from primchaos.geometry import (
    cylinder,
    diameter,
    eval_ternary_address,
    region,
    region_subset,
    regions_disjoint,
)
from primchaos.report import CheckReport
from primchaos.surject import (
    CantorMap,
    ClopenBlock,
    WaypointMap,
    binary_expansion_map,
    block_surjection,
    blocks_pairwise_disjoint,
    clopen_partition,
    evaluate_map,
    evaluate_symbolic,
    evaluate_waypoint,
    evaluate_waypoint_exact,
    hilbert_enclosure,
    interleave_map,
    map_document,
    sweep_segments,
    verify_block_surjection,
    verify_cover_map,
    verify_curve,
    verify_waypoint_surjection,
    waypoint_document,
    waypoint_map,
    waypoint_surjection,
)


def expansion_oracle(bits):
    """Independent binary-expansion oracle: plain digit sum."""
    return sum(int(b) * F(1, 2 ** (i + 1)) for i, b in enumerate(bits))


def curve_cell_oracle(k, j):
    """The space-filling curve's cell by the rotate-and-flip recursion on
    the bit pairs of j (the form `_curve_cell` replaced)."""
    x = y = 0
    s = 1
    while s < 1 << k:
        rx = 1 & (j // 2)
        ry = 1 & (j ^ rx)
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        x += s * rx
        y += s * ry
        j //= 4
        s *= 2
    return x, y


def curve_walk(k):
    """The exhaustive check `_curve_certificate` replaced: `tile_walk_oracle`
    over the 4^k depth-k quadrants in parameter order."""
    sizes = (1 << k, 1 << k)
    return tile_walk_oracle(
        [(surject._curve_cell(k, j), sizes) for j in range(4 ** k)], sizes)


def curve_walk_ends(k):
    """Whether the depth-k curve runs from cell (0,0) to (2^k - 1, 0)."""
    return surject._curve_cell(k, 0) == (0, 0) and \
        surject._curve_cell(k, 4 ** k - 1) == ((1 << k) - 1, 0)


def tile_walk_oracle(cells, sizes):
    """The exhaustive covering check, by a set of coordinate tuples and
    pairwise steps: the number of distinct grid cells of the given sizes hit
    (a cell off the grid or with other sizes hits none), and whether every
    cell is edge-adjacent to its predecessor."""
    seen = {coords for coords, cell_sizes in cells if cell_sizes == sizes and
            all(0 <= x < s for x, s in zip(coords, sizes))}
    adjacent = all(sum(abs(a - b) for a, b in zip(c[0], p[0])) == 1
                   for p, c in zip(cells, cells[1:]))
    return len(seen), adjacent


# ---------------------------------------------------------------------------
# binary expansion / interleave
# ---------------------------------------------------------------------------


def test_binary_expansion_examples():
    assert binary_expansion_map("") == region(box1(0, 1))
    assert binary_expansion_map("1") == region(box1(F(1, 2), 1))
    # oracle: 0/2 + 1/4 + 1/8 = 3/8, width 1/8
    assert expansion_oracle("011") == F(3, 8)
    assert binary_expansion_map("011") == region(box1(F(3, 8), F(1, 2)))


def test_binary_expansion_matches_oracle_exhaustive():
    with checked_boxes():
        for n in range(9):
            for i in range(2 ** n):
                bits = format(i, f"0{n}b") if n else ""
                b = binary_expansion_map(bits).boxes[0]
                lo = expansion_oracle(bits)
                assert (b.lo[0], b.hi[0]) == (lo, lo + F(1, 2 ** n))


def test_interleave_examples():
    assert interleave_map("") == region(box2(0, 1, 0, 1))
    assert interleave_map("11") == region(box2(F(1, 2), 1, F(1, 2), 1))
    assert interleave_map("10") == region(box2(F(1, 2), 1, 0, F(1, 2)))


def test_interleave_matches_parity_split_oracle():
    with checked_boxes():
        for i in range(2 ** 8):
            bits = format(i, "08b")
            xs, ys = bits[0::2], bits[1::2]
            b = interleave_map(bits).boxes[0]
            assert b.lo[0] == expansion_oracle(xs)
            assert b.lo[1] == expansion_oracle(ys)
            assert b.hi[0] == expansion_oracle(xs) + F(1, 2 ** len(xs))
            assert b.hi[1] == expansion_oracle(ys) + F(1, 2 ** len(ys))


def test_enclosures_nest_and_obey_modulus():
    rng = random.Random(31)
    fb = CantorMap("binary_expansion")
    fi = CantorMap("interleave")
    for _ in range(300):
        n = rng.randint(0, 20)
        word = "".join(rng.choice("01") for _ in range(n))
        for f in (fb, fi):
            enc = evaluate_map(f, word)
            assert diameter(enc) <= f.modulus(n)
            if n:
                assert region_subset(enc, evaluate_map(f, word[:-1]))


def test_shared_prefix_modulus_random_pairs():
    rng = random.Random(1717)
    for _ in range(500):
        n = rng.randint(1, 16)
        prefix = "".join(rng.choice("01") for _ in range(n))
        a = prefix + "".join(rng.choice("01") for _ in range(4))
        b = prefix + "".join(rng.choice("01") for _ in range(4))
        ia, ib = binary_expansion_map(a), binary_expansion_map(b)
        d = max(abs(ia.boxes[0].lo[0] - ib.boxes[0].lo[0]),
                abs(ia.boxes[0].hi[0] - ib.boxes[0].hi[0]))
        assert d <= F(1, 2 ** n)


def test_covering_checks():
    assert verify_cover_map(CantorMap("binary_expansion"), 10).all_passed
    assert verify_cover_map(CantorMap("interleave"), 10).all_passed


EXPANSION_KINDS = [("binary_expansion", "interval", 1),
                   ("interleave", "square", 2)]


def mutated_placements(n, axes):
    """Every placement one change away from the shipped one at word length
    n, with the change's name: two positions swapped, one position
    overwritten by another (a repeat), one dropped, or one moved to the end
    of another axis."""
    shipped = surject._placement(n, axes)
    slots = [(a, i) for a, pos in enumerate(shipped) for i in range(len(pos))]
    out = []

    def edit(change, rows):
        out.append((change, tuple(map(tuple, rows))))

    for (a, i), (b, j) in combinations(slots, 2):
        rows = [list(pos) for pos in shipped]
        rows[a][i], rows[b][j] = rows[b][j], rows[a][i]
        edit("swap", rows)
    for (a, i), (b, j) in permutations(slots, 2):
        rows = [list(pos) for pos in shipped]
        rows[a][i] = rows[b][j]
        edit("repeat", rows)
    for a, i in slots:
        rows = [list(pos) for pos in shipped]
        del rows[a][i]
        edit("drop", rows)
        for b in range(axes):
            if b != a:
                rows = [list(pos) for pos in shipped]
                rows[b].append(rows[a].pop(i))
                edit("move", rows)
    return out


def cover_hits(check, depth):
    """Grid cells hit, as `verify_cover_map`'s covering check reports it."""
    return 2 ** depth if check.passed else int(check.witness.split()[0])


@pytest.mark.parametrize("kind,target,axes", EXPANSION_KINDS)
def test_cover_certificate_is_sound_on_mutated_placements(kind, target, axes,
                                                          monkeypatch):
    f = CantorMap(kind)
    seen = Counter()
    # the target grids and mutations, read off the shipped placement
    cases = [(n, surject._expansion_cell("0" * n, axes)[1],
              mutated_placements(n, axes)) for n in range(9)]
    for n, sizes, mutations in cases:
        words = [format(j, f"0{n}b") if n else "" for j in range(2 ** n)]
        for change, placement in mutations:
            monkeypatch.setattr(surject, "_placement",
                                lambda _n, _axes, p=placement: p)
            hit, _ = tile_walk_oracle(
                [surject._expansion_cell(w, axes) for w in words], sizes)
            (check,) = verify_cover_map(f, n).checks
            assert (check.passed, cover_hits(check, n)) == \
                (hit == 2 ** n, hit), (n, change, placement)
            # a swap still reads every position once: a bijection
            assert check.passed == (change == "swap"), (n, change, placement)
            seen[change] += 1
    assert seen["swap"] and seen["repeat"] and seen["drop"]
    assert bool(seen["move"]) == (axes > 1)


# faulty placements at word length 6, each changing the last position read
PLACEMENT_FAULTS = {
    # the last position overwritten by the one before it
    "repeat": lambda pos: pos[:-1] + (pos[-1][:-1] + pos[-1][-2:-1],),
    # the last position dropped: that axis reads a numeral one bit short
    "wrong_width": lambda pos: pos[:-1] + (pos[-1][:-1],),
    # the last position moved onto the first axis
    "move": lambda pos: (pos[0] + pos[-1][-1:],) + pos[1:-1] +
    (pos[-1][:-1],),
}


@pytest.mark.parametrize("kind,target,axes,fault", [
    (*kind, fault) for kind in EXPANSION_KINDS for fault in PLACEMENT_FAULTS
    if kind[2] > 1 or fault != "move"],
    ids=lambda v: str(v))
def test_covering_fails_on_a_faulty_kernel(kind, target, axes, fault,
                                           monkeypatch):
    grid = surject._expansion_cell("0" * 6, axes)[1]
    faulty = PLACEMENT_FAULTS[fault](surject._placement(6, axes))
    monkeypatch.setattr(surject, "_placement", lambda n, a: faulty)
    f = CantorMap(kind)
    rep = verify_cover_map(f, 6)
    assert [(c.name, c.passed) for c in rep.checks] == \
        [("images_tile_target", False)]
    # the evaluator reads the same placement, so it shows the same fault:
    # two of its 64 enclosures coincide, or one is not a cell of the grid
    encs = {evaluate_map(f, format(j, "06b")) for j in range(64)}
    sides = {tuple(e.boxes[0].side(i) for i in range(axes)) for e in encs}
    assert len(encs) < 64 or sides != {tuple(F(1, s) for s in grid)}
    word = "110111"
    cell = tuple(int("".join(word[i] for i in pos) or "0", 2)
                 for pos in faulty), tuple(1 << len(pos) for pos in faulty)
    assert evaluate_map(f, word) == region(surject._grid_box(*cell))


def test_curve_walk_holds_no_cell_list():
    # a list plus a set of all 4^8 cells peaks near 7 MB; the bitmap is 64 KB
    tracemalloc.start()
    try:
        assert verify_curve(8).all_passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# ---------------------------------------------------------------------------
# clopen partitions and blocks
# ---------------------------------------------------------------------------


def test_clopen_partition_examples():
    assert [b.cylinders for b in clopen_partition(1)] == [("",)]
    assert [b.cylinders for b in clopen_partition(2)] == [("0",), ("1",)]
    assert [b.cylinders for b in clopen_partition(3)] == \
        [("0",), ("10",), ("11",)]
    with pytest.raises(InputError):
        clopen_partition(0)


def test_clopen_partition_disjoint_covering_up_to_64():
    for n in (1, 2, 3, 5, 17, 64):
        blocks = clopen_partition(n)
        assert len(blocks) == n
        assert blocks_pairwise_disjoint(blocks)
        assert blocks_cover(blocks)
        # regions are pairwise disjoint and nonempty, exact
        regions = [b.region() for b in blocks]
        for i in range(min(n, 12)):
            for j in range(i + 1, min(n, 12)):
                assert regions_disjoint(regions[i], regions[j])


def test_overlap_matches_pairwise_oracle():
    words = [format(i, f"0{n}b")[:n] for n in range(4) for i in range(2 ** n)]
    for size in range(6):
        for cyls in combinations(words, size):
            pairwise = not any(a.startswith(b) or b.startswith(a)
                               for a, b in combinations(cyls, 2))
            assert (surject._overlap(cyls) is None) == pairwise, cyls
            assert blocks_pairwise_disjoint(
                [ClopenBlock((c,)) for c in cyls]) == pairwise


def test_clopen_block_validation():
    with pytest.raises(InputError):
        ClopenBlock(())
    with pytest.raises(InputError):
        ClopenBlock(("0", "01"))  # nested cylinders overlap
    with pytest.raises(InputError):
        ClopenBlock(("2",))
    # a string would read as one cylinder per bit: "01" as "0" and "1"
    with pytest.raises(InputError, match="^a clopen block takes a tuple, "
                       "not a string$"):
        ClopenBlock("01")


SWAP_HALVES = block_surjection([ClopenBlock(("0",)), ClopenBlock(("1",))],
                               [ClopenBlock(("1",)), ClopenBlock(("0",))])
INTERVAL_TREE = build_refinement(make_model("interval"), 3)

# every public function that takes a binary word, called on one word
WORD_TAKERS = {
    "cylinder": cylinder,
    "eval_ternary_address": eval_ternary_address,
    "evaluate_address": lambda w: evaluate_address(INTERVAL_TREE, w),
    "binary_expansion_map": binary_expansion_map,
    "interleave_map": interleave_map,
    "evaluate_map_expansion": lambda w: evaluate_map(CantorMap("interleave"), w),
    "evaluate_map_block": lambda w: evaluate_map(SWAP_HALVES, w),
    "evaluate_symbolic": lambda w: evaluate_symbolic(SWAP_HALVES, w),
    "ClopenBlock": lambda w: ClopenBlock((w,)),
}


@pytest.mark.parametrize("name", WORD_TAKERS)
def test_word_takers_accept_only_binary_strings(name):
    call = WORD_TAKERS[name]
    call("011")
    for bad in ("2", "02", "0x1", " 01", (0, 1)):
        with pytest.raises(InputError):
            call(bad)


def test_cantor_map_kinds():
    assert [CantorMap(kind).target for kind in surject.MAP_KINDS] == \
        ["interval", "square", "cantor"]
    for kind in ("bit_flip", "nonsense"):
        with pytest.raises(InputError):
            CantorMap(kind)


# ---------------------------------------------------------------------------
# block surjections
# ---------------------------------------------------------------------------


def test_swap_halves_is_exact_relabeling():
    Ab = [ClopenBlock(("0",)), ClopenBlock(("1",))]
    Bb = [ClopenBlock(("1",)), ClopenBlock(("0",))]
    f = block_surjection(Ab, Bb)
    assert evaluate_symbolic(f, "010") == ["110"]
    rep = verify_block_surjection(f, Ab, Bb, 8)
    assert rep.all_passed
    assert f.modulus(8) == F(1, 3 ** 8)


def test_whole_target_blocks():
    Ab = [ClopenBlock(("0",)), ClopenBlock(("1",))]
    Bw = [ClopenBlock(("",)), ClopenBlock(("",))]
    f = block_surjection(Ab, Bw)
    # tail re-rooting: each half maps onto everything
    assert verify_block_surjection(f, Ab, Bw, 6).all_passed
    assert evaluate_symbolic(f, "0110") == ["110"]


def test_non_covering_blocks_get_padding():
    Anc = [ClopenBlock(("00",))]
    Bnc = [ClopenBlock(("1",))]
    f = block_surjection(Anc, Bnc)
    assert len(f.pairs) == 2
    pad_a, pad_b = f.pairs[1]
    assert pad_b.cylinders == ("",)
    assert blocks_cover([p[0] for p in f.pairs])
    assert blocks_pairwise_disjoint([p[0] for p in f.pairs])
    assert evaluate_symbolic(f, "00") == ["1"]
    assert verify_block_surjection(f, Anc, Bnc, 8).all_passed


def test_multi_cylinder_blocks_with_staircase():
    Ab = [ClopenBlock(("00", "01")), ClopenBlock(("1",))]
    Bb = [ClopenBlock(("0", "10", "11")), ClopenBlock(("",))]
    f = block_surjection(Ab, Bb)
    rep = verify_block_surjection(f, Ab, Bb, 9)
    assert rep.all_passed, rep.to_document()
    # selector staircase: tail "0..." picks first target cylinder
    assert evaluate_symbolic(f, "000") == ["0"]
    # tail "1" is still mid-staircase: both remaining targets possible
    assert evaluate_symbolic(f, "001") == ["10", "11"]
    # a prefix shorter than a block's cylinders reaches its every target
    assert evaluate_symbolic(f, "0") == ["0", "10", "11"]
    assert evaluate_symbolic(f, "") == ["", "0", "10", "11"]
    # enclosures nest as the prefix extends
    for word in ("00", "000", "0010", "0011", "1", "10"):
        child = evaluate_map(f, word + "0")
        parent = evaluate_map(f, word)
        assert region_subset(child, parent), word


def test_block_modulus_is_one_below_the_longest_cylinder():
    # a prefix shorter than the 2-bit cylinders may span two blocks, so the
    # bound is the whole target's diameter; then a third per bit
    f = block_surjection(
        [ClopenBlock(("00",)), ClopenBlock(("01",)), ClopenBlock(("1",))],
        [ClopenBlock(("11",)), ClopenBlock(("10",)), ClopenBlock(("0",))])
    assert [f.modulus(n) for n in range(4)] == [1, 1, F(1, 9), F(1, 27)]
    for w in ("", "0", "1", "00", "01", "10", "011"):
        assert diameter(evaluate_map(f, w)) <= f.modulus(len(w)), w


def test_block_surjection_input_errors():
    with pytest.raises(InputError):
        block_surjection([ClopenBlock(("0",)), ClopenBlock(("01",))],
                         [ClopenBlock(("0",)), ClopenBlock(("1",))])
    with pytest.raises(InputError):
        block_surjection([ClopenBlock(("0",))], [])
    with pytest.raises(InputError):
        evaluate_symbolic(CantorMap("binary_expansion"), "0")
    # the block walk reads no pair table of another kind: its first word
    # raises, as the word walk's does
    blocks = [ClopenBlock(("0",)), ClopenBlock(("1",))]
    f = CantorMap("interleave", tuple(zip(blocks, blocks)))
    with pytest.raises(InputError) as info:
        verify_block_surjection(f, blocks, blocks, 3)
    assert str(info.value) == "interleave has no symbolic evaluation"


def test_long_cylinder_padding_needs_no_recursion():
    # one complement cylinder per bit: "1", "01", ..., "0" * (n - 1) + "1",
    # at the longest accepted cylinder, past the default recursion limit
    n = surject.MAX_CYLINDER_BITS
    assert n > 1000
    f = block_surjection([ClopenBlock(("0" * n,))], [ClopenBlock(("1",))])
    pad = f.pairs[1][0].cylinders
    assert len(pad) == n
    assert pad[0] == "1" and pad[-1] == "0" * (n - 1) + "1"


@pytest.mark.parametrize("depth,message", [
    (2.0, "depth must be >= 0"),
    (-1, "depth must be >= 0"),
    (2, "depth 2 shallower than cylinder '111'"),
    (3, "depth 3 shallower than cylinder '1000'"),
])
def test_block_depth_checked_before_the_walk(depth, message):
    # the count first, then the first cylinder longer than the depth in the
    # order the walk meets them: A_0, B_0, A_1, B_1
    Ab = [ClopenBlock(("0",)), ClopenBlock(("1000",))]
    Bb = [ClopenBlock(("111",)), ClopenBlock(("0",))]
    f = block_surjection(Ab, Bb)
    for check in (surject.check_block_depth,
                  lambda *a: verify_block_surjection(f, *a)):
        with pytest.raises(InputError) as info:
            check(Ab, Bb, depth)
        assert str(info.value) == message
    assert verify_block_surjection(f, Ab, Bb, 4).all_passed


def test_wrong_target_blocks_fail_verification():
    Ab = [ClopenBlock(("0",)), ClopenBlock(("1",))]
    Bb = [ClopenBlock(("1",)), ClopenBlock(("0",))]
    f = block_surjection(Ab, Bb)
    swapped = verify_block_surjection(f, Ab, [Bb[1], Bb[0]], 6)
    assert not swapped.all_passed
    names = {c.name: c.passed for c in swapped.checks}
    assert names["containment_block_0"] is False


def test_exactness_of_block_images_at_depth_10():
    # f(A_i) subset B_i holds exactly for a mixed instance at depth 10
    Ab = [ClopenBlock(("0",)), ClopenBlock(("10",)), ClopenBlock(("11",))]
    Bb = [ClopenBlock(("11",)), ClopenBlock(("0", "10")), ClopenBlock(("",))]
    f = block_surjection(Ab, Bb)
    assert verify_block_surjection(f, Ab, Bb, 10).all_passed


def random_block_family(rng, max_depth=3):
    """Random disjoint clopen blocks: partition the depth-d cylinders into
    nonempty groups, keep a random subset of the groups."""
    d = rng.randint(1, max_depth)
    words = [format(i, f"0{d}b") for i in range(2 ** d)]
    rng.shuffle(words)
    n_groups = rng.randint(1, len(words))
    groups = [[] for _ in range(n_groups)]
    for i, w in enumerate(words):
        groups[i % n_groups].append(w)
    keep = rng.randint(1, n_groups)
    return [ClopenBlock(tuple(sorted(g))) for g in groups[:keep]]


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_random_block_constraints_always_realized(rng):
    blocks_a = random_block_family(rng)
    blocks_b = [ClopenBlock(tuple(sorted(b.cylinders)))
                for b in random_block_family(rng, max_depth=2)]
    while len(blocks_b) < len(blocks_a):
        blocks_b.append(ClopenBlock(("",)))
    blocks_b = blocks_b[:len(blocks_a)]
    f = block_surjection(blocks_a, blocks_b)
    # the realized map always covers the whole source and verifies at a
    # depth past every cylinder and selector
    assert blocks_cover([p[0] for p in f.pairs])
    assert blocks_pairwise_disjoint([p[0] for p in f.pairs])
    depth = max(len(c) for p in f.pairs for c in p[0].cylinders)
    depth = max(depth,
                max(len(d) + len(p[1].cylinders) - 1
                    for p in f.pairs for d in p[1].cylinders)) + 2
    rep = verify_block_surjection(f, blocks_a, blocks_b, depth)
    assert rep.all_passed, rep.to_document()


def random_words(rng, count, longest=3):
    """Up to `count` pairwise disjoint random words of 0..longest bits, in
    the order drawn; the first is always kept."""
    words = []
    for _ in range(count):
        w = "".join(rng.choice("01") for _ in range(rng.randint(0, longest)))
        if not any(w.startswith(c) or c.startswith(w) for c in words):
            words.append(w)
    return words


def random_block(rng):
    return ClopenBlock(tuple(random_words(rng, rng.randint(1, 4))))


def family_case(rng):
    """A `random_block_family` constraint set and its glued map."""
    blocks_a = random_block_family(rng)
    blocks_b = random_block_family(rng, max_depth=2)
    blocks_b = (blocks_b + [ClopenBlock(("",))] * len(blocks_a))[
        :len(blocks_a)]
    return block_surjection(blocks_a, blocks_b), blocks_a, blocks_b


def other_targets_case(rng):
    """A glued map checked against other target blocks than its own."""
    f, blocks_a, _ = family_case(rng)
    return f, blocks_a, [random_block(rng) for _ in blocks_a]


def random_table(rng):
    """A pair table of up to 3 pairs with disjoint sources, which may leave
    words out, onto arbitrary target blocks."""
    groups = {}
    for w in random_words(rng, rng.randint(0, 6)):
        groups.setdefault(rng.randint(0, 2), []).append(w)
    return CantorMap("block_glued", tuple(
        (ClopenBlock(tuple(g)), random_block(rng)) for g in groups.values()))


def table_case(rng):
    """A `random_table` map checked against arbitrary blocks, not always as
    many A as B."""
    return (random_table(rng),
            [random_block(rng) for _ in range(rng.randint(0, 3))],
            [random_block(rng) for _ in range(rng.randint(0, 3))])


def outcome(call, *args):
    """What a call returns, a report as its whole document, or the text of
    the InputError it raises."""
    try:
        out = call(*args)
    except InputError as exc:
        return f"InputError: {exc}"
    return out.to_document() if isinstance(out, CheckReport) else out


@pytest.mark.parametrize("case", [family_case, other_targets_case,
                                  table_case])
@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_block_certificate_matches_the_walk(case, rng):
    f, blocks_a, blocks_b = case(rng)
    longest = max((len(c) for blk in (*blocks_a, *blocks_b)
                   for c in blk.cylinders), default=0)
    depth = longest + rng.randint(0, 5)
    assert outcome(verify_block_surjection, f, blocks_a, blocks_b, depth) == \
        outcome(oracle.verify_block_surjection, f, blocks_a, blocks_b, depth)


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_indexed_evaluation_matches_the_scan(rng):
    f = table_case(rng)[0]
    for _ in range(10):
        word = "".join(rng.choice("01") for _ in range(rng.randint(0, 7)))
        assert outcome(evaluate_symbolic, f, word) == \
            outcome(oracle.evaluate_symbolic, f, word)


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_sorted_lookups_match_the_scans(rng):
    # a block's cylinders, and the source cylinders of a pair table, read in
    # sorted order against a scan of every cylinder
    blk = random_block(rng)
    index, ordered = random_table(rng)._sources
    assert ordered == sorted(index)
    for _ in range(10):
        word = "".join(rng.choice("01") for _ in range(rng.randint(0, 7)))
        assert blk.contains_address(word) == \
            any(word.startswith(c) for c in blk.cylinders)
        assert list(surject._extensions(ordered, word)) == \
            [c for c in ordered if c.startswith(word) and c != word]


# (pairs as (source, target) cylinders, A_0, B_0, depth, witnesses): one
# case per slip a certificate over prefixes can make
BLOCK_WITNESSES = {
    # "0" has not read its selector bit: 00 maps onto cyl 00, 01 onto cyl 11
    "open_staircase": ([(("0", "1"), ("00", "11"))], ("0", "1"), ("0",), 2,
                       ["f(cyl 01) reaches cyl 11",
                        "cyl 01 of B_0 misses every image enclosure"]),
    # the image cyl 1 is longer than the depth: cut to 0 bits it meets B_0
    "image_past_depth": ([(("0", "10"), ("1",))], ("",), ("",), 0,
                         ["f(A_0) subset B_0 exactly",
                          "B_0 within eps of f(A_0)"]),
    # cyl 01 has read one selector bit of two at depth 2, so it maps onto
    # cyl 01, inside B_0, and onto cyl 1: the bad word comes from the later
    # output of its open staircase
    "least_bad_word": ([(("0",), ("00", "01", "1"))], ("0",), ("0",), 2,
                       ["f(cyl 01) reaches cyl 1",
                        "B_0 within eps of f(A_0)"]),
    # 000 + e maps onto 1 + e, which lies in cyl 10 of B_0 only for an e
    # that starts with 0, past depth 3: so the word 000 itself is bad
    "source_past_depth": ([(("000",), ("1",))], ("000",), ("10",), 3,
                          ["f(cyl 000) reaches cyl 1",
                           "B_0 within eps of f(A_0)"]),
    # the staircase piece 011 -> 1 is longer than the depth: its bad word is
    # 0, cut from it, which maps onto all three targets
    "piece_past_depth": ([(("0",), ("00", "01", "1"))], ("0",), ("0",), 1,
                         ["f(cyl 0) reaches cyl 1",
                          "B_0 within eps of f(A_0)"]),
    # the last piece 01 -> 1 has no selector bit: 011 maps onto cyl 11
    "last_piece": ([(("0",), ("00", "1"))], ("0",), ("00", "10"), 3,
                   ["f(cyl 011) reaches cyl 11",
                    "B_0 within eps of f(A_0)"]),
}


@pytest.mark.parametrize("name", BLOCK_WITNESSES)
def test_block_witnesses_are_the_walks(name):
    pairs, a_cyls, b_cyls, depth, witnesses = BLOCK_WITNESSES[name]
    f = CantorMap("block_glued", tuple((ClopenBlock(a), ClopenBlock(b))
                                       for a, b in pairs))
    blocks = [ClopenBlock(a_cyls)], [ClopenBlock(b_cyls)], depth
    rep = verify_block_surjection(f, *blocks)
    assert [c.witness for c in rep.checks] == witnesses
    assert rep.to_document() == \
        oracle.verify_block_surjection(f, *blocks).to_document()


@pytest.mark.parametrize("sources", [("", ""), ("0", "01"), ("01", "0"),
                                     ("1", "10", "0")],
                         ids=["equal", "nested", "nested_later", "third_pair"])
def test_overlapping_source_tables_are_rejected(sources):
    # a glued map is a function only over disjoint pieces: with sources ""
    # and "" the enclosure of 000 had diameter 55/81 under a modulus of 1/27
    pairs = tuple((ClopenBlock((c,)), ClopenBlock((str(k % 2),)))
                  for k, c in enumerate(sources))
    with pytest.raises(InputError) as info:
        CantorMap("block_glued", pairs)
    assert str(info.value) == "source blocks overlap"


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_block_enclosures_obey_modulus_and_nest(rng):
    # on any table with disjoint sources, every word with an image has an
    # enclosure within the certified modulus, inside its parent's
    f = random_table(rng)
    for _ in range(10):
        word = "".join(rng.choice("01") for _ in range(rng.randint(0, 8)))
        try:
            enc = evaluate_map(f, word)
        except InputError:
            continue
        assert diameter(enc) <= f.modulus(len(word)), word
        if word:
            assert region_subset(enc, evaluate_map(f, word[:-1])), word


BYTES = "+".join(format(i, "08b") for i in range(256))


@pytest.mark.parametrize("blocks", [("0:1", "1:0"), ("00:1",), (f"0:{BYTES}",)],
                         ids=["swap_halves", "padded", "staircase_256"])
def test_block_certificate_does_no_per_word_work(blocks, monkeypatch):
    # a walk over the depth-20 words would make a million evaluations; each
    # A cylinder, a source here, reads its whole staircase in one call, up
    # to 256 pieces
    pairs = [b.split(":") for b in blocks]
    Ab = [ClopenBlock(tuple(a.split("+"))) for a, _ in pairs]
    Bb = [ClopenBlock(tuple(b.split("+"))) for _, b in pairs]
    f = block_surjection(Ab, Bb)
    calls = Counter()
    real = surject._images

    def counted(*args):
        calls["_images"] += 1
        return real(*args)

    monkeypatch.setattr(surject, "_images", counted)
    assert verify_block_surjection(f, Ab, Bb, 20).all_passed
    assert calls["_images"] == sum(len(blk.cylinders) for blk in Ab)


def test_long_staircase_builds_no_piece_sources():
    # one source onto 2^14 targets at the least depth: the steps 1^i 0 of
    # its staircase hold 2^27 characters in all, so the walk and the
    # evaluator must not build them.  Against a B_0 that lacks the last
    # target but holds its extensions to depth 28, the last step,
    # 1^(2^14 - 1), is the one to leave B_0: its bad word is cut from it,
    # and it is not copied once per extension
    targets = tuple(format(i, "014b") for i in range(2 ** 14))
    a_blocks, b_blocks = [ClopenBlock(("",))], [ClopenBlock(targets)]
    f = block_surjection(a_blocks, b_blocks)
    past = [ClopenBlock(targets[:-1] + tuple(
        "1" * 14 + format(i, "014b") for i in range(2 ** 14)))]
    tracemalloc.start()
    try:
        assert verify_block_surjection(f, a_blocks, b_blocks, 14).all_passed
        assert evaluate_symbolic(f, "") == sorted(targets)
        rep = verify_block_surjection(f, a_blocks, past, 28)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [c.witness for c in rep.checks] == [
        f"f(cyl {'1' * 28}) reaches cyl {'1' * 14}", "B_0 within eps of f(A_0)"]
    assert peak < 16_000_000  # the steps alone would take 134 MB


# ---------------------------------------------------------------------------
# space-filling curve quadrants
# ---------------------------------------------------------------------------


def test_hilbert_examples():
    assert hilbert_enclosure((0, 1)) == region(box2(0, 1, 0, 1))
    b0 = hilbert_enclosure((0, F(1, 4))).boxes[0]
    assert b0.contains_point((F(0), F(0))) and b0.side(0) == F(1, 2)
    b3 = hilbert_enclosure((F(3, 4), 1)).boxes[0]
    assert b3.contains_point((F(1), F(0)))


def test_hilbert_rejects_malformed_cells():
    with pytest.raises(InputError):
        hilbert_enclosure((0, F(1, 3)))
    with pytest.raises(InputError):
        hilbert_enclosure((F(1, 8), F(3, 8)))
    with pytest.raises(InputError):
        hilbert_enclosure((F(1, 2), F(1, 2)))
    # a cell that is not a pair: "01" read as ("0", "1") was the square
    for cell in ("01", "", "0123", (0, 1, 2), None):
        with pytest.raises(InputError) as info:
            hilbert_enclosure(cell)
        assert str(info.value) == \
            f"parameter cell {cell!r} is not a pair (lo, hi)"


def test_curve_cell_matches_recursion_oracle():
    for k in range(7):
        for j in range(4 ** k):
            assert surject._curve_cell(k, j) == curve_cell_oracle(k, j)


CURVE_MAPS = surject._CURVE_MAPS
# faulty quadrant tables, each changing T_3 (the last parameter quarter)
CURVE_FAULTS = {
    # shifted up onto T_2's quadrant
    "repeat": CURVE_MAPS[:3] + (((0, -1, 2, -1), (-1, 0, 2, -1)),),
    # shifted right off the grid
    "off_grid": CURVE_MAPS[:3] + (((0, -1, 3, -1), (-1, 0, 1, -1)),),
}


def transposed(maps):
    """The table of the curve mirrored in the diagonal: x and y exchanged
    on both sides of every T_d."""
    return tuple(((f, e, n, g), (b, a, m, c))
                 for (a, b, m, c), (e, f, n, g) in maps)


def mutated_tables():
    """Every table one coefficient or offset away (by +-1 or +-2) from the
    shipped one, and every table with two digits' maps swapped."""
    for d, axis, i in product(range(4), range(2), range(4)):
        for delta in (-2, -1, 1, 2):
            rows = [[list(row) for row in t] for t in CURVE_MAPS]
            rows[d][axis][i] += delta
            yield tuple(tuple(map(tuple, t)) for t in rows)
    for a, b in combinations(range(4), 2):
        maps = list(CURVE_MAPS)
        maps[a], maps[b] = maps[b], maps[a]
        yield tuple(maps)


def test_curve_certificate_matches_walk_on_shipped_table():
    for k in range(9):
        cert = surject._curve_certificate(k)
        assert cert == ("", "", True), (k, cert)
        assert curve_walk(k) == (4 ** k, True) and curve_walk_ends(k)


def test_curve_certificate_is_sound_on_mutated_tables(monkeypatch):
    tables = list(mutated_tables())
    assert len(tables) == 134
    for maps in tables:
        monkeypatch.setattr(surject, "_CURVE_MAPS", maps)
        for k in range(1, 5):
            cert = surject._curve_certificate(k)
            hit, adjacent = curve_walk(k)
            if not cert.tiling:
                assert hit == 4 ** k, (maps, k)
            if not cert.stitching:
                assert adjacent, (maps, k)
            if cert.ends:
                assert curve_walk_ends(k), (maps, k)
        # none of them is the shipped curve, and each is caught
        assert cert != ("", "", True), maps


@pytest.mark.parametrize("maps", CURVE_FAULTS.values(), ids=CURVE_FAULTS)
def test_curve_tiling_fails_on_a_faulty_kernel(maps, monkeypatch):
    monkeypatch.setattr(surject, "_CURVE_MAPS", maps)
    checks = {c.name: c.passed for c in verify_curve(3).checks}
    assert checks["quadrants_tile_square"] is False
    assert curve_walk(3)[0] < 4 ** 3


def test_curve_adjacency_fails_on_a_non_adjacent_step(monkeypatch):
    # T_1 and T_2 exchanged: four distinct quadrants still tile the square,
    # but the curve steps diagonally from the first quarter to the second
    monkeypatch.setattr(surject, "_CURVE_MAPS",
                        (CURVE_MAPS[0], CURVE_MAPS[2], CURVE_MAPS[1],
                         CURVE_MAPS[3]))
    checks = {c.name: c.passed for c in verify_curve(3).checks}
    assert checks["quadrants_tile_square"] is True
    assert checks["consecutive_cells_adjacent"] is False
    assert curve_walk(3) == (4 ** 3, False)


def test_curve_endpoints_fail_on_a_mirrored_table(monkeypatch):
    # the mirrored curve tiles in edge-adjacent steps but ends at (0,1)
    monkeypatch.setattr(surject, "_CURVE_MAPS", transposed(CURVE_MAPS))
    checks = {c.name: c.passed for c in verify_curve(3).checks}
    assert checks == {"consecutive_cells_adjacent": True,
                      "quadrants_tile_square": True,
                      "orientation_endpoints": False}
    assert surject._curve_cell(3, 4 ** 3 - 1) == (0, 7)


@pytest.mark.parametrize("maps", CURVE_FAULTS.values(), ids=CURVE_FAULTS)
def test_square_sweep_fails_on_a_faulty_kernel(maps, monkeypatch):
    ws = waypoint_surjection(waypoint_map(
        [(F(1, 4), (F(0), F(0))), (F(3, 4), (F(1), F(1)))], "square"))
    monkeypatch.setattr(surject, "_CURVE_MAPS", maps)
    checks = {c.name: c.passed for c in verify_waypoint_surjection(ws, 3).checks}
    assert checks == {"pin_waypoint_0": True, "pin_waypoint_1": True,
                      "has_sweep": True, "sweep_0_covers_target": False}


@pytest.mark.parametrize("resolution", range(1, 5))
def test_square_sweep_fails_on_a_mirrored_table(resolution, monkeypatch):
    # the mirrored curve tiles in edge-adjacent steps but ends at (0,1),
    # while the linear return starts from (1,0): the map would jump there
    ws = waypoint_surjection(waypoint_map(
        [(F(1, 4), (F(0), F(0))), (F(3, 4), (F(1), F(1)))], "square"))
    passing = verify_waypoint_surjection(ws, resolution).checks[-1].witness
    monkeypatch.setattr(surject, "_CURVE_MAPS", transposed(CURVE_MAPS))
    rep = verify_waypoint_surjection(ws, resolution)
    assert {c.name: c.passed for c in rep.checks} == \
        {"pin_waypoint_0": True, "pin_waypoint_1": True,
         "has_sweep": True, "sweep_0_covers_target": False}
    witness = rep.checks[-1].witness
    assert "(0,0)" in witness and "(1,0)" in witness and witness != passing


def test_curve_certificates_do_no_per_cell_work(monkeypatch):
    # a walk over the 4^10 cells would make a million `_curve_cell` calls
    calls = Counter()
    for name in ("_curve_cell", "_quadrant_map"):
        real = getattr(surject, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(surject, name, counted)
    assert verify_curve(10).all_passed
    assert calls["_curve_cell"] == 0
    assert calls["_quadrant_map"] <= 16 * 10
    calls.clear()
    ws = waypoint_surjection(waypoint_map(
        [(F(1, 2), (F(1, 2), F(1, 2)))], "square"))
    assert verify_waypoint_surjection(ws, 10).all_passed
    # the evaluator runs at the sweep's first and last parameter cell: per
    # cell, one cell from `evaluate_waypoint` and one from `_curve_cell`
    samples = 2
    assert calls["_curve_cell"] <= 2 * samples
    assert calls["_quadrant_map"] <= 10 * calls["_curve_cell"] + 16 * 10


def test_cover_certificate_does_no_per_cell_work(monkeypatch):
    # a walk over the 2^20 words would make a million `_expansion_cell` calls
    calls = Counter()
    real = surject._expansion_cell

    def counted(*args):
        calls["_expansion_cell"] += 1
        return real(*args)

    monkeypatch.setattr(surject, "_expansion_cell", counted)
    for kind, target, _ in EXPANSION_KINDS:
        assert verify_cover_map(CantorMap(kind), 20).all_passed
    assert calls["_expansion_cell"] == 0


@pytest.mark.parametrize("call", [
    lambda ws: verify_curve(-1),
    lambda ws: verify_waypoint_surjection(ws, -1),
    lambda ws: evaluate_waypoint(ws, F(1, 2), -1),
    lambda ws: sweep_cell_enclosure(ws, 0, 0, -1),
    lambda ws: verify_cover_map(CantorMap("binary_expansion"), -1),
    lambda ws: verify_cover_map(CantorMap("interleave"), -1),
], ids=["verify_curve", "verify_waypoint_surjection", "evaluate_waypoint",
        "sweep_cell_enclosure", "cover_binary", "cover_interleave"])
def test_negative_depth_is_an_input_error(call):
    ws = waypoint_surjection(waypoint_map(
        [(F(1, 4), (F(0), F(0))), (F(3, 4), (F(1), F(1)))], "square"))
    assert sweep_segments(ws)[0][0] < F(1, 2) < sweep_segments(ws)[0][1]
    with pytest.raises(InputError):
        call(ws)


def test_curve_adjacency_tiling_nesting_exhaustive():
    for k in range(7):
        rep = verify_curve(k)
        assert rep.all_passed, (k, rep.to_document())
    # nesting: each depth-k cell contains its four depth-(k+1) children
    for k in range(5):
        for j in range(4 ** k):
            parent = hilbert_enclosure((j * F(1, 4 ** k), (j + 1) * F(1, 4 ** k)))
            for r in range(4):
                jj = 4 * j + r
                child = hilbert_enclosure(
                    (jj * F(1, 4 ** (k + 1)), (jj + 1) * F(1, 4 ** (k + 1))))
                assert region_subset(child, parent)


# ---------------------------------------------------------------------------
# waypoint surjections
# ---------------------------------------------------------------------------


def test_waypoint_single_interval_example():
    ws = waypoint_surjection(waypoint_map([(F(1, 2), (F(0),))], "interval"))
    assert evaluate_waypoint_exact(ws, F(1, 2)) == (F(0),)
    rep = verify_waypoint_surjection(ws, resolution=8)
    assert rep.all_passed
    # the middle sweep really hits the top of the interval
    lo, hi = sweep_segments(ws)[0]
    assert evaluate_waypoint_exact(ws, lo + (hi - lo) / 2) == (F(1),)


def test_waypoint_single_pin_at_one_gets_a_copy_at_zero():
    ws = waypoint_surjection(waypoint_map([(F(1), (F(1, 3),))], "interval"))
    assert [p[:3] for p in ws.pieces] == [
        (0, F(1, 3), "linear"), (F(1, 3), F(2, 3), "sweep"),
        (F(2, 3), 1, "linear")]
    assert evaluate_waypoint_exact(ws, F(0)) == \
        evaluate_waypoint_exact(ws, F(1)) == (F(1, 3),)
    assert verify_waypoint_surjection(ws, resolution=4).all_passed


def test_waypoint_square_two_pins_example():
    ws = waypoint_surjection(waypoint_map(
        [(F(1, 4), (F(0), F(0))), (F(3, 4), (F(1), F(1)))], "square"))
    assert evaluate_waypoint_exact(ws, F(1, 4)) == (F(0), F(0))
    assert evaluate_waypoint_exact(ws, F(3, 4)) == (F(1), F(1))
    assert verify_waypoint_surjection(ws, resolution=6).all_passed


def test_waypoint_center_pin_example():
    ws = waypoint_surjection(waypoint_map(
        [(F(1, 2), (F(1, 2), F(1, 2)))], "square"))
    assert evaluate_waypoint_exact(ws, F(1, 2)) == (F(1, 2), F(1, 2))


def test_waypoint_enclosure_widths_halve_with_depth():
    ws = waypoint_surjection(waypoint_map(
        [(F(1, 8), (F(1), F(0))), (F(7, 8), (F(0), F(1)))], "square"))
    lo, hi = sweep_segments(ws)[0]
    t = lo + (hi - lo) * F(3, 7)
    prev = None
    for depth in range(1, 9):
        enc = evaluate_waypoint(ws, t, depth)
        assert diameter(enc) <= F(1, 2 ** depth)
        if prev is not None:
            assert region_subset(enc, prev)
        prev = enc


def test_waypoint_flanks_are_constant():
    ws = waypoint_surjection(waypoint_map(
        [(F(1, 4), (F(1, 3),)), (F(1, 2), (F(2, 3),))], "interval"))
    assert evaluate_waypoint_exact(ws, F(0)) == (F(1, 3),)
    assert evaluate_waypoint_exact(ws, F(1, 8)) == (F(1, 3),)
    assert evaluate_waypoint_exact(ws, F(3, 4)) == (F(2, 3),)
    assert evaluate_waypoint_exact(ws, F(1)) == (F(2, 3),)


def test_waypoint_input_errors():
    with pytest.raises(InputError):
        waypoint_map([(F(3, 4), (F(0),)), (F(1, 4), (F(1),))], "interval")
    with pytest.raises(InputError):
        waypoint_map([(F(1, 4), (F(0), F(0)))], "interval")
    with pytest.raises(InputError):
        waypoint_map([(F(2), (F(0),))], "interval")
    with pytest.raises(InputError):
        waypoint_map([], "interval")
    # a pin that is not (x, point): a string point was read by character
    for pin in (("1/2", "1/2"), ("1/2",), None, ("1/2", None)):
        with pytest.raises(InputError) as info:
            waypoint_map([(F(1, 4), (F(0),)), pin], "interval")
        assert str(info.value) == f"pin {pin!r} is not a pair (x, target point)"
    # a pin list that is not a list or tuple
    for points in (None, {(F(1, 2), (F(0),))}, "1/2"):
        with pytest.raises(InputError) as info:
            waypoint_map(points, "interval")
        assert str(info.value) == \
            f"pins must be a list or tuple, got {type(points).__name__}"


def random_pins(rng):
    """1-40 pins onto a random target, with pins at 0 and 1 now and then."""
    target = rng.choice(["interval", "square"])
    xs = {F(rng.randint(1, 999), 1000) for _ in range(rng.randint(0, 38))}
    xs |= {x for x in (F(0), F(1)) if rng.random() < 0.3}
    dim = 1 if target == "interval" else 2
    return [(x, tuple(F(rng.randint(0, 8), 8) for _ in range(dim)))
            for x in sorted(xs or {F(1, 2)})], target


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_waypoint_pieces_tile_and_bisection_matches_the_scan(rng):
    pins, target = random_pins(rng)
    ws = waypoint_surjection(waypoint_map(pins, target))
    pieces = ws.pieces
    assert pieces[0][0] == 0 and pieces[-1][1] == 1
    assert all(lo < hi for lo, hi, _, _ in pieces)
    assert all(p[1] == q[0] for p, q in zip(pieces, pieces[1:]))
    # one sweep per gap between pins, and one for a single pin
    assert len(sweep_segments(ws)) == max(len(pins) - 1, 1)
    ends = [hi for _, hi, _, _ in pieces]
    others = [F(rng.randint(0, 10 ** 6), 10 ** 6) for _ in range(20)]
    for t in [F(0), F(1), *ends, *(x for x, _ in pins), *others]:
        assert surject._piece_at(ws, t) == oracle.scan_piece_at(ws, t), t
    for x, y in pins:
        assert evaluate_waypoint_exact(ws, x) == y


INTERVAL_PIN = waypoint_surjection(waypoint_map([(F(1, 2), (F(1, 2),))],
                                                "interval"))


@pytest.mark.parametrize("call,message", [
    (lambda: ClopenBlock(("0", "0")), "duplicate cylinder"),
    (lambda: evaluate_symbolic(CantorMap("block_glued", (
        (ClopenBlock(("0",)), ClopenBlock(("1",))),)), "1"),
     "address '1' lies outside every block"),
    (lambda: verify_block_surjection(CantorMap("block_glued", (
        (ClopenBlock(("1",)), ClopenBlock(("1",))),)),
        [ClopenBlock(("",))], [ClopenBlock(("",))], 3),
     "address '000' lies outside every block"),
    (lambda: block_surjection([], []), "need at least one block"),
    (lambda: verify_cover_map(SWAP_HALVES, 3),
     "covering verification ships for binary_expansion and interleave, "
     "not block_glued"),
    (lambda: WaypointMap(((F(1, 2), (F(0),)),), "disk"),
     "target must be 'interval' or 'square'"),
    (lambda: WaypointMap(((F(1, 2), (F(2),)),), "interval"),
     "target point (Fraction(2, 1),) outside the target space"),
    (lambda: evaluate_waypoint(INTERVAL_PIN, 2), "parameter outside [0,1]"),
    (lambda: block_surjection(None, None),
     "blocks must be lists of ClopenBlocks"),
    (lambda: block_surjection(["0"], ["1"]),
     "blocks must be lists of ClopenBlocks"),
    (lambda: verify_block_surjection(SWAP_HALVES, None, None, 3),
     "blocks must be lists of ClopenBlocks"),
    (lambda: verify_block_surjection(SWAP_HALVES, ["0"], ["1"], 3),
     "blocks must be lists of ClopenBlocks"),
    (lambda: CantorMap("block_glued", "ab"),
     "pairs must be a tuple of (ClopenBlock, ClopenBlock) pairs"),
    (lambda: CantorMap("block_glued", ((ClopenBlock(("0",)),),)),
     "pairs must be a tuple of (ClopenBlock, ClopenBlock) pairs"),
    (lambda: CantorMap([]),
     "unknown map kind []; expected one of ('binary_expansion', "
     "'interleave', 'block_glued')"),
], ids=["duplicate_cylinder", "outside_every_block",
        "first_word_outside_every_block", "no_blocks",
        "cover_block_glued", "waypoint_target", "waypoint_point_outside",
        "parameter_outside", "block_surjection_none",
        "block_surjection_strings", "verify_block_none",
        "verify_block_strings", "map_string_pairs", "map_one_block_pair",
        "map_list_kind"])
def test_rejected_inputs_name_their_fault(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


def test_modulus_halves_once_per_axes_bits():
    for n in range(12):
        assert CantorMap("binary_expansion").modulus(n) == F(1, 2 ** n)
        assert CantorMap("interleave").modulus(n) == F(1, 2 ** (n // 2))


@pytest.mark.parametrize("waypoints,message", [
    ([(F(1, 2), (F(0),))], "pins must be a tuple, got list"),
    ((1,), "pin 1 is not a pair (x, target point)"),
    ((None,), "pin None is not a pair (x, target point)"),
    (((F(1, 2), None),), "target point None is not a tuple"),
    (((F(1, 2), [F(0)]),), "target point [Fraction(0, 1)] is not a tuple"),
    (((F(1, 2), (0.5,)),), "pin coordinate 0.5 is not an int or Fraction"),
    (((0.5, (F(0),)),), "pin coordinate 0.5 is not an int or Fraction"),
    (((F(1, 2), ("1/2",)),), "pin coordinate '1/2' is not an int or Fraction"),
], ids=["table_list", "int_pin", "none_pin", "none_point", "list_point",
        "float_coordinate", "float_parameter", "string_coordinate"])
def test_waypoint_map_checks_its_pin_types(waypoints, message):
    with pytest.raises(InputError) as info:
        WaypointMap(waypoints, "interval")
    assert str(info.value) == message


def test_waypoint_map_keeps_int_and_bool_coordinates():
    # a bool is an int, as `rat` keeps it
    for pin in ((F(1, 2), (True,)), (1, (0,))):
        ws = waypoint_surjection(WaypointMap((pin,), "interval"))
        assert verify_waypoint_surjection(ws, 3).all_passed


# one interior pin, pins at both ends, and two interior pins
SQUARE_PINS = {
    "center": [(F(1, 2), (F(1, 2), F(1, 2)))],
    "ends": [(F(0), (F(1), F(1))), (F(1), (F(0), F(1, 3)))],
    "two_interior": [(F(1, 4), (F(0), F(0))), (F(3, 4), (F(1), F(1)))],
}


def consistency(ws, depth):
    return verify_waypoint_surjection(ws, depth).checks[-1].witness \
        .rpartition("evaluator consistent: ")[2]


@pytest.mark.parametrize("pins", SQUARE_PINS.values(), ids=SQUARE_PINS)
def test_waypoint_sample_matches_region_oracle(pins):
    ws = waypoint_surjection(waypoint_map(pins, "square"))
    assert len(sweep_segments(ws)) == 1
    off_sweep = [x for x, _ in pins] + [lo + (hi - lo) / 2
                                        for lo, hi, kind, _ in ws.pieces
                                        if kind != "sweep"]
    for depth in range(7):
        cells = 4 ** depth
        for j in sampled_cells(cells):
            t = midpoint(ws, j, depth)
            assert surject._sample_agrees(ws, t, j, depth)
            assert region_agrees(ws, t, j, depth), (depth, j)
            # against every other cell at small depths, else the neighbours
            others = range(cells) if depth <= 2 else \
                [k for k in (j - 1, j + 1, cells - 1 - j) if 0 <= k < cells]
            for k in others:
                assert surject._sample_agrees(ws, t, k, depth) == \
                    region_agrees(ws, t, k, depth), (depth, j, k)
            for t in off_sweep:
                assert not surject._sample_agrees(ws, t, j, depth)
                assert not region_agrees(ws, t, j, depth)
        assert consistency(ws, depth) == "True"


def test_waypoint_samples_each_cell_once(monkeypatch):
    # the certificate runs the evaluator at each sweep's first and last cell
    ws = waypoint_surjection(waypoint_map(SQUARE_PINS["center"], "square"))
    for depth in (0, 1, 4, 8):
        cells = []
        real = surject._sample_agrees

        def recording(ws, t, j, depth):
            cells.append(j)
            return real(ws, t, j, depth)

        monkeypatch.setattr(surject, "_sample_agrees", recording)
        witness = verify_waypoint_surjection(ws, depth).checks[-1].witness
        monkeypatch.undo()
        assert sorted(cells) == sorted({0, 4 ** depth - 1}), depth
        assert witness == f"{4 ** depth} of {4 ** depth} quadrants hit; " \
            "evaluator consistent: True"


def _next_cell(u, depth):
    return surject._curve_cell(depth, min(
        u.numerator * 4 ** depth // u.denominator + 1, 4 ** depth - 1))


def _y_mirrored(u, depth):
    x, y = surject._curve_cell(depth, min(
        u.numerator * 4 ** depth // u.denominator, 4 ** depth - 1))
    return x, (1 << depth) - 1 - y


def _wrong_piece(ws, t):
    # u measured along the piece before the one holding t
    t = F(t)
    prev = ws.pieces[0]
    for piece in ws.pieces:
        lo, hi, kind, _ = piece
        if lo <= t <= hi:
            return kind, (t - prev[0]) / (prev[1] - prev[0]), None
        prev = piece


EVALUATOR_FAULTS = {"next_cell": ("_sweep_cell", _next_cell),
                    "y_mirrored": ("_sweep_cell", _y_mirrored),
                    "wrong_piece": ("_piece_at", _wrong_piece)}


@pytest.mark.parametrize("fault", EVALUATOR_FAULTS.values(),
                         ids=EVALUATOR_FAULTS)
@pytest.mark.parametrize("pins", SQUARE_PINS.values(), ids=SQUARE_PINS)
def test_waypoint_sample_catches_a_faulty_evaluator(pins, fault, monkeypatch):
    # the evaluator finds another cell than the one it should box, in both
    # coordinates (next_cell, wrong_piece) or in y only (y_mirrored)
    ws = waypoint_surjection(waypoint_map(pins, "square"))
    monkeypatch.setattr(surject, *fault)
    for depth in range(1, 7):
        oracle = [region_agrees(ws, midpoint(ws, j, depth), j, depth)
                  for j in sampled_cells(4 ** depth)]
        assert not all(oracle), depth
        assert consistency(ws, depth) == "False", depth


@pytest.mark.parametrize("pins", SQUARE_PINS.values(), ids=SQUARE_PINS)
def test_waypoint_consistency_matches_every_cell(pins):
    # the proved verdict against the evaluator's region at the midpoint of
    # every parameter cell, compared with the cell's enclosure
    ws = waypoint_surjection(waypoint_map(pins, "square"))
    for depth in range(6):
        every_cell = oracle_consistent(ws, depth, range(4 ** depth))
        assert consistency(ws, depth) == str(every_cell), depth
    assert every_cell


def test_sweep_cell_enclosures_tile_square():
    ws = waypoint_surjection(waypoint_map(
        [(F(1, 2), (F(1, 2), F(1, 2)))], "square"))
    depth = 3
    side = F(1, 2 ** depth)
    seen = set()
    for j in range(4 ** depth):
        b = sweep_cell_enclosure(ws, 0, j, depth).boxes[0]
        assert b.side(0) == side and b.side(1) == side
        seen.add((b.lo[0], b.lo[1]))
    assert len(seen) == 4 ** depth


def test_sweep_cell_enclosures_on_the_interval():
    # each cell's enclosure is the range of the sweep's exact values over
    # it, sampled at 17 points; the one cell of depth 0 straddles u = 1/2,
    # where the sweep reaches 1
    ws = waypoint_surjection(waypoint_map([(F(1, 2), (F(0),))], "interval"))
    lo, hi = sweep_segments(ws)[0]
    for depth in range(3):
        cells = 4 ** depth
        for j in range(cells):
            vals = [evaluate_waypoint_exact(
                ws, lo + (hi - lo) * (j + F(k, 16)) / cells)[0]
                for k in range(17)]
            assert sweep_cell_enclosure(ws, 0, j, depth) == \
                region(box1(min(vals), max(vals))), (depth, j)
    assert sweep_cell_enclosure(ws, 0, 0, 0) == region(box1(0, 1))


def test_descriptors_are_deterministic():
    Ab = [ClopenBlock(("0",)), ClopenBlock(("1",))]
    Bb = [ClopenBlock(("1",)), ClopenBlock(("0",))]
    f = block_surjection(Ab, Bb)
    assert map_document(f) == map_document(block_surjection(Ab, Bb))
    ws = waypoint_surjection(waypoint_map([(F(1, 2), (F(0),))], "interval"))
    doc = waypoint_document(ws)
    assert doc["kind"] == "waypoint" and doc["target"] == "interval"
    assert [p["kind"] for p in doc["pieces"]] == \
        ["const", "linear", "sweep", "linear"]
