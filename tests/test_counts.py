"""Every public routine that takes a depth, level or count rejects one that
is not an int in range with `InputError` and its own message, through
`errors.check_count`: never with a `TypeError`, and never by running on a
float.  A routine whose work grows with its count bounds it too, before
any work: the CLI's limits are these bounds.  And the work counts of five
fast paths: the parsers one CLI invocation builds, the closures the fintop
sweep computes, the marked distances a stage check measures (one per
parent), the checked boxes the refinement and chaos kernels build (none),
and the `Cell`s and `Region`s a refinement's build and checks make for the
cells it splits from one-box parents (none)."""

import argparse
from collections import Counter
from fractions import Fraction as F

import pytest

from cli_cases import CASES
from fintop_oracle import oracle_union
from primchaos import chaos, cli, embedding, fintop, geometry, surject
from primchaos.errors import InputError, check_count

MODEL = embedding.make_model("interval")
TREE = embedding.build_refinement(MODEL, 2)
DOUBLING = chaos.make_system("doubling")
CANTOR_MAP = surject.CantorMap("binary_expansion")
WHOLE = surject.clopen_partition(1)
WAYPOINTS = surject.waypoint_surjection(
    surject.waypoint_map([(F(1, 2), (F(1, 2),))], "interval"))
DEPTH = "depth must be >= 0"

# routine name -> (call on the count, least accepted count, message of a
# rejected count n)
ROUTINES = {
    "build_refinement": (lambda n: embedding.build_refinement(MODEL, n), 0,
                         lambda n: DEPTH),
    "RefinementTree.level": (TREE.level, 0,
                             lambda n: f"level must be an int >= 0, got {n!r}"),
    "check_stage_invariants": (
        lambda n: embedding.check_stage_invariants(TREE, n), 0,
        lambda n: f"level must be an int >= 0, got {n!r}"),
    "verify_cover_map": (lambda n: surject.verify_cover_map(CANTOR_MAP, n), 0,
                         lambda n: DEPTH),
    "verify_curve": (surject.verify_curve, 0, lambda n: DEPTH),
    "evaluate_waypoint": (
        lambda n: surject.evaluate_waypoint(WAYPOINTS, F(1, 2), n), 0,
        lambda n: DEPTH),
    "verify_waypoint_surjection": (
        lambda n: surject.verify_waypoint_surjection(WAYPOINTS, n), 0,
        lambda n: DEPTH),
    "verify_block_surjection": (
        lambda n: surject.verify_block_surjection(
            surject.block_surjection(WHOLE, WHOLE), WHOLE, WHOLE, n), 0,
        lambda n: DEPTH),
    "clopen_partition": (surject.clopen_partition, 1,
                         lambda n: "need n >= 1 blocks"),
    "dense_orbit_word": (chaos.dense_orbit_word, 1,
                         lambda n: "depth must be >= 1"),
    "verify_dense_orbit": (lambda n: chaos.verify_dense_orbit(DOUBLING, n), 1,
                           lambda n: "depth must be >= 1"),
    "transitivity_check": (lambda n: chaos.transitivity_check(DOUBLING, n), 1,
                           lambda n: "transitivity depth must be >= 1"),
    "sensitivity_check": (
        lambda n: chaos.sensitivity_check(DOUBLING, F(1, 64), n), 1,
        lambda n: "need at least one sample"),
    "decimal_str": (lambda n: geometry.decimal_str(F(1, 3), n), 0,
                    lambda n: "digits must be >= 0"),
}
BAD = [pytest.param(name, bad, id=f"{name}-{bad!r}")
       for name, (_, least, _) in ROUTINES.items()
       for bad in (least - 1, 2.0, "3", None)]


@pytest.mark.parametrize("name,bad", BAD)
def test_counts_not_an_int_in_range_are_input_errors(name, bad):
    call, _, message = ROUTINES[name]
    with pytest.raises(InputError) as info:
        call(bad)
    assert str(info.value) == message(bad)


@pytest.mark.parametrize("name", ROUTINES)
def test_least_count_accepted(name):
    call, least, _ = ROUTINES[name]
    call(least)


def test_check_count():
    check_count(0, "m")
    check_count(3, "m", 3)
    check_count(True, "m", 1)  # a bool is an int
    for value, least in ((-1, 0), (2, 3), (1.0, 0), (F(1), 0), ("1", 0)):
        with pytest.raises(InputError, match="^m$"):
            check_count(value, "m", least)


def test_sensitivity_samples_unread_when_points_are_given():
    rep = chaos.sensitivity_check(DOUBLING, F(1, 64), None, points=[(F(1, 3),)])
    assert "1 samples" in rep.instance


def test_sensitivity_empty_points_are_no_samples(monkeypatch):
    # an empty list is given points, none of them, not a request for the
    # generated samples
    monkeypatch.setattr(chaos, "_sensitivity_samples", _reached)
    with pytest.raises(InputError) as info:
        chaos.sensitivity_check(DOUBLING, F(1, 64), 5, points=[])
    assert str(info.value) == "need at least one sample"


@pytest.mark.parametrize("point", [None, (), (F(1, 3), F(1, 2))],
                         ids=["none", "empty", "two_coordinates"])
def test_sensitivity_rejects_malformed_points(point, monkeypatch):
    # each is rejected, by name, before any sample is stepped; the second
    # coordinate of a 2-tuple was dropped, and the others raised TypeError
    # and IndexError
    monkeypatch.setattr(chaos, "_steps", _reached)
    with pytest.raises(InputError) as info:
        chaos.sensitivity_check(DOUBLING, F(1, 64), None,
                                points=[(F(1, 3),), point])
    assert str(info.value) == f"sample point {point!r} is not a 1-tuple"


def test_block_padding_bounds_the_longest_source_cylinder(monkeypatch):
    # at the bound the padding is built; one bit past it, on any block, the
    # input is rejected before the padding is walked
    n = surject.MAX_CYLINDER_BITS
    f = surject.block_surjection([surject.ClopenBlock(("1", "0" * n))],
                                 WHOLE)
    assert len(f.pairs[1][0].cylinders) == n - 1

    def refuse(blocks):
        raise AssertionError("padding built")
    monkeypatch.setattr(surject, "_complement_cylinders", refuse)
    too_long = [surject.ClopenBlock(("1",)),
                surject.ClopenBlock(("0" * (n + 1),))]
    with pytest.raises(InputError) as info:
        surject.block_surjection(too_long, WHOLE * 2)
    assert str(info.value) == f"source cylinder longer than {n} bits"


def test_block_depth_bounded_by_the_longest_word():
    # at the bound the certificate runs; one past it, the depth is rejected
    # before its eps, 3^-depth, is written out
    n = surject.MAX_CYLINDER_BITS
    f = surject.block_surjection(WHOLE, WHOLE)
    rep = surject.verify_block_surjection(f, WHOLE, WHOLE, n)
    assert rep.all_passed and rep.instance.endswith(f"eps 1/{3 ** n}")
    for check in (surject.check_block_depth,
                  lambda *a: surject.verify_block_surjection(f, *a)):
        with pytest.raises(InputError) as info:
            check(WHOLE, WHOLE, n + 1)
        assert str(info.value) == f"depth {n + 1} longer than {n} bits"


class Reached(Exception):
    """Raised by a spied kernel: the input passed its bound and work began."""


def _reached(*args, **kwargs):
    raise Reached


SQUARE_WAYPOINTS = surject.waypoint_surjection(
    surject.waypoint_map([(F(1, 2), (F(1, 2), F(1, 2)))], "square"))


def cells_past(base):
    return lambda n: (f"depth {n} exceeds the work limit of 1048576 cells "
                      f"({base} ** depth)")


def dense_past(n):
    return f"dense-orbit depth {n} exceeds the work limit of depth 8"


def samples_past(budget):
    return lambda n: (f"a check of {n} samples of {budget} steps exceeds the "
                      f"work limit of 10000 samples and 1048576 orbit steps")


def word_past(n):
    return f"word length {n} exceeds the work limit of 1024 symbols"


# bound -> (call on a count, the greatest count taken, the message of a
# larger count n, and the kernel, as (module, name), that the work begins in)
BOUNDS = {
    "build_refinement": (
        lambda n: embedding.build_refinement(MODEL, n), 12,
        lambda n: f"depth {n} exceeds the work limit of depth 12 "
                  f"(2 ** depth leaf cells)", (embedding, "_grid_entry")),
    "verify_cover_map-binary": (
        lambda n: surject.verify_cover_map(CANTOR_MAP, n), 20, cells_past(2),
        (surject, "_placement")),
    "verify_cover_map-interleave": (
        lambda n: surject.verify_cover_map(surject.CantorMap("interleave"), n),
        20, cells_past(2), (surject, "_placement")),
    "verify_curve": (surject.verify_curve, 10, cells_past(4),
                     (surject, "_curve_certificate")),
    "verify_waypoint_surjection-interval": (
        lambda n: surject.verify_waypoint_surjection(WAYPOINTS, n), 20,
        cells_past(2), (surject, "_piece_at")),
    "verify_waypoint_surjection-square": (
        lambda n: surject.verify_waypoint_surjection(SQUARE_WAYPOINTS, n), 10,
        cells_past(4), (surject, "_piece_at")),
    "evaluate_waypoint-interval": (
        lambda n: surject.evaluate_waypoint(WAYPOINTS, F(1, 3), n), 20,
        cells_past(2), (surject, "_piece_at")),
    "evaluate_waypoint-square": (
        lambda n: surject.evaluate_waypoint(SQUARE_WAYPOINTS, F(1, 3), n), 10,
        cells_past(4), (surject, "_piece_at")),
    "dense_orbit_word": (chaos.dense_orbit_word, 8, dense_past,
                         (chaos, "product")),
    "verify_dense_orbit": (lambda n: chaos.verify_dense_orbit(DOUBLING, n), 8,
                           dense_past, (chaos, "product")),
    # a step budget of 15 (1/64) and of 1009 (2^-1000) steps per sample
    "sensitivity_check-samples": (
        lambda n: chaos.sensitivity_check(DOUBLING, F(1, 64), n), 10000,
        samples_past(15), (chaos, "_sensitivity_samples")),
    "sensitivity_check-steps": (
        lambda n: chaos.sensitivity_check(DOUBLING, F(1, 2 ** 1000), n), 1039,
        samples_past(1009), (chaos, "_sensitivity_samples")),
    "sensitivity_check-points": (
        lambda n: chaos.sensitivity_check(DOUBLING, F(1, 2 ** 1000), None,
                                          points=[(F(1, 3),)] * n), 1039,
        samples_past(1009), (chaos, "_steps")),
    "realize_witness": (lambda n: chaos.realize_witness(DOUBLING, "0" * n),
                        1024, word_past, (chaos, "_witness_orbit")),
    "periodic_point": (lambda n: chaos.periodic_point(DOUBLING, "1" * n),
                       1024, word_past, (chaos, "_primitive_root")),
    "decimal_str": (lambda n: geometry.decimal_str(F(1, 3), n), 1024,
                    lambda n: f"digits {n} exceeds the work limit of 1024 "
                              f"digits", (geometry, "rat")),
}
# the bounds on a count a caller can make huge without building a list
HUGE = [name for name in BOUNDS if name not in (
    "sensitivity_check-points", "realize_witness", "periodic_point")]


@pytest.mark.parametrize("name", BOUNDS)
def test_work_bound_at_its_edge_and_one_past(name, monkeypatch):
    call, edge, message, (module, kernel) = BOUNDS[name]
    monkeypatch.setattr(module, kernel, _reached)
    with pytest.raises(Reached):  # the edge passes the bound: work begins
        call(edge)
    with pytest.raises(InputError) as info:  # one past, no work begins
        call(edge + 1)
    assert str(info.value) == message(edge + 1)


@pytest.mark.parametrize("name,n", [
    pytest.param(name, n, id=f"{name}-{n}") for name in HUGE
    for n in (8000, 15000, 2 ** 70) if n > BOUNDS[name][1]])
def test_huge_counts_rejected_before_any_work(name, n, monkeypatch):
    # the witnesses wrote 4^8000 and 2^15000 in decimal, which raised
    # ValueError; past 64 no bound forms its power
    call, _, message, (module, kernel) = BOUNDS[name]
    monkeypatch.setattr(module, kernel, _reached)
    with pytest.raises(InputError) as info:
        call(n)
    assert str(info.value) == message(n)


def words(n, bits, head=""):
    """The first n words of `bits` bits after `head`, in binary order."""
    return tuple(head + format(i, f"0{bits}b") for i in range(n))


def test_block_certificate_bounds_its_steps(monkeypatch):
    # 512 source cylinders, which cover the Cantor set, onto 256 target
    # cylinders are the edge, 2^17 steps; the same onto the words under 0
    # leave cyl 1 to the padding block, one step more
    n = surject.MAX_BLOCK_STEPS
    target = [surject.ClopenBlock(words(256, 8))]
    monkeypatch.setattr(surject, "_images", _reached)

    def verify(source):
        blocks = [surject.ClopenBlock(source)]
        f = surject.block_surjection(blocks, target)
        return surject.verify_block_surjection(f, blocks, target, 20)
    with pytest.raises(Reached):  # the edge passes the bound: work begins
        verify(words(512, 9))
    with pytest.raises(InputError) as info:  # one past, no work begins
        verify(words(512, 9, "0"))
    assert str(info.value) == (
        f"a map of {n + 1} block steps exceeds the work limit of {n} steps "
        f"(source times target cylinders, summed over its blocks)")


@pytest.mark.parametrize("cylinder,copies", [
    ("", 1),  # above all 512 sources: 256 pieces each
    ("0", 2),  # above the 256 sources under 0
    ("000000000", 512),  # a source: its own staircase of 256 pieces
    ("0000000001", 512),  # under a source: at most its staircase
])
def test_block_walk_bounds_the_pieces_of_the_given_blocks(cylinder, copies,
                                                          monkeypatch):
    # against the 2^17-step edge map, A blocks that read 2^17 pieces pass
    # the bound, and one copy more is rejected before the walk's first
    # search: copies of one A block multiplied its work with no bound
    target = [surject.ClopenBlock(words(256, 8))]
    f = surject.block_surjection([surject.ClopenBlock(words(512, 9))], target)
    blocks = [surject.ClopenBlock((cylinder,))] * (copies + 1)
    assert_walk_bound(f, blocks, WHOLE * (copies + 1), monkeypatch)


def test_block_walk_counts_each_source_its_own_staircase(monkeypatch):
    # the sources under 0 read 256 pieces each and the padding source 1
    # reads one: cyl 0 once and cyl 1 65,536 times read 2^17 pieces
    target = [surject.ClopenBlock(words(256, 8))]
    f = surject.block_surjection([surject.ClopenBlock(words(256, 8, "0"))],
                                 target)
    assert f.pairs[1] == (surject.ClopenBlock(("1",)), WHOLE[0])
    blocks = [surject.ClopenBlock(("0",))] + \
        [surject.ClopenBlock(("1",))] * (2 ** 16 + 1)
    assert_walk_bound(f, blocks, target + WHOLE * (2 ** 16 + 1), monkeypatch)


@pytest.mark.parametrize("side", ["A", "B"])
def test_block_lists_bound_their_cylinders_before_the_walk(side, monkeypatch):
    # copies of one 256-cylinder block against the whole space: each copy
    # counts, so 512 copies (2^17 cylinders) pass and one more is rejected,
    # however few steps the map takes: repeated B blocks cost time unbounded
    f = surject.block_surjection(WHOLE, WHOLE)
    many = surject.ClopenBlock(words(256, 8))
    monkeypatch.setattr(surject, "_first_miss", _reached)

    def verify(copies):
        lists = ([many] * copies, WHOLE * copies)
        return surject.verify_block_surjection(
            f, *(lists if side == "A" else lists[::-1]), 20)
    with pytest.raises(Reached):
        verify(512)
    for copies in (513, 10 ** 5):
        with pytest.raises(InputError) as info:
            verify(copies)
        assert str(info.value) == (
            f"{side} blocks of {256 * copies} cylinders exceed the work "
            f"limit of {surject.MAX_BLOCK_STEPS} block steps")


def test_block_lists_of_unequal_length_rejected():
    # a second A block was dropped by the pairing, and the report counted it
    f = surject.block_surjection(WHOLE, WHOLE)
    for check in (surject.check_block_depth,
                  lambda *a: surject.verify_block_surjection(f, *a)):
        for blocks_a, blocks_b in ((WHOLE * 2, WHOLE), (WHOLE, WHOLE * 2)):
            with pytest.raises(InputError) as info:
                check(blocks_a, blocks_b, 20)
            assert str(info.value) == \
                "need as many target blocks as source blocks"


def assert_walk_bound(f, blocks_a, blocks_b, monkeypatch):
    """All but the last A block read `MAX_BLOCK_STEPS` pieces and pass the
    bound; all of them are rejected before the walk's first search."""
    n = surject.MAX_BLOCK_STEPS
    monkeypatch.setattr(surject, "_first_miss", _reached)
    with pytest.raises(Reached):
        surject.verify_block_surjection(f, blocks_a[:-1], blocks_b[:-1], 20)
    with pytest.raises(InputError) as info:
        surject.verify_block_surjection(f, blocks_a, blocks_b, 20)
    assert str(info.value) == (
        f"A blocks whose walk reads over {n} pieces exceed the work limit of "
        f"{n} block steps (the target cylinders of the sources they meet)")


def test_waypoint_map_bounds_its_pins():
    def pins(n):
        return [(F(k, n + 1), (F(1, 2),)) for k in range(1, n + 1)]
    assert len(surject.waypoint_map(pins(256), "interval").waypoints) == 256
    with pytest.raises(InputError) as info:
        surject.waypoint_map(pins(257), "interval")
    assert str(info.value) == "at most 256 waypoints, got 257"


# the parsers of the whole tree: the root, 4 groups, 5 chaos and 4 fintop
# leaves
WHOLE_TREE = 14
# a plain argv of a named branch is read straight from `COMMANDS`
TABLE = 0
# 8192 repeated options, one --block per 13-bit word, each onto 1
MANY_BLOCKS = ["surject", "--kind", "block", "--depth", "20"] + [
    word for n in range(2 ** 13) for word in ("--block", f"{n:013b}:1")]
REALIZE = ["chaos", "realize", "--system", "doubling", "--word", "01"]


@pytest.mark.parametrize("argv,built", [
    pytest.param(argv, TABLE, id=name) for name, argv, _, _ in CASES] + [
    pytest.param(MANY_BLOCKS, TABLE, id="8192-block-options")] + [
    # values that argparse reads as negative numbers
    pytest.param(argv, TABLE, id=" ".join(argv))
    for argv in (["embed", "--model", "interval", "--depth", "-0"],
                 REALIZE[:4] + ["--word", "-01"],
                 REALIZE + ["--format", "csv", "--out", "x.csv",
                            "--decimal", "-1"])] + [
    pytest.param(argv, WHOLE_TREE, id=" ".join(argv) or "no-argv")
    for argv in ([], ["bogus"], ["chaos"], ["chaos", "bogus"],
                 ["--", "fintop", "sweep"], ["--out", "x.json", "embed"],
                 # a named branch's rest that is not plain
                 ["embed", "--model", "interval", "--depth=2"],
                 ["chaos", "realize", "--sys", "tent", "--word", "01"],
                 ["chaos", "dense", "--system", "tent", "--depth", "x"],
                 ["fintop", "sweep", "-h"],
                 ["embed", "--model", "interval", "--depth", "-1.5"],
                 ["embed", "--model", "interval", "--depth", "-\u0661"],
                 REALIZE[:4] + ["--word", "-1x"],
                 ["chaos", "sensitivity", "--system", "doubling",
                  "--delta", "-1/2"],
                 ["embed", "--model", "-1", "--depth", "2"],
                 # and one with arguments left over, for the root to reject
                 ["chaos", "realize", "--system", "tent", "--word", "01",
                  "x"],
                 ["surject", "--kind", "binary", "3"],
                 ["fintop", "sweep", "--", "x"],
                 ["embed", "--model", "interval", "--depth", "2", "embed"])])
def test_main_builds_the_parsers_on_argvs_path(argv, built, tmp_path,
                                              monkeypatch, capsys):
    # a plain argv of a named branch builds no parser; any other argv
    # builds the whole tree, each of its parsers once
    made = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    cli.main(list(argv))
    assert len(made) == len(set(made)) == built, made


def test_sweep_closes_each_distinct_first_step_once(monkeypatch):
    # a closure is a function of its first step alone, so the run closes
    # each distinct step once, whichever partitions and topologies give it;
    # every pair is counted
    pts = tuple("abcd")
    parts = [fintop.Partition(pts, blocks)
             for blocks in fintop.all_partitions(pts)]
    want = {tuple(oracle_union(D.bits, oracle_union(X.nbhds, bm))
                  for bm in D.masks)
            for X in fintop.all_topologies(pts) for D in parts}
    assert len(want) == 416
    seen = Counter()
    close = fintop._quotient_relation

    def recording(reach):
        seen[tuple(reach)] += 1
        return close(reach)

    monkeypatch.setattr(fintop, "_quotient_relation", recording)
    rep = fintop.sweep(pts)
    assert [(c.passed, c.witness) for c in rep.checks] == [
        (True, "5325 of 5325 (355 topologies x 15 partitions)"),
        (True, "355 of 355 spaces")]
    assert set(seen) == want
    assert sum(seen.values()) == 416


@pytest.mark.parametrize("level", range(7))
def test_stage_check_measures_each_parent_once(level, monkeypatch):
    # check (ii) reads one marked distance per parent: 2^(k-1) at level k,
    # each parent's once, in heap order
    calls = []
    measure = embedding._marked_distance

    def counted(entry):
        calls.append(entry)
        return measure(entry)
    monkeypatch.setattr(embedding, "_marked_distance", counted)
    for kind in embedding.MODEL_KINDS:
        tree = embedding.build_refinement(embedding.make_model(kind), 6)
        calls.clear()
        assert embedding.check_stage_invariants(tree, level).all_passed
        assert calls == (list(tree.levels[level - 1]) if level else []), kind


@pytest.mark.parametrize("kind", embedding.MODEL_KINDS)
def test_split_built_cells_get_no_cell_or_region(kind, monkeypatch):
    # a cell the step builds from a one-box parent is a corner pair from
    # the build through every level's check.  The tripod root is the one
    # Cell, so at any depth its tree builds the root's Cell and Region, a
    # ball and a clipped Region per child in its split, and the two
    # children's Cells and Regions for the level-0 check, which runs on
    # Cells
    model = embedding.make_model(kind)
    built = Counter()
    for cls in (embedding.Cell, geometry.Region):
        init = cls.__init__

        def spy(self, *args, _init=init, _name=cls.__name__):
            built[_name] += 1
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", spy)
    counts = []
    for depth in (1, 6):
        built.clear()
        tree = embedding.build_refinement(model, depth)
        assert all(embedding.check_stage_invariants(tree, k).all_passed
                   for k in range(depth + 1))
        counts.append(dict(built))
    assert counts[0] == counts[1] == (
        {"Cell": 3, "Region": 7} if kind == "tripod" else {})


def test_kernels_build_no_checked_box(monkeypatch):
    # the models' and system's boxes are checked once, when they are made;
    # every box the kernels derive from them is built trusted
    models = [embedding.make_model(kind) for kind in embedding.MODEL_KINDS]
    system = chaos.make_system("baker")
    checked, post_init = [], geometry.Box.__post_init__

    def spy(box):
        checked.append(box)
        post_init(box)
    monkeypatch.setattr(geometry.Box, "__post_init__", spy)
    for model in models:
        tree = embedding.build_refinement(model, 6)
        assert all(embedding.check_stage_invariants(tree, k).all_passed
                   for k in range(tree.depth + 1))
        assert len(embedding.tree_document(tree)["cells"]) == 127
    assert len(chaos.realize_witness(system, "0110").orbit) == 4
    assert checked == []
    geometry.Box((0,), (1,))
    assert len(checked) == 1  # the spy sees a checked box
