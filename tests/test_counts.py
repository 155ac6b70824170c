"""Every public routine that takes a depth, level or count rejects one that
is not an int in range with `InputError` and its own message, through
`errors.check_count`: never with a `TypeError`, and never by running on a
float."""

from fractions import Fraction as F

import pytest

from primchaos import chaos, embedding, geometry, surject
from primchaos.errors import InputError, check_count

MODEL = embedding.make_model("interval")
TREE = embedding.build_refinement(MODEL, 2)
ROOT = {"": TREE.cells[""]}
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
    "RefinementTree": (lambda n: embedding.RefinementTree(MODEL, n, ROOT), 0,
                       lambda n: f"tree depth must be an int >= 0, got {n!r}"),
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
    "sweep_cell_enclosure": (
        lambda n: surject.sweep_cell_enclosure(WAYPOINTS, 0, 0, n), 0,
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
