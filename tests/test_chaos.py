"""Primitive-chaos systems: witness realization, periodic orbits, and the
chaos-property certificates, cross-checked against plain-lambda oracles."""

import tracemalloc
from fractions import Fraction as F
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaos_oracle import (
    apply,
    oracle_dense_orbit,
    oracle_periodic_point,
    oracle_transitivity,
    step,
)
from geometry_oracle import box1, box2, checked_boxes
from primchaos import chaos, cli
from primchaos.chaos import (
    SYSTEM_KINDS,
    AffineBranch,
    ChaosSystem,
    dense_orbit_word,
    make_system,
    periodic_point,
    realize_witness,
    sensitivity_budget,
    sensitivity_check,
    transitivity_check,
    verify_dense_orbit,
    word_enclosure,
)
from primchaos.errors import ConstructionError, InputError
from primchaos.geometry import (
    Box,
    first_box_midpoint,
    grid_box,
    point_doc,
    rational_str,
    region,
    region_intersect,
    region_subset,
)
from primchaos.report import CheckReport

HALF = F(1, 2)


# independent plain-function oracles for the three 1-d maps; branch choice
# at the shared boundary point matches the systems' first-event convention
def doubling_oracle(x):
    return 2 * x if x <= HALF else 2 * x - 1


def tent_oracle(x):
    return 2 * x if x <= HALF else 2 - 2 * x


def shift_oracle(x):
    return 3 * x if x <= F(1, 3) else 3 * x - 2


ORACLES = {"doubling": doubling_oracle, "tent": tent_oracle,
           "shift_cantor": shift_oracle}


def baker_oracle(p):
    x, y = p
    if x <= HALF:
        return (2 * x, y / 2)
    return (2 * x - 1, (y + 1) / 2)


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------


def test_make_system_examples():
    d = make_system("doubling")
    assert d.events[0] == region(box1(0, HALF))
    assert d.events[1] == region(box1(HALF, 1))
    t = make_system("tent")
    assert step(t, (F(3, 4),)) == (HALF,)
    sc = make_system("shift_cantor")
    p = step(sc, (F(2, 9),))  # a point of cylinder "01"
    assert sc.events[1].contains_point(p)
    with pytest.raises(InputError):
        make_system("lorenz")


def test_total_map_matches_oracles():
    for kind, oracle in ORACLES.items():
        s = make_system(kind)
        for i in range(1, 27):
            x = F(i, 27)
            if not s.space.contains_point((x,)):
                continue
            assert step(s, (x,)) == (oracle(x),), (kind, x)
    b = make_system("baker")
    for i in range(5):
        for j in range(5):
            p = (F(i, 4), F(j, 4))
            assert step(b, p) == baker_oracle(p)


# ---------------------------------------------------------------------------
# witness realization
# ---------------------------------------------------------------------------


def test_realize_witness_examples():
    d = make_system("doubling")
    res = realize_witness(d, "01")
    # hand oracle: f^-1([1/2,1]) = [1/4,1/2], intersect [0,1/2]
    assert res.enclosure == region(box1(F(1, 4), HALF))
    assert res.witness == (F(3, 8),)
    assert res.orbit == ((F(3, 8),), (F(3, 4),))
    res = realize_witness(d, "0")
    assert res.enclosure == region(box1(0, HALF)) and res.witness == (F(1, 4),)


def test_realize_tent_word_01():
    t = make_system("tent")
    res = realize_witness(t, "01")
    assert region_subset(res.enclosure, region(box1(0, HALF)))
    # brute-force oracle: grid points satisfying the itinerary lie inside
    # the enclosure, grid points violating it lie outside
    for i in range(0, 129):
        x = F(i, 128)
        follows = x <= HALF and tent_oracle(x) >= HALF
        inside = any(bb.lo[0] <= x <= bb.hi[0] for bb in res.enclosure.boxes)
        assert follows == inside, x


def test_realized_orbits_follow_words_and_match_oracles():
    for kind, oracle in ORACLES.items():
        s = make_system(kind)
        for n in range(1, 7):
            for bits in product("01", repeat=n):
                word = "".join(bits)
                res = realize_witness(s, word)
                for p, sym in zip(res.orbit, word):
                    assert s.events[int(sym)].contains_point(p)
                # forward orbit agrees with the plain-lambda oracle except
                # possibly at shared event boundaries, which the witness
                # midpoint avoids for positive-width enclosures
                for p, q in zip(res.orbit, res.orbit[1:]):
                    assert q == (oracle(p[0]),) or \
                        s.events[0].contains_point(p) == s.events[1].contains_point(p)


def test_realize_witness_baker():
    b = make_system("baker")
    res = realize_witness(b, "0110")
    assert len(res.orbit) == 4
    for p, sym in zip(res.orbit, "0110"):
        assert b.events[int(sym)].contains_point(p)
    for p, q in zip(res.orbit, res.orbit[1:]):
        assert q == baker_oracle(p)


def test_realize_rejects_bad_words():
    d = make_system("doubling")
    with pytest.raises(InputError):
        realize_witness(d, "2")
    with pytest.raises(InputError):
        realize_witness(d, "")
    with pytest.raises(InputError):
        realize_witness(d, "0x")
    with pytest.raises(InputError):
        realize_witness(d, (0, 1))


def test_enclosures_nest_under_extension():
    for kind in ("shift_cantor", "doubling", "tent", "baker"):
        s = make_system(kind)
        for n in range(1, 8):
            for bits in product("01", repeat=n):
                w = "".join(bits)
                assert region_subset(word_enclosure(s, w),
                                     word_enclosure(s, w[:-1]) if n > 1
                                     else s.space)


# ---------------------------------------------------------------------------
# periodic points
# ---------------------------------------------------------------------------


def test_periodic_point_examples():
    d = make_system("doubling")
    orb = periodic_point(d, "01")
    # oracle: 0.010101... in binary = 1/3
    assert sum(F(1, 2 ** (2 * k)) for k in range(1, 12)) < F(1, 3)
    assert orb.point == (F(1, 3),) and orb.prime_period == 2
    assert orb.orbit == ((F(1, 3),), (F(2, 3),))
    t = make_system("tent")
    orb = periodic_point(t, "01")
    # oracle: solve tent(tent(x)) = x on the 0-then-1 branch: 2-4x = x
    assert orb.point == (F(2, 5),) and orb.prime_period == 2
    orb = periodic_point(d, "0")
    assert orb.point == (F(0),) and orb.prime_period == 1


def test_periodic_point_orbit_matches_oracle():
    for kind, oracle in ORACLES.items():
        s = make_system(kind)
        for word in ("0", "1", "01", "001", "011", "0001", "00101"):
            orb = periodic_point(s, word)
            x = orb.point[0]
            for sym in word:
                x = oracle(x)
            assert x == orb.point[0], (kind, word)


def test_periodic_point_power_word_reduced():
    d = make_system("doubling")
    orb = periodic_point(d, "0101")
    assert orb.prime_period == 2 and orb.word == "01"
    assert orb.reduced_from == "0101"
    assert orb.point == (F(1, 3),)


def test_periodic_point_baker_2d():
    b = make_system("baker")
    orb = periodic_point(b, "01")
    assert orb.point == (F(1, 3), F(2, 3))
    p = orb.point
    for _ in range(2):
        p = baker_oracle(p)
    assert p == orb.point


def test_prime_period_divisor_minimality():
    d = make_system("doubling")
    for n in range(1, 11):
        word = "0" * (n - 1) + "1"
        orb = periodic_point(d, word)
        assert orb.prime_period == n
        # fixed point of the composed branch: 1/(2^n - 1)
        assert orb.point == (F(1, 2 ** n - 1),)


def test_periodic_point_in_realized_enclosure():
    # realizing a word's repetition must enclose the exact periodic point,
    # exhaustively for every word up to length 8
    for kind in ("doubling", "tent"):
        s = make_system(kind)
        for n in range(1, 9):
            for bits in product("01", repeat=n):
                word = "".join(bits)
                orb = periodic_point(s, word)
                enc = word_enclosure(s, word * 2)
                assert enc.contains_point(orb.point), (kind, word)


# ---------------------------------------------------------------------------
# chaos certificates
# ---------------------------------------------------------------------------


def test_dense_orbit_word_examples():
    assert dense_orbit_word(1) == "01"
    # enumeration oracle: "01" + "00" + "01" + "10" + "11"
    expected = "01" + "".join("".join(b) for b in product("01", repeat=2))
    assert dense_orbit_word(2) == expected == "0100011011"
    with pytest.raises(InputError):
        dense_orbit_word(0)


def test_dense_orbit_visits_all_cells():
    for kind in ("doubling", "tent", "shift_cantor"):
        rep = verify_dense_orbit(make_system(kind), 2)
        assert rep.all_passed, (kind, rep.to_document())
    rep = verify_dense_orbit(make_system("doubling"), 3)
    assert rep.all_passed


def test_dense_orbit_names_missed_cells(monkeypatch, capsys):
    # a word of zeros only ever shows cell 00; the report names the other
    # depth-2 cells and the CLI exits 1, a failed check
    monkeypatch.setattr(chaos, "dense_orbit_word", lambda depth: "0" * 10)
    rep = verify_dense_orbit(make_system("doubling"), 2)
    assert [(c.name, c.passed, c.witness) for c in rep.checks] == [
        ("visits_every_cell", False, "missed cells: ['01', '10', '11']")]
    assert cli.main(["chaos", "dense", "--system", "doubling",
                     "--depth", "2"]) == 1
    out = capsys.readouterr().out
    assert "missed cells: ['01', '10', '11']" in out
    assert out.endswith("result: FAIL\n")


def test_dense_orbit_needs_two_events():
    thirds = custom_system(
        "thirds",
        [[box1(0, F(1, 3))], [box1(F(1, 3), F(2, 3))], [box1(F(2, 3), 1)]],
        [((3, 0),), ((3, -1),), ((3, -2),)])
    with pytest.raises(InputError) as info:
        verify_dense_orbit(thirds, 2)
    assert str(info.value) == \
        "dense-orbit words are built over a binary alphabet"


def test_sensitivity_doubling_third():
    # hand-derived: difference doubles per step until >= 1/4, so 18 steps
    # from 2^-20; boundary straddles only separate faster
    rep = sensitivity_check(make_system("doubling"), F(1, 2 ** 20), 1,
                            points=[(F(1, 3),)])
    assert rep.all_passed
    n = int(rep.checks[0].witness.split("n = ")[1].split(" ")[0])
    assert n <= 21


def test_sensitivity_tent_many_samples():
    rep = sensitivity_check(make_system("tent"), F(1, 2 ** 10), 100)
    assert rep.all_passed
    n = int(rep.checks[0].witness.split("n = ")[1].split(" ")[0])
    assert n <= 12


def test_sensitivity_shift_cantor():
    rep = sensitivity_check(make_system("shift_cantor"), F(1, 2 ** 10), 25)
    assert rep.all_passed


def test_sensitivity_rejects_bad_inputs():
    with pytest.raises(InputError):
        sensitivity_check(make_system("baker"), F(1, 4), 5)
    with pytest.raises(InputError):
        sensitivity_check(make_system("tent"), F(0), 5)
    # delta's numerator and denominator are capped, before any work
    assert sensitivity_budget(F(1, 2 ** 1023)) == 1024 + 8
    assert sensitivity_budget(F(2 ** 1024 - 1, 2 ** 1023)) == 1024 + 8
    for delta in (F(1, 2 ** 1024), F(2 ** 1100 + 1, 2 ** 1000),
                  F(2 ** 5000 + 1, 2 ** 5001)):
        for check in (sensitivity_budget,
                      lambda d: sensitivity_check(make_system("tent"), d, 5)):
            with pytest.raises(InputError, match="exceeds the work limit"):
                check(delta)


def test_transitivity_examples():
    d = make_system("doubling")
    rep = transitivity_check(d, 2)
    assert rep.all_passed
    # u = "00", v = "11": witness in [0,1/4] reaching [3/4,1] in 2 steps
    res = realize_witness(d, "0011")
    assert word_enclosure(d, "00").contains_point(res.witness)
    assert word_enclosure(d, "11").contains_point(res.orbit[2])
    # fixed point connects a cell to itself
    res = realize_witness(d, "00")
    assert word_enclosure(d, "0").contains_point(res.witness)
    assert transitivity_check(make_system("shift_cantor"), 3).all_passed


def test_transitivity_depth_bounds():
    with pytest.raises(InputError):
        transitivity_check(make_system("doubling"), 0)
    with pytest.raises(InputError):
        transitivity_check(make_system("doubling"), 13)


def test_witness_document_shape():
    res = realize_witness(make_system("doubling"), "01")
    doc = res.to_document()
    assert doc == {
        "system": "doubling",
        "word": "01",
        "enclosure": [[["1/4", "1/2"]]],
        "witness": "3/8",
        "orbit": ["3/8", "3/4"],
    }


# ---------------------------------------------------------------------------
# the integer enclosure kernel against the Fraction recursion it replaced
# ---------------------------------------------------------------------------


def reference_step(s, sym, K):
    """One symbol of the Fraction recursion: X_sym cap f_sym^-1(K)."""
    return region_intersect(s.events[sym], s.branches[sym].preimage(K))


def reference_enclosure(s, word):
    K = s.space
    for ch in reversed(word):
        K = reference_step(s, int(ch), K)
        if K is None:
            return None
    return K


def check_against_reference(s, word, want):
    """word_enclosure equals the reference region, or raises the empty-set
    error exactly when the reference empties."""
    if want is None:
        with pytest.raises(ConstructionError) as exc:
            word_enclosure(s, word)
        assert str(exc.value) == f"empty witness set for word {word} on {s.kind}"
    else:
        assert word_enclosure(s, word) == want, (s.kind, word)


def custom_system(kind, events, branches):
    events = tuple(region(ev) for ev in events)
    return ChaosSystem(
        kind, events,
        tuple(AffineBranch(tuple((F(a), F(b)) for a, b in br))
              for br in branches))


# two-box event under a reflection: enclosures keep two pieces, and the
# word "01" realizes only the two points 1/3 and 2/3
TWO_PIECE = custom_system(
    "two_piece", [[box1(0, F(1, 3)), box1(F(2, 3), 1)], [box1(F(1, 3), F(2, 3))]],
    [((-1, 1),), ((3, -1),)])
# 2-d checkerboard events; branch 0 reverses axis 0, branch 1 axis 1
CHECKER = custom_system(
    "checker",
    [[box2(0, HALF, 0, HALF), box2(HALF, 1, HALF, 1)],
     [box2(0, HALF, HALF, 1), box2(HALF, 1, 0, HALF)]],
    [((-1, 1), (F(1, 3), F(1, 3))), ((2, -HALF), (-1, 1))])
# three symbols, non-dyadic corners, slopes and offsets
FIFTHS = custom_system(
    "fifths", [[box1(0, F(2, 5))], [box1(F(2, 5), 1)], [box1(F(1, 7), F(3, 7))]],
    [((F(5, 2), 0),), ((F(5, 3), F(-2, 3)),), ((F(7, 2), -HALF),)])
# branch 1 maps its event into itself, so no orbit goes from 1 to 0
TRAP = custom_system("trap", [[box1(0, HALF)], [box1(HALF, 1)]],
                     [((2, 0),), ((HALF, HALF),)])

RANDOM_WORD_SYSTEMS = {**{k: make_system(k) for k in SYSTEM_KINDS},
                       **{s.kind: s for s in (TWO_PIECE, CHECKER, FIFTHS)}}


def test_kernel_keeps_multi_box_enclosures_merged():
    # on the checkerboard the unmerged pieces would double every symbol
    # (4096 boxes, about 3 MB, for 12 symbols); the enclosure has two
    word = "0" * 12
    tracemalloc.start()
    try:
        enc = word_enclosure(CHECKER, word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert enc == reference_enclosure(CHECKER, word)
    assert len(enc.boxes) == 2
    assert peak < 1 << 20


@pytest.mark.parametrize("kind", SYSTEM_KINDS)
def test_kernel_matches_reference_on_every_short_word(kind):
    # every word of length 0..10, the reference built from its suffix's
    s = make_system(kind)
    ref = {"": s.space}
    check_against_reference(s, "", s.space)
    for n in range(1, 11):
        for bits in product("01", repeat=n):
            w = "".join(bits)
            tail = ref[w[1:]]
            ref[w] = None if tail is None else reference_step(s, int(w[0]), tail)
            check_against_reference(s, w, ref[w])


@pytest.mark.parametrize("kind", SYSTEM_KINDS)
def test_kernel_matches_reference_on_dense_words(kind):
    s = make_system(kind)
    for depth in range(1, 9):
        w = dense_orbit_word(depth)
        check_against_reference(s, w, reference_enclosure(s, w))


@pytest.mark.parametrize("kind", sorted(RANDOM_WORD_SYSTEMS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kernel_matches_reference_on_random_words(kind, data):
    s = RANDOM_WORD_SYSTEMS[kind]
    word = data.draw(st.text("0123456789"[:s.alphabet], max_size=200))
    with checked_boxes():
        want = reference_enclosure(s, word)
        check_against_reference(s, word, want)
        if want is not None and word:
            # the Fraction orbit and event membership certify the kernel
            assert realize_witness(s, word).enclosure == want


def test_kernel_on_custom_systems_examples():
    assert word_enclosure(TWO_PIECE, "01") == \
        region([box1(F(1, 3), F(1, 3)), box1(F(2, 3), F(2, 3))])
    assert word_enclosure(TWO_PIECE, "0") == TWO_PIECE.events[0]
    # the reflection swaps the two pieces; the witness is the left point
    res = realize_witness(TWO_PIECE, "01")
    assert res.witness == (F(1, 3),) and res.orbit == ((F(1, 3),), (F(2, 3),))
    assert word_enclosure(FIFTHS, "2") == region(box1(F(1, 7), F(3, 7)))
    assert word_enclosure(FIFTHS, "12") == \
        region(box1(F(2, 5) + F(3, 5) / 7, F(2, 5) + F(9, 5) / 7))


def test_unrealizable_word_fails_the_check(monkeypatch, capsys):
    msg = "empty witness set for word 10 on trap"
    assert reference_enclosure(TRAP, "10") is None
    for realize in (word_enclosure, realize_witness):
        with pytest.raises(ConstructionError) as exc:
            realize(TRAP, "10")
        assert str(exc.value) == msg
    monkeypatch.setattr(cli.chaos_mod, "make_system", lambda kind: TRAP)
    assert cli.main(["chaos", "realize", "--system", "doubling",
                     "--word", "10"]) == 1
    assert capsys.readouterr().err == f"primchaos: check failed: {msg}\n"


# ---------------------------------------------------------------------------
# the integer forward certificates against the Fraction orbit they replaced
# ---------------------------------------------------------------------------


def reference_orbit(s, word, start):
    """The orbit by `apply`, one point per symbol, and the escape error
    `Region.contains_point` finds first, or None."""
    orbit = [start]
    for ch in word[:-1]:
        orbit.append(apply(s.branches[int(ch)], orbit[-1]))
    for p, ch in zip(orbit, word):
        if not s.events[int(ch)].contains_point(p):
            return orbit, f"orbit point {p} escapes event {ch} on {s.kind}"
    return orbit, None


def check_orbit_against_reference(s, word):
    try:
        res = realize_witness(s, word)
    except ConstructionError as exc:
        assert str(exc) == f"empty witness set for word {word} on {s.kind}"
        return
    orbit, escape = reference_orbit(s, word, res.witness)
    assert escape is None, escape
    assert res.orbit == tuple(orbit), (s.kind, word)
    assert all(type(c) is F for p in res.orbit for c in p)


@pytest.mark.parametrize("kind", SYSTEM_KINDS)
def test_orbit_matches_reference_on_every_short_word(kind):
    s = make_system(kind)
    for n in range(1, 11):
        for bits in product("01", repeat=n):
            check_orbit_against_reference(s, "".join(bits))


@pytest.mark.parametrize("kind", sorted(RANDOM_WORD_SYSTEMS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_orbit_matches_reference_on_random_words(kind, data):
    s = RANDOM_WORD_SYSTEMS[kind]
    word = data.draw(st.text("0123456789"[:s.alphabet], min_size=1,
                             max_size=200))
    check_orbit_against_reference(s, word)


def test_escaping_orbit_raises_with_the_whole_space_as_kernel(monkeypatch):
    # with the kernel answering the whole space, the witness is the space's
    # midpoint and only the forward certificate stands between it and the
    # word: it must fail exactly where the Fraction orbit first escapes
    monkeypatch.setattr(chaos, "_enclosure", lambda s, word: s.space)
    escaped = 0
    for s in RANDOM_WORD_SYSTEMS.values():
        for n in range(1, 7):
            for syms in product("0123456789"[:s.alphabet], repeat=n):
                word = "".join(syms)
                start = first_box_midpoint(s.space)
                orbit, escape = reference_orbit(s, word, start)
                if escape is None:
                    assert realize_witness(s, word).orbit == tuple(orbit)
                    continue
                escaped += 1
                with pytest.raises(ConstructionError) as exc:
                    realize_witness(s, word)
                assert str(exc.value) == escape
    assert escaped
    with pytest.raises(ConstructionError) as exc:
        realize_witness(make_system("doubling"), "00")
    assert str(exc.value) == "orbit point (Fraction(1, 1),) escapes event 0 " \
                             "on doubling"


def reference_partners(s, x, delta):
    """The partners the Fraction check tried, digit k found by search."""
    if s.kind == "shift_cantor":
        k = 1
        while 2 * F(1, 3 ** k) > delta:
            k += 1
        step = 2 * F(1, 3 ** k)
        digit = (x.numerator * 3 ** k // x.denominator) % 3
        return [(x - step if digit == 2 else x + step,)]
    cands = []
    for frac in (1, HALF, F(3, 4)):
        for sign in (1, -1):
            y = x + sign * delta * frac
            if 0 <= y <= 1 and y != x:
                cands.append((y,))
    return cands


def reference_sensitivity(s, delta, samples, constant=F(1, 4), points=None):
    """The sensitivity report by `step` on `Fraction` points."""
    budget = delta.denominator.bit_length() + 8
    pts = [tuple(F(c) for c in p) for p in points] if points \
        else chaos._sensitivity_samples(s, samples)
    worst, failed = 0, None
    for x in pts:
        sep_at = None
        for y in reference_partners(s, x[0], delta):
            px, py = x, y
            for n in range(1, budget + 1):
                px, py = step(s, px), step(s, py)
                if abs(px[0] - py[0]) >= constant:
                    sep_at = n
                    break
            if sep_at is not None:
                break
        if sep_at is None:
            failed = x
            break
        worst = max(worst, sep_at)
    rep = CheckReport(f"{s.kind} sensitivity, delta {rational_str(delta)}, "
                      f"{len(pts)} samples, constant {rational_str(constant)}")
    rep.add("orbits_separate", failed is None,
            f"worst separation step n = {worst} <= budget {budget}"
            if failed is None else
            f"sample {point_doc(failed)} never separated within {budget} steps")
    return rep


ONE_D_SYSTEMS = [s for s in RANDOM_WORD_SYSTEMS.values() if s.dim == 1] + [TRAP]


def outcome(check, *args, **kwargs):
    """The check's report, or the message of the input error it raises."""
    try:
        return check(*args, **kwargs)
    except InputError as exc:
        return str(exc)


@pytest.mark.parametrize("s", ONE_D_SYSTEMS, ids=lambda s: s.kind)
@pytest.mark.parametrize("delta", [F(1, 2 ** 12), F(1, 3 ** 5), F(2, 3 ** 6),
                                   F(2, 7), F(3, 5), F(5, 3 ** 9 + 1)])
def test_sensitivity_matches_step_reference(s, delta, monkeypatch):
    for samples in (1, 7, 40):
        assert sensitivity_check(s, delta, samples) == \
            reference_sensitivity(s, delta, samples)
    # given points, one at a time: boundary points, and on the Cantor
    # model partners in the gap; constants the pairs reach late or never
    for x in (0, F(1, 3), HALF, F(2, 3), F(20, 27), F(5, 7), 1):
        for constant in (F(1, 4), F(9, 10), F(2)):
            monkeypatch.setattr(chaos, "SENSITIVITY_CONSTANT", constant)
            assert outcome(sensitivity_check, s, delta, 0,
                           points=[(x,)]) == \
                outcome(reference_sensitivity, s, delta, 0, constant,
                        points=[(x,)])


def test_sensitivity_point_outside_every_event():
    # 1/2 lies in the Cantor model's gap; both checks fail on the first step
    s = make_system("shift_cantor")
    for check in (sensitivity_check, reference_sensitivity):
        with pytest.raises(InputError) as exc:
            check(s, F(1, 2 ** 10), 0, points=[(HALF,)])
        assert str(exc.value) == \
            "point (Fraction(1, 2),) lies outside every event"


def test_zero_slope_rejected():
    with pytest.raises(InputError):
        AffineBranch(((F(0), HALF),))
    with pytest.raises(InputError):
        AffineBranch(((F(2), F(0)), (F(0), HALF)))
    with pytest.raises(InputError):
        custom_system("flat", [[box1(0, 1)]], [((0, HALF),)])


def test_non_rational_coefficients_rejected():
    # a float law would make the Fraction references (apply, step,
    # preimage) compute in floats, where the integer kernels convert it
    for coeffs in (((2.0, F(0)),), ((F(2), -1.0),),
                   ((F(2), F(0)), (HALF, 0.5)), ((F(2), "1/2"),)):
        with pytest.raises(InputError, match="ints or Fractions"):
            AffineBranch(coeffs)
    assert apply(AffineBranch(((2, -1),)), (F(3, 8),)) == (F(-1, 4),)


def test_int_law_preimage_of_an_int_box_is_exact():
    # int coefficients and int corners divide to Fractions, not floats
    pre = AffineBranch(((2, 0), (-4, 1))).preimage(region(Box((0, 0), (1, 1))))
    assert pre == region(box2(0, F(1, 2), 0, F(1, 4)))
    assert all(type(x) is F for b in pre.boxes for x in (*b.lo, *b.hi))


def test_malformed_systems_rejected():
    d, b = make_system("doubling"), make_system("baker")
    with pytest.raises(InputError, match="need a branch each"):
        ChaosSystem("short", d.events, d.branches[:1])
    with pytest.raises(InputError, match="event must have"):
        ChaosSystem("event_axes", (d.events[0], b.events[1]), d.branches)
    with pytest.raises(InputError, match="one law per axis"):
        ChaosSystem("branch_axes", d.events, (d.branches[0], b.branches[1]))
    # no events leave no space, and a branch past the events no symbol reads
    with pytest.raises(InputError) as info:
        ChaosSystem("none", (), ())
    assert str(info.value) == "a system needs at least one event"
    with pytest.raises(InputError) as info:
        ChaosSystem("long", d.events, d.branches * 2)
    assert str(info.value) == "2 events need a branch each, got 4 branches"


def test_space_is_the_union_of_the_events():
    spaces = {"shift_cantor": [box1(0, F(1, 3)), box1(F(2, 3), 1)],
              "doubling": [box1(0, 1)], "tent": [box1(0, 1)],
              "baker": [box2(0, 1, 0, 1)]}
    for kind in SYSTEM_KINDS:
        s = make_system(kind)
        assert s.space == region(spaces[kind]) == \
            region([b for ev in s.events for b in ev.boxes]), kind
        assert ChaosSystem(kind, s.events, s.branches).space == s.space


# ---------------------------------------------------------------------------
# transitivity from one forward image per cell, and the shared cell builder,
# against the pairwise realization and per-cell enclosures they replaced
# ---------------------------------------------------------------------------


def verdict(check, *args):
    """The check's result, or the type and message of the error it raises."""
    try:
        return check(*args)
    except (ConstructionError, InputError) as exc:
        return type(exc), str(exc)


def realized_words(monkeypatch):
    """Record every word `_witness_orbit` realizes, from here on."""
    words = []
    realize = chaos._witness_orbit

    def spy(s, word):
        words.append(word)
        return realize(s, word)
    monkeypatch.setattr(chaos, "_witness_orbit", spy)
    return words


@pytest.mark.parametrize("kind", SYSTEM_KINDS)
def test_transitivity_matches_pairwise_oracle(kind):
    s = make_system(kind)
    for depth in range(1, 6):
        rep = transitivity_check(s, depth)
        assert rep.all_passed
        assert rep == oracle_transitivity(s, depth), (kind, depth)


@pytest.mark.parametrize("s", [*RANDOM_WORD_SYSTEMS.values(), TRAP],
                         ids=lambda s: s.kind)
def test_transitivity_matches_pairwise_oracle_on_custom_systems(s):
    with checked_boxes():
        for depth in range(1, 4):
            assert verdict(transitivity_check, s, depth) == \
                verdict(oracle_transitivity, s, depth), (s.kind, depth)


def test_transitivity_fails_on_the_trap_as_the_oracle_does():
    # no orbit goes from event 1 to event 0: at depth 1 the pair (1, 0) is
    # the first unrealizable word, from depth 2 on the first empty cell
    for depth, word in ((1, "10"), (2, "10"), (3, "010")):
        with pytest.raises(ConstructionError) as exc:
            transitivity_check(TRAP, depth)
        assert str(exc.value) == f"empty witness set for word {word} on trap"


@pytest.mark.parametrize("s", [*RANDOM_WORD_SYSTEMS.values(), TRAP],
                         ids=lambda s: s.kind)
def test_transitivity_realizes_at_most_the_failing_pair(s, monkeypatch):
    # the images decide every pair, the failing one included, so no pair
    # is realized
    words = realized_words(monkeypatch)
    for depth in range(1, 4):
        verdict(transitivity_check, s, depth)
        assert not words, (s.kind, depth, words)


# three symbols; branch 2 maps its event into itself, so cell 2 reaches
# neither cell 0 nor cell 1
TRAP3 = custom_system(
    "trap3", [[box1(0, F(1, 3))], [box1(F(1, 3), F(2, 3))], [box1(F(2, 3), 1)]],
    [((3, 0),), ((3, -1),), ((F(1, 3), F(2, 3)),)])
# the same events; branch 2 maps its event onto [1/3, 1/2], which meets
# cell 0 only in the point 1/3 and misses cell 2
TOUCH3 = custom_system(
    "touch3", [[box1(0, F(1, 3))], [box1(F(1, 3), F(2, 3))], [box1(F(2, 3), 1)]],
    [((3, 0),), ((3, -1),), ((HALF, 0),)])


def test_transitivity_fails_without_realizing_the_pair(monkeypatch):
    # an unconnected pair raises from the images alone, with the error the
    # pairwise oracle gets from realizing it: the first such pair in (u, v)
    # order, of one on the trap and two (20 and 21) on trap3; on two_piece
    # the first pair whose enclosure has no point; on touch3 the pair 22,
    # as the image touching cell 0 connects the pair 20
    want = {(TRAP, 1): "empty witness set for word 10 on trap",
            (TRAP3, 1): "empty witness set for word 20 on trap3",
            (TWO_PIECE, 2): "empty witness set for word 0011 on two_piece",
            (TOUCH3, 1): "empty witness set for word 22 on touch3"}
    for (s, depth), msg in want.items():
        assert verdict(oracle_transitivity, s, depth) == \
            (ConstructionError, msg)

    def refuse(s, word):
        raise AssertionError(f"realized {word} on {s.kind}")
    monkeypatch.setattr(chaos, "_witness_orbit", refuse)
    for (s, depth), msg in want.items():
        assert verdict(transitivity_check, s, depth) == \
            (ConstructionError, msg)


def test_transitivity_realizes_no_pair_on_transitive_systems(monkeypatch):
    def refuse(s, word):
        raise AssertionError(f"realized {word} on {s.kind}")
    monkeypatch.setattr(chaos, "_witness_orbit", refuse)
    for kind in SYSTEM_KINDS:
        assert transitivity_check(make_system(kind), 6).all_passed, kind


def test_transitivity_settles_baker_without_the_index(monkeypatch):
    # every baker image, a horizontal strip, crosses every cell, a vertical
    # strip: the per-axis bounds settle each u and no cell is scanned
    def refuse(a, b):
        raise AssertionError("scanned the cells")
    monkeypatch.setattr(chaos, "box_disjoint", refuse)
    for depth in range(1, 7):
        assert transitivity_check(make_system("baker"), depth).all_passed


def test_transitivity_at_the_largest_accepted_depth():
    # 2^12 cells is the most the check builds: depth 12 on two events
    for kind in ("baker", "doubling"):
        rep = transitivity_check(make_system(kind), 12)
        assert rep.all_passed
        assert rep.checks[0].witness == \
            "16777216 pairs connected in exactly 12 steps"


@pytest.mark.parametrize("s", [s for s in RANDOM_WORD_SYSTEMS.values()
                               if s.alphabet == 2] + [TRAP],
                         ids=lambda s: s.kind)
def test_dense_orbit_matches_per_cell_oracle(s):
    for depth in range(1, 7):
        assert verdict(verify_dense_orbit, s, depth) == \
            verdict(oracle_dense_orbit, s, depth), (s.kind, depth)


@pytest.mark.parametrize("s", list(RANDOM_WORD_SYSTEMS.values()) + [TRAP],
                         ids=lambda s: s.kind)
def test_cells_match_word_enclosures(s):
    for depth in range(1, 5):
        words = ["".join(bits) for bits in
                 product("0123456789"[:s.alphabet], repeat=depth)]
        want = {}
        for u in words:
            try:
                want[u] = word_enclosure(s, u)
            except ConstructionError as exc:
                with pytest.raises(ConstructionError) as got:
                    chaos._cells(s, depth)
                assert str(got.value) == str(exc)
                break
        else:
            cells = chaos._cells(s, depth)
            assert [u for u, _, _ in cells] == words
            for u, boxes, dens in cells:
                assert region([grid_box(*zip(*box), dens)
                               for box in boxes]) == want[u], (s.kind, u)


def times_mod_1(n):
    """x -> n*x mod 1 on n events [j/n, (j+1)/n]."""
    return custom_system(f"times{n}",
                         [[box1(F(j, n), F(j + 1, n))] for j in range(n)],
                         [((n, -j),) for j in range(n)])


def test_transitivity_bounds_its_cells_by_the_alphabet():
    # 10^3 cells pass and 10^4 exceed 2^12, as 2^13 cells do on two events
    s = times_mod_1(10)
    assert transitivity_check(s, 3).all_passed
    for system, depth in ((s, 4), (make_system("doubling"), 13)):
        with pytest.raises(InputError) as exc:
            transitivity_check(system, depth)
        assert str(exc.value) == (
            f"transitivity depth {depth} exceeds the work limit of 4096 "
            f"cells ({system.alphabet} ** depth)")


def test_ten_events_is_the_most_a_digit_word_names():
    # symbol 9 is the last one digit names: "10" is the symbols 1, 0
    s = times_mod_1(10)
    assert realize_witness(s, "9").witness == (F(19, 20),)
    assert realize_witness(s, "10").orbit == ((F(21, 200),), (F(1, 20),))
    assert transitivity_check(s, 1).all_passed
    with pytest.raises(InputError) as exc:
        times_mod_1(11)
    assert str(exc.value) == "at most 10 events fit one-digit symbols, got 11"


# ---------------------------------------------------------------------------
# periodic points from the integer laws against the Fraction composition
# ---------------------------------------------------------------------------


# periodic_point's three failures: a translation on event 0; two events on
# one interval, both doubling, so "01" repeats after one step; and a law
# whose fixed point 1/2 lies outside its event [0, 1/4]
SLIDE = custom_system("slide", [[box1(0, HALF)], [box1(HALF, 1)]],
                      [((1, F(1, 4)),), ((2, -1),)])
TWIN = custom_system("twin", [[box1(0, HALF)], [box1(0, HALF)]],
                     [((2, 0),), ((2, 0),)])
OFFSET = custom_system("offset", [[box1(0, F(1, 4))], [box1(F(1, 4), 1)]],
                       [((2, -HALF),), ((F(4, 3), F(-1, 3)),)])
ALL_SYSTEMS = [*RANDOM_WORD_SYSTEMS.values(), TRAP, SLIDE, TWIN, OFFSET]


@pytest.mark.parametrize("s, word, msg", [
    (SLIDE, "0", "branch composition is a translation; no fixed point"),
    (TWIN, "01", "period collapses to divisor 1; word is not primitive"),
    (OFFSET, "0", "no periodic point follows word 0 on offset"),
], ids=lambda v: v.kind if isinstance(v, ChaosSystem) else None)
def test_periodic_point_failures(s, word, msg):
    for find in (periodic_point, oracle_periodic_point):
        with pytest.raises(ConstructionError) as exc:
            find(s, word)
        assert str(exc.value) == msg


def test_periodic_point_rejects_the_empty_word():
    for find in (periodic_point, oracle_periodic_point):
        with pytest.raises(InputError) as exc:
            find(make_system("tent"), "")
        assert str(exc.value) == "word must be nonempty"


@pytest.mark.parametrize("s", ALL_SYSTEMS, ids=lambda s: s.kind)
def test_periodic_point_matches_fraction_oracle(s):
    # every field of the orbit, or the error's type and message
    for n in range(1, 7):
        for syms in product("0123456789"[:s.alphabet], repeat=n):
            word = "".join(syms)
            got = verdict(periodic_point, s, word)
            assert got == verdict(oracle_periodic_point, s, word), \
                (s.kind, word)
            if not isinstance(got, tuple):
                assert all(type(c) is F for c in got.point)


@pytest.mark.parametrize("s", ALL_SYSTEMS, ids=lambda s: s.kind)
def test_inverse_laws_match_fraction_inverses(s):
    # the kernel's inverse of a*x + b is 1/a * x - b/a in lowest terms,
    # its offset's numerator put over the axis's L
    t = s._table
    for br, inverse in zip(s.branches, t.inverses):
        for (a, b), got, L in zip(br.coeffs, inverse, t.dens):
            c, d = 1 / F(a), -F(b) / F(a)
            m = lcm(c.denominator, d.denominator)
            assert got == (c * m, d * m * L, m), (s.kind, a, b)
