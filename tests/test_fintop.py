"""Finite topological spaces: quotients, continuity, and the exhaustive
small-instance facts.

Spaces are stored as minimal open neighbourhoods; the oracles below restate
every operation by its open-set definition (enumerating the derived opens)
and are compared with the fast routines exhaustively on small spaces."""

import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fintop_oracle import (
    is_t0,
    oracle_decomposition_topology,
    oracle_is_topology,
    oracle_lemma7,
    oracle_prop5,
    oracle_quotient_relation,
    oracle_space_from_masks,
    oracle_sweep,
    oracle_topology_rows,
    oracle_union,
)
from primchaos import fintop
from primchaos.cli import main
from primchaos.errors import InputError
from primchaos.fintop import (
    FiniteMap,
    FiniteTopSpace,
    Partition,
    _quotient_relation,
    _subset_table,
    _union,
    all_maps,
    all_partitions,
    all_topologies,
    block_label,
    decomposition_topology,
    discrete_space,
    fiber_partition,
    finite_map,
    is_continuous,
    is_hausdorff,
    is_homeomorphism,
    is_t1,
    is_topology,
    named_space,
    partition,
    space,
    space_document,
    space_from_masks,
    subspace,
    sweep,
    verify_lemma7,
    verify_prop5,
)


def brute_force_topologies(n):
    return len(brute_force_families(n))


def brute_force_families(n):
    """Independent oracle: filter every family of subsets containing the
    empty set and the full set for closure under union and intersection."""
    full = (1 << n) - 1
    others = [m for m in range(1 << n) if m not in (0, full)]
    families = []
    for pick in range(1 << len(others)):
        fam = {0, full}
        for i, m in enumerate(others):
            if pick >> i & 1:
                fam.add(m)
        ok = True
        for a in fam:
            for b in fam:
                if a | b not in fam or a & b not in fam:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            families.append(frozenset(fam))
    return families


def oracle_continuous(f):
    """Every preimage of a codomain open is a domain open."""
    domain_opens = f.domain.opens
    for m in f.codomain.opens:
        pre = 0
        for i, (_, y) in enumerate(f.mapping):
            if m >> f.codomain.points.index(y) & 1:
                pre |= 1 << i
        if pre not in domain_opens:
            return False
    return True


def oracle_homeomorphism(f):
    if not (f.is_injective() and f.is_surjective()):
        return False
    back = finite_map(f.codomain, f.domain, {y: x for x, y in f.mapping})
    return oracle_continuous(f) and oracle_continuous(back)


def oracle_quotient_opens(X, blocks):
    """Block families whose union is open in X."""
    masks = [X.mask(b) for b in blocks]
    opens = X.opens
    return {c for c in range(1 << len(blocks))
            if sum(m for i, m in enumerate(masks) if c >> i & 1) in opens}


def oracle_subspace_opens(X, keep):
    """Traces of the opens on the kept points, in the kept points' order."""
    idx = [i for i, p in enumerate(X.points) if p in keep]
    return {sum(1 << k for k, i in enumerate(idx) if m >> i & 1)
            for m in X.opens}


def oracle_t0(X):
    n, opens = len(X.points), X.opens
    return all(any((m >> i & 1) != (m >> j & 1) for m in opens)
               for i in range(n) for j in range(i + 1, n))


def oracle_t1(X):
    n, opens = len(X.points), X.opens
    return all(any(m >> i & 1 and not m >> j & 1 for m in opens)
               for i in range(n) for j in range(n) if i != j)


def oracle_hausdorff(X):
    n, opens = len(X.points), X.opens
    return all(any(a >> i & 1 and b >> j & 1 and a & b == 0
                   for a in opens for b in opens)
               for i in range(n) for j in range(i + 1, n))


# ---------------------------------------------------------------------------
# is_topology
# ---------------------------------------------------------------------------


def test_is_topology_examples():
    assert is_topology("abc", [[], ["a"], ["a", "b"], ["a", "b", "c"]])
    assert not is_topology("abc", [[], ["a"], ["b"], ["a", "b", "c"]])
    power = [[p for i, p in enumerate("abcd") if m >> i & 1]
             for m in range(16)]
    assert is_topology("abcd", power)


def test_topology_enumeration_matches_brute_force():
    # the 4-point case independently confirms the count 355 used by the
    # exhaustive quotient suite
    for n in (1, 2, 3, 4):
        assert len(all_topologies("abcd"[:n])) == brute_force_topologies(n)


def test_topology_counts():
    assert len(all_topologies("a")) == 1
    assert len(all_topologies("ab")) == 4
    assert len(all_topologies("abc")) == 29
    assert len(all_topologies("abcd")) == 355
    assert len(all_topologies("abcde")) == 6942


def test_topology_enumeration_order_matches_full_scan():
    # the cap-submask search yields the same rows in the same order as the
    # search over every candidate row
    for n in range(6):
        spaces = all_topologies("abcde"[:n])
        assert [X.nbhds for X in spaces] == oracle_topology_rows(n)
        assert all(X.points == tuple("abcde"[:n]) for X in spaces)


@settings(max_examples=300)
@given(st.lists(st.integers(0, (1 << 12) - 1), max_size=12), st.data())
def test_union_matches_every_mask_scan(masks, data):
    select = data.draw(st.integers(0, (1 << len(masks)) - 1))
    assert _union(masks, select) == oracle_union(masks, select)


def test_partition_count_is_bell():
    assert len(all_partitions("ab")) == 2
    assert len(all_partitions("abcd")) == 15
    assert len(all_partitions("abcde")) == 52


def test_space_rejects_non_topology():
    with pytest.raises(InputError):
        space("abc", [[], ["a"], ["b"], ["a", "b", "c"]])
    with pytest.raises(InputError):
        space_from_masks("ab", [0, 1, 3, 7])  # 7 names a third point
    with pytest.raises(InputError):
        FiniteTopSpace(("a", "b"), (0b01, 0b01))  # b outside U_b
    with pytest.raises(InputError):
        FiniteTopSpace(("a", "b", "c"), (0b011, 0b110, 0b100))  # intransitive


def test_opens_view_matches_brute_force_families():
    for n in (1, 2, 3, 4):
        spaces = all_topologies("abcd"[:n])
        assert {X.opens for X in spaces} == set(brute_force_families(n))
        for X in spaces:
            assert space_from_masks(X.points, X.opens) == X


def outcome(build, *args):
    """The built space's points and rows, or the message of the input error
    the build raises."""
    try:
        X = build(*args)
    except InputError as exc:
        return str(exc)
    return X.points, X.nbhds


def assert_topology_check_matches_oracle(points, family):
    labels = [fintop._labels_of(points, m) for m in family]
    if all(m < 1 << len(points) for m in family):
        assert is_topology(points, labels) == \
            oracle_is_topology(points, labels), family
    got = outcome(space_from_masks, points, family)
    assert got == outcome(oracle_space_from_masks, points, family), family
    return got


def assert_quotient_relation_matches_oracle(X, D):
    # the first step read with `_union`, and from the sweep's subset tables
    want = oracle_quotient_relation(D.masks, X.nbhds, D.bits)
    assert decomposition_topology(X, D).nbhds == want
    ups, bits = _subset_table(X.nbhds), _subset_table(D.bits)
    assert _quotient_relation([bits[ups[bm]] for bm in D.masks]) == \
        oracle_quotient_relation(D.masks, ups, bits, list.__getitem__)


def test_preorder_decisions_match_pairwise_oracle_exhaustive_3pts():
    # every family of subsets of 0-3 points, and every quotient of the
    # topologies among them
    for n in range(4):
        points = "abc"[:n]
        masks = range(1 << n)
        for pick in range(1 << len(masks)):
            family = {m for m in masks if pick >> m & 1}
            assert_topology_check_matches_oracle(points, family)
            # a point past the last named, or a label given twice
            assert_topology_check_matches_oracle(points, family | {1 << n})
            assert outcome(space_from_masks, "a" * n, family) == \
                outcome(oracle_space_from_masks, "a" * n, family)
        for X in all_topologies(points):
            for blocks in all_partitions(points):
                assert_quotient_relation_matches_oracle(
                    X, Partition(X.points, blocks))


def pairwise_closure(family):
    family = set(family)
    while True:
        grown = family | {a | b for a in family for b in family} \
            | {a & b for a in family for b in family}
        if grown == family:
            return family
        family = grown


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([4, 5]), st.data())
def test_preorder_decisions_match_pairwise_oracle_4_5pts(n, data):
    # raw families, the topologies they generate, and those topologies with
    # one mask toggled (possibly one naming a point outside the space)
    points = "abcde"[:n]
    full = (1 << n) - 1
    family = set(data.draw(st.lists(st.integers(0, full), max_size=10)))
    if data.draw(st.booleans()):
        family = pairwise_closure(family | {0, full})
        if data.draw(st.booleans()):
            family ^= {data.draw(st.integers(0, 2 * full + 1))}
    got = assert_topology_check_matches_oracle(points, family)
    if not isinstance(got, str):
        X = FiniteTopSpace(*got)
        blocks = data.draw(st.sampled_from(all_partitions(points)))
        assert_quotient_relation_matches_oracle(X, Partition(X.points, blocks))


# ---------------------------------------------------------------------------
# decomposition topology
# ---------------------------------------------------------------------------


def test_decomposition_chain_example():
    X = named_space("chain3")
    D = partition(X, [["a", "b"], ["c"]])
    Q = decomposition_topology(X, D)
    # enumeration oracle over all 4 block families: opens are exactly
    # {}, {ab}, {ab, c}
    assert Q.open_label_sets() == [(), ("a,b",), ("a,b", "c")]


def test_decomposition_discrete_is_discrete():
    X = discrete_space("abcd")
    for blocks in all_partitions("abcd"):
        Q = decomposition_topology(X, partition(X, [list(b) for b in blocks]))
        assert len(Q.opens) == 1 << len(blocks)


def test_decomposition_by_singletons_isomorphic():
    # functoriality smoke check over every space on up to 5 points
    for n in range(1, 6):
        for X in all_topologies("abcde"[:n]):
            D = partition(X, [[p] for p in X.points])
            Q = decomposition_topology(X, D)
            h = finite_map(X, Q, {p: p for p in X.points})
            assert is_homeomorphism(h)


def test_sweep_report():
    rep = sweep("abc")
    assert rep.all_passed
    assert [c.witness for c in rep.checks] == [
        "145 of 145 (29 topologies x 5 partitions)", "29 of 29 spaces"]


def report_items(rep):
    return rep.instance, [(c.name, c.passed, c.witness) for c in rep.checks]


@pytest.mark.parametrize("points", ["", "a", "ab", "abc", "abcd", "dbca"])
def test_sweep_matches_oracle(points):
    assert report_items(sweep(points)) == report_items(oracle_sweep(points))


def test_sweep_validates_each_distinct_quotient_once(monkeypatch):
    pts = tuple("abcd")
    parts = [Partition(pts, blocks) for blocks in all_partitions(pts)]
    want = {(D.labels, oracle_decomposition_topology(X, D).nbhds)
            for X in all_topologies(pts) for D in parts}
    assert len(want) == 558
    seen = Counter()
    validate = FiniteTopSpace.__post_init__

    def recording(self):
        seen[self.points, self.nbhds] += 1
        validate(self)

    monkeypatch.setattr(FiniteTopSpace, "__post_init__", recording)
    assert sweep(pts).all_passed
    assert set(seen) == want
    # a singleton quotient is its topology: enumerated, and validated once
    # by the sweep, whose relation also decides the functoriality check
    assert all(n == (2 if labels == pts else 1)
               for (labels, _), n in seen.items()), seen


def test_sweep_reports_an_invalid_quotient_as_failed(monkeypatch, capsys):
    # with the closure step dropped, a first-step relation that is not
    # transitive fails validation: the check fails, and the CLI exits 1
    # (a failed check), not 2 (input rejected)
    monkeypatch.setattr(fintop, "_quotient_relation", tuple)

    def transitive(X, D):
        U = [oracle_union(D.bits, oracle_union(X.nbhds, bm)) for bm in D.masks]
        return all(oracle_union(U, u) == u for u in U)

    pts = tuple("abcd")
    parts = [Partition(pts, blocks) for blocks in all_partitions(pts)]
    n_valid = sum(transitive(X, D) for X in all_topologies(pts) for D in parts)
    assert 0 < n_valid < 5325
    rep = sweep(pts)
    assert [(c.name, c.passed, c.witness) for c in rep.checks] == [
        ("decomposition_topologies_valid", False,
         f"{n_valid} of 5325 (355 topologies x 15 partitions)"),
        ("singleton_decomposition_functorial", True, "355 of 355 spaces")]
    assert main(["fintop", "sweep"]) == 1
    out, err = capsys.readouterr()
    assert out.endswith("result: FAIL\n") and err == ""


def test_sweep_reports_an_invalid_singleton_quotient_as_failed(monkeypatch,
                                                                 capsys):
    # bit 0 in every row of every quotient: some relations stop being
    # preorders, the singleton ones among them, and some singleton ones
    # stay valid but differ from their space.  Both checks fail with the
    # oracle's counts, and the CLI exits 1, not 2
    closure = fintop._quotient_relation

    def with_bit0(reach):
        return tuple(r | 1 for r in closure(reach))

    def faulty_quotient(X, D):
        rel = oracle_quotient_relation(D.masks, X.nbhds, D.bits)
        try:
            return FiniteTopSpace(D.labels, tuple(r | 1 for r in rel))
        except InputError:
            return None

    pts = tuple("abcd")
    spaces = all_topologies(pts)
    parts = [Partition(pts, blocks) for blocks in all_partitions(pts)]
    n_valid = sum(faulty_quotient(X, D) is not None
                  for X in spaces for D in parts)
    singletons = Partition(pts, tuple((p,) for p in pts))
    quotients = [faulty_quotient(X, singletons) for X in spaces]
    n_funct = sum(Q is not None and
                  is_homeomorphism(finite_map(X, Q, {p: p for p in pts}))
                  for X, Q in zip(spaces, quotients))
    n_singleton_valid = sum(Q is not None for Q in quotients)
    assert (n_valid, n_funct) == (4561, 45)
    assert n_funct < n_singleton_valid < 355
    monkeypatch.setattr(fintop, "_quotient_relation", with_bit0)
    rep = sweep(pts)
    assert [(c.name, c.passed, c.witness) for c in rep.checks] == [
        ("decomposition_topologies_valid", False,
         f"{n_valid} of 5325 (355 topologies x 15 partitions)"),
        ("singleton_decomposition_functorial", False,
         f"{n_funct} of 355 spaces")]
    assert main(["fintop", "sweep"]) == 1
    out, err = capsys.readouterr()
    assert out.endswith("result: FAIL\n") and err == ""


def test_subset_table_matches_union():
    rng = random.Random(1901)
    for n in range(6):
        masks = [rng.randrange(1 << 6) for _ in range(n)]
        table = _subset_table(masks)
        assert table == [oracle_union(masks, s) for s in range(1 << n)]


def test_decomposition_always_topology_exhaustive_4pts():
    spaces = all_topologies("abcd")
    parts = all_partitions("abcd")
    assert len(spaces) == 355 and len(parts) == 15
    for X in spaces:
        for blocks in parts:
            # construction validates the quotient's neighbourhoods; the
            # opens must be the block families whose union is open, and the
            # space the one the label-based construction gives
            D = partition(X, [list(b) for b in blocks])
            Q = decomposition_topology(X, D)
            assert Q.points == tuple(block_label(b) for b in blocks)
            assert Q.opens == oracle_quotient_opens(X, blocks)
            assert Q == oracle_decomposition_topology(X, D)


def test_decomposition_matches_label_oracle_seeded_5pts():
    rng = random.Random(1705)
    spaces = all_topologies("ebdac")  # a point order other than sorted
    parts = all_partitions("ebdac")
    for _ in range(600):
        X = rng.choice(spaces)
        blocks = list(rng.choice(parts))
        rng.shuffle(blocks)
        D = partition(X, [rng.sample(b, len(b)) for b in blocks])
        assert decomposition_topology(X, D) == \
            oracle_decomposition_topology(X, D)


def test_partition_derived_fields_match_blocks():
    points = tuple("dbeca")
    for blocks in all_partitions("abcde"):
        D = Partition(points, blocks)
        assert D.masks == tuple(sum(1 << points.index(p) for p in b)
                                for b in blocks)
        assert D.bits == tuple(
            1 << next(k for k, b in enumerate(blocks) if p in b)
            for p in points)
        assert D.labels == tuple(block_label(b) for b in blocks)
        # derived fields take no part in equality or repr
        assert D == Partition(points, blocks)
        assert hash(D) == hash(Partition(points, blocks))
        assert repr(D) == f"Partition(points={points!r}, blocks={blocks!r})"


@pytest.mark.parametrize("points,blocks,message", [
    ("abc", (("a", "b"), (), ("c",)), "nonempty"),
    ("abc", (("a", "b"),), "exactly"),  # c in no block
    ("abc", (("a", "b"), ("b", "c")), "exactly"),  # b in two blocks
    ("abc", (("a", "b"), ("c", "z")), "exactly"),  # z is not a point
    ("aab", (("a",), ("b",)), "exactly"),  # a point label twice
    ("aab", (("a", "a"), ("b",)), "exactly"),
])
def test_partition_rejects_non_partitions(points, blocks, message):
    with pytest.raises(InputError, match=message):
        Partition(tuple(points), blocks)


# ---------------------------------------------------------------------------
# continuity / homeomorphism
# ---------------------------------------------------------------------------


def test_continuity_examples():
    X = named_space("chain3")
    assert is_continuous(finite_map(X, X, {p: p for p in "abc"}))
    two = discrete_space("pq")
    assert is_continuous(finite_map(X, two, {"a": "p", "b": "p", "c": "p"}))
    f = finite_map(X, two, {"a": "p", "b": "q", "c": "q"})
    assert not is_continuous(f)  # preimage of {q} is {b,c}, not open


@pytest.mark.parametrize("assignment", [
    {"a": "p"},  # misses b
    {"a": "p", "b": "q", "c": "q"},  # c is not a point of the domain
])
def test_finite_map_assigns_exactly_the_domain(assignment):
    with pytest.raises(InputError):
        finite_map(discrete_space("ab"), discrete_space("pq"), assignment)


def test_homeomorphism_examples():
    X = named_space("chain3")
    relabel = space("xyz", [[], ["x"], ["x", "y"], ["x", "y", "z"]])
    assert is_homeomorphism(finite_map(X, relabel,
                                       {"a": "x", "b": "y", "c": "z"}))
    d3 = discrete_space("abc")
    assert not is_homeomorphism(finite_map(d3, X, {p: p for p in "abc"}))
    assert not is_homeomorphism(finite_map(X, X, {p: "a" for p in "abc"}))


def test_continuity_and_homeomorphism_match_oracle_exhaustive_3pts():
    # every map between the 29 spaces on 3 points, and between those and
    # the 4 spaces on 2 points (where a bijection cannot exist)
    spaces = all_topologies("abc")
    small = all_topologies("ab")
    pairs = [(X, Y) for X in spaces for Y in spaces]
    pairs += [(X, Y) for X in spaces for Y in small]
    pairs += [(Y, X) for X in spaces for Y in small]
    n_maps = n_continuous = n_homeo = 0
    for X, Y in pairs:
        for f in all_maps(X, Y):
            n_maps += 1
            assert is_continuous(f) == oracle_continuous(f), f.mapping
            assert is_homeomorphism(f) == oracle_homeomorphism(f), f.mapping
            n_continuous += is_continuous(f)
            n_homeo += is_homeomorphism(f)
    assert n_maps == 29 * 29 * 27 + 29 * 4 * (8 + 9)
    assert 0 < n_homeo < n_continuous < n_maps


def test_separation_and_subspace_match_oracle_exhaustive_4pts():
    spaces = all_topologies("abcd")
    assert len(spaces) == 355
    for X in spaces:
        assert is_t0(X) == oracle_t0(X)
        assert is_t1(X) == oracle_t1(X)
        assert is_hausdorff(X) == oracle_hausdorff(X)
        for keep in range(16):
            labels = [p for i, p in enumerate(X.points) if keep >> i & 1]
            Y = subspace(X, labels)
            assert Y.points == tuple(labels)
            assert Y.opens == oracle_subspace_opens(X, labels)
    assert sum(map(is_t0, spaces)) == 219  # labelled posets on 4 points
    assert sum(map(is_t1, spaces)) == 1


def test_separation_detection():
    assert is_hausdorff(discrete_space("abc"))
    assert not is_hausdorff(named_space("chain3"))
    assert not is_hausdorff(named_space("sierpinski"))
    assert is_t0(named_space("sierpinski"))
    assert not is_t1(named_space("sierpinski"))
    assert is_t1(discrete_space("ab"))
    indiscrete = space_from_masks("ab", [0, 3])
    assert not is_t0(indiscrete)


def test_subspace_topology():
    X = named_space("chain3")
    Y = subspace(X, ["a", "c"])
    assert Y.points == ("a", "c")
    assert Y.open_label_sets() == [(), ("a",), ("a", "c")]


# ---------------------------------------------------------------------------
# verify_prop5: representative subspaces
# ---------------------------------------------------------------------------


def test_prop5_examples():
    X = discrete_space("abcd")
    D = partition(X, [["a", "b"], ["c", "d"]])
    assert verify_prop5(X, D, ["a", "c"]).holds
    assert verify_prop5(X, D, ["b", "d"]).holds  # choice independence
    chain = named_space("chain3")
    res = verify_prop5(chain, partition(chain, [["a"], ["b", "c"]]), ["a", "b"])
    assert res.holds and not res.hypothesis_met


def test_prop5_rejects_bad_reps():
    X = discrete_space("abcd")
    D = partition(X, [["a", "b"], ["c", "d"]])
    with pytest.raises(InputError):
        verify_prop5(X, D, ["a"])
    with pytest.raises(InputError):
        verify_prop5(X, D, ["a", "b"])


def test_prop5_exhaustive_discrete_up_to_4():
    # every discrete space, every partition, every representative choice
    for n in range(1, 5):
        labels = "abcdef"[:n]
        X = discrete_space(labels)
        for blocks in all_partitions(labels):
            D = partition(X, [list(b) for b in blocks])
            for reps in product(*blocks):
                assert verify_prop5(X, D, list(reps)).holds


def verdict(check, *args):
    """The check's result, or the type and message of the input error it
    raises."""
    try:
        return check(*args)
    except InputError as exc:
        return type(exc), str(exc)


def test_prop5_matches_subspace_oracle_exhaustive_4pts():
    # every topology on 1-4 points, every partition, every representative
    # choice, against the subspace and map `is_homeomorphism` decides
    n_cases = n_holds = 0
    for n in range(1, 5):
        points = "abcd"[:n]
        parts = [Partition(tuple(points), blocks)
                 for blocks in all_partitions(points)]
        for X in all_topologies(points):
            for D in parts:
                for reps in product(*D.blocks):
                    got = verify_prop5(X, D, reps)
                    assert got == oracle_prop5(X, D, reps), \
                        (X.nbhds, D.blocks, reps)
                    n_cases += 1
                    n_holds += got.holds
    assert n_cases == 14858
    assert 0 < n_holds < n_cases


@pytest.mark.parametrize("points,blocks,reps,message", [
    # a representative outside X is named before the partition's points
    ("abd", (("a", "b"), ("d",)), ["a", "d"], "unknown point 'd'"),
    ("bac", (("a",), ("b", "c")), ["a", "b"],
     "partition is over different points"),
])
def test_prop5_partition_over_other_points(points, blocks, reps, message):
    X = discrete_space("abc")
    D = Partition(tuple(points), blocks)
    assert verdict(verify_prop5, X, D, reps) == (InputError, message)
    assert verdict(oracle_prop5, X, D, reps) == (InputError, message)


def test_prop5_and_lemma7_decide_from_rows_only(monkeypatch):
    chain = named_space("chain3")
    d4 = discrete_space("abcd")
    prop5_cases = [
        (d4, partition(d4, [["a", "b"], ["c", "d"]]), ["b", "c"]),
        (chain, partition(chain, [["a", "c"], ["b"]]), ["c", "b"]),
        (chain, partition(chain, [["a"], ["b", "c"]]), ["a", "c"]),
    ]
    lemma7_cases = [
        finite_map(d4, chain, {"a": "a", "b": "b", "c": "c", "d": "c"}),
        finite_map(chain, named_space("sierpinski"),
                   {"a": "a", "b": "b", "c": "b"}),
        finite_map(chain, chain, {p: p for p in "abc"}),
    ]
    want = [oracle_prop5(*case) for case in prop5_cases] + \
        [oracle_lemma7(f) for f in lemma7_cases]
    assert {res.holds for res in want} == {True, False}

    def refuse(*args, **kwargs):
        raise AssertionError("built a subspace or a map")
    for name in ("subspace", "finite_map", "FiniteMap", "is_homeomorphism"):
        monkeypatch.setattr(fintop, name, refuse)
    assert [verify_prop5(*case) for case in prop5_cases] + \
        [verify_lemma7(f) for f in lemma7_cases] == want


# ---------------------------------------------------------------------------
# verify_lemma7: fiber quotients
# ---------------------------------------------------------------------------


def test_fiber_partition_examples():
    d4 = discrete_space("1234")
    d2 = discrete_space("xy")
    f = finite_map(d4, d2, {"1": "x", "2": "x", "3": "y", "4": "y"})
    assert fiber_partition(f).blocks == (("1", "2"), ("3", "4"))
    ident = finite_map(d2, d2, {"x": "x", "y": "y"})
    assert fiber_partition(ident).blocks == (("x",), ("y",))
    single = discrete_space("z")
    const = finite_map(d4, single, {p: "z" for p in "1234"})
    assert fiber_partition(const).blocks == (("1", "2", "3", "4"),)
    not_onto = finite_map(d2, d4, {"x": "1", "y": "2"})
    with pytest.raises(InputError):
        fiber_partition(not_onto)


def test_lemma7_examples():
    d4 = discrete_space("1234")
    d2 = discrete_space("xy")
    f = finite_map(d4, d2, {"1": "x", "2": "x", "3": "y", "4": "y"})
    assert verify_lemma7(f).holds
    X = named_space("chain3")
    res = verify_lemma7(finite_map(X, X, {p: p for p in "abc"}))
    assert res.holds and not res.hypothesis_met  # codomain not Hausdorff
    d3 = discrete_space("abc")
    assert verify_lemma7(finite_map(d3, d3,
                                    {"a": "b", "b": "c", "c": "a"})).holds


def test_lemma7_requires_continuous_surjection():
    X = named_space("chain3")
    two = discrete_space("pq")
    with pytest.raises(InputError):
        verify_lemma7(finite_map(X, two, {"a": "p", "b": "q", "c": "q"}))
    with pytest.raises(InputError):
        verify_lemma7(finite_map(two, two, {"p": "p", "q": "p"}))


def test_lemma7_exhaustive_small():
    # every continuous surjection from any 3-point space onto any discrete
    # codomain with at most 3 points
    for X in all_topologies("abc"):
        for m in (1, 2, 3):
            Y = discrete_space("xyz"[:m])
            for f in all_maps(X, Y):
                if f.is_surjective() and is_continuous(f):
                    assert verify_lemma7(f).holds


def test_lemma7_matches_quotient_map_oracle_exhaustive_3pts():
    # every map between topologies on 1-3 points, whatever the verdict or
    # error; on the domain points a, b and 'a,b' the fibers {a, b} and
    # {'a,b'} get the distinct labels 'a,b' and 'a\\,b'
    domains = [X for points in ("a", "ab", "abc", ("a", "b", "a,b"))
               for X in all_topologies(points)]
    codomains = [Y for points in ("x", "xy", "xyz")
                 for Y in all_topologies(points)]
    seen = Counter()
    for X in domains:
        for Y in codomains:
            for f in all_maps(X, Y):
                got = verdict(verify_lemma7, f)
                assert got == verdict(oracle_lemma7, f), f.mapping
                seen[got if isinstance(got, tuple) else got.holds] += 1
    assert sum(seen.values()) == 48536
    assert set(seen) == {
        True, False, (InputError, "map must be surjective"),
        (InputError, "map must be continuous")}


SPACES = {n: all_topologies("abcde"[:n]) for n in range(1, 6)}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([4, 5]), st.data())
def test_lemma7_matches_quotient_map_oracle_4_5pts(n, data):
    # a continuous surjection from a space on 4 or 5 points onto 1-4 points
    X = data.draw(st.sampled_from(SPACES[n]))
    m = data.draw(st.integers(1, 4))
    extra = data.draw(st.lists(st.integers(0, m - 1), min_size=n - m,
                               max_size=n - m))
    targets = data.draw(st.permutations(list(range(m)) + extra))

    def onto(Y):
        return FiniteMap(X, Y, tuple((x, Y.points[t])
                                     for x, t in zip(X.points, targets)))
    f = data.draw(st.sampled_from(
        [f for f in map(onto, SPACES[m]) if is_continuous(f)]))
    assert verify_lemma7(f) == oracle_lemma7(f)


# ---------------------------------------------------------------------------
# named spaces / serialization
# ---------------------------------------------------------------------------


def test_named_spaces():
    assert named_space("chain3").points == ("a", "b", "c")
    assert named_space("sierpinski").points == ("a", "b")
    assert len(named_space("discrete4").opens) == 16
    assert [len(named_space(f"discrete{n}").points)
            for n in range(1, 9)] == list(range(1, 9))
    with pytest.raises(InputError):
        named_space("nonsense")


@pytest.mark.parametrize("name", [
    "discrete", "discrete0", "discrete9", "discrete99", "discrete+4",
    "discrete04", "discrete 4", "discrete0_4", "discrete\u0664",
    "discrete4 ", "Discrete4",
])
def test_named_space_accepts_only_canonical_discrete_names(name):
    with pytest.raises(InputError, match="unknown space"):
        named_space(name)


def test_space_document_sorted():
    doc = space_document(named_space("chain3"))
    assert doc == {"points": ["a", "b", "c"],
                   "opens": [[], ["a"], ["a", "b"], ["a", "b", "c"]]}


def test_block_label():
    assert block_label(("b", "a")) == "a,b"


def test_block_labels_are_distinct_when_members_hold_commas():
    # {a, b} and {'a,b'} would both read 'a,b' unescaped
    X = discrete_space(("a", "b", "a,b"))
    D = partition(X, [["a", "b"], ["a,b"]])
    assert D.labels == ("a,b", "a\\,b")
    Q = decomposition_topology(X, D)
    assert Q.points == D.labels and len(Q.opens) == 4
    assert block_label(["\\", ","]) == "\\,,\\\\"
    assert block_label(["a\\", ",b"]) != block_label(["a\\,", "b"])
    # sweep finds the singleton partition on such labels too
    assert report_items(sweep(("a", "b", "a,b", "\\"))) == \
        report_items(sweep("abcd"))
