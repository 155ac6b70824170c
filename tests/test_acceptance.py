"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with `pytest tests/test_acceptance.py -s` to see one line per criterion.
Every tolerance and runtime bound is pinned here; there is no calibration
elsewhere.
"""

import random
from fractions import Fraction as F
from itertools import product
from math import factorial
from pathlib import Path
from time import perf_counter

from cli_cases import CASES
from primchaos.chaos import (
    make_system,
    periodic_point,
    realize_witness,
    sensitivity_check,
    transitivity_check,
    verify_dense_orbit,
)
from primchaos.embedding import (
    build_refinement,
    check_stage_invariants,
    make_model,
)
from primchaos.fintop import (
    all_partitions,
    all_topologies,
    continuous_maps,
    decomposition_topology,
    discrete_space,
    partition,
    verify_lemma7,
    verify_prop5,
)
from primchaos.geometry import (
    region_subset,
    regions_disjoint,
)
from primchaos.surject import (
    ClopenBlock,
    CantorMap,
    block_surjection,
    evaluate_map,
    verify_block_surjection,
    verify_cover_map,
    verify_waypoint_surjection,
    waypoint_map,
    waypoint_surjection,
)

GOLDEN_DIR = Path(__file__).parent / "goldens"


def report(num, ok, desc, elapsed, limit):
    flag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{flag}] {desc} — {elapsed:.1f}s (limit {limit}s)")


# ---------------------------------------------------------------------------
# 1. nested-construction suite on all three continuum models
# ---------------------------------------------------------------------------


def test_criterion_1_refinement_suite():
    limit, t0 = 10.0, perf_counter()
    failures = []
    for kind in ("interval", "square", "tripod"):
        tree = build_refinement(make_model(kind), 10)
        for k in range(11):
            if len(tree.level(k)) != 2 ** k:
                failures.append((kind, k, "leaf count"))
            rep = check_stage_invariants(tree, k)
            if not rep.all_passed:
                failures.append((kind, k, rep.to_document()))
        for a, cell in tree.cells.items():
            if len(a) < tree.depth:
                for j in "01":
                    if not region_subset(tree.cells[a + j].region, cell.region):
                        failures.append((kind, a + j, "nesting"))
    elapsed = perf_counter() - t0
    ok = not failures and elapsed < limit
    report(1, ok, "nested Cantor construction: disjointness, shrink, "
                  "perfectness, clopen trace (3 models, depth 10)",
           elapsed, limit)
    assert not failures, failures[:3]
    assert elapsed < limit


# ---------------------------------------------------------------------------
# 2. address-to-point injectivity
# ---------------------------------------------------------------------------


def test_criterion_2_cantor_point_injectivity():
    limit, t0 = 10.0, perf_counter()
    failures = []
    words = [format(i, "08b") for i in range(256)]
    for kind in ("interval", "square", "tripod"):
        tree = build_refinement(make_model(kind), 10)
        for i, u in enumerate(words):
            ru = tree.cells
            for v in words[i + 1:]:
                k = next(idx for idx in range(8) if u[idx] != v[idx])
                n = k + 2
                if not regions_disjoint(ru[u[:n]].region, ru[v[:n]].region):
                    failures.append((kind, u, v))
    elapsed = perf_counter() - t0
    ok = not failures and elapsed < limit
    report(2, ok, "address injectivity: depth-(k+2) enclosures disjoint, "
                  "all address pairs to depth 8", elapsed, limit)
    assert not failures, failures[:3]
    assert elapsed < limit


# ---------------------------------------------------------------------------
# 3. expansion surjections: covering and moduli
# ---------------------------------------------------------------------------


def test_criterion_3_expansion_instances():
    limit, t0 = 20.0, perf_counter()
    failures = []
    binary = CantorMap("binary_expansion")
    inter = CantorMap("interleave")
    if not verify_cover_map(binary, 16).all_passed:
        failures.append("binary depth-16 covering")
    if not verify_cover_map(inter, 12).all_passed:
        failures.append("interleave depth-12 covering")
    rng = random.Random(2718281828)
    for n in range(1, 21):
        for _ in range(1000):
            prefix = "".join(rng.choice("01") for _ in range(n))
            a = prefix + "".join(rng.choice("01") for _ in range(3))
            b = prefix + "".join(rng.choice("01") for _ in range(3))
            for f in (binary, inter):
                ea = evaluate_map(f, a).boxes[0]
                eb = evaluate_map(f, b).boxes[0]
                gap = max(max(abs(x - y) for x, y in zip(ea.lo, eb.lo)),
                          max(abs(x - y) for x, y in zip(ea.hi, eb.hi)))
                if gap > f.modulus(n):
                    failures.append((f.kind, n, a, b))
    elapsed = perf_counter() - t0
    ok = not failures and elapsed < limit
    report(3, ok, "expansion surjections: exact covering (2^16 / 4^6 cells) "
                  "and moduli on 1000 random pairs per depth <= 20",
           elapsed, limit)
    assert not failures, failures[:3]
    assert elapsed < limit


# ---------------------------------------------------------------------------
# 4. finite-topology exhaustive suite
# ---------------------------------------------------------------------------


def components(X):
    """The number of connected components of X's specialization preorder,
    points joined when one lies in the other's minimal neighbourhood."""
    root = list(range(len(X.points)))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i
    for i, u in enumerate(X.nbhds):
        for j in range(len(X.points)):
            if u >> j & 1:
                root[find(j)] = find(i)
    return len({find(i) for i in range(len(X.points))})


def stirling2(k, c):
    """The number of partitions of k items into c nonempty blocks."""
    if k == 0 or c == 0:
        return int(k == c)
    return c * stirling2(k - 1, c) + stirling2(k - 1, c - 1)


def test_criterion_4_finite_topology_exhaustive():
    limit, t0 = 60.0, perf_counter()
    failures = []
    # decomposition validity: all 355 topologies x all 15 partitions
    spaces4 = all_topologies("abcd")
    parts4 = all_partitions("abcd")
    if len(spaces4) != 355 or len(parts4) != 15:
        failures.append(("enumeration", len(spaces4), len(parts4)))
    for X in spaces4:
        for blocks in parts4:
            decomposition_topology(X, partition(X, [list(b) for b in blocks]))
    # representative subspaces: every discrete space to 6 points, every
    # partition, every representative choice
    for n in range(1, 7):
        labels = "abcdef"[:n]
        X = discrete_space(labels)
        for blocks in all_partitions(labels):
            D = partition(X, [list(b) for b in blocks])
            for reps in product(*blocks):
                res = verify_prop5(X, D, list(reps))
                if not (res.holds and res.hypothesis_met):
                    failures.append(("prop5", n, blocks, reps))
    # fiber quotients: every continuous surjection from every space on
    # <= 5 points onto every discrete space on <= 4 points, listed by
    # `continuous_maps`; a map onto a discrete space is continuous iff it is
    # constant on each connected component of the preorder, so a space with
    # k components has c! S(k, c) continuous surjections onto c points
    n_checked = n_expected = 0
    for m in range(1, 6):
        domain_spaces = all_topologies("abcde"[:m])
        for c in range(1, min(m, 4) + 1):
            Y = discrete_space("wxyz"[:c])
            for X in domain_spaces:
                n_expected += factorial(c) * stirling2(components(X), c)
                for f in continuous_maps(X, Y):
                    if not f.is_surjective():
                        continue
                    res = verify_lemma7(f)
                    n_checked += 1
                    if not (res.holds and res.hypothesis_met):
                        failures.append(("lemma7", X.points, f.targets))
    if n_checked != 17869 or n_checked != n_expected:
        failures.append(("lemma7 count", n_checked, n_expected))
    elapsed = perf_counter() - t0
    ok = not failures and elapsed < limit
    report(4, ok, f"finite topology: 355x15 quotients valid, representative "
                  f"subspaces exhaustive to 6 points, {n_checked} fiber "
                  f"quotients verified", elapsed, limit)
    assert not failures, failures[:3]
    assert elapsed < limit


# ---------------------------------------------------------------------------
# 5. block-constrained surjections
# ---------------------------------------------------------------------------


def _block_instances():
    c = ClopenBlock
    whole = c(("",))
    yield [c(("0",)), c(("1",))], [c(("1",)), c(("0",))]          # swap
    yield [c(("0",)), c(("1",))], [c(("0",)), c(("1",))]          # identity
    yield [c(("0",)), c(("1",))], [whole, whole]                  # onto each
    yield [c(("0",)), c(("10",)), c(("11",))], \
        [c(("10",)), c(("11",)), c(("0",))]                       # 3-cycle
    yield [c(("0",)), c(("10",)), c(("11",))], \
        [c(("0", "10")), c(("11",)), whole]                       # mixed arity
    yield [c(("00", "01")), c(("1",))], [c(("1",)), c(("0",))]    # merged src
    yield [c(("00", "11")), c(("01", "10"))], \
        [c(("0",)), c(("1",))]                                    # interleaved
    yield [c(("0",))], [c(("11",))]                               # padded
    yield [c(("00",))], [c(("1",))]                               # padded deep
    yield [c(("01", "10"))], [whole]                              # padded pair
    yield [c(("0",)), c(("11",))], [c(("10",)), c(("01",))]       # padded gap
    yield [c(("000",)), c(("111",))], \
        [c(("0", "10", "110")), c(("111",))]                      # staircase B
    yield [c(("0",)), c(("1",))], [c(("01",)), c(("01",))]        # same target


def test_criterion_5_block_surjections():
    limit, t0 = 10.0, perf_counter()
    failures = []
    n_instances = 0
    n_padded = 0
    for blocks_a, blocks_b in _block_instances():
        f = block_surjection(blocks_a, blocks_b)
        n_instances += 1
        if len(f.pairs) > len(blocks_a):
            n_padded += 1
        rep = verify_block_surjection(f, blocks_a, blocks_b, 10)
        if not rep.all_passed:
            failures.append((blocks_a, blocks_b, rep.to_document()))
    if n_instances < 12 or n_padded < 1:
        failures.append(("instance matrix too small", n_instances, n_padded))
    elapsed = perf_counter() - t0
    ok = not failures and elapsed < limit
    report(5, ok, f"block-constrained surjections: f(A_i) subset B_i exact "
                  f"and covering at depth-10 modulus, {n_instances} instances "
                  f"({n_padded} padded)", elapsed, limit)
    assert not failures, failures[:1]
    assert elapsed < limit


# ---------------------------------------------------------------------------
# 6. waypoint-constrained surjections
# ---------------------------------------------------------------------------


def _waypoint_instances():
    yield [(F(1, 2), (F(0),))], "interval"
    yield [(F(1, 4), (F(1),)), (F(3, 4), (F(1, 3),))], "interval"
    yield [(F(1, 8), (F(0),)), (F(1, 2), (F(1),)), (F(5, 6), (F(1, 2),))], \
        "interval"
    yield [(F(1, 2), (F(1, 2), F(1, 2)))], "square"
    yield [(F(1, 4), (F(0), F(0))), (F(3, 4), (F(1), F(1)))], "square"
    yield [(F(1, 6), (F(1), F(0))), (F(1, 2), (F(1, 3), F(2, 3))),
           (F(5, 6), (F(0), F(1)))], "square"
    yield [(F(1, 8), (F(1, 2), F(1, 2))), (F(3, 8), (F(0), F(1))),
           (F(5, 8), (F(1), F(0))), (F(7, 8), (F(1, 3), F(2, 3)))], "square"


def test_criterion_6_waypoint_surjections():
    limit, t0 = 10.0, perf_counter()
    failures = []
    n_instances = 0
    for points, target in _waypoint_instances():
        ws = waypoint_surjection(waypoint_map(points, target))
        n_instances += 1
        rep = verify_waypoint_surjection(ws, resolution=8)
        if not rep.all_passed:
            failures.append((points, target, rep.to_document()))
    if n_instances < 6:
        failures.append(("instance matrix too small", n_instances))
    elapsed = perf_counter() - t0
    ok = not failures and elapsed < limit
    report(6, ok, f"waypoint surjections: exact pins and sweep coverage at "
                  f"2^-8, {n_instances} instances (up to 4 waypoints)",
           elapsed, limit)
    assert not failures, failures[:1]
    assert elapsed < limit


# ---------------------------------------------------------------------------
# 7. witness realization, exhaustive
# ---------------------------------------------------------------------------


def test_criterion_7_property_p_exhaustive():
    limit, t0 = 60.0, perf_counter()
    failures = []
    for kind in ("shift_cantor", "doubling", "tent", "baker"):
        s = make_system(kind)
        enclosures = {"": s.space}
        for n in range(1, 13):
            for bits in product("01", repeat=n):
                word = "".join(bits)
                try:
                    res = realize_witness(s, word)
                except Exception as exc:  # must never fire
                    failures.append((kind, word, repr(exc)))
                    continue
                if n <= 10:
                    enclosures[word] = res.enclosure
                    if not region_subset(res.enclosure, enclosures[word[:-1]]):
                        failures.append((kind, word, "nesting"))
    elapsed = perf_counter() - t0
    ok = not failures and elapsed < limit
    report(7, ok, "witness realization for all words to length 12 on four "
                  "systems, with enclosure nesting to length 10",
           elapsed, limit)
    assert not failures, failures[:3]
    assert elapsed < limit


# ---------------------------------------------------------------------------
# 8. chaos-property certificates
# ---------------------------------------------------------------------------


def test_criterion_8_chaos_certificates():
    limit, t0 = 30.0, perf_counter()
    failures = []
    for kind in ("doubling", "tent"):
        s = make_system(kind)
        for n in range(1, 11):
            orb = periodic_point(s, "0" * (n - 1) + "1")
            if orb.prime_period != n:
                failures.append((kind, n, "prime period"))
    rep = verify_dense_orbit(make_system("doubling"), 3)
    if not rep.all_passed:
        failures.append(("dense orbit", rep.to_document()))
    for kind in ("doubling", "tent"):
        rep = sensitivity_check(make_system(kind), F(1, 2 ** 24), 100)
        if not rep.all_passed:
            failures.append((kind, "sensitivity", rep.to_document()))
    rep = transitivity_check(make_system("doubling"), 4)
    if not rep.all_passed:
        failures.append(("transitivity", rep.to_document()))
    elapsed = perf_counter() - t0
    ok = not failures and elapsed < limit
    report(8, ok, "chaos certificates: prime periods 1..10, depth-3 dense "
                  "orbit, sensitivity 1/4 at 2^-24 over 100 samples, "
                  "transitivity over 256 pairs", elapsed, limit)
    assert not failures, failures[:3]
    assert elapsed < limit


# ---------------------------------------------------------------------------
# 9. CLI determinism and exit-code contract
# ---------------------------------------------------------------------------


def test_criterion_9_cli_determinism(tmp_path, capsys, monkeypatch):
    import contextlib
    import io

    from primchaos.cli import main

    limit, t0 = 10.0, perf_counter()
    failures = []
    for name, argv, expect_code, has_doc in CASES:
        workdir = tmp_path / name
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code != expect_code:
            failures.append((name, "exit", code, expect_code))
        if out.getvalue() != (GOLDEN_DIR / f"{name}.out").read_text():
            failures.append((name, "stdout drift"))
        if err.getvalue() != (GOLDEN_DIR / f"{name}.err").read_text():
            failures.append((name, "stderr drift"))
        doc = workdir / "out.json"
        if has_doc:
            if not doc.exists() or doc.read_bytes() != \
                    (GOLDEN_DIR / f"{name}.doc.json").read_bytes():
                failures.append((name, "document drift"))
        elif doc.exists():
            failures.append((name, "unexpected document"))
    elapsed = perf_counter() - t0
    ok = not failures and elapsed < limit
    report(9, ok, f"CLI determinism: {len(CASES)} documented invocations "
                  f"byte-identical to goldens, exit codes 0/1/2 honored",
           elapsed, limit)
    assert not failures, failures[:3]
    assert elapsed < limit
