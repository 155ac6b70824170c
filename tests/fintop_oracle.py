"""The finite-topology kernels as they were before the search walked only
the submasks of the earlier rows' cap and partitions carried their block
masks, before the sweep validated each distinct quotient once, before
topologies and quotients were decided on the preorder alone, and before the
prop5 and lemma7 homeomorphisms were decided from neighbourhood rows: the
topology search tries every candidate row at every level and tests
transitivity against all chosen rows, `_union` visits every mask, the
decomposition topology finds each block's points by label on every call,
the sweep builds the quotient of every (topology, partition) pair, an
open-set family is a topology iff it holds {} and X and is closed under
pairwise union and intersection, the quotient kernel reads its first step
through a `union` selector, and the two verifiers build the subspace or the
quotient's map and ask `is_homeomorphism`.  And the two verifiers as they
were before they read the quotient's rows without building a space:
`oracle_prop5_space` through `decomposition_topology`, `oracle_lemma7_space`
through `fiber_partition` as well.  Tests compare the kernels against
these, output for output and in the same order.  And `is_t0` and
`subspace`, which left the library because only tests call them.  And maps as they were built before
a `FiniteMap` held only its target indices: from (x, f(x)) label pairs,
translated to indices by one `codomain.points.index` scan per point, and
enumerated by `oracle_all_maps` as the product of the codomain's labels."""

from itertools import product
from typing import Iterable, List, Sequence, Tuple

from primchaos.errors import InputError
from primchaos.fintop import (
    FiniteMap,
    FiniteTopSpace,
    HypothesisResult,
    Partition,
    _mask_of,
    _union,
    all_partitions,
    all_topologies,
    block_label,
    decomposition_topology,
    fiber_partition,
    finite_map,
    is_continuous,
    is_hausdorff,
    is_homeomorphism,
)
from primchaos.report import CheckReport


def is_t0(X: FiniteTopSpace) -> bool:
    """Two points are topologically indistinguishable iff U_x = U_y."""
    return len(set(X.nbhds)) == len(X.nbhds)


def subspace(X: FiniteTopSpace, subset: Sequence[str]) -> FiniteTopSpace:
    """Subspace topology on a subset of the points (order inherited): the
    neighbourhoods are U_x intersected with the subset."""
    keep = X.mask(subset)
    idx = [i for i in range(len(X.points)) if keep >> i & 1]
    nbhds = tuple(sum(1 << k for k, j in enumerate(idx)
                      if X.nbhds[i] >> j & 1) for i in idx)
    return FiniteTopSpace(tuple(X.points[i] for i in idx), nbhds)


def oracle_targets(domain: FiniteTopSpace, codomain: FiniteTopSpace,
                   mapping: Sequence[Tuple[str, str]]) -> Tuple[int, ...]:
    """The codomain index of each image of the (x, f(x)) pairs, which must
    cover every domain point once, in order."""
    sources, images = tuple(zip(*mapping)) or ((), ())
    if sources != domain.points:
        raise InputError("mapping must cover every domain point once, in order")
    try:
        return tuple(map(codomain.points.index, images))
    except ValueError:
        raise InputError("mapping hits a point outside the codomain") from None


def oracle_all_maps(domain: FiniteTopSpace,
                    codomain: FiniteTopSpace) -> List[FiniteMap]:
    """Every map, as each tuple of codomain labels in their product order
    zipped with the domain's points and translated by `oracle_targets`."""
    return [FiniteMap(domain, codomain, oracle_targets(
        domain, codomain, tuple(zip(domain.points, images))))
        for images in product(codomain.points, repeat=len(domain.points))]


def oracle_union(masks: Sequence[int], select: int) -> int:
    """OR of masks[i] over the set bits i of select."""
    out = 0
    for i, m in enumerate(masks):
        if select >> i & 1:
            out |= m
    return out


def oracle_opens(rows: Sequence[int]) -> frozenset:
    """The opens of the preorder with these rows, by their definition over
    every point subset: m is open iff U_x is inside m for every x in m."""
    return frozenset(m for m in range(1 << len(rows))
                     if oracle_union(rows, m) == m)


def oracle_topology_rows(n: int) -> List[Tuple[int, ...]]:
    """Every specialization preorder on n points, as its rows, depth first
    over all 2^n candidates per row."""
    rows: List[int] = []
    found: List[Tuple[int, ...]] = []

    def rec(i: int) -> None:
        if i == n:
            found.append(tuple(rows))
            return
        for extra in range(1 << n):
            if extra >> i & 1:
                continue  # bit i is forced on; skip duplicates
            new = extra | (1 << i)
            rows.append(new)
            if oracle_union(rows, new) == new and \
                    all(r | new == r for r in rows if r >> i & 1):
                rec(i + 1)
            rows.pop()

    rec(0)
    return found


def oracle_decomposition_topology(X: FiniteTopSpace,
                                  D: Partition) -> FiniteTopSpace:
    """Space of blocks: U_b is the transitive closure of the blocks that
    meet U_x for some x in b, with each block's mask found by label."""
    if D.points != X.points:
        raise InputError("partition is over different points")
    block_masks = [X.mask(b) for b in D.blocks]
    reach = []
    for bm in block_masks:
        up = oracle_union(X.nbhds, bm)
        reach.append(sum(1 << c for c, cm in enumerate(block_masks) if cm & up))
    for k in range(len(reach)):
        for a, ra in enumerate(reach):
            if ra >> k & 1:
                reach[a] = ra | reach[k]
    return FiniteTopSpace(tuple(block_label(b) for b in D.blocks), tuple(reach))


def oracle_sweep(points: Sequence[str]) -> CheckReport:
    """`fintop.sweep` building and validating every pair's quotient, by
    `oracle_decomposition_topology`."""
    spaces = all_topologies(points)
    pts = tuple(points)
    parts = [Partition(pts, blocks) for blocks in all_partitions(pts)]
    singletons = Partition(pts, tuple((p,) for p in pts))
    n_valid = n_funct = 0
    for X in spaces:
        for D in parts:
            # construction validates the quotient's neighbourhoods
            oracle_decomposition_topology(X, D)
            n_valid += 1
        Q = oracle_decomposition_topology(X, singletons)
        n_funct += is_homeomorphism(finite_map(X, Q, {p: p for p in pts}))
    rep = CheckReport(f"fintop sweep on {len(points)} labelled points")
    rep.add("decomposition_topologies_valid",
            n_valid == len(spaces) * len(parts),
            f"{n_valid} of {len(spaces) * len(parts)} "
            f"({len(spaces)} topologies x {len(parts)} partitions)")
    rep.add("singleton_decomposition_functorial",
            n_funct == len(spaces),
            f"{n_funct} of {len(spaces)} spaces")
    return rep


def oracle_is_topology(points: Sequence[str],
                       family: Iterable[Iterable[str]]) -> bool:
    """True iff the family contains {} and X and is closed under pairwise
    union and intersection (sufficient in the finite case)."""
    masks = {_mask_of(points, s) for s in family}
    return oracle_masks_form_topology(masks, (1 << len(points)) - 1)


def oracle_masks_form_topology(masks, full: int) -> bool:
    if not masks or min(masks) != 0 or max(masks) != full:
        return False
    ms = list(masks)
    for i, a in enumerate(ms):
        for b in ms[i:]:
            if a | b not in masks or a & b not in masks:
                return False
    return True


def oracle_space_from_masks(points: Sequence[str],
                            masks: Iterable[int]) -> FiniteTopSpace:
    """Space from an explicit open-set family, rejected unless it is a
    topology.  The opens are closed under intersection, so U_x is the
    smallest open containing x."""
    pts = tuple(points)
    opens = set(masks)
    if not oracle_masks_form_topology(opens, (1 << len(pts)) - 1):
        raise InputError("open-set family is not a topology")
    return FiniteTopSpace(pts, tuple(
        min((m for m in opens if m >> i & 1), key=int.bit_count)
        for i in range(len(pts))))


def oracle_quotient_relation(masks: Sequence[int], ups: Sequence[int],
                             bits: Sequence[int],
                             union=_union) -> Tuple[int, ...]:
    """The quotient's neighbourhoods U_b, one per block mask b: first the
    blocks that meet U_x for some x in b, then the transitive closure of
    that relation.  union(table, s) is the OR of the per-point masks over
    the point subset s, of the U_x (ups) or of the block bits (bits):
    `_union` on the masks, or `list.__getitem__` on their `_subset_table`s."""
    reach = [union(bits, union(ups, bm)) for bm in masks]
    for k in range(len(reach)):
        for a, ra in enumerate(reach):
            if ra >> k & 1:
                reach[a] = ra | reach[k]
    return tuple(reach)


def oracle_prop5(X: FiniteTopSpace, D: Partition,
                 reps: Sequence[str]) -> HypothesisResult:
    """`fintop.verify_prop5` building the representatives' subspace and the
    map representative -> block, and asking `is_homeomorphism`."""
    if len(reps) != len(D.blocks):
        raise InputError("need exactly one representative per block")
    for r, b in zip(reps, D.blocks):
        if r not in b:
            raise InputError(f"representative {r!r} not in its block {b}")
    hausdorff = is_hausdorff(X)
    Y = subspace(X, list(reps))
    quot = decomposition_topology(X, D)
    h = finite_map(Y, quot, dict(zip(reps, D.labels)))
    ok = is_homeomorphism(h)
    detail = "X is discrete (finite Hausdorff)" if hausdorff else \
        "hypothesis unmet: X is not Hausdorff; result informational"
    return HypothesisResult(ok, hausdorff, detail)


def oracle_lemma7(f: FiniteMap) -> HypothesisResult:
    """`fintop.verify_lemma7` building the map fiber -> y on the fiber
    quotient and asking `is_homeomorphism`."""
    if not f.is_surjective():
        raise InputError("map must be surjective")
    if not is_continuous(f):
        raise InputError("map must be continuous")
    hausdorff = is_hausdorff(f.codomain)
    D = fiber_partition(f)
    quot = decomposition_topology(f.domain, D)
    h = finite_map(quot, f.codomain, dict(zip(D.labels, f.codomain.points)))
    ok = is_homeomorphism(h)
    detail = "codomain is discrete (finite Hausdorff)" if hausdorff else \
        "hypothesis unmet: codomain is not Hausdorff; result informational"
    return HypothesisResult(ok, hausdorff, detail)


def oracle_prop5_space(X: FiniteTopSpace, D: Partition,
                       reps: Sequence[str]) -> HypothesisResult:
    """`fintop.verify_prop5` comparing the representatives' rows with those
    of the validated space `decomposition_topology` builds."""
    if len(reps) != len(D.blocks):
        raise InputError("need exactly one representative per block")
    for r, b in zip(reps, D.blocks):
        if r not in b:
            raise InputError(f"representative {r!r} not in its block {b}")
    hausdorff = is_hausdorff(X)
    kept = X.mask(reps)
    quot = decomposition_topology(X, D)
    ok = all(_union(D.bits, X.nbhds[X.points.index(r)] & kept) == u
             for r, u in zip(reps, quot.nbhds))
    detail = "X is discrete (finite Hausdorff)" if hausdorff else \
        "hypothesis unmet: X is not Hausdorff; result informational"
    return HypothesisResult(ok, hausdorff, detail)


def oracle_lemma7_space(f: FiniteMap) -> HypothesisResult:
    """`fintop.verify_lemma7` comparing the codomain's rows with those of
    the validated decomposition space of the validated `fiber_partition`."""
    if not f.is_surjective():
        raise InputError("map must be surjective")
    if not is_continuous(f):
        raise InputError("map must be continuous")
    hausdorff = is_hausdorff(f.codomain)
    quot = decomposition_topology(f.domain, fiber_partition(f))
    ok = quot.nbhds == f.codomain.nbhds
    detail = "codomain is discrete (finite Hausdorff)" if hausdorff else \
        "hypothesis unmet: codomain is not Hausdorff; result informational"
    return HypothesisResult(ok, hausdorff, detail)
