"""Exact finite topological spaces: decomposition (quotient) topologies,
continuity and homeomorphism decision, and the coarse-graining facts that
hold on finite substrates.

Subsets are bitmasks over an ordered point tuple.  A space is stored as the
minimal open neighbourhood U_x of each point x (the intersection of every
open containing x), one mask per point.  The U_x are the rows of the
specialization preorder, which corresponds to the topology one-to-one
(Alexandroff 1937), so every check below works on them directly: f is
continuous iff f(U_x) is inside U_{f(x)} for every x, and a quotient's
neighbourhoods are the transitive closure of the block relation.  The family
of open sets is only derived: it is the values of `_subset_table` on the
rows, every union of rows, since an open is the union of the rows of its
points and a union of rows is up-closed.  A given family is accepted iff it
equals the opens of the preorder its masks give.  Enumeration picks the rows
in turn, each among the submasks of the cap of the earlier rows through its
point: 355 topologies on 4 labelled points, 6942 on 5.  Every relation the
search keeps is a preorder, so its spaces skip the constructor's validation.
`continuous_maps` picks each point's target the same way, among the codomain
points the earlier targets allow, so it visits only continuous maps; it and
`all_maps` build each map they list without re-validating its targets.
`sweep` computes the quotient relation of every (topology, partition) pair,
reading its first step from per-space and per-partition subset tables, and
tests each distinct relation once per partition with `_is_preorder`, the
constructor's test, reporting an invalid one as a failed check; other
quotients keep `_union`, for which building the tables costs more.  A
bijection is a homeomorphism iff it maps each U_x onto U_{f(x)}, so `sweep`
(functoriality), `verify_prop5` and `verify_lemma7` compare a quotient's
rows with a given space's and build no map.  The two verifiers build no
quotient space either: `verify_lemma7` reads its fiber quotient's rows from
the map's targets, with no partition, and the transitive closure of a
reflexive relation needs no validation.

A finite space is Hausdorff iff it is discrete, so the compact-Hausdorff
hypotheses of the representative-subspace and fiber-quotient facts
degenerate here.  Rather than refusing non-Hausdorff inputs, verification
routines run anyway and flag the unmet hypothesis: boundary instances are
test assets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from operator import and_
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import InputError
from .report import CheckReport

# ---------------------------------------------------------------------------
# Core types
# ---------------------------------------------------------------------------


def _mask_of(points: Sequence[str], subset: Iterable[str]) -> int:
    index = {p: i for i, p in enumerate(points)}
    mask = 0
    try:
        for label in subset:
            mask |= 1 << index[label]
    except KeyError as exc:
        raise InputError(f"unknown point {exc.args[0]!r}") from None
    except TypeError:  # not iterable, or an unhashable label
        raise InputError(f"not a set of point labels: {subset!r}") from None
    return mask


def _point_tuple(points: Sequence[str]) -> Tuple[str, ...]:
    """The labels as a tuple; a string is a sequence of one-character
    labels."""
    if not isinstance(points, (str, list, tuple)):
        raise InputError(f"points must be a sequence of labels: {points!r}")
    return tuple(points)


def _distinct(points: Tuple[str, ...]) -> Tuple[str, ...]:
    """The labels, unless one is not a string or one is given twice."""
    if not all(isinstance(p, str) for p in points):
        raise InputError(f"point labels must be strings: {points!r}")
    if len(set(points)) != len(points):
        raise InputError("duplicate point labels")
    return points


def _family_masks(points: Tuple[str, ...],
                  family: Iterable[Iterable[str]]) -> set:
    try:
        return {_mask_of(points, s) for s in family}
    except TypeError:  # the family is not iterable
        raise InputError(f"not a family of label sets: {family!r}") from None


def _labels_of(points: Sequence[str], mask: int) -> Tuple[str, ...]:
    return tuple(p for i, p in enumerate(points) if mask >> i & 1)


def _union(masks: Sequence[int], select: int) -> int:
    """OR of masks[i] over the set bits i of select."""
    out = 0
    while select:
        low = select & -select
        out |= masks[low.bit_length() - 1]
        select ^= low
    return out


def _subset_table(masks: Sequence[int]) -> List[int]:
    """`_union(masks, s)` for every subset s, indexed by s: each mask
    doubles the table, its bit set in the new upper half."""
    table = [0]
    for m in masks:
        table += [t | m for t in table]
    return table


def _opens(rows: Sequence[int]) -> frozenset:
    """The opens of the preorder with these rows, the unions of rows: an
    open is the union of the rows of its points, and a union of rows is
    up-closed."""
    return frozenset(_subset_table(rows))


def _is_preorder(rows: Sequence[int]) -> bool:
    """True iff each row is an int mask inside the point set, nonzero, that
    holds its own point and the rows of its points: a reflexive and
    transitive relation."""
    n = len(rows)
    return all(type(u) is int and 0 < u < 1 << n and u >> i & 1
               and _union(rows, u) == u for i, u in enumerate(rows))


def _topology_rows(n: int, family: set) -> Optional[Tuple[int, ...]]:
    """Row x the AND of the masks that hold x (all n points if none do), or
    None unless the family is exactly those rows' opens: a topology."""
    rows = tuple(reduce(and_, (m for m in family if m >> x & 1), (1 << n) - 1)
                 for x in range(n))
    return rows if family == _opens(rows) else None


def is_topology(points: Sequence[str], family: Iterable[Iterable[str]]) -> bool:
    """True iff the family equals the opens of the preorder it gives."""
    pts = _point_tuple(points)
    return _topology_rows(len(pts), _family_masks(pts, family)) is not None


@dataclass(frozen=True)
class FiniteTopSpace:
    """Finite point set with the minimal open neighbourhood of each point:
    bit j of nbhds[i] is set iff every open containing point i contains
    point j."""

    points: Tuple[str, ...]
    nbhds: Tuple[int, ...]

    def __post_init__(self):
        if not (isinstance(self.points, tuple)
                and isinstance(self.nbhds, tuple)):
            raise InputError("a space takes a tuple of labels and a tuple "
                             "of neighbourhood masks")
        _distinct(self.points)
        if len(self.nbhds) != len(self.points) or \
                not _is_preorder(self.nbhds):
            raise InputError("neighbourhood masks are not a preorder")

    @classmethod
    def _trusted(cls, points: Tuple[str, ...],
                 nbhds: Tuple[int, ...]) -> "FiniteTopSpace":
        """A space from distinct labels and rows already known to be a
        preorder, without `__post_init__`'s validation."""
        X = cls.__new__(cls)
        object.__setattr__(X, "points", points)
        object.__setattr__(X, "nbhds", nbhds)
        return X

    @property
    def opens(self) -> frozenset:
        """Open sets as masks, derived from the rows by `_opens`."""
        return _opens(self.nbhds)

    def open_label_sets(self) -> List[Tuple[str, ...]]:
        """Opens as label tuples, sorted by size then lexicographically."""
        return sorted((_labels_of(self.points, m) for m in self.opens),
                      key=lambda ls: (len(ls), ls))

    def mask(self, subset: Iterable[str]) -> int:
        return _mask_of(self.points, subset)


def space(points: Sequence[str], family: Iterable[Iterable[str]]) -> FiniteTopSpace:
    pts = _point_tuple(points)
    return space_from_masks(pts, _family_masks(pts, family))


def space_from_masks(points: Sequence[str], masks: Iterable[int]) -> FiniteTopSpace:
    """Space from an explicit open-set family, rejected unless it equals
    the opens of the preorder it gives."""
    pts = _point_tuple(points)
    try:
        rows = _topology_rows(len(pts), set(masks))
    except TypeError:  # not iterable, or a mask that is not an int
        raise InputError(f"not a family of int masks: {masks!r}") from None
    if rows is None:
        raise InputError("open-set family is not a topology")
    return FiniteTopSpace(pts, rows)


def discrete_space(points: Sequence[str]) -> FiniteTopSpace:
    pts = _point_tuple(points)
    return FiniteTopSpace(pts, tuple(1 << i for i in range(len(pts))))


def is_hausdorff(X: FiniteTopSpace) -> bool:
    """Some open holds x but not y iff y is outside U_x, so T1 means every
    U_x is {x}: finite T1 spaces, and hence finite Hausdorff spaces, are
    exactly the discrete ones."""
    return all(u == 1 << i for i, u in enumerate(X.nbhds))


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty blocks covering a space's points; masks holds each
    block's point mask, bits each point's block bit (1 << its block's
    index) and labels each block's label."""

    points: Tuple[str, ...]
    blocks: Tuple[Tuple[str, ...], ...]
    masks: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    bits: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    labels: Tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (isinstance(self.blocks, tuple)
                and all(isinstance(b, tuple) for b in self.blocks)):
            raise InputError("partition blocks must be a tuple of tuples")
        if not all(self.blocks):
            raise InputError("partition blocks must be nonempty")
        index = {p: i for i, p in enumerate(self.points)}
        bits = [0] * len(self.points)
        masks = []
        for k, b in enumerate(self.blocks):
            mask = 0
            for p in b:
                i = index.get(p) if isinstance(p, str) else None
                if i is None or bits[i]:
                    raise InputError("blocks must partition the points exactly")
                bits[i] = 1 << k
                mask |= 1 << i
            masks.append(mask)
        if not all(bits):  # a point in no block, or a label given twice
            raise InputError("blocks must partition the points exactly")
        object.__setattr__(self, "masks", tuple(masks))
        object.__setattr__(self, "bits", tuple(bits))
        object.__setattr__(self, "labels", tuple(map(block_label, self.blocks)))


def partition(X: FiniteTopSpace, blocks: Iterable[Iterable[str]]) -> Partition:
    try:
        table = tuple(tuple(b) for b in blocks)
    except TypeError:  # the blocks, or a block, not iterable
        raise InputError(f"not a list of blocks: {blocks!r}") from None
    return Partition(X.points, table)


def block_label(block: Sequence[str]) -> str:
    """Sorted members joined by commas, each member's `\\` and `,` escaped."""
    return ",".join(sorted([p.replace("\\", "\\\\").replace(",", "\\,")
                            for p in block]))


@dataclass(frozen=True)
class FiniteMap:
    """Total map between finite spaces: targets holds the codomain index of
    each domain point's image, one int per domain point, in domain order."""

    domain: FiniteTopSpace
    codomain: FiniteTopSpace
    targets: Tuple[int, ...]

    def __post_init__(self):
        t, m = self.targets, len(self.codomain.points)
        if not (isinstance(t, tuple) and len(t) == len(self.domain.points)
                and all(type(k) is int and 0 <= k < m for k in t)):
            raise InputError("targets must be one codomain index per point")

    @classmethod
    def _trusted(cls, domain: FiniteTopSpace, codomain: FiniteTopSpace,
                 targets: Tuple[int, ...]) -> "FiniteMap":
        """A map from a tuple of codomain indices already known to hold one
        per domain point, without `__post_init__`'s validation."""
        f = cls.__new__(cls)
        object.__setattr__(f, "domain", domain)
        object.__setattr__(f, "codomain", codomain)
        object.__setattr__(f, "targets", targets)
        return f

    def is_surjective(self) -> bool:
        return len(set(self.targets)) == len(self.codomain.points)

    def is_injective(self) -> bool:
        return len(set(self.targets)) == len(self.targets)


def finite_map(domain: FiniteTopSpace, codomain: FiniteTopSpace,
               assignment: Dict[str, str]) -> FiniteMap:
    if not isinstance(assignment, dict):
        raise InputError("an assignment is a dict from domain labels to "
                         "codomain labels")
    try:
        images = [assignment[p] for p in domain.points]
    except KeyError as exc:
        raise InputError(f"assignment misses domain point {exc.args[0]!r}") from exc
    if len(assignment) != len(domain.points):
        extra = sorted(set(assignment) - set(domain.points))
        raise InputError(f"assignment names points not in the domain: {extra}")
    index = {y: k for k, y in enumerate(codomain.points)}
    try:
        targets = tuple([index[y] for y in images])
    except (KeyError, TypeError):  # an unknown or unhashable label
        raise InputError("mapping hits a point outside the codomain") from None
    return FiniteMap(domain, codomain, targets)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def decomposition_topology(X: FiniteTopSpace, D: Partition) -> FiniteTopSpace:
    """Space of blocks; a block family is open iff its union is open in X.

    So U_b holds every block reachable from b, where b reaches each block
    that meets U_x for some x in b: the transitive closure of that relation.
    Block points are labelled by `block_label`.
    """
    return FiniteTopSpace(D.labels, _quotient_rows(X, D))


def _quotient_rows(X: FiniteTopSpace, D: Partition) -> Tuple[int, ...]:
    """The decomposition space's neighbourhoods U_b, in block order."""
    if D.points != X.points:
        raise InputError("partition is over different points")
    return _quotient_relation(
        [_union(D.bits, _union(X.nbhds, bm)) for bm in D.masks])


def _quotient_relation(reach: List[int]) -> Tuple[int, ...]:
    """The quotient's neighbourhoods U_b from its first step, reach[b] the
    block bits of the blocks that meet U_x for some x in block b: the
    transitive closure of that relation, closed in place."""
    for k in range(len(reach)):
        for a, ra in enumerate(reach):
            if ra >> k & 1:
                reach[a] = ra | reach[k]
    return tuple(reach)


def is_continuous(f: FiniteMap) -> bool:
    """True iff f(U_x) lies inside U_{f(x)} for every domain point x."""
    V, t = f.codomain.nbhds, f.targets
    for u, k in zip(f.domain.nbhds, t):
        v, j = V[k], 0
        while u:  # walk the points j of U_x
            if u & 1 and not v >> t[j] & 1:
                return False
            u >>= 1
            j += 1
    return True


def is_homeomorphism(f: FiniteMap) -> bool:
    """True iff f is a bijection with f(U_x) = U_{f(x)} for every x.  An
    injective continuous f has f(U_x) inside U_{f(x)} and of the same size
    as U_x, so the two are equal iff U_x and U_{f(x)} have equal sizes."""
    V = f.codomain.nbhds
    return (f.is_injective() and f.is_surjective() and is_continuous(f)
            and all(u.bit_count() == V[k].bit_count()
                    for u, k in zip(f.domain.nbhds, f.targets)))


def fiber_partition(f: FiniteMap) -> Partition:
    """Partition of the domain into preimages of codomain points."""
    if not f.is_surjective():
        raise InputError("fiber partitions are defined for surjections")
    return Partition(f.domain.points, tuple(
        tuple(x for x, t in zip(f.domain.points, f.targets) if t == k)
        for k in range(len(f.codomain.points))))


@dataclass(frozen=True)
class HypothesisResult:
    """Outcome of a verification that also records whether the stated
    hypotheses were actually met (informational when they were not)."""

    holds: bool
    hypothesis_met: bool
    detail: str

    def __bool__(self) -> bool:
        return self.holds


def verify_prop5(X: FiniteTopSpace, D: Partition,
                 reps: Sequence[str]) -> HypothesisResult:
    """Check that the representative-point subspace is homeomorphic to the
    decomposition space via representative -> block.

    Hypothesis: X compact Hausdorff (compactness is automatic here, and a
    finite Hausdorff space is discrete).  With the hypothesis met this must
    always hold, for every choice of representatives.  The map is a
    bijection, so a homeomorphism iff for each representative r of block k
    the blocks of the representatives in U_r make up the quotient's row k.
    The quotient's rows come from `_quotient_rows`, which
    `decomposition_topology` also reads, and no space is built from them.
    """
    if not isinstance(reps, (str, list, tuple)):
        raise InputError(f"representatives must be a sequence: {reps!r}")
    if len(reps) != len(D.blocks):
        raise InputError("need exactly one representative per block")
    for r, b in zip(reps, D.blocks):
        if r not in b:
            raise InputError(f"representative {r!r} not in its block {b}")
    hausdorff = is_hausdorff(X)
    kept = X.mask(reps)
    ok = all(_union(D.bits, X.nbhds[X.points.index(r)] & kept) == u
             for r, u in zip(reps, _quotient_rows(X, D)))
    detail = "X is discrete (finite Hausdorff)" if hausdorff else \
        "hypothesis unmet: X is not Hausdorff; result informational"
    return HypothesisResult(ok, hausdorff, detail)


def verify_lemma7(f: FiniteMap) -> HypothesisResult:
    """Check that the decomposition space of the domain by the fibers of a
    continuous surjection is homeomorphic to the codomain via fiber -> y.

    Hypothesis: domain compact (automatic) and codomain Hausdorff.  Fiber
    k is the preimage of codomain point k, so the map fiber -> y is the
    identity on indices, and a homeomorphism iff the quotient's rows equal
    the codomain's.  Those rows are read from `f.targets` alone: the first
    step of fiber k is the OR over the x with f(x) = k of the fibers that
    meet U_x, i.e. `_union` of the bits 1 << f(x') over U_x, then the
    transitive closure.  No partition or space is built: a surjection's
    fibers partition the domain, and the closure of a reflexive relation is
    a preorder, so neither validation could fail.
    """
    if not f.is_surjective():
        raise InputError("map must be surjective")
    if not is_continuous(f):
        raise InputError("map must be continuous")
    hausdorff = is_hausdorff(f.codomain)
    bits = [1 << k for k in f.targets]
    reach = [0] * len(f.codomain.points)
    for k, u in zip(f.targets, f.domain.nbhds):
        reach[k] |= _union(bits, u)
    ok = _quotient_relation(reach) == f.codomain.nbhds
    detail = "codomain is discrete (finite Hausdorff)" if hausdorff else \
        "hypothesis unmet: codomain is not Hausdorff; result informational"
    return HypothesisResult(ok, hausdorff, detail)


# ---------------------------------------------------------------------------
# Enumeration (exhaustive suites)
# ---------------------------------------------------------------------------


def all_topologies(points: Sequence[str]) -> List[FiniteTopSpace]:
    """Every topology on the given labelled points, via specialization
    preorders.

    A finite topology corresponds one-to-one with a reflexive transitive
    relation, whose row i is the minimal open neighbourhood of point i.
    Rows are chosen depth first.  Row i must lie inside the cap, the AND of
    the earlier rows that hold point i, so its candidates are the submasks
    of the cap that hold bit i, tried in increasing order; a candidate is
    kept iff it contains the earlier rows of its own points.  The search
    stays far below the 2^(n^2-n) naive bound (355 topologies on 4 points,
    6942 on 5).  Every relation it keeps is a preorder, so each space is
    built by `FiniteTopSpace._trusted`, without re-validating its rows.
    """
    pts = _distinct(_point_tuple(points))
    n = len(pts)
    rows: List[int] = []
    found: List[Tuple[int, ...]] = []

    def rec(i: int) -> None:
        if i == n:
            found.append(tuple(rows))
            return
        bit = 1 << i
        cap = (1 << n) - 1
        for r in rows:
            if r & bit:
                cap &= r
        rest, sub = cap ^ bit, 0
        while True:  # the submasks of rest, in increasing order
            new = sub | bit
            if _union(rows, new & (bit - 1)) | new == new:
                rows.append(new)
                rec(i + 1)
                rows.pop()
            if sub == rest:
                break
            sub = (sub - rest) & rest

    rec(0)
    return [FiniteTopSpace._trusted(pts, relation) for relation in found]


def all_partitions(items: Sequence[str]) -> List[Tuple[Tuple[str, ...], ...]]:
    """All set partitions; blocks keep first-occurrence element order."""
    items = list(_point_tuple(items))
    if not items:
        return [()]
    head, rest = items[0], items[1:]
    out = []
    for sub in all_partitions(rest):
        out.append(((head,),) + sub)
        for i in range(len(sub)):
            grown = sub[:i] + ((head,) + sub[i],) + sub[i + 1:]
            out.append(grown)
    return out


def all_maps(domain: FiniteTopSpace, codomain: FiniteTopSpace) -> List[FiniteMap]:
    """Every map, its targets in lexicographic order.  Each product tuple
    holds one codomain index per domain point, so each map is built by
    `FiniteMap._trusted`, without re-validating its targets."""
    return [FiniteMap._trusted(domain, codomain, targets) for targets in
            product(range(len(codomain.points)), repeat=len(domain.points))]


def continuous_maps(domain: FiniteTopSpace,
                    codomain: FiniteTopSpace) -> List[FiniteMap]:
    """Every continuous map, in `all_maps` order: the `all_maps` maps that
    `is_continuous` accepts.

    f is continuous iff it is monotone for the specialization preorders: j
    in U_x implies f(j) in V_f(x).  Targets are chosen depth first, in
    domain order.  Point i's candidates are the AND of V_f(j) over the
    earlier points j with i in U_j, tried in increasing order; a candidate
    k is kept iff V_k holds f(j) for every earlier j in U_i.  So the search
    visits only prefixes of continuous maps, and each map it finds is built
    by `FiniteMap._trusted`.
    """
    U, V = domain.nbhds, codomain.nbhds
    n = len(U)
    targets: List[int] = []
    found: List[Tuple[int, ...]] = []

    def rec(i: int) -> None:
        if i == n:
            found.append(tuple(targets))
            return
        bit, below = 1 << i, U[i] & ((1 << i) - 1)
        cap, image = (1 << len(V)) - 1, 0
        for j, k in enumerate(targets):
            if U[j] & bit:
                cap &= V[k]
            if below >> j & 1:
                image |= 1 << k
        for k, v in enumerate(V):
            if cap >> k & 1 and v & image == image:
                targets.append(k)
                rec(i + 1)
                targets.pop()

    rec(0)
    return [FiniteMap._trusted(domain, codomain, t) for t in found]


def sweep(points: Sequence[str]) -> CheckReport:
    """Exhaustive small-instance suite on the labelled points: every
    decomposition of every topology builds a valid space, and decomposing
    by singletons gives a space homeomorphic to the original.

    Every (topology, partition) pair's first step is read from two tables
    built once: per topology the up-set of every point subset, per
    partition the block bits of every point subset.  Many topologies give a
    partition the same first step, so each distinct step is closed into its
    quotient relation once per partition, and many steps close to the same
    relation, so each distinct relation is tested once per partition by
    `_is_preorder`, the test the constructor makes (a `Partition`'s block
    labels are distinct); the count covers every pair, and a relation that
    is no preorder fails the check instead of raising.  The identity onto a
    singleton quotient is a homeomorphism iff its relation is the space's
    own rows, which decides functoriality in the same pass.
    """
    spaces = all_topologies(points)
    pts = tuple(points)
    parts = [Partition(pts, blocks) for blocks in all_partitions(pts)]
    ups = [_subset_table(X.nbhds) for X in spaces]
    n_valid = n_funct = 0
    for D in parts:
        bits = _subset_table(D.bits)
        closed, valid = {}, {}
        for X, up in zip(spaces, ups):
            step = tuple(bits[up[bm]] for bm in D.masks)
            reach = closed.get(step)
            if reach is None:
                reach = closed[step] = _quotient_relation(list(step))
            if reach not in valid:
                valid[reach] = _is_preorder(reach)
            n_valid += valid[reach]
            if len(D.blocks) == len(pts):  # the singleton partition
                n_funct += valid[reach] and reach == X.nbhds
    rep = CheckReport(f"fintop sweep on {len(points)} labelled points")
    rep.add("decomposition_topologies_valid",
            n_valid == len(spaces) * len(parts),
            f"{n_valid} of {len(spaces) * len(parts)} "
            f"({len(spaces)} topologies x {len(parts)} partitions)")
    rep.add("singleton_decomposition_functorial",
            n_funct == len(spaces),
            f"{n_funct} of {len(spaces)} spaces")
    return rep


# ---------------------------------------------------------------------------
# Named spaces & serialization
# ---------------------------------------------------------------------------


_DISCRETE = {f"discrete{n}": "abcdefgh"[:n] for n in range(1, 9)}


def named_space(name: str) -> FiniteTopSpace:
    """Built-in spaces the CLI and docs share: chain3, sierpinski, and
    discreteN for N one digit 1-8."""
    if name == "chain3":
        return space("abc", [[], ["a"], ["a", "b"], ["a", "b", "c"]])
    if name == "sierpinski":
        return space("ab", [[], ["a"], ["a", "b"]])
    if isinstance(name, str) and name in _DISCRETE:
        return discrete_space(_DISCRETE[name])
    raise InputError(f"unknown space {name!r}; try chain3, sierpinski, "
                     f"discrete1..discrete8")


def space_document(X: FiniteTopSpace) -> dict:
    return {
        "points": list(X.points),
        "opens": [list(ls) for ls in X.open_label_sets()],
    }
