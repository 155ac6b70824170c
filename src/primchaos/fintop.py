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
of open sets (the masks that contain U_x for each of their points x) is
only derived, and a given family is accepted iff it equals the opens of the
preorder its masks give.  Enumeration picks the rows in turn, each among
the submasks of the cap of the earlier rows through its point: 355
topologies on 4 labelled points, 6942 on 5.  `sweep` computes the quotient
relation of every (topology, partition) pair, reading its first step from
per-space and per-partition subset tables, and validates each distinct
relation once per partition, reporting an invalid one as a failed check;
other quotients keep `_union`, for which building the tables costs more.
A bijection is a homeomorphism iff it maps each U_x onto U_{f(x)}, so
`sweep` (functoriality), `verify_prop5` and `verify_lemma7` compare a
quotient's rows with a given space's and build no map.

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
    for label in subset:
        if label not in index:
            raise InputError(f"unknown point {label!r}")
        mask |= 1 << index[label]
    return mask


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


def _opens(rows: Sequence[int]) -> frozenset:
    """The opens of the preorder with these rows: m is open iff U_x is
    inside m for every point x of m."""
    return frozenset(m for m in range(1 << len(rows)) if _union(rows, m) == m)


def _topology_rows(n: int, family: set) -> Optional[Tuple[int, ...]]:
    """Row x the AND of the masks that hold x (all n points if none do), or
    None unless the family is exactly those rows' opens: a topology."""
    rows = tuple(reduce(and_, (m for m in family if m >> x & 1), (1 << n) - 1)
                 for x in range(n))
    return rows if family == _opens(rows) else None


def is_topology(points: Sequence[str], family: Iterable[Iterable[str]]) -> bool:
    """True iff the family equals the opens of the preorder it gives."""
    masks = {_mask_of(points, s) for s in family}
    return _topology_rows(len(points), masks) is not None


@dataclass(frozen=True)
class FiniteTopSpace:
    """Finite point set with the minimal open neighbourhood of each point:
    bit j of nbhds[i] is set iff every open containing point i contains
    point j."""

    points: Tuple[str, ...]
    nbhds: Tuple[int, ...]

    def __post_init__(self):
        if len(set(self.points)) != len(self.points):
            raise InputError("duplicate point labels")
        U, n = self.nbhds, len(self.points)
        if len(U) != n or not all(0 < u < 1 << n and u >> i & 1
                                  and _union(U, u) == u
                                  for i, u in enumerate(U)):
            raise InputError("neighbourhood masks are not a preorder")

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
    pts = tuple(points)
    return space_from_masks(pts, [_mask_of(pts, s) for s in family])


def space_from_masks(points: Sequence[str], masks: Iterable[int]) -> FiniteTopSpace:
    """Space from an explicit open-set family, rejected unless it equals
    the opens of the preorder it gives."""
    pts = tuple(points)
    rows = _topology_rows(len(pts), set(masks))
    if rows is None:
        raise InputError("open-set family is not a topology")
    return FiniteTopSpace(pts, rows)


def discrete_space(points: Sequence[str]) -> FiniteTopSpace:
    pts = tuple(points)
    return FiniteTopSpace(pts, tuple(1 << i for i in range(len(pts))))


def is_t1(X: FiniteTopSpace) -> bool:
    """Some open holds x but not y iff y is outside U_x, so T1 means every
    U_x is {x}: finite T1 spaces are discrete."""
    return all(u == 1 << i for i, u in enumerate(X.nbhds))


def is_hausdorff(X: FiniteTopSpace) -> bool:
    """Finite Hausdorff spaces are exactly the discrete ones."""
    return is_t1(X)


def subspace(X: FiniteTopSpace, subset: Sequence[str]) -> FiniteTopSpace:
    """Subspace topology on a subset of the points (order inherited): the
    neighbourhoods are U_x intersected with the subset."""
    keep = X.mask(subset)
    idx = [i for i in range(len(X.points)) if keep >> i & 1]
    nbhds = tuple(sum(1 << k for k, j in enumerate(idx)
                      if X.nbhds[i] >> j & 1) for i in idx)
    return FiniteTopSpace(tuple(X.points[i] for i in idx), nbhds)


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
        if not all(self.blocks):
            raise InputError("partition blocks must be nonempty")
        index = {p: i for i, p in enumerate(self.points)}
        bits = [0] * len(self.points)
        masks = []
        for k, b in enumerate(self.blocks):
            mask = 0
            for p in b:
                i = index.get(p)
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
    return Partition(X.points, tuple(tuple(b) for b in blocks))


def block_label(block: Sequence[str]) -> str:
    """Sorted members joined by commas, each member's `\\` and `,` escaped."""
    return ",".join(sorted([p.replace("\\", "\\\\").replace(",", "\\,")
                            for p in block]))


@dataclass(frozen=True)
class FiniteMap:
    """Total map between finite spaces, given pointwise; targets holds the
    codomain index of each domain point's image."""

    domain: FiniteTopSpace
    codomain: FiniteTopSpace
    mapping: Tuple[Tuple[str, str], ...]  # (x, f(x)) pairs, domain order
    targets: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sources, images = tuple(zip(*self.mapping)) or ((), ())
        if sources != self.domain.points:
            raise InputError("mapping must cover every domain point once, in order")
        try:
            targets = tuple(map(self.codomain.points.index, images))
        except ValueError:
            raise InputError("mapping hits a point outside the codomain") from None
        object.__setattr__(self, "targets", targets)

    def is_surjective(self) -> bool:
        return len(set(self.targets)) == len(self.codomain.points)

    def is_injective(self) -> bool:
        return len(set(self.targets)) == len(self.targets)


def finite_map(domain: FiniteTopSpace, codomain: FiniteTopSpace,
               assignment: Dict[str, str]) -> FiniteMap:
    try:
        pairs = tuple((p, assignment[p]) for p in domain.points)
    except KeyError as exc:
        raise InputError(f"assignment misses domain point {exc.args[0]!r}") from exc
    if len(assignment) != len(domain.points):
        extra = sorted(set(assignment) - set(domain.points))
        raise InputError(f"assignment names points not in the domain: {extra}")
    return FiniteMap(domain, codomain, pairs)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def decomposition_topology(X: FiniteTopSpace, D: Partition) -> FiniteTopSpace:
    """Space of blocks; a block family is open iff its union is open in X.

    So U_b holds every block reachable from b, where b reaches each block
    that meets U_x for some x in b: the transitive closure of that relation.
    Block points are labelled by `block_label`.
    """
    if D.points != X.points:
        raise InputError("partition is over different points")
    return FiniteTopSpace(D.labels, _quotient_relation(
        [_union(D.bits, _union(X.nbhds, bm)) for bm in D.masks]))


def _quotient_relation(reach: List[int]) -> Tuple[int, ...]:
    """The quotient's neighbourhoods U_b from its first step, reach[b] the
    block bits of the blocks that meet U_x for some x in block b: the
    transitive closure of that relation, closed in place."""
    for k in range(len(reach)):
        for a, ra in enumerate(reach):
            if ra >> k & 1:
                reach[a] = ra | reach[k]
    return tuple(reach)


def _subset_table(masks: Sequence[int]) -> List[int]:
    """`_union(masks, s)` for every subset s, indexed by s: each mask
    doubles the table, its bit set in the new upper half."""
    table = [0]
    for m in masks:
        table += [t | m for t in table]
    return table


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
        tuple(x for x, t in f.mapping if t == y) for y in f.codomain.points))


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
    """
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


def verify_lemma7(f: FiniteMap) -> HypothesisResult:
    """Check that the decomposition space of the domain by the fibers of a
    continuous surjection is homeomorphic to the codomain via fiber -> y.

    Hypothesis: domain compact (automatic) and codomain Hausdorff.  Fiber
    k -> point k is the identity on indices (`fiber_partition` lists the
    fibers in codomain order), so a homeomorphism iff the rows are equal.
    """
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
    6942 on 5).
    """
    pts = tuple(points)
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
    return [FiniteTopSpace(pts, relation) for relation in found]


def all_partitions(items: Sequence[str]) -> List[Tuple[Tuple[str, ...], ...]]:
    """All set partitions; blocks keep first-occurrence element order."""
    items = list(items)
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
    out = []
    for targets in product(codomain.points, repeat=len(domain.points)):
        out.append(FiniteMap(domain, codomain,
                             tuple(zip(domain.points, targets))))
    return out


def sweep(points: Sequence[str]) -> CheckReport:
    """Exhaustive small-instance suite on the labelled points: every
    decomposition of every topology builds a valid space, and decomposing
    by singletons gives a space homeomorphic to the original.

    Every (topology, partition) pair's quotient relation is computed, its
    first step read from two tables built once: per topology the up-set of
    every point subset, per partition the block bits of every point subset.
    Many topologies give a partition the same relation, and a space is a
    function of its labels and relation, so each distinct relation is built
    (and validated) once per partition; the count covers every pair, and
    one that fails validation fails the check instead of raising.  The
    identity onto a singleton quotient is a homeomorphism iff its relation
    is the space's own rows, which decides functoriality in the same pass.
    """
    spaces = all_topologies(points)
    pts = tuple(points)
    parts = [Partition(pts, blocks) for blocks in all_partitions(pts)]
    ups = [_subset_table(X.nbhds) for X in spaces]
    n_valid = n_funct = 0
    for D in parts:
        bits = _subset_table(D.bits)
        valid = {}
        for X, up in zip(spaces, ups):
            reach = _quotient_relation([bits[up[bm]] for bm in D.masks])
            if reach not in valid:
                try:  # construction validates the quotient's neighbourhoods
                    FiniteTopSpace(D.labels, reach)
                    valid[reach] = True
                except InputError:
                    valid[reach] = False
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
    if name in _DISCRETE:
        return discrete_space(_DISCRETE[name])
    raise InputError(f"unknown space {name!r}; try chain3, sierpinski, "
                     f"discrete1..discrete8")


def space_document(X: FiniteTopSpace) -> dict:
    return {
        "points": list(X.points),
        "opens": [list(ls) for ls in X.open_label_sets()],
    }
