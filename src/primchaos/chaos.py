"""Primitive-chaos systems: event families with exact piecewise-affine laws,
witness realization for finite event words, and chaos-property certificates.

A system is its events and one law per event: closed event regions
X_0..X_k-1, whose union is the working space, and one exact affine branch
f_i: X_i -> space per event.  Four systems ship:

* ``shift_cantor``: the full shift on the middle-third model, events are the
  depth-1 cylinders and the branches stretch them back over the space;
* ``doubling``: x -> 2x mod 1 with events [0,1/2], [1/2,1];
* ``tent``: 2x on the left event, 2-2x on the right;
* ``baker``: the two-dimensional baker transformation on vertical half
  squares.

Events are closed and overlap at branch boundaries; witnesses only ever
need membership, and the midpoint selection keeps them in cell interiors
whenever the enclosure has positive width.  The working space is the union
of the events, which for the Cantor shift is the depth-1 enclosure of the
ideal space: everything here certifies finite stages, never the limit.

An event word is a plain digit string, symbol i naming event X_i (for
the two-event systems, a binary address such as "0110"), so a system has at
most ten events; `dense_orbit_word` returns one.  Every routine reads the
checked string itself, taking each symbol's int as it iterates.
`realize_witness` computes the set of initial points whose orbit follows a
given event word by exact backward preimage propagation; its nonemptiness
for every word is the finite-stage content of the defining property of
primitive chaos, and nesting of these enclosures under word extension is
the shadow of the infinite-sequence statement.

Every kernel and certificate reads one integer table per system
(`ChaosSystem._table`): per axis, the space's and events' corners as
numerators over one denominator L, and each branch law x -> (c*x + d) / m
as the integers (c, d, m), with the inverse law derived from them.

The propagation runs in integers.  Each axis holds its box corners as
numerators over a multiple of L that grows by multiplication alone; each
symbol applies the branch inverse to the numerators and clips them against
the event's boxes by integer comparison.  The pieces are merged (the
canonical form, on the numerators) only when a symbol raises their count,
which no shipped system does.  `Fraction` corners and the one `region()`
of them appear only at the end, so the returned region is the one the
`Fraction` recursion (`AffineBranch.preimage`, kept as the reference)
gives.  The dense-orbit and transitivity checks need every cell of one
depth d, the enclosure of each word of length d; `_cells` lists those words
and builds their cells all at once with the same kernel step, each from a
cell one symbol shorter, and keeps them in integers.

The forward certificates run in integers too, stepping the forward laws, so
a witness's orbit certifies the enclosure independently of the kernel's
backward propagation: the two share the table's integers, not a
computation.  Each axis of an orbit point holds an integer numerator over
its own denominator, each branch applies x -> (c*x + d) / m to them, and
event membership is an integer cross-multiplication against the events'
corners.  `realize_witness`, `periodic_point` and the dense-orbit check
step with it, through `_contains` and `_image`.  `sensitivity_check` steps
a second loop over the same laws, `_steps`: 1-d only, it forms each event's
bounds once per change of a point's denominator, where `_contains`
cross-multiplies on every test.  It stays a second loop because routing it
through `_contains` and `_image` made the check 2-3x slower (40 samples
at delta 2^-20 on doubling and tent).  `Fraction` points are built only
for what they return or test (the `Fraction` step the tests compare both
with is in tests/chaos_oracle.py).  `periodic_point` and the transitivity
check compose the laws along a word into one affine map (`_composed`): the
first solves it for its fixed point, the second tests each cell's image
under it against the other cells and steps no orbit (see
`transitivity_check`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import lcm
from operator import le
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import ConstructionError, InputError, check_count
from .geometry import (
    Box,
    Region,
    box_disjoint,
    closed_difference,
    eval_ternary_address,
    first_box_midpoint,
    grid_point,
    point_doc,
    rat,
    rational_str,
    region,
    region_doc,
)
from .report import CheckReport

SYSTEM_KINDS = ("shift_cantor", "doubling", "tent", "baker")
# symbol i of an event word is DIGITS[i], so a system has at most ten events
DIGITS = "0123456789"
# longest numerator or denominator of a sensitivity delta: every orbit step
# of the check costs time in proportion to it
MAX_DELTA_BITS = 1024
# separation a sensitivity witness pair's orbits must reach
SENSITIVITY_CONSTANT = Fraction(1, 4)
# most cells, alphabet ** depth, a transitivity check builds and holds
MAX_TRANSITIVITY_CELLS = 2 ** 12
# most samples, and orbit steps (samples times the step budget), of a
# sensitivity check
MAX_SENSITIVITY_SAMPLES = 10000
MAX_SENSITIVITY_STEPS = 2 ** 20
# longest word of `realize_witness` and `periodic_point`, whose documents
# grow as its square, and deepest dense-orbit word (3586 symbols)
MAX_EVENT_WORD = 1024
MAX_DENSE_DEPTH = 8

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


@dataclass(frozen=True)
class AffineBranch:
    """Diagonal affine law: coordinate i maps to a_i * x_i + b_i."""

    coeffs: Tuple[Tuple[Fraction, Fraction], ...]  # (a, b) per axis

    def __post_init__(self):
        for x in (x for law in self.coeffs for x in law):
            if not isinstance(x, (int, Fraction)):
                raise InputError(f"affine branch coefficients must be ints or "
                                 f"Fractions, got {x!r}")
        if any(a == 0 for a, _ in self.coeffs):
            raise InputError("affine branch needs a nonzero slope on every axis")

    def preimage_box(self, b: Box) -> Box:
        if len(self.coeffs) != len(b.lo):
            raise InputError(f"affine branch of {len(self.coeffs)} laws on a "
                             f"box of {len(b.lo)} axes")
        lo = []
        hi = []
        for (a, off), l, h in zip(self.coeffs, b.lo, b.hi):
            # an int law on int corners divides to a Fraction, not a float
            x = Fraction(l - off) / a
            y = Fraction(h - off) / a
            if x > y:
                x, y = y, x
            lo.append(x)
            hi.append(y)
        return Box._trusted(tuple(lo), tuple(hi))

    def preimage(self, r: Region) -> Region:
        return region([self.preimage_box(b) for b in r.boxes])


class _Table(NamedTuple):
    """A system in integers, L per axis the lcm of the denominators of every
    space and event corner."""

    dens: list  # L per axis
    space: list  # the space's boxes, [(lo, hi) per axis] numerators over L
    events: list  # per event, its boxes likewise
    laws: list  # per branch and axis, x -> (c*x + d) / m as (c, d, m)
    inverses: list  # their inverses on numerators over L, as (c, d*L, m)


@dataclass(frozen=True)
class ChaosSystem:
    """An event family and one exact affine law per event; the working
    space is the union of the events."""

    kind: str
    events: Tuple[Region, ...]
    branches: Tuple[AffineBranch, ...]

    def __post_init__(self):
        if not self.events:
            raise InputError("a system needs at least one event")
        if len(self.events) > len(DIGITS):
            raise InputError(f"at most {len(DIGITS)} events fit one-digit "
                             f"symbols, got {len(self.events)}")
        if len(self.branches) != len(self.events):
            raise InputError(f"{len(self.events)} events need a branch each, "
                             f"got {len(self.branches)} branches")
        dim = self.dim
        if any(ev.dim != dim for ev in self.events):
            raise InputError(f"every event must have the first event's {dim} axes")
        if any(len(br.coeffs) != dim for br in self.branches):
            raise InputError(f"every branch needs one law per axis of the "
                             f"{dim}-dimensional space")

    @property
    def alphabet(self) -> int:
        return len(self.events)

    @property
    def dim(self) -> int:
        return self.events[0].dim

    @cached_property
    def space(self) -> Region:
        return region([b for ev in self.events for b in ev.boxes])

    @cached_property
    def _table(self) -> _Table:
        """The one integer form every kernel and certificate reads."""
        boxes = [b for r in (self.space, *self.events) for b in r.boxes]
        dens = [lcm(*(x[ax].denominator for b in boxes for x in (b.lo, b.hi)))
                for ax in range(self.dim)]

        def over(r: Region):
            return [[(int(l * L), int(h * L))
                     for l, h, L in zip(b.lo, b.hi, dens)] for b in r.boxes]

        def law(a, b):
            m = lcm(a.denominator, b.denominator)
            return int(a * m), int(b * m), m

        laws = [[law(Fraction(a), Fraction(b)) for a, b in br.coeffs]
                for br in self.branches]
        # x -> (m*x - d) / c with a positive denominator; gcd(c, d, m) = 1,
        # so it is the inverse law in lowest terms
        inverses = [[(m, -d * L, c) if c > 0 else (-m, d * L, -c)
                     for (c, d, m), L in zip(br, dens)] for br in laws]
        return _Table(dens, over(self.space), [over(ev) for ev in self.events],
                      laws, inverses)


def make_system(kind: str) -> ChaosSystem:
    if kind == "shift_cantor":
        events = (region(Box((ZERO,), (Fraction(1, 3),))),
                  region(Box((Fraction(2, 3),), (ONE,))))
        branches = (AffineBranch(((rat(3), ZERO),)),
                    AffineBranch(((rat(3), rat(-2)),)))
    elif kind == "doubling":
        events = (region(Box((ZERO,), (HALF,))),
                  region(Box((HALF,), (ONE,))))
        branches = (AffineBranch(((rat(2), ZERO),)),
                    AffineBranch(((rat(2), rat(-1)),)))
    elif kind == "tent":
        events = (region(Box((ZERO,), (HALF,))),
                  region(Box((HALF,), (ONE,))))
        branches = (AffineBranch(((rat(2), ZERO),)),
                    AffineBranch(((rat(-2), rat(2)),)))
    elif kind == "baker":
        events = (region(Box((ZERO, ZERO), (HALF, ONE))),
                  region(Box((HALF, ZERO), (ONE, ONE))))
        branches = (AffineBranch(((rat(2), ZERO), (HALF, ZERO))),
                    AffineBranch(((rat(2), rat(-1)), (HALF, HALF))))
    else:
        raise InputError(f"unknown system {kind!r}; expected one of {SYSTEM_KINDS}")
    return ChaosSystem(kind, events, branches)


def _as_word(s: ChaosSystem, word: str) -> str:
    # strip leaves a character behind iff the word has one outside the set
    if not isinstance(word, str) or word.strip(DIGITS):
        raise InputError(f"word must be a digit string, got {word!r}")
    if word.strip(DIGITS[:s.alphabet]):
        raise InputError(f"word {word} has symbols outside 0..{s.alphabet - 1}")
    return word


@dataclass(frozen=True)
class WitnessResult:
    """A realized finite event word: enclosure, chosen witness, exact orbit."""

    system: str
    word: str
    enclosure: Region
    witness: tuple
    orbit: Tuple[tuple, ...]

    def to_document(self) -> dict:
        return {
            "system": self.system,
            "word": self.word,
            "enclosure": region_doc(self.enclosure),
            "witness": point_doc(self.witness),
            "orbit": [point_doc(p) for p in self.orbit],
        }


def word_enclosure(s: ChaosSystem, word: str) -> Region:
    """Exact region of initial points whose orbit follows the event word:
    K = X_{w0} cap f_{w0}^-1(X_{w1} cap f_{w1}^-1(...))."""
    return _enclosure(s, _as_word(s, word))


def _no_witness(s: ChaosSystem, word: str) -> ConstructionError:
    return ConstructionError(f"empty witness set for word {word} on {s.kind}")


def _kernel(s: ChaosSystem, word: str, boxes, k):
    """The enclosure kernel, X_{w0} cap f_{w0}^-1(... X_{wn} cap
    f_{wn}^-1(boxes)) for the word w: the boxes, [(lo, hi) per axis]
    numerators over dens[axis] * k[axis], become boxes over
    dens[axis] * k2[axis], returned with k2; no boxes once it is empty."""
    events, inverses = s._table.events, s._table.inverses
    for sym in map(int, reversed(word)):
        inv = inverses[sym]
        k2 = [kk * m for kk, (_, _, m) in zip(k, inv)]
        out = []
        for box in boxes:
            pre = []
            for (lo, hi), (c, dl, _), kk in zip(box, inv, k):
                lo, hi = c * lo + dl * kk, c * hi + dl * kk
                pre.append((lo, hi) if c > 0 else (hi, lo))
            for ev in events[sym]:
                clip = []
                for (lo, hi), (elo, ehi), kk in zip(pre, ev, k2):
                    lo, hi = max(lo, elo * kk), min(hi, ehi * kk)
                    if lo > hi:
                        break
                    clip.append((lo, hi))
                else:
                    out.append(clip)
        if not out:
            return out, k2
        if len(out) > len(boxes):  # unmerged pieces can double per symbol
            out = [list(zip(b.lo, b.hi))
                   for b in region([Box._trusted(*zip(*box))
                                    for box in out]).boxes]
        boxes, k = out, k2
    return boxes, k


def _enclosure(s: ChaosSystem, word: str) -> Region:
    t = s._table
    boxes, k = _kernel(s, word, t.space, [1] * s.dim)
    if not boxes:
        raise _no_witness(s, word)
    dens = [L * kk for L, kk in zip(t.dens, k)]
    return region([Box._trusted(grid_point(lo, dens), grid_point(hi, dens))
                   for lo, hi in (zip(*box) for box in boxes)])


def _cells(s: ChaosSystem, depth: int) -> list:
    """Every word of length `depth` in lexicographic order, each with its
    cell, the enclosure of the word as the kernel holds it: (word, boxes,
    per-axis denominators).  Raises for the first empty cell, as
    `word_enclosure` would.

    The cells are built once for the whole depth, each depth-j cell from a
    depth-(j-1) cell by one kernel step, cell(a.w) = X_a cap f_a^-1(cell(w)):
    A + A^2 + ... + A^d steps for the A^d cells of an alphabet of A symbols,
    where one enclosure per word takes d steps each.  An empty cell stays
    empty, in its place, so the words keep their order."""
    t = s._table
    level = [("", t.space, [1] * s.dim)]
    for _ in range(depth):
        level = [(a + w, *_kernel(s, a, boxes, k))
                 for a in DIGITS[:s.alphabet] for w, boxes, k in level]
    for u, boxes, _ in level:
        if not boxes:
            raise _no_witness(s, u)
    return [(u, boxes, [L * kk for L, kk in zip(t.dens, k)])
            for u, boxes, k in level]


# A grid point is (numerators, denominators), one of each per axis.


def _grid_of(p: tuple) -> tuple:
    return [c.numerator for c in p], [c.denominator for c in p]


def _contains(boxes, dens, nums, qs) -> bool:
    """Whether the grid point lies in one of the integer boxes, numerators
    over `dens` (an event's, or a cell's from `_cells`)."""
    for box in boxes:
        for (lo, hi), L, n, q in zip(box, dens, nums, qs):
            if not lo * q <= n * L <= hi * q:
                break
        else:
            return True
    return False


def _image(law, nums, qs) -> tuple:
    return ([c * n + d * q for (c, d, _), n, q in zip(law, nums, qs)],
            [q * m for (_, _, m), q in zip(law, qs)])


def _composed(laws, word: str) -> list:
    """Per axis, the integers (C, D, M) of the branch laws composed along
    the word, F_word: x -> (C*x + D) / M."""
    F = [(1, 0, 1)] * len(laws[0])
    for ch in word:
        F = [(c * C, c * D + d * M, m * M)
             for (C, D, M), (c, d, m) in zip(F, laws[int(ch)])]
    return F


def _same_point(p: tuple, other: tuple) -> bool:
    return all(n * r == m * q for n, q, m, r in zip(*p, *other))


def _orbit(s: ChaosSystem, start: tuple, word: str):
    """Forward orbit of `start` along the word as grid points, len(word) + 1
    of them: point i must lie in event word[i], and point i + 1 is its image
    under branch word[i].  Returns the points and the index of the first
    one outside its event (the points then end there), or None."""
    dens, _, events, laws, _ = s._table
    p = _grid_of(start)
    points = []
    for i, sym in enumerate(map(int, word)):
        points.append(p)
        if not _contains(events[sym], dens, *p):
            return points, i
        p = _image(laws[sym], *p)
    points.append(p)
    return points, None


def _witness_orbit(s: ChaosSystem, word: str):
    """Enclosure, witness and its certified orbit (grid points, one per
    symbol) of a nonempty word."""
    K = _enclosure(s, word)
    witness = first_box_midpoint(K)
    points, escaped = _orbit(s, witness, word)
    if escaped is not None:
        raise ConstructionError(f"orbit point {grid_point(*points[escaped])} "
                                f"escapes event {word[escaped]} on {s.kind}")
    return K, witness, points[:-1]


def _bounded_word(s: ChaosSystem, word: str) -> str:
    """A checked word of 1..`MAX_EVENT_WORD` symbols."""
    if not _as_word(s, word):
        raise InputError("word must be nonempty")
    if len(word) > MAX_EVENT_WORD:
        raise InputError(f"word length {len(word)} exceeds the work limit of "
                         f"{MAX_EVENT_WORD} symbols")
    return word


def realize_witness(s: ChaosSystem, word: str) -> WitnessResult:
    """Realize a finite event word: nonempty enclosure, witness point, and
    the exact forward orbit, with event membership verified exactly."""
    K, witness, points = _witness_orbit(s, _bounded_word(s, word))
    return WitnessResult(s.kind, word, K, witness,
                         tuple(grid_point(*p) for p in points))


# ---------------------------------------------------------------------------
# Periodic points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PeriodicOrbit:
    """Exact periodic point with a divisor-minimality certificate."""

    point: tuple
    prime_period: int
    word: str  # the primitive word actually used
    orbit: Tuple[tuple, ...]
    reduced_from: Optional[str] = None  # set when the input was a power

    def to_document(self) -> dict:
        doc = {
            "point": point_doc(self.point),
            "prime_period": self.prime_period,
            "word": self.word,
            "orbit": [point_doc(p) for p in self.orbit],
        }
        if self.reduced_from is not None:
            doc["reduced_from"] = self.reduced_from
        return doc


def _primitive_root(word: str) -> str:
    n = len(word)
    for p in range(1, n + 1):
        if n % p == 0 and word[:p] * (n // p) == word:
            return word[:p]


def periodic_point(s: ChaosSystem, word: str) -> PeriodicOrbit:
    """Exact fixed point of the affine branch composition along the word.

    Words that are powers of a shorter word are reduced to the primitive
    root (and the reduction is reported).  The certificate checks that the
    orbit follows the word cyclically and that no proper divisor of the
    length is a period.
    """
    prim = _primitive_root(_bounded_word(s, word))
    reduced_from = None if prim == word else word
    m = len(prim)
    # the fixed point of x -> (C*x + D) / M on each axis
    F = _composed(s._table.laws, prim)
    if any(C == M for C, _, M in F):
        raise ConstructionError("branch composition is a translation; "
                                "no fixed point")
    point = tuple(Fraction(D, M - C) for C, D, M in F)
    points, escaped = _orbit(s, point, prim)
    if escaped is not None or not _same_point(points[m], points[0]):
        raise ConstructionError(
            f"no periodic point follows word {word} on {s.kind}")
    for d in range(1, m):
        if m % d == 0 and _same_point(points[d], points[0]):
            raise ConstructionError(
                f"period collapses to divisor {d}; word is not primitive")
    return PeriodicOrbit(point, m, prim,
                         tuple(grid_point(*p) for p in points[:m]), reduced_from)


# ---------------------------------------------------------------------------
# Chaos-property certificates
# ---------------------------------------------------------------------------


def dense_orbit_word(depth: int) -> str:
    """Concatenation of every binary word of length 1..depth in
    lexicographic order; the realized witness's orbit visits every
    depth-`depth` event cell."""
    check_count(depth, "depth must be >= 1", 1)
    if depth > MAX_DENSE_DEPTH:
        raise InputError(f"dense-orbit depth {depth} exceeds the work limit "
                         f"of depth {MAX_DENSE_DEPTH}")
    parts = []
    for length in range(1, depth + 1):
        for bits in product("01", repeat=length):
            parts.append("".join(bits))
    return "".join(parts)


def verify_dense_orbit(s: ChaosSystem, depth: int) -> CheckReport:
    """Realize the dense word and certify the orbit enters every depth-d
    event cell, by exact membership in each cell's enclosure."""
    if s.alphabet != 2:
        raise InputError("dense-orbit words are built over a binary alphabet")
    word = dense_orbit_word(depth)
    _, _, points = _witness_orbit(s, word)
    rep = CheckReport(f"{s.kind} dense orbit, depth {depth}, |word| = {len(word)}")
    missing = []
    for u, boxes, dens in _cells(s, depth):
        i = word.find(u)
        if i < 0 or not _contains(boxes, dens, *points[i]):
            missing.append(u)
    rep.add("visits_every_cell", not missing,
            f"all {2 ** depth} depth-{depth} cells visited" if not missing
            else f"missed cells: {missing}")
    return rep


def _sensitivity_samples(s: ChaosSystem, samples: int) -> List[tuple]:
    if s.kind == "shift_cantor":
        # points of the Cantor model itself: ternary digits 2*bit of the
        # sample index, so orbits stay inside the event union
        width = max(2, samples.bit_length())
        return [(eval_ternary_address(format(j, f"0{width}b")),)
                for j in range(1, samples + 1)]
    return [(Fraction(j, samples + 1),) for j in range(1, samples + 1)]


def _sensitivity_partners(s: ChaosSystem,
                          delta: Fraction) -> Callable[[Fraction], List[tuple]]:
    """The partners within delta that a sample coordinate x is paired with."""
    if s.kind == "shift_cantor":
        # flip ternary digit k of x, for the smallest k with 2 * 3^-k <= delta
        power = 3
        while 2 * delta.denominator > delta.numerator * power:
            power *= 3
        step = Fraction(2, power)

        def cantor(x: Fraction) -> List[tuple]:
            digit = (x.numerator * power // x.denominator) % 3
            return [(x - step if digit == 2 else x + step,)]
        return cantor

    def nearby(x: Fraction) -> List[tuple]:
        cands = []
        for frac in (ONE, HALF, Fraction(3, 4)):
            for sign in (1, -1):
                y = x + sign * delta * frac
                if ZERO <= y <= ONE and y != x:
                    cands.append((y,))
        return cands
    return nearby


def sensitivity_budget(delta) -> int:
    """Orbit steps `sensitivity_check` gives a pair to separate in: the bit
    length of 1/delta, plus 8.  Delta's numerator and denominator may have
    at most MAX_DELTA_BITS bits each."""
    delta = rat(delta)
    if delta <= 0:
        raise InputError("delta must be positive")
    if max(delta.numerator.bit_length(),
           delta.denominator.bit_length()) > MAX_DELTA_BITS:
        raise InputError(f"delta exceeds the work limit of {MAX_DELTA_BITS} "
                         f"bits in its numerator or denominator")
    return delta.denominator.bit_length() + 8


def _steps(s: ChaosSystem, x: Fraction):
    """The orbit of a 1-d point, one (numerator, denominator) pair per
    step: each step applies the law of the first event that holds the
    point.  Each event's bounds lo*q and hi*q are formed only when the
    denominator q changes: never, on laws with m = 1."""
    t = s._table
    (L,) = t.dens
    n, q = x.numerator, x.denominator
    bounds_q = None
    while True:
        if q != bounds_q:
            bounds_q = q
            bounds = [(lo * q, hi * q, law)
                      for boxes, (law,) in zip(t.events, t.laws)
                      for ((lo, hi),) in boxes]
        nL = n * L
        for lo, hi, (c, d, m) in bounds:
            if lo <= nL <= hi:
                n, q = c * n + d * q, q * m
                break
        else:
            raise InputError(f"point {grid_point((n,), (q,))} lies outside "
                             f"every event")
        yield n, q


def sensitivity_check(s: ChaosSystem, delta: Fraction, samples: int,
                      points: Optional[Sequence[tuple]] = None) -> CheckReport:
    """Sensitive dependence witness hunt: for each sample point, find a
    partner within delta whose orbit separates to at least
    SENSITIVITY_CONSTANT within the bit budget.  Reports the worst number
    of steps needed.

    Samples are generated deterministically per system; pass `points`, a
    list of 1-tuples of rationals, to check specific initial conditions
    instead.  Their number is bounded before any is built, by the two
    MAX_SENSITIVITY limits, and a malformed point is rejected before any
    sample is stepped."""
    if s.dim != 1:
        raise InputError("sensitivity check ships for 1-d systems")
    delta = rat(delta)
    budget = sensitivity_budget(delta)
    samples = len(points) if points is not None else samples
    check_count(samples, "need at least one sample", 1)
    if samples > MAX_SENSITIVITY_SAMPLES or \
            samples * budget > MAX_SENSITIVITY_STEPS:
        raise InputError(f"a check of {samples} samples of {budget} steps "
                         f"exceeds the work limit of "
                         f"{MAX_SENSITIVITY_SAMPLES} samples and "
                         f"{MAX_SENSITIVITY_STEPS} orbit steps")
    for p in points or ():
        if not (isinstance(p, tuple) and len(p) == 1):
            raise InputError(f"sample point {p!r} is not a 1-tuple")
    sample_pts = [(rat(p[0]),) for p in points] \
        if points is not None else _sensitivity_samples(s, samples)
    sep = SENSITIVITY_CONSTANT
    rep = CheckReport(f"{s.kind} sensitivity, delta {rational_str(delta)}, "
                      f"{len(sample_pts)} samples, constant {rational_str(sep)}")
    partners = _sensitivity_partners(s, delta)
    worst = 0
    failed = None
    for x in sample_pts:
        sep_at = None
        for y in partners(x[0]):
            qr = None
            for n, (a, q), (b, r) in zip(range(1, budget + 1),
                                         _steps(s, x[0]), _steps(s, y[0])):
                # |a/q - b/r| >= sep, cross-multiplied; sep * q * r is
                # formed only when q or r changes
                if (q, r) != qr:
                    qr = q, r
                    bound = sep.numerator * q * r
                if abs(a * r - b * q) * sep.denominator >= bound:
                    sep_at = n
                    break
            if sep_at is not None:
                break
        if sep_at is None:
            failed = x
            break
        worst = max(worst, sep_at)
    rep.add("orbits_separate", failed is None,
            f"worst separation step n = {worst} <= budget {budget}"
            if failed is None else
            f"sample {point_doc(failed)} never separated within {budget} steps")
    return rep


def _on_scale(boxes, dens, F, scale) -> List[Box]:
    """The images under F (per axis x -> (C*x + D) / M, from `_composed`)
    of integer boxes over `dens`, as Boxes of numerators over `scale`: a
    corner n / L goes to (C*n + D*L) / (M*L)."""
    out = []
    for box in boxes:
        lo, hi = [], []
        for (a, b), (C, D, M), L, T in zip(box, F, dens, scale):
            f = T // (M * L)
            a, b = (C * a + D * L) * f, (C * b + D * L) * f
            lo.append(min(a, b))
            hi.append(max(a, b))
        out.append(Box._trusted(tuple(lo), tuple(hi)))
    return out


def transitivity_check(s: ChaosSystem, depth: int) -> CheckReport:
    """For every ordered pair (u, v) of depth-d event cells, certify that
    some point of cell u lands in cell v after exactly d steps.  Exhaustive
    over all pairs, with one forward image per cell instead of one realized
    word per pair.

    The points of cell u that land in cell v are the enclosure of u.v, and
    enclosure(u.v) = cell u cap F_u^-1(cell v), where F_u composes the
    branch laws along u: the enclosure of u.v is that of u with the space
    replaced by enclosure(v) inside the innermost preimage, and a preimage
    distributes over the intersection with enclosure(v), a subset of the
    space.  F_u is diagonal affine with nonzero slopes, so a bijection that
    sends each box of cell u to a box, and the pair is connected exactly
    when the image F_u(cell u) meets cell v in a closed box overlap.  The
    images and cells are put on one integer scale per axis.  For each u,
    one containment test settles every v at once when the image holds the
    whole space, and with it every cell.  So does a per-axis test when one
    image box reaches every cell box: on each axis its lo is at most the
    least cell hi and its hi at least the greatest cell lo (two bounds
    taken once per depth).  On the baker map every image, a horizontal
    strip, crosses every cell, a vertical strip, so this test settles each
    u.  Otherwise the cells are scanned in order for one that no image box
    meets.  A pair the images leave unconnected has an empty
    enclosure(u.v), so the first such pair in (u, v) order raises the error
    that realizing u.v would.  Depths must be ints from 1 with alphabet **
    depth at most MAX_TRANSITIVITY_CELLS: to 12 on two events, to 3 on ten."""
    check_count(depth, "transitivity depth must be >= 1", 1)
    if s.alphabet ** min(depth, 64) > MAX_TRANSITIVITY_CELLS:
        raise InputError(f"transitivity depth {depth} exceeds the work limit of "
                         f"{MAX_TRANSITIVITY_CELLS} cells ({s.alphabet} ** depth)")
    cells = _cells(s, depth)
    rep = CheckReport(f"{s.kind} transitivity, depth {depth}, "
                      f"{len(cells) ** 2} ordered pairs")
    t = s._table
    maps = [_composed(t.laws, u) for u, _, _ in cells]
    # one denominator per axis for every cell and image: an image corner is
    # (C*n + D*L) / (M*L) for a cell corner n / L
    scale = [lcm(*col) for col in
             zip(*([M * L for (_, _, M), L in zip(F, dens)]
                   for F, (_, _, dens) in zip(maps, cells)))]
    identity = [(1, 0, 1)] * s.dim
    cell_boxes = [_on_scale(boxes, dens, identity, scale)
                  for _, boxes, dens in cells]
    images = [_on_scale(boxes, dens, F, scale)
              for F, (_, boxes, dens) in zip(maps, cells)]
    space = _on_scale(t.space, t.dens, identity, scale)
    every = [b for boxes in cell_boxes for b in boxes]
    least_hi = tuple(map(min, zip(*[b.hi for b in every])))
    greatest_lo = tuple(map(max, zip(*[b.lo for b in every])))
    for (u, _, _), image in zip(cells, images):
        if not closed_difference(space, image):
            continue
        if any(all(map(le, b.lo, least_hi)) and all(map(le, greatest_lo, b.hi))
               for b in image):
            continue
        for (v, _, _), boxes in zip(cells, cell_boxes):
            if all(box_disjoint(a, b) for a in boxes for b in image):
                raise _no_witness(s, u + v)
    rep.add("all_pairs_connected", True,
            f"{len(cells) ** 2} pairs connected in exactly {depth} steps")
    return rep
