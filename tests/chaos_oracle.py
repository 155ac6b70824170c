"""The transitivity and dense-orbit checks as they were before the cells
were built once per depth and transitivity was certified from one forward
image per cell: transitivity realizes the word u.v for every ordered pair
of cells, and both checks compute each cell's enclosure on its own.  And
the periodic point as it was before it came from the integer laws: the
branch laws composed in `Fraction`s, the orbit stepped by `apply` and
tested by `Region.contains_point`.  Tests compare the checks against these,
report for report and error for error.

`apply`, `event_of` and `step` are the forward law in `Fraction`s, the
reference the library's integer forward step (`chaos._orbit`) is tested
against; they left the library because only tests call them."""

from fractions import Fraction
from itertools import product

from primchaos.chaos import (
    PeriodicOrbit,
    _as_word,
    _witness_orbit,
    dense_orbit_word,
    word_enclosure,
)
from primchaos.errors import ConstructionError, InputError
from primchaos.geometry import grid_point
from primchaos.report import CheckReport


def apply(branch, p: tuple) -> tuple:
    return tuple(a * c + b for (a, b), c in zip(branch.coeffs, p))


def event_of(s, p: tuple) -> int:
    for i, ev in enumerate(s.events):
        if ev.contains_point(p):
            return i
    raise InputError(f"point {p} lies outside every event")


def step(s, p: tuple) -> tuple:
    """Total map: apply the law of the first event containing the point."""
    return apply(s.branches[event_of(s, p)], p)


def oracle_transitivity(s, depth: int) -> CheckReport:
    """For every ordered pair (u, v) of depth-d event cells, realize u.v and
    certify the witness starts in cell u and lands in cell v after exactly
    d steps."""
    if not 1 <= depth <= 12:
        raise InputError("transitivity depth must be in 1..12")
    words = ["".join(str(b) for b in bits)
             for bits in product(range(s.alphabet), repeat=depth)]
    cells = {u: word_enclosure(s, u) for u in words}
    rep = CheckReport(f"{s.kind} transitivity, depth {depth}, "
                      f"{len(words) ** 2} ordered pairs")
    bad = None
    for u in words:
        for v in words:
            _, x0, points = _witness_orbit(s, u + v)
            if not (cells[u].contains_point(x0) and
                    cells[v].contains_point(grid_point(*points[depth]))):
                bad = (u, v)
                break
        if bad:
            break
    rep.add("all_pairs_connected", bad is None,
            f"{len(words) ** 2} pairs connected in exactly {depth} steps"
            if bad is None else f"pair {bad} failed")
    return rep


def oracle_dense_orbit(s, depth: int) -> CheckReport:
    """Realize the dense word and test the orbit point where each depth-d
    word first occurs against that word's own enclosure."""
    if s.alphabet != 2:
        raise InputError("dense-orbit words are built over a binary alphabet")
    word = dense_orbit_word(depth)
    _, _, points = _witness_orbit(s, word)
    rep = CheckReport(f"{s.kind} dense orbit, depth {depth}, |word| = {len(word)}")
    missing = []
    for bits in product("01", repeat=depth):
        u = "".join(bits)
        i = word.find(u)
        cell = word_enclosure(s, u)
        if i < 0 or i + depth > len(word) or \
                not cell.contains_point(grid_point(*points[i])):
            missing.append(u)
    rep.add("visits_every_cell", not missing,
            f"all {2 ** depth} depth-{depth} cells visited" if not missing
            else f"missed cells: {missing}")
    return rep


def oracle_periodic_point(s, word: str) -> PeriodicOrbit:
    """The fixed point of the branch laws composed along the word's
    primitive root, certified on its `Fraction` orbit."""
    syms = tuple(map(int, _as_word(s, word)))
    if not syms:
        raise InputError("word must be nonempty")
    n = len(syms)
    m = next(p for p in range(1, n + 1)
             if n % p == 0 and syms[:p] * (n // p) == syms)
    point = []
    for axis in range(s.dim):
        a, b = Fraction(1), Fraction(0)
        for sym in syms[:m]:
            a2, b2 = s.branches[sym].coeffs[axis]
            a, b = a2 * a, a2 * b + b2
        if a == 1:
            raise ConstructionError("branch composition is a translation; "
                                    "no fixed point")
        point.append(b / (1 - a))
    orbit = [tuple(point)]
    for sym in syms[:m]:
        if not s.events[sym].contains_point(orbit[-1]):
            break
        orbit.append(apply(s.branches[sym], orbit[-1]))
    if len(orbit) <= m or orbit[m] != orbit[0]:
        raise ConstructionError(
            f"no periodic point follows word {word} on {s.kind}")
    for d in range(1, m):
        if m % d == 0 and orbit[d] == orbit[0]:
            raise ConstructionError(
                f"period collapses to divisor {d}; word is not primitive")
    return PeriodicOrbit(orbit[0], m, word[:m], tuple(orbit[:m]),
                         None if m == n else word)
