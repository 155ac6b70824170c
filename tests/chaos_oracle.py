"""The transitivity and dense-orbit checks as they were before the cells
were built once per depth and transitivity was certified from one forward
image per cell: transitivity realizes the word u.v for every ordered pair
of cells, and both checks compute each cell's enclosure on its own.  Tests
compare the checks against these, report for report and error for error."""

from itertools import product

from primchaos.chaos import (
    _as_word,
    _witness_orbit,
    dense_orbit_word,
    word_enclosure,
)
from primchaos.errors import InputError
from primchaos.geometry import grid_point
from primchaos.report import CheckReport


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
            _, x0, points = _witness_orbit(s, _as_word(s, u + v), u + v)
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
    _, _, points = _witness_orbit(s, _as_word(s, word), word)
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
