"""Continuous surjections from the Cantor set onto concrete compact targets,
evaluable as (address prefix | parameter) -> exact rational enclosure.

Addresses are binary digit strings (`geometry.binary_word`).  Three map
kinds ship, each onto the target `MAP_KINDS` names for it:

* ``binary_expansion``: Cantor model onto [0,1] by reading the address as a
  binary expansion; depth-n enclosures have width 2^-n.
* ``interleave``: Cantor model onto [0,1]^2; odd-position bits drive the x
  expansion, even-position bits the y expansion.
* ``block_glued``: piecewise map gluing per-block surjections g_i: A_i -> B_i
  over disjoint clopen blocks, the constrained construction behind
  f(A_i) = B_i.  On each input cylinder the tail is re-rooted: a staircase
  of selector bits ("0", "10", ..., all-ones) picks one of B_i's cylinders
  and the remaining bits are copied verbatim, which is onto B_i and has an
  explicit modulus of continuity.

Blocks that fail to cover the Cantor set are padded with their clopen
complement, mapped onto the whole target (the complement of a finite union
of clopen sets is clopen, so this stays inside the same block calculus).
Gluing gives a function only over disjoint pieces, so `CantorMap` rejects a
pair table whose source cylinders overlap; one that leaves words out is
accepted, and a word outside every source has no image.

Waypoint-constrained maps [0,1] -> {interval, square} pin f(x_i) = y_i by
exact rational equality and sweep the whole target between consecutive
waypoints: each gap is split into three equal thirds carrying a linear
approach, a full target sweep (triangle wave for the interval, Hilbert-type
space-filling curve for the square), and a linear return.  The curve's
parameter-0 end sits in the corner quadrant at (0,0) and its parameter-1
end at (1,0), which makes the linear stitching exact.  The pins are the
map: its piece table is derived from them, so it tiles [0,1] in order, and
a parameter's piece is found by bisection on the piece ends.

The image cells of the expansion maps and of the curve are grid cells held
as integers (`Cell`): one kernel per map kind, boxed by `_grid_box` for the
evaluators.  Their certificates read the table their kernel reads and
evaluate no cell, or two per sweep of a square waypoint map; the block
certificate reads each source cylinder's staircase as a list of pieces,
and enumerates no depth-n word (`verify_block_surjection`).  The expansion
maps place the word's bits on the axes by `_placement`, and a map that
spreads the n bits over the axes as a permutation sends the 2^n words onto
the 2^n grid cells, so covering is an O(n) check of that placement.  The
curve is self-similar: its level-(k+1) cells are its level-k cells pushed
through four quadrant maps held in one table, `_CURVE_MAPS`, which
`_curve_cell` reads digit by digit.  So its tiling and adjacency
certificate is an induction over that table, O(k) integer work in place of
a walk over 4^k cells (Hilbert, Math. Ann. 38, 1891; Sagan,
*Space-Filling Curves*, 1994, ch. 2).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import itemgetter
from typing import (Iterable, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple)

from .errors import InputError, check_count
from .geometry import (
    Box,
    Region,
    binary_word,
    cylinder,
    grid_point,
    point_doc,
    rational_str,
    rat,
    region,
)
from .report import CheckReport

ZERO = Fraction(0)
ONE = Fraction(1)
# the longest word the block kinds read: the longest source cylinder that
# `block_surjection` pads around (the padding's length grows as its square,
# about 0.5 M characters at 1024 bits) and the deepest `check_block_depth`
# takes, which is the block certificate's only bound
MAX_CYLINDER_BITS = 1024
# most grid cells, base ** depth, of the cover, curve and waypoint sweep
# certificates (a sweep has 4^r quadrants on the square, 2^r interval
# cells), whose witnesses write the count in decimal
MAX_GRID_CELLS = 2 ** 20
# most pins of a `WaypointMap`: each pin's piece is found by bisection, so
# the certificate's work grows about as the pins (256 pins take about 0.03 s
# in process at resolution 2^-20 on the interval, 2^-10 on the square), and
# so does the CLI document (about 0.2 MB for 256 pins)
MAX_WAYPOINTS = 256
# most steps of the block certificate's walk: the pieces it reads, one per
# target cylinder of each source staircase it meets, and the given A and B
# cylinders it scans and searches.  Bounded three times: by the given A
# cylinders and the given B cylinders, each summed over their blocks with a
# repeated block counted each time; by |A_k| * |B_k| summed over the map's
# pairs, which is what checking the blocks the map was built from reads;
# and by the staircases of the sources the given A cylinders meet, counted
# before the walk
MAX_BLOCK_STEPS = 2 ** 17


# ---------------------------------------------------------------------------
# Integer grid cells; plain expansion surjections
# ---------------------------------------------------------------------------


Cell = Tuple[Tuple[int, ...], Tuple[int, ...]]  # (coordinates, grid sizes)


def _grid_box(coords: Sequence[int], sizes: Sequence[int]) -> Box:
    """The closed box [c/s, (c+1)/s] on every axis."""
    return Box._trusted(grid_point(coords, sizes),
                        grid_point([c + 1 for c in coords], sizes))


# map kind -> (target space, axes its expansion kernel spreads the word's
# bits over; 0 for a map with no expansion kernel)
MAP_KINDS = {"binary_expansion": ("interval", 1), "interleave": ("square", 2),
             "block_glued": ("cantor", 0)}


def _check_cells(depth: int, base: int) -> None:
    """Reject a depth that is not an int >= 0, or whose base ** depth grid
    cells exceed `MAX_GRID_CELLS` (past depth 64 the power is not formed)."""
    check_count(depth, "depth must be >= 0")
    if base ** min(depth, 64) > MAX_GRID_CELLS:
        raise InputError(f"depth {depth} exceeds the work limit of "
                         f"{MAX_GRID_CELLS} cells ({base} ** depth)")


def _placement(n: int, axes: int) -> Tuple[Tuple[int, ...], ...]:
    """Where the expansion maps read a word of length n: per axis, the word
    positions it reads as one binary numeral, most significant first.  Axis
    a reads a, a + axes, ...  The kernel and the covering certificate both
    read this placement."""
    return tuple(tuple(range(a, n, axes)) for a in range(axes))


def _expansion_cell(word: str, axes: int) -> Cell:
    """Grid cell of the expansion image of a binary cylinder: each axis
    reads the word's bits at its `_placement` positions as one numeral."""
    digits = ["".join([word[i] for i in pos])
              for pos in _placement(len(word), axes)]
    return (tuple([int(d or "0", 2) for d in digits]),
            tuple([1 << len(d) for d in digits]))


# ---------------------------------------------------------------------------
# Clopen blocks
# ---------------------------------------------------------------------------


def _overlap(cyls: Sequence[str]) -> Optional[Tuple[str, str]]:
    """Two cylinders one of which is a prefix of the other (so they meet),
    or None.  Sorted, a word is directly followed by its extensions, so
    neighbours suffice."""
    ordered = sorted(cyls)
    for a, b in zip(ordered, ordered[1:]):
        if b.startswith(a):
            return a, b
    return None


def _prefix_in(ordered: Sequence[str], word: str) -> Optional[str]:
    """The word of a sorted list, no word of which is a prefix of another,
    that is a prefix of `word`, or None: only the greatest one <= `word`
    can be."""
    j = bisect_right(ordered, word)
    return ordered[j - 1] if j and word.startswith(ordered[j - 1]) else None


def _extensions(ordered: Sequence[str], word: str) -> Sequence[str]:
    """The binary words of a sorted list that extend `word` and differ from
    it: those after `word` and before `word + "2"`, where every extension
    sorts."""
    return ordered[bisect_right(ordered, word):bisect_left(ordered, word + "2")]


@dataclass(frozen=True)
class ClopenBlock:
    """Finite union of middle-third cylinders, clopen by construction.

    Cylinders are binary address strings; none may be a prefix of another
    (that is exactly pairwise disjointness of middle-third cylinders).
    """

    cylinders: Tuple[str, ...]

    def __post_init__(self):
        if isinstance(self.cylinders, str):
            raise InputError("a clopen block takes a tuple, not a string")
        if not self.cylinders:
            raise InputError("a clopen block needs at least one cylinder")
        cyls = self.cylinders
        for c in cyls:
            binary_word(c)
        if len(set(cyls)) != len(cyls):
            raise InputError("duplicate cylinder")
        pair = _overlap(cyls)
        if pair:
            raise InputError(f"cylinders {pair[0]!r} and {pair[1]!r} overlap")

    @cached_property
    def _ordered(self) -> List[str]:
        return sorted(self.cylinders)

    def contains_address(self, word: str) -> bool:
        return _prefix_in(self._ordered, word) is not None


def clopen_partition(n: int) -> List[ClopenBlock]:
    """n disjoint nonempty clopen blocks covering the Cantor model:
    the staircase cylinders "0", "10", "110", ..., then all-ones."""
    check_count(n, "need n >= 1 blocks", 1)
    if n == 1:
        return [ClopenBlock(("",))]
    blocks = [ClopenBlock(("1" * i + "0",)) for i in range(n - 1)]
    blocks.append(ClopenBlock(("1" * (n - 1),)))
    return blocks


def blocks_pairwise_disjoint(blocks: Sequence[ClopenBlock]) -> bool:
    return _overlap([c for b in blocks for c in b.cylinders]) is None


def _block_list(blocks) -> bool:
    """True iff blocks is a list or tuple of `ClopenBlock`s."""
    return isinstance(blocks, (list, tuple)) and \
        all(isinstance(b, ClopenBlock) for b in blocks)


def _check_block_lists(blocks_a, blocks_b) -> None:
    if not (_block_list(blocks_a) and _block_list(blocks_b)):
        raise InputError("blocks must be lists of ClopenBlocks")


def _complement_cylinders(cylinders: Iterable[str],
                          word: str = "") -> Iterator[str]:
    """The words under `word` extending none of the cylinders, as a minimal
    cylinder set in walk order (0 before 1), by an explicit stack, so no
    cylinder length runs out of recursion: a subtree disjoint from every
    cylinder is one complement cylinder, one inside a cylinder contributes
    nothing, and mixed ones split, up to once per bit of the longest
    cylinder.  So none is longer than the longest cylinder, and the first
    one yielded, padded with zeros to that length or more, is the least
    word of that length extending none."""
    stack = [(word, list(cylinders))]
    while stack:
        prefix, under = stack.pop()
        if any(prefix.startswith(c) for c in under):
            continue  # fully covered
        inside = [c for c in under if c.startswith(prefix)]
        if not inside:
            yield prefix
        else:
            stack += [(prefix + "1", inside), (prefix + "0", inside)]


# ---------------------------------------------------------------------------
# CantorMap: uniform wrapper over the kinds of MAP_KINDS
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CantorMap:
    """Evaluable continuous surjection with certified enclosures.

    Evaluating on an address prefix of length n yields an enclosure whose
    diameter obeys `modulus(n)`; enclosures nest as prefixes extend.  A
    block_glued map is a function: the source cylinders of its pairs are
    pairwise disjoint, and a table whose sources overlap is rejected.  They
    need not cover the Cantor set; a word outside them has no image.
    """

    kind: str  # a key of MAP_KINDS
    pairs: Tuple[Tuple[ClopenBlock, ClopenBlock], ...] = ()

    @cached_property
    def _sources(self) -> Tuple[dict, List[str]]:
        """`_images`' index of `pairs`: source cylinder -> the index of its
        pair, and the source cylinders sorted.  A kind with no symbolic
        evaluation has none, so the block walk evaluates its first word,
        which raises."""
        index = {c: k for k, (a_blk, _) in enumerate(self.pairs)
                 for c in a_blk.cylinders if self.kind == "block_glued"}
        return index, sorted(index)

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in MAP_KINDS:
            raise InputError(f"unknown map kind {self.kind!r}; expected one "
                             f"of {tuple(MAP_KINDS)}")
        if not (isinstance(self.pairs, tuple) and all(
                isinstance(pair, tuple) and len(pair) == 2
                and _block_list(pair) for pair in self.pairs)):
            raise InputError("pairs must be a tuple of (ClopenBlock, "
                             "ClopenBlock) pairs")
        if not blocks_pairwise_disjoint([a_blk for a_blk, _ in self.pairs]):
            raise InputError("source blocks overlap")

    @property
    def target(self) -> str:
        return MAP_KINDS[self.kind][0]

    def modulus(self, n: int) -> Fraction:
        """Certified bound on image-enclosure diameter for depth-n inputs:
        an expansion map's box halves on every axis once per `axes` bits
        of the word, its count in `MAP_KINDS`."""
        axes = MAP_KINDS[self.kind][1]
        if axes:
            return Fraction(1, 2 ** (n // axes))
        overhead = threshold = 0
        for a_blk, b_blk in self.pairs:
            sel = len(b_blk.cylinders) - 1
            worst_in = max(len(c) for c in a_blk.cylinders)
            best_out = min(len(d) for d in b_blk.cylinders)
            overhead = max(overhead, worst_in + sel - best_out)
            threshold = max(threshold, worst_in + sel)
        if n < threshold:
            return ONE
        return Fraction(1, 3 ** max(0, n - overhead))


def _images(f: CantorMap, c: str, word: str) -> List[Tuple[int, str]]:
    """The pieces of source cylinder c that meet a word, which extends c or
    is a prefix of it, as (i, o) pairs.  With t_0, ..., t_k the targets of
    c's pair, c's staircase sends step i, c + 1^i 0 (c + 1^k for i = k),
    onto t_i, and piece (i, o) is the part of step i whose words p + e map
    onto o + e (p is `_piece_source`).  A word that reads its selector
    meets one piece; a shorter one, c itself or a prefix of c included,
    meets the rest of the staircase, whose outputs are the targets
    themselves.  So no piece's source is built and no target copied."""
    targets = f.pairs[f._sources[0][c]][1].cylinders
    k = len(targets) - 1
    tail = word[len(c):]
    j = (tail[:k] + "0").find("0")  # the staircase's leading 1s
    if j == k or j < len(tail):  # selector read
        return [(j, targets[j] + tail[j + (j < k):])]
    return list(enumerate(targets[j:], j))


def _piece_source(f: CantorMap, c: str, i: int, o: str) -> str:
    """The source p of piece (i, o) of source cylinder c (`_images`): step
    i of c's staircase followed by the bits of o past t_i."""
    targets = f.pairs[f._sources[0][c]][1].cylinders
    return c + "1" * i + "0" * (i + 1 < len(targets)) + o[len(targets[i]):]


def evaluate_symbolic(f: CantorMap, word: str) -> List[str]:
    """Image enclosure of a cylinder as output cylinder addresses.

    Only defined for the Cantor-target kind, block_glued.
    """
    binary_word(word)
    if f.kind != "block_glued":
        raise InputError(f"{f.kind} has no symbolic evaluation")
    index, ordered = f._sources
    c = _prefix_in(ordered, word)
    if c is not None:
        return sorted([o for _, o in _images(f, c, word)])  # all distinct
    # the word has not yet chosen among the source cylinders it is a proper
    # prefix of, so their blocks map onto all of B_i
    above = dict.fromkeys(index[e] for e in _extensions(ordered, word))
    outs = sorted({o for k in above for o in f.pairs[k][1].cylinders})
    if not outs:
        raise InputError(f"address {word!r} lies outside every block")
    return outs


def evaluate_map(f: CantorMap, prefix: str) -> Region:
    """Exact enclosure of the image of the given cylinder."""
    axes = MAP_KINDS[f.kind][1]
    if axes:
        return region(_grid_box(*_expansion_cell(binary_word(prefix), axes)))
    return region([cylinder(o).boxes[0] for o in evaluate_symbolic(f, prefix)])


def block_surjection(blocks_a: Sequence[ClopenBlock],
                     blocks_b: Sequence[ClopenBlock]) -> CantorMap:
    """Glued surjection f with f(A_i) = B_i for clopen constraint blocks.

    A blocks must be mutually disjoint and nonempty; B blocks nonempty.  If
    the A blocks do not cover the Cantor model, the clopen complement is
    appended as one extra block mapped onto the whole target.  An A
    cylinder longer than `MAX_CYLINDER_BITS` is rejected before the
    padding is built.
    """
    _check_block_lists(blocks_a, blocks_b)
    if len(blocks_a) != len(blocks_b):
        raise InputError("need as many target blocks as source blocks")
    if not blocks_a:
        raise InputError("need at least one block")
    if not blocks_pairwise_disjoint(blocks_a):
        raise InputError("source blocks overlap")
    if max(len(c) for b in blocks_a for c in b.cylinders) > MAX_CYLINDER_BITS:
        raise InputError(f"source cylinder longer than {MAX_CYLINDER_BITS} bits")
    pairs = list(zip(blocks_a, blocks_b))
    leftover = sorted(_complement_cylinders(
        c for b in blocks_a for c in b.cylinders), key=lambda w: (len(w), w))
    if leftover:
        pairs.append((ClopenBlock(tuple(leftover)), ClopenBlock(("",))))
    return CantorMap("block_glued", tuple(pairs))


def check_block_depth(blocks_a: Sequence[ClopenBlock],
                      blocks_b: Sequence[ClopenBlock], depth: int) -> None:
    """Reject block lists that are not lists of `ClopenBlock`s, then a depth
    `verify_block_surjection` cannot take: not an int >= 0, then over
    `MAX_CYLINDER_BITS` (its eps would not print).  Then lists of unequal
    length, or whose A or B cylinders, a block counted each time it
    appears, number over `MAX_BLOCK_STEPS`, before any cylinder is read.
    Then a depth shorter than a cylinder, naming the first in the order
    A_0, B_0, A_1, ..."""
    _check_block_lists(blocks_a, blocks_b)
    check_count(depth, "depth must be >= 0")
    if depth > MAX_CYLINDER_BITS:
        raise InputError(f"depth {depth} longer than {MAX_CYLINDER_BITS} bits")
    if len(blocks_a) != len(blocks_b):
        raise InputError("need as many target blocks as source blocks")
    for side, blocks in (("A", blocks_a), ("B", blocks_b)):
        count = sum(len(b.cylinders) for b in blocks)
        if count > MAX_BLOCK_STEPS:
            raise InputError(f"{side} blocks of {count} cylinders exceed the "
                             f"work limit of {MAX_BLOCK_STEPS} block steps")
    for a_blk, b_blk in zip(blocks_a, blocks_b):
        for c in (*a_blk.cylinders, *b_blk.cylinders):
            if len(c) > depth:
                raise InputError(f"depth {depth} shallower than cylinder {c!r}")


def verify_block_surjection(f: CantorMap, blocks_a: Sequence[ClopenBlock],
                            blocks_b: Sequence[ClopenBlock],
                            depth: int) -> CheckReport:
    """Certify f(A_i) = B_i at a working depth.

    Containment direction is exact: every depth-n cylinder of A_i must have
    its image enclosure inside B_i.  Covering direction is at the map's
    modulus: every depth-n cylinder of B_i must meet some image enclosure,
    which bounds the Hausdorff defect by modulus(depth).  A depth that is
    not an int in [0, `MAX_CYLINDER_BITS`] or is shorter than a cylinder,
    and block lists of unequal length or of more than `MAX_BLOCK_STEPS` A
    or B cylinders, are rejected (`check_block_depth`) before the modulus
    is read, then a map whose pairs exceed it, then A blocks whose walk would
    read more pieces than that: an A cylinder under a source reads at most
    its staircase, and one above sources reads all of theirs, counted by a
    prefix sum over the sorted sources.

    No depth-n word is enumerated.  A depth-n word under an A_i that lies
    in no source is the walk's error, found first.  Then each A_i cylinder
    p is read as pieces, in walk order (`_images`): those of its source, or
    the whole staircase of every source under it.  A piece's source q maps
    q + e onto o + e, which a B_i word meets iff it extends o[:n]; q is
    built only for a piece whose o leaves B_i, and each distinct o is
    looked up in B_i once, until one leaves it.  Each check finds the first
    word a walk would fail at, by one search for a depth-n word extending
    no cylinder (`_first_miss`).  So the work is one step per piece and
    per cylinder of the blocks, and a string as long as a piece's source
    is built at most once per piece that leaves B_i.
    """
    check_block_depth(blocks_a, blocks_b, depth)
    steps = sum(len(a.cylinders) * len(b.cylinders) for a, b in f.pairs)
    if steps > MAX_BLOCK_STEPS:
        raise InputError(f"a map of {steps} block steps exceeds the work "
                         f"limit of {MAX_BLOCK_STEPS} steps (source times "
                         f"target cylinders, summed over its blocks)")
    index, ordered = f._sources
    before = [0, *accumulate(len(f.pairs[index[s]][1].cylinders)
                             for s in ordered)]
    walked = [p for a in blocks_a for p in a.cylinders]
    pieces = 0
    for p in walked:
        j = bisect_right(ordered, p)
        if j and p.startswith(ordered[j - 1]):  # under the source j - 1
            pieces += before[j] - before[j - 1]
        else:  # above the sources that extend p (`_extensions`)
            pieces += before[bisect_left(ordered, p + "2")] - before[j]
        if pieces > MAX_BLOCK_STEPS:
            raise InputError(f"A blocks whose walk reads over "
                             f"{MAX_BLOCK_STEPS} pieces exceed the work limit "
                             f"of {MAX_BLOCK_STEPS} block steps (the target "
                             f"cylinders of the sources they meet)")
    rep = CheckReport(f"block surjection, {len(blocks_a)} blocks, depth {depth}, "
                      f"eps {rational_str(f.modulus(depth))}")
    # the walk's error: the first depth-n word under an A_i in no source
    hole = _first_miss([s[:depth] for s in ordered], walked, depth)
    if hole is not None:
        evaluate_symbolic(f, hole)
    for i, (a_blk, b_blk) in enumerate(zip(blocks_a, blocks_b)):
        reached, inside, word = set(), set(), None
        for p in a_blk.cylinders:
            c = _prefix_in(ordered, p)  # p's source, or the sources under p
            for s in [c] if c is not None else _extensions(ordered, p):
                for j, o in _images(f, s, p):
                    reached.add(o[:depth])
                    if word is not None or o in inside:
                        continue
                    if b_blk.contains_address(o):
                        inside.add(o)
                    else:
                        # q + e, q the piece's source, maps onto o + e,
                        # which lies in a cylinder b of B_i only if b
                        # extends o and e extends b[len(o):]; q cut after
                        # bit n + 1 keeps every such cylinder past bit n
                        q = _piece_source(f, s, j, o)[:depth + 1]
                        word = _first_miss([q + b[len(o):] for b in
                                            _extensions(b_blk._ordered, o)],
                                           [q[:depth]], depth)
        outs = evaluate_symbolic(f, word) if word is not None else []
        bad = next((f"f(cyl {word}) reaches cyl {o}" for o in outs
                    if not b_blk.contains_address(o)), "")
        rep.add(f"containment_block_{i}", not bad,
                bad or f"f(A_{i}) subset B_{i} exactly")
        miss = _first_miss(reached, b_blk.cylinders, depth)
        rep.add(f"covering_block_{i}", miss is None,
                f"B_{i} within eps of f(A_{i})" if miss is None
                else f"cyl {miss} of B_{i} misses every image enclosure")
    return rep


def _first_miss(reached: Iterable[str], cylinders: Sequence[str],
                depth: int) -> Optional[str]:
    """The first depth-n word, in cylinder order and then walk order, under
    a cylinder and extending none of the reached ones, or None; no cylinder
    it walks under is longer than n.  Each walk reads only the reached
    cylinders that extend its cylinder d, once no reached one extends
    another and none is a prefix of d.  The block walk reads it for the
    B_i words no image meets, the A_i words no source holds, and the first
    word of a piece whose image leaves B_i."""
    ordered: List[str] = []
    # a cylinder follows the ones it extends, and none longer than n holds
    # a depth-n word
    for c in sorted(r for r in reached if len(r) <= depth):
        if not ordered or not c.startswith(ordered[-1]):
            ordered.append(c)
    for d in cylinders:
        if _prefix_in(ordered, d) is not None:
            continue  # d lies inside a reached cylinder
        w = next(_complement_cylinders(_extensions(ordered, d), d), None)
        if w is not None:
            return w.ljust(depth, "0")
    return None


def verify_cover_map(f: CantorMap, depth: int) -> CheckReport:
    """Surjectivity at resolution: depth-n image enclosures of all 2^n
    cylinders must tile the target exactly (each is one cell of the depth-n
    grid and no two coincide).

    Certified from the kernel's `_placement` in O(n), with no cell
    evaluated.  An axis reading a numeral of another width than the grid's
    gives cells that hit no grid cell.  Otherwise the numerals spell out the
    bits at the positions read, so the 2^n words hit one grid cell per
    setting of the distinct positions, and all 2^n cells exactly when the
    positions are a permutation of range(n)."""
    _check_cells(depth, 2)
    rep = CheckReport(f"{f.kind} covering at depth {depth}")
    axes = MAP_KINDS[f.kind][1]
    if not axes:
        raise InputError(f"covering verification ships for binary_expansion "
                         f"and interleave, not {f.kind}")
    sizes = tuple(1 << len(range(a, depth, axes)) for a in range(axes))
    cells = 2 ** depth
    placement = _placement(depth, axes)
    read = [i for pos in placement for i in pos]
    on_grid = tuple(1 << len(pos) for pos in placement) == sizes
    hit = 1 << len(set(read)) if on_grid else 0
    ok = on_grid and sorted(read) == list(range(depth))
    grid = "[0,1] exactly" if axes == 1 else \
        f"the square as a {sizes[0]}x{sizes[1]} grid"
    rep.add("images_tile_target", ok,
            f"{cells} enclosures tile {grid}" if ok
            else f"{hit} of {cells} grid cells hit")
    return rep


def verify_curve(depth: int) -> CheckReport:
    """Continuity and surjectivity witnesses for the space-filling curve:
    consecutive parameter cells give edge-adjacent quadrants, and the 4^k
    quadrants tile the square.  Both follow by induction over the levels
    from the quadrant table (`_curve_certificate`), with no cell walk."""
    _check_cells(depth, 4)
    rep = CheckReport(f"space-filling curve at depth {depth}")
    cells = 4 ** depth
    cert = _curve_certificate(depth)
    rep.add("consecutive_cells_adjacent", not cert.stitching,
            cert.stitching or f"{max(0, cells - 1)} parameter steps checked")
    rep.add("quadrants_tile_square", not cert.tiling,
            cert.tiling or f"{cells} quadrants, side 2^-{depth}")
    rep.add("orientation_endpoints", cert.ends,
            "starts at the (0,0) corner, ends at the (1,0) corner")
    return rep


# ---------------------------------------------------------------------------
# Space-filling curve quadrants
# ---------------------------------------------------------------------------


# The quadrant maps T_0..T_3 that put the curve on an s x s grid into the
# 2s x 2s grid, one per base-4 parameter digit.  Per output axis: the
# coefficients of x and y (a signed permutation), then m and c of the
# offset m*s + c.
_CURVE_MAPS = (
    ((0, 1, 0, 0), (1, 0, 0, 0)),  # transpose into the (0,0) quadrant
    ((1, 0, 0, 0), (0, 1, 1, 0)),  # shift into the (0,1) quadrant
    ((1, 0, 1, 0), (0, 1, 1, 0)),  # shift into the (1,1) quadrant
    ((0, -1, 2, -1), (-1, 0, 1, -1)),  # anti-transpose into (1,0)
)


def _quadrant_map(d: int, s: int, x: int, y: int) -> Tuple[int, int]:
    """T_d of `_CURVE_MAPS` at side s: cell (x, y) of the s x s grid to its
    cell of the 2s x 2s grid."""
    (a, b, m, c), (e, f, n, g) = _CURVE_MAPS[d]
    return a * x + b * y + m * s + c, e * x + f * y + n * s + g


def _curve_cell(k: int, j: int) -> Tuple[int, int]:
    """Grid coordinates of the j-th depth-k quadrant of the space-filling
    curve running from the (0,0) corner to the (1,0) corner.  Each base-4
    digit of j, lowest first, puts the cell so far into one quadrant."""
    x = y = 0
    for level in range(k):
        x, y = _quadrant_map(j & 3, 1 << level, x, y)
        j >>= 2
    return x, y


class _CurveCertificate(NamedTuple):
    tiling: str  # why the quadrants may fail to tile the square, or ""
    stitching: str  # why a parameter step may leave its edge, or ""
    ends: bool  # every level runs from the (0,0) to the (1,0) corner


def _curve_certificate(k: int) -> _CurveCertificate:
    """Prove the depth-k curve statement by induction over the levels.

    The level-(l+1) curve is the level-l curve pushed through T_0..T_3 in
    turn.  If every T_d is a grid isometry (signed-permutation linear part),
    the four images of the s x s grid are four distinct aligned quadrants of
    the 2s x 2s grid, and T_d(end) is edge-adjacent to T_{d+1}(start), then
    a level-l curve that tiles its grid in edge-adjacent steps gives a
    level-(l+1) curve that does too.  The endpoints are carried along and
    must sit at (0,0) and (2s-1,0) on every level.  O(k) integer work; a
    fault string names the first check that fails."""
    tiling = stitching = ""
    # the depth-0 curve is the one cell (0,0) and reads no quadrant map
    if k and not all(abs(a) + abs(b) == 1 and
                     (abs(e), abs(f)) == (abs(b), abs(a))
                     for (a, b, _, _), (e, f, _, _) in _CURVE_MAPS):
        tiling = stitching = "a quadrant map is not a grid isometry"
    ends = True
    start = end = (0, 0)
    for level in range(k):
        s = 1 << level
        # an isometry takes the grid's opposite corners to its image's, so
        # the low corner of T_d's image is their coordinate-wise minimum
        lows = set()
        for d in range(4):
            p, q = _quadrant_map(d, s, 0, 0), _quadrant_map(d, s, s - 1, s - 1)
            lows.add((min(p[0], q[0]), min(p[1], q[1])))
        if lows != {(0, 0), (0, s), (s, 0), (s, s)}:
            tiling = tiling or \
                f"level {level}: the quadrant maps miss a quadrant of the grid"
        heads = [_quadrant_map(d, s, *start) for d in range(4)]
        tails = [_quadrant_map(d, s, *end) for d in range(4)]
        if any(abs(p[0] - q[0]) + abs(p[1] - q[1]) != 1
               for p, q in zip(tails, heads[1:])):
            stitching = stitching or \
                f"level {level}: consecutive quadrants do not share an edge"
        start, end = heads[0], tails[3]
        ends = ends and start == (0, 0) and end == (2 * s - 1, 0)
    return _CurveCertificate(tiling, stitching, ends)


def _curve_box(k: int, j: int) -> Box:
    return _grid_box(_curve_cell(k, j), (1 << k, 1 << k))


def hilbert_enclosure(t_cell: Tuple) -> Region:
    """Square quadrant enclosing the curve's image of a dyadic parameter cell.

    The cell is the pair (lo, hi) of its ends and must be
    [j*4^-k, (j+1)*4^-k].  Adjacent parameter cells map to edge-adjacent
    quadrants (continuity witness) and the 4^k quadrants at depth k tile
    the square (surjectivity witness).
    """
    if not isinstance(t_cell, (tuple, list)) or len(t_cell) != 2:
        raise InputError(f"parameter cell {t_cell!r} is not a pair (lo, hi)")
    lo, hi = map(rat, t_cell)
    width = hi - lo
    if width <= 0:
        raise InputError("parameter cell must have positive width")
    quarters = ONE / width
    k = (quarters.numerator.bit_length() - 1) // 2
    if quarters != 4 ** k:
        raise InputError(f"cell width {width} is not a power of 1/4")
    j = lo / width
    if j.denominator != 1 or not 0 <= j.numerator < 4 ** k:
        raise InputError(f"cell [{lo}, {hi}] is not aligned to depth {k}")
    return region(_curve_box(k, j.numerator))


# ---------------------------------------------------------------------------
# Waypoint-constrained Peano-to-Peano maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WaypointMap:
    """Pinning data: f(x_i) = y_i for strictly increasing x_i in [0,1]; the
    pins a tuple of pairs (x_i, y_i), y_i a tuple, each coordinate an int
    or `Fraction` (`waypoint_map` parses other rationals)."""

    waypoints: Tuple[Tuple[Fraction, tuple], ...]
    target: str  # interval | square

    def __post_init__(self):
        if self.target not in ("interval", "square"):
            raise InputError("target must be 'interval' or 'square'")
        if not isinstance(self.waypoints, tuple):
            raise InputError("pins must be a tuple, got "
                             f"{type(self.waypoints).__name__}")
        for pin in self.waypoints:
            if not (isinstance(pin, tuple) and len(pin) == 2):
                raise InputError(f"pin {pin!r} is not a pair (x, target point)")
            if not isinstance(pin[1], tuple):
                raise InputError(f"target point {pin[1]!r} is not a tuple")
            for c in (pin[0], *pin[1]):  # a bool is an int, and kept
                if not isinstance(c, (int, Fraction)):
                    raise InputError(f"pin coordinate {c!r} is not an int "
                                     f"or Fraction")
        if not self.waypoints:
            raise InputError("need at least one waypoint")
        if len(self.waypoints) > MAX_WAYPOINTS:
            raise InputError(f"at most {MAX_WAYPOINTS} waypoints, "
                             f"got {len(self.waypoints)}")
        xs = [x for x, _ in self.waypoints]
        if any(not ZERO <= x <= ONE for x in xs):
            raise InputError("waypoint parameters must lie in [0,1]")
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise InputError("waypoint parameters must be strictly increasing")
        want_dim = 1 if self.target == "interval" else 2
        for _, y in self.waypoints:
            if len(y) != want_dim:
                raise InputError(f"target point {y} has wrong dimension")
            if any(not ZERO <= c <= ONE for c in y):
                raise InputError(f"target point {y} outside the target space")


def waypoint_map(points, target: str) -> WaypointMap:
    """The `WaypointMap` of pins (x, y): x a rational, y a tuple or list of
    rationals, one per axis of the target; the pins a list or tuple."""
    if not isinstance(points, (tuple, list)):
        raise InputError("pins must be a list or tuple, got "
                         f"{type(points).__name__}")
    wps = []
    for pin in points:
        if not (isinstance(pin, (tuple, list)) and len(pin) == 2
                and isinstance(pin[1], (tuple, list))):
            raise InputError(f"pin {pin!r} is not a pair (x, target point)")
        wps.append((rat(pin[0]), tuple(rat(c) for c in pin[1])))
    return WaypointMap(tuple(wps), target)


@dataclass(frozen=True)
class WaypointSurjection:
    """Piecewise realization of a WaypointMap: constant flanks, and per gap
    a linear approach, a full target sweep, and a linear return.  The pins
    are the map; its piece table is derived from them."""

    pinning: WaypointMap

    @cached_property
    def pieces(self) -> Tuple[tuple, ...]:
        """(lo, hi, kind, data) per piece, in order.  The pieces tile [0,1]:
        the first starts at 0, the last ends at 1, each ends where the next
        starts, and lo < hi.  With a single waypoint a virtual copy of its
        value is appended at parameter 1 (or prepended at 0 when x_1 = 1)
        so that at least one sweep exists and the map is onto."""
        wps = list(self.pinning.waypoints)
        if len(wps) == 1:
            x1, y1 = wps[0]
            if x1 < ONE:
                wps.append((ONE, y1))
            else:
                wps.insert(0, (ZERO, y1))
        start, end = _sweep_endpoints(self.pinning.target)
        pieces: List[tuple] = []
        x0, y0 = wps[0]
        if x0 > ZERO:
            pieces.append((ZERO, x0, "const", y0))
        for (xa, ya), (xb, yb) in zip(wps, wps[1:]):
            third = (xb - xa) / 3
            pieces.append((xa, xa + third, "linear", (ya, start)))
            pieces.append((xa + third, xa + 2 * third, "sweep", None))
            pieces.append((xa + 2 * third, xb, "linear", (end, yb)))
        xn, yn = wps[-1]
        if xn < ONE:
            pieces.append((xn, ONE, "const", yn))
        return tuple(pieces)


def _sweep_endpoints(target: str) -> Tuple[tuple, tuple]:
    if target == "interval":
        return (ZERO,), (ZERO,)
    return (ZERO, ZERO), (ONE, ZERO)


def waypoint_surjection(w: WaypointMap) -> WaypointSurjection:
    """Build the evaluable map of the pins w."""
    return WaypointSurjection(w)


def _affine_point(p: tuple, q: tuple, u: Fraction) -> tuple:
    return tuple(a + (b - a) * u for a, b in zip(p, q))


def _triangle(u: Fraction) -> Fraction:
    return ONE - abs(ONE - 2 * u)


def _piece_at(ws: WaypointSurjection, t) -> Tuple[str, Fraction, Optional[tuple]]:
    """The piece holding parameter t: its kind, the position u of t along
    it, and f(t) exactly (None inside a square sweep).  It is the first
    piece ending at or after t, found by bisection on the piece ends, so at
    a shared end t = hi_i = lo_(i+1) it is the earlier piece."""
    t = rat(t)
    if not ZERO <= t <= ONE:
        raise InputError("parameter outside [0,1]")
    target = ws.pinning.target
    i = bisect_left(ws.pieces, t, key=itemgetter(1))
    lo, hi, kind, data = ws.pieces[i]
    u = (t - lo) / (hi - lo)
    if kind == "const":
        return kind, u, data
    if kind == "linear":
        return kind, u, _affine_point(data[0], data[1], u)
    if target == "interval":
        return kind, u, (_triangle(u),)
    start, end = _sweep_endpoints(target)
    return kind, u, start if u == ZERO else end if u == ONE else None


def evaluate_waypoint(ws: WaypointSurjection, t, depth: int = 8) -> Region:
    """Enclosure of f(t), width at most 2^-depth (exact point when the
    piece is affine).  `_check_cells` bounds the depth as it bounds the
    certificate's resolution: on a square sweep the work grows as the square
    of the depth."""
    _check_cells(depth, 4 if ws.pinning.target == "square" else 2)
    kind, u, exact = _piece_at(ws, t)
    if kind == "sweep" and ws.pinning.target == "square":
        side = 1 << depth
        return region(_grid_box(_sweep_cell(u, depth), (side, side)))
    return region(Box(exact, exact))


def _sweep_cell(u: Fraction, depth: int) -> Tuple[int, int]:
    """The depth-`depth` curve cell at position u in [0,1] along a square
    sweep: `_curve_cell` of the index min(floor(u * 4^depth), 4^depth - 1)."""
    cells = 4 ** depth
    return _curve_cell(depth, min(u.numerator * cells // u.denominator,
                                  cells - 1))


def _sample_agrees(ws: WaypointSurjection, t, j: int, depth: int) -> bool:
    """On a square target: whether `evaluate_waypoint(ws, t, depth)` is the
    depth-`depth` curve cell j, decided on the integer cells both box."""
    kind, u, _ = _piece_at(ws, t)
    return kind == "sweep" and _sweep_cell(u, depth) == _curve_cell(depth, j)


def sweep_segments(ws: WaypointSurjection) -> List[Tuple[Fraction, Fraction]]:
    return [(lo, hi) for lo, hi, kind, _ in ws.pieces if kind == "sweep"]


def evaluate_waypoint_exact(ws: WaypointSurjection, t) -> Optional[tuple]:
    """Exact value of f(t) when representable: everywhere except interior
    square-sweep parameters (returns None there)."""
    return _piece_at(ws, t)[2]


def verify_waypoint_surjection(ws: WaypointSurjection,
                               resolution: int = 8) -> CheckReport:
    """Certify exact pinning, exact stitching at sweep boundaries, and
    coverage of the whole target at resolution 2^-resolution."""
    w = ws.pinning
    _check_cells(resolution, 4 if w.target == "square" else 2)
    rep = CheckReport(f"waypoint map onto {w.target}, "
                      f"{len(w.waypoints)} waypoints, resolution 2^-{resolution}")
    for i, (x, y) in enumerate(w.waypoints):
        got = evaluate_waypoint_exact(ws, x)
        rep.add(f"pin_waypoint_{i}", got == y,
                f"f({rational_str(x)}) = {point_doc(got)}" if got is not None
                else "no exact value")
    sweeps = sweep_segments(ws)
    rep.add("has_sweep", bool(sweeps), f"{len(sweeps)} sweep segment(s)")
    if w.target == "square" and sweeps:
        # every square sweep runs the same curve: one certificate serves all.
        # The linear pieces join the sweep at its `_sweep_endpoints`, so the
        # curve must run between the same corners for the map to be continuous
        cells = 4 ** resolution
        cert = _curve_certificate(resolution)
        coverage = cert.tiling or f"{cells} of {cells} quadrants hit"
        if not cert.ends:
            coverage += "; the curve does not run from (0,0) to (1,0), " \
                "where the linear pieces join it"
        # The derived pieces tile [0,1] in order, each with lo < hi, so for
        # each t strictly inside a sweep `_piece_at` finds that sweep and
        # takes u = (t - lo) / (hi - lo).  At the midpoint of cell j that is
        # (4j + 2) / (4 * 4^r), so `_sweep_cell` boxes floor(u * 4^r) = j,
        # the curve's cell j.  The end cells still run the evaluator, so a
        # fault in `_piece_at` or `_sweep_cell` shows there
    for si, (lo, hi) in enumerate(sweeps):
        if w.target == "interval":
            # both halves of the triangle wave are affine and monotone, so
            # the sweep's exact image is the span of their endpoint values
            mid = lo + (hi - lo) / 2
            ends = [evaluate_waypoint_exact(ws, t)[0] for t in (lo, mid, hi)]
            img = region([Box((min(p, q),), (max(p, q),))
                          for p, q in zip(ends, ends[1:])])
            ok = img == region(Box((ZERO,), (ONE,)))
            rep.add(f"sweep_{si}_covers_target", ok,
                    "triangle wave image is [0,1] exactly")
        else:
            consistent = all(_sample_agrees(
                ws, lo + (hi - lo) * Fraction(4 * j + 2, 4 * cells), j,
                resolution) for j in {0, cells - 1})
            rep.add(f"sweep_{si}_covers_target",
                    not cert.tiling and cert.ends and consistent,
                    f"{coverage}; evaluator consistent: {consistent}")
    return rep


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------


def map_document(f: CantorMap) -> dict:
    doc = {"kind": f.kind, "target": f.target}
    if f.kind == "block_glued":
        doc["blocks"] = [
            {"source": list(a.cylinders), "target": list(b.cylinders)}
            for a, b in f.pairs
        ]
    return doc


def waypoint_document(ws: WaypointSurjection) -> dict:
    return {
        "kind": "waypoint",
        "target": ws.pinning.target,
        "waypoints": [
            {"x": rational_str(x), "y": point_doc(y)}
            for x, y in ws.pinning.waypoints
        ],
        "pieces": [
            {"from": rational_str(lo), "to": rational_str(hi), "kind": kind}
            for lo, hi, kind, _ in ws.pieces
        ],
    }
