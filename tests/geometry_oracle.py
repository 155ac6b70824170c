"""Box-union code as it was before `closed_difference` became the one
engine behind containment, subtraction and the 2-d canonical form: the
1-d interval subtraction and column pass of the canonicalizer, the
elementary-cell scan, and containment with its own candidate filter and
single-box shortcut.  And the box primitives and region intersection as
they were before they did their per-axis work with `map`, and before two
one-box regions met in one box intersection.  Tests compare the engine
against these, tuple for tuple, list for list and verdict for verdict.
And `decimal_str` as it was before it took its digits from one `divmod`:
one long-division step per digit.

And the checked `Box` constructor as the oracle of every box a kernel
builds with `Box._trusted`: inside `checked_boxes()` each such box is built
by the constructor, so one that fails its checks raises `InputError`.

`box1` and `box2` are the tests' shorthand for `Fraction` boxes, and
`grid_box` builds the `Fraction` box of integer corners over one
denominator per axis, the route the tests compare the integer kernels'
cells with."""

from contextlib import contextmanager
from operator import gt

from primchaos.errors import InputError
from primchaos.geometry import Box, Region, _merge_intervals, grid_point, rat


def box1(lo, hi) -> Box:
    return Box((rat(lo),), (rat(hi),))


def box2(xlo, xhi, ylo, yhi) -> Box:
    return Box((rat(xlo), rat(ylo)), (rat(xhi), rat(yhi)))


def grid_box(lo, hi, dens) -> Box:
    """The `Fraction` box of integer corners over one denominator per axis;
    `InputError` unless there are 1 or 2 axes and lo <= hi on each."""
    if not len(lo) == len(hi) == len(dens) or len(lo) not in (1, 2) \
            or any(map(gt, lo, hi)):
        raise InputError(f"grid box needs lo <= hi on 1 or 2 axes: "
                         f"{lo} .. {hi} over {dens}")
    return Box._trusted(grid_point(lo, dens), grid_point(hi, dens))


@contextmanager
def checked_boxes():
    """While open, `Box._trusted` builds through the checked constructor;
    yields the list of boxes it builds."""
    built, trusted = [], Box.__dict__["_trusted"]

    def checked(cls, lo, hi):
        built.append(cls(lo, hi))
        return built[-1]
    Box._trusted = classmethod(checked)
    try:
        yield built
    finally:
        Box._trusted = trusted


def oracle_box_intersect(a, b):
    lo = tuple(max(x, y) for x, y in zip(a.lo, b.lo))
    hi = tuple(min(x, y) for x, y in zip(a.hi, b.hi))
    if any(l > h for l, h in zip(lo, hi)):
        return None
    return Box(lo, hi)


def oracle_box_disjoint(a, b) -> bool:
    return any(al > bh or bl > ah
               for al, ah, bl, bh in zip(a.lo, a.hi, b.lo, b.hi))


def oracle_subtract_intervals(pieces, cover):
    """Closure of (union of pieces) minus (union of cover), both canonical."""
    out = []
    for a, b in pieces:
        overl = [(max(ca, a), min(cb, b)) for ca, cb in cover if cb >= a and ca <= b]
        if not overl:
            out.append((a, b))
            continue
        cur = a
        cur_covered = False  # whether the point `cur` itself lies in the cover
        for ca, cb in overl:
            if ca > cur:
                out.append((cur, ca))
            cur = max(cur, cb)
            cur_covered = True
        if cur < b:
            out.append((cur, b))
        elif cur == b and not cur_covered:
            out.append((b, b))
    return _merge_intervals(out)


def oracle_canonical_boxes(boxes) -> tuple:
    """Canonical box tuple of a nonempty box list of one dimension."""
    if boxes[0].dim == 1:
        return tuple(Box((lo,), (hi,)) for lo, hi in
                     _merge_intervals([(b.lo[0], b.hi[0]) for b in boxes]))
    xs = sorted({x for b in boxes for x in (b.lo[0], b.hi[0])})
    slabs = []
    for x0, x1 in zip(xs, xs[1:]):
        ys = _merge_intervals([(b.lo[1], b.hi[1]) for b in boxes
                               if b.lo[0] <= x0 and b.hi[0] >= x1])
        if ys:
            if slabs and slabs[-1][1] == x0 and slabs[-1][2] == ys:
                slabs[-1][1] = x1
            else:
                slabs.append([x0, x1, ys])
    out = [Box((x0, ylo), (x1, yhi)) for x0, x1, ys in slabs for ylo, yhi in ys]
    for c in xs:
        ysec = _merge_intervals([(b.lo[1], b.hi[1]) for b in boxes
                                 if b.lo[0] <= c <= b.hi[0]])
        if not ysec:
            continue
        covered = []
        for x0, x1, ys in slabs:
            if x0 <= c <= x1:
                covered.extend(ys)
        leftover = oracle_subtract_intervals(ysec, _merge_intervals(covered))
        out.extend(Box((c, ylo), (c, yhi)) for ylo, yhi in leftover)
    return tuple(sorted(out, key=Box.sort_key))


def oracle_region(boxes) -> Region:
    boxes = list(boxes)
    if len(boxes) == 1:
        return Region(tuple(boxes))
    return Region(oracle_canonical_boxes(boxes))


def oracle_region_intersect(a, b):
    """Every pairwise box intersection, canonicalized, or None."""
    pieces = [hit for ba in a.boxes for bb in b.boxes
              if (hit := oracle_box_intersect(ba, bb)) is not None]
    return oracle_region(pieces) if pieces else None


def _axis_grid(values, lo, hi):
    cuts = sorted({v for v in values if lo < v < hi})
    grid = []
    prev = lo
    for c in cuts:
        grid.append((prev, c))
        grid.append((c, c))
        prev = c
    grid.append((prev, hi))
    return grid


def _uncovered_cells(target, boxes):
    grids = [_axis_grid([v for b in boxes for v in (b.lo[ax], b.hi[ax])],
                        target.lo[ax], target.hi[ax])
             for ax in range(target.dim)]
    if target.dim == 1:
        cells = [((l,), (h,)) for l, h in grids[0]]
    else:
        cells = [((xl, yl), (xh, yh)) for xl, xh in grids[0] for yl, yh in grids[1]]
    for lo, hi in cells:
        if not any(all(bl <= l and h <= bh for bl, l, h, bh
                       in zip(b.lo, lo, hi, b.hi)) for b in boxes):
            yield lo, hi


def oracle_box_in_boxes(target, boxes) -> bool:
    cand = [b for b in boxes if oracle_box_intersect(target, b) is not None]
    for b in cand:
        if all(bl <= tl and th <= bh for bl, tl, th, bh
               in zip(b.lo, target.lo, target.hi, b.hi)):
            return True
    if not cand:
        return False
    return next(_uncovered_cells(target, cand), None) is None


def oracle_region_subset(a, b) -> bool:
    return all(oracle_box_in_boxes(box, b.boxes) for box in a.boxes)


def oracle_closed_difference(minuend, subtrahend) -> list:
    out = []
    for b in minuend:
        subs = [s for s in subtrahend if not oracle_box_disjoint(b, s)]
        if not subs:
            out.append(b)
            continue
        out.extend(Box(lo, hi) for lo, hi in _uncovered_cells(b, subs))
    return out


def oracle_decimal_str(x, digits: int) -> str:
    """Truncated decimal of x with `digits` fraction digits, one
    long-division step per digit."""
    sign = "-" if x < 0 else ""
    x = abs(x)
    whole = x.numerator // x.denominator
    rem = x.numerator - whole * x.denominator
    frac_digits = []
    for _ in range(digits):
        rem *= 10
        frac_digits.append(str(rem // x.denominator))
        rem %= x.denominator
    if digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}." + "".join(frac_digits)
