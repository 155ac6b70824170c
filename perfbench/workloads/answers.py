"""Known answers, worked out here from the definitions and the theory rather
than taken from primchaos.  Everything is exact (Fraction, int, bitmask)."""

from fractions import Fraction
from itertools import product
from math import comb, factorial

# ---------------------------------------------------------------------------
# Chaos systems: closed-form witness enclosures and periodic points
# ---------------------------------------------------------------------------

# (event intervals on the first axis, branch (a, b) per axis) per system,
# as the system definitions state them
SYSTEMS = {
    "shift_cantor": ([(0, Fraction(1, 3)), (Fraction(2, 3), 1)],
                     [((3, 0),), ((3, -2),)]),
    "doubling": ([(0, Fraction(1, 2)), (Fraction(1, 2), 1)],
                 [((2, 0),), ((2, -1),)]),
    "tent": ([(0, Fraction(1, 2)), (Fraction(1, 2), 1)],
             [((2, 0),), ((-2, 2),)]),
    "baker": ([(0, Fraction(1, 2)), (Fraction(1, 2), 1)],
              [((2, 0), (Fraction(1, 2), 0)),
               ((2, -1), (Fraction(1, 2), Fraction(1, 2)))]),
}


def _dyadic(bits: str):
    n = len(bits)
    v = int(bits, 2) if bits else 0
    return Fraction(v, 2 ** n), Fraction(v + 1, 2 ** n)


def _tent_bits(word: str) -> str:
    # x = 0.b1 b2 ... in binary follows itinerary w iff b_k = w_k xor
    # (w_1 xor ... xor w_{k-1}): each visit to the right branch flips the
    # remaining digits
    out, parity = [], 0
    for ch in word:
        out.append(str(int(ch) ^ parity))
        parity ^= int(ch)
    return "".join(out)


def _cylinder(bits: str):
    lo = sum(Fraction(2 * int(b), 3 ** (i + 1)) for i, b in enumerate(bits))
    return lo, lo + Fraction(1, 3 ** len(bits))


def enclosure(system: str, word: str) -> list:
    """Boxes [(lo, hi), ...] of the set of points whose orbit follows the
    word, in canonical (sorted) order."""
    if system in ("doubling", "baker"):
        lo, hi = _dyadic(word)
    elif system == "tent":
        lo, hi = _dyadic(_tent_bits(word))
    else:  # the shift's space is the depth-1 stage, so two cylinders remain
        return [((lo,), (hi,)) for lo, hi in
                (_cylinder(word + "0"), _cylinder(word + "1"))]
    if system == "baker":
        return [((lo, Fraction(0)), (hi, Fraction(1)))]
    return [((lo,), (hi,))]


def apply_branch(system: str, sym: int, p: tuple) -> tuple:
    return tuple(a * c + b for (a, b), c in zip(SYSTEMS[system][1][sym], p))


def in_event(system: str, sym: int, p: tuple) -> bool:
    lo, hi = SYSTEMS[system][0][sym]
    return lo <= p[0] <= hi and all(0 <= c <= 1 for c in p[1:])


def primitive_root(word: str) -> str:
    n = len(word)
    for p in range(1, n + 1):
        if n % p == 0 and word[:p] * (n // p) == word:
            return word[:p]
    return word


def periodic_point(system: str, word: str) -> tuple:
    """The point whose orbit repeats the primitive root of the word."""
    u = primitive_root(word)
    m = len(u)
    if system == "shift_cantor":
        digits = int("".join(str(2 * int(b)) for b in u), 3)
        return (Fraction(digits, 3 ** m - 1),)
    if system == "tent":
        bits = _tent_bits(u * 2)
        if u.count("1") % 2 == 0:
            return (Fraction(int(bits[:m], 2), 2 ** m - 1),)
        return (Fraction(int(bits, 2), 4 ** m - 1),)
    x = Fraction(int(u, 2), 2 ** m - 1)
    if system == "doubling":
        return (x,)
    return (x, Fraction(int(u[::-1], 2), 2 ** m - 1))


def all_words(n: int) -> list:
    return ["".join(b) for b in product("01", repeat=n)]


# ---------------------------------------------------------------------------
# Finite spaces: preorders, components, counts
# ---------------------------------------------------------------------------


def closure(n: int, pairs) -> list:
    """Reflexive transitive closure of a relation on 0..n-1 as row masks:
    bit j of row i means i <= j."""
    rows = [1 << i for i in range(n)]
    for i, j in pairs:
        rows[i] |= 1 << j
    changed = True
    while changed:
        changed = False
        for i in range(n):
            grown = rows[i]
            for j in range(n):
                if rows[i] >> j & 1:
                    grown |= rows[j]
            if grown != rows[i]:
                rows[i], changed = grown, True
    return rows


def open_masks(rows: list) -> list:
    """Up-closed sets of the preorder: the open sets of its topology."""
    n = len(rows)
    return [m for m in range(1 << n)
            if all(rows[i] & ~m == 0 for i in range(n) if m >> i & 1)]


def components(rows: list) -> int:
    n = len(rows)
    label = list(range(n))

    def find(i):
        while label[i] != i:
            i = label[i]
        return i
    for i in range(n):
        for j in range(n):
            if rows[i] >> j & 1:
                label[find(i)] = find(j)
    return len({find(i) for i in range(n)})


def stirling2(n: int, k: int) -> int:
    return sum((-1) ** i * comb(k, i) * (k - i) ** n
               for i in range(k + 1)) // factorial(k)


def surjections(n: int, k: int) -> int:
    return factorial(k) * stirling2(n, k)


def bell(n: int) -> int:
    return sum(stirling2(n, k) for k in range(n + 1))


# sum over the set partitions of n points of the product of block sizes: the
# number of representative choices (idempotent maps on n points)
REPRESENTATIVE_CHOICES = {1: 1, 2: 3, 3: 10, 4: 41, 5: 196, 6: 1057}

# labelled topologies on n points (OEIS A000798)
TOPOLOGIES = {1: 1, 2: 4, 3: 29, 4: 355, 5: 6942}
