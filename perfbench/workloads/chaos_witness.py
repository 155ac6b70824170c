"""chaos-witness: witness realization and chaos certificates on the four
shipped systems.

Light jobs realize independent random words, which share little work: two
distinct words of each length per system, all longer than the batch words,
so that no job of a round realizes a word another job also realizes.
Heavy jobs share suffixes: every word of length 1..7, `transitivity_check`
and `verify_dense_orbit`, once per system.  Periodic points, sensitivity
checks and words that must be rejected fill the rest.  Known answers are closed forms
(answers.py): dyadic, Gray-coded or ternary enclosures and periodic points.
"""

from fractions import Fraction
from types import SimpleNamespace

import fixed

from . import answers
from .job import Job

SYSTEMS = ("shift_cantor", "doubling", "tent", "baker")
ONE_D = ("shift_cantor", "doubling", "tent")
LENGTHS = (8, 10, 14, 18, 22)
BATCH_LENGTH = 7
# the tent and doubling transitivity checks cost about the same and are the
# 6th and 7th heaviest of a round's 64 jobs, so p90 falls between them
TRANSITIVITY_DEPTH = 4
DENSE_DEPTH = 6


def setup(pc, root):
    return SimpleNamespace(pc=pc, systems=fixed.BUILD["chaos-witness"](pc))


def _boxes(region) -> list:
    return [(b.lo, b.hi) for b in region.boxes]


def _within(inner, outer) -> bool:
    return all(any(all(ol <= il and ih <= oh for ol, il, ih, oh
                       in zip(olo, ilo, ihi, ohi)) for olo, ohi in outer)
               for ilo, ihi in inner)


def _witness_problem(system: str, word: str, res) -> str | None:
    want = answers.enclosure(system, word)
    if res.word != word or _boxes(res.enclosure) != want:
        return f"{system} {word}: enclosure {_boxes(res.enclosure)} != {want}"
    if not _within([(res.witness, res.witness)], want):
        return f"{system} {word}: witness outside its enclosure"
    orbit = res.orbit
    if len(orbit) != len(word) or orbit[0] != res.witness:
        return f"{system} {word}: orbit of length {len(orbit)}"
    for i, ch in enumerate(word):
        if not answers.in_event(system, int(ch), orbit[i]):
            return f"{system} {word}: orbit point {i} outside event {ch}"
        if i + 1 < len(orbit) and \
                orbit[i + 1] != answers.apply_branch(system, int(ch), orbit[i]):
            return f"{system} {word}: orbit step {i} is not the branch law"
    return None


def _realize(ctx, system: str, word: str) -> Job:
    s = ctx.systems[system]
    return Job(f"realize.{system}.n{len(word)}",
               lambda: ctx.pc.chaos.realize_witness(s, word),
               lambda res: _witness_problem(system, word, res))


def _batch(ctx, system: str) -> Job:
    s = ctx.systems[system]
    words = [w for n in range(1, BATCH_LENGTH + 1) for w in answers.all_words(n)]

    def run():
        return [ctx.pc.chaos.realize_witness(s, w) for w in words]

    def check(results):
        found = {}
        for w, res in zip(words, results):
            problem = _witness_problem(system, w, res)
            if problem:
                return problem
            found[w] = _boxes(res.enclosure)
            if len(w) > 1 and not _within(found[w], found[w[:-1]]):
                return f"{system}: enclosure of {w} not inside that of {w[:-1]}"
        return None if len(results) == len(words) else "batch incomplete"
    return Job(f"batch.{system}.n{BATCH_LENGTH}", run, check)


def _report_passes(rep) -> str | None:
    return None if rep.all_passed and rep.checks else \
        f"{rep.instance}: {[c.name for c in rep.checks if not c.passed]}"


def _periodic(ctx, system: str, word: str) -> Job:
    s = ctx.systems[system]

    def check(orb):
        root = answers.primitive_root(word)
        if orb.prime_period != len(root) or orb.word != root:
            return f"{system} {word}: prime period {orb.prime_period}, " \
                   f"expected {len(root)}"
        if orb.point != answers.periodic_point(system, word):
            return f"{system} {word}: periodic point {orb.point}"
        return None
    return Job(f"periodic.{system}", lambda: ctx.pc.chaos.periodic_point(s, word),
               check)


def _word(rng, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def _distinct_words(rng, n: int, k: int) -> list:
    return [format(i, f"0{n}b") for i in rng.sample(range(2 ** n), k)]


def _rejections(ctx, rng) -> list:
    C = ctx.pc.chaos
    bad = ctx.pc.errors.InputError
    sys_ = ctx.systems
    w = _word(rng, rng.randint(2, 12))
    at = rng.randrange(len(w))
    bad_word = w[:at] + "2" + w[at + 1:]
    one = sys_[rng.choice(SYSTEMS)]
    two = sys_[rng.choice(SYSTEMS)]
    three = sys_[rng.choice(SYSTEMS)]
    delta = rng.randint(2, 64)
    return [
        Job("reject.symbol", lambda: C.realize_witness(one, bad_word), rejects=bad),
        Job("reject.empty", lambda: C.periodic_point(two, ""), rejects=bad),
        Job("reject.dimension", lambda: C.sensitivity_check(
            sys_["baker"], Fraction(1, delta), 10), rejects=bad),
        Job("reject.depth", lambda: C.transitivity_check(three, 13), rejects=bad),
    ]


def round_jobs(ctx, rng, r: int) -> list:
    """64 jobs: 40 realizations, 5 periodic points, 3 sensitivity checks,
    4 rejections and 12 shared-suffix jobs."""
    C = ctx.pc.chaos
    jobs = [_realize(ctx, s, w) for s in SYSTEMS for n in LENGTHS
            for w in _distinct_words(rng, n, 2)]
    periodic = [(s, _word(rng, rng.randint(1, 10))) for s in SYSTEMS]
    twice, word = rng.choice(periodic)
    while (twice, word) in periodic:
        word = _word(rng, rng.randint(1, 10))
    jobs += [_periodic(ctx, s, w) for s, w in periodic + [(twice, word)]]
    for name in ONE_D:
        s = ctx.systems[name]
        delta = Fraction(1, 2 ** rng.randint(18, 22))
        samples = rng.randint(36, 44)
        jobs.append(Job(f"sensitivity.{name}",
                        lambda s=s, d=delta, n=samples: C.sensitivity_check(s, d, n),
                        _report_passes))
    jobs += _rejections(ctx, rng)
    for name in SYSTEMS:
        s = ctx.systems[name]
        jobs.append(_batch(ctx, name))
        jobs.append(Job(f"dense.{name}",
                        lambda s=s: C.verify_dense_orbit(s, DENSE_DEPTH),
                        _report_passes))
        jobs.append(Job(f"transitivity.{name}",
                        lambda s=s: C.transitivity_check(s, TRANSITIVITY_DEPTH),
                        _report_passes))
    return jobs
