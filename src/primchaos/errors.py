"""Exception taxonomy shared by all modules, and `check_count`, the one test
of a depth, level or count that every public routine taking one runs.

The input contract: a malformed *data* argument (a word, rational, point,
box corner, pin, parameter cell, label, block table or count) raises
`InputError`.  A
wrong *object* argument (`None` for a `ChaosSystem`, `PeanoModel`,
`CantorMap`, `RefinementTree` or `FiniteMap`) is a programming error and
may raise `TypeError` or `AttributeError`, which is surfaced, not hidden.
"""


class InputError(ValueError):
    """Malformed or out-of-contract input (CLI maps this to exit code 2)."""


class DegenerateInputError(InputError):
    """Input collapses a construction (e.g. two equal marked points)."""


class ConstructionError(RuntimeError):
    """A constructed object failed its own certificate, or an invariant the
    theory guarantees was violated at runtime (should not happen for shipped
    systems; the CLI reports it as a failed check, exit code 1)."""


def check_count(value, message: str, least: int = 0) -> None:
    """Raise `InputError(message)` unless value is an int >= least."""
    if not isinstance(value, int) or value < least:
        raise InputError(message)
