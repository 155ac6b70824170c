"""Exception taxonomy shared by all modules."""


class InputError(ValueError):
    """Malformed or out-of-contract input (CLI maps this to exit code 2)."""


class DegenerateInputError(InputError):
    """Input collapses a construction (e.g. two equal marked points)."""


class ConstructionError(RuntimeError):
    """A constructed object failed its own certificate, or an invariant the
    theory guarantees was violated at runtime (should not happen for shipped
    systems; the CLI reports it as a failed check, exit code 1)."""
