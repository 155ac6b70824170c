from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass
class Job:
    """One certification request.  `run` makes the program calls and is the
    timed part; `check` compares its output with a known answer and returns
    a description of the mismatch, or None.  A job with `rejects` set must
    instead raise that exception type."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]] = lambda out: None
    rejects: Optional[type] = None
