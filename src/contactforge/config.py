"""Resource guard for symbolic expansions.

Any product whose term count would exceed the budget aborts with
TermLimitError instead of thrashing. The budget can be set programmatically,
through the CONTACTFORGE_MAX_TERMS environment variable, or per CLI run.
"""

import os

from .errors import ParameterError, TermLimitError

DEFAULT_MAX_TERMS = 5_000_000
ENV_VAR = "CONTACTFORGE_MAX_TERMS"

_override: int | None = None


def set_max_terms(limit: int | None) -> None:
    """Set the term budget; None restores the environment/default value."""
    global _override
    if limit is not None and limit <= 0:
        raise ParameterError("term budget must be positive")
    _override = limit


def get_max_terms() -> int:
    if _override is not None:
        return _override
    env = os.environ.get(ENV_VAR)
    if env:
        try:
            value = int(env)
        except ValueError:
            raise TermLimitError(f"{ENV_VAR} is not an integer: {env!r}") from None
        if value <= 0:
            raise TermLimitError(f"{ENV_VAR} must be positive: {env!r}")
        return value
    return DEFAULT_MAX_TERMS
