"""Resource guard for symbolic expansions.

Any product whose term count would exceed the budget aborts with
TermLimitError instead of thrashing. The budget is DEFAULT_MAX_TERMS unless
set_max_terms overrides it; the CLI sets it per run from `--max-terms`, whose
default is the CONTACTFORGE_MAX_TERMS environment variable. The library reads
no environment.
"""

from .errors import ParameterError

DEFAULT_MAX_TERMS = 5_000_000

_override: int | None = None


def set_max_terms(limit: int | None) -> None:
    """Set the term budget; None restores the default."""
    global _override
    if limit is not None and limit <= 0:
        raise ParameterError("term budget must be positive")
    _override = limit


def get_max_terms() -> int:
    return DEFAULT_MAX_TERMS if _override is None else _override
