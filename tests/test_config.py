"""Term budget guard."""

import pytest

from contactforge import config
from contactforge.errors import TermLimitError
from contactforge.polyring import Poly


def test_budget_trips_on_large_products():
    config.set_max_terms(10)
    try:
        total = Poly.zero(2)
        for i in (1, 2):
            for j in (1, 2):
                total = total + Poly.variable(2, i, j)
        with pytest.raises(TermLimitError):
            total ** 3  # 20 distinct monomials > 10
    finally:
        config.set_max_terms(None)


def test_override_beats_the_default():
    assert config.get_max_terms() == config.DEFAULT_MAX_TERMS
    config.set_max_terms(99)
    try:
        assert config.get_max_terms() == 99
    finally:
        config.set_max_terms(None)
    assert config.get_max_terms() == config.DEFAULT_MAX_TERMS
    with pytest.raises(ValueError):
        config.set_max_terms(0)
