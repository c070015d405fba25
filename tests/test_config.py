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


def test_budget_env_var(monkeypatch):
    monkeypatch.setenv(config.ENV_VAR, "17")
    assert config.get_max_terms() == 17
    monkeypatch.setenv(config.ENV_VAR, "junk")
    with pytest.raises(TermLimitError):
        config.get_max_terms()
    for value in ("0", "-3"):
        monkeypatch.setenv(config.ENV_VAR, value)
        with pytest.raises(TermLimitError):
            config.get_max_terms()
    monkeypatch.delenv(config.ENV_VAR)
    assert config.get_max_terms() == config.DEFAULT_MAX_TERMS


def test_override_beats_env(monkeypatch):
    monkeypatch.setenv(config.ENV_VAR, "17")
    config.set_max_terms(99)
    try:
        assert config.get_max_terms() == 99
    finally:
        config.set_max_terms(None)
    with pytest.raises(ValueError):
        config.set_max_terms(0)