"""Fixtures shared by the test modules."""

import pytest

from iongrover import dynamics
from iongrover.model import PulseShape


@pytest.fixture
def chained(monkeypatch):
    """The arguments of every chain integrated (each ``_products`` call, which
    ``_pulse_chain`` and ``_chain`` both multiply through), counted from an
    empty ``_pulse_chain`` memo (it is process-wide, so earlier tests fill it)."""
    dynamics._pulse_chain.cache_clear()
    calls = []
    real_products = dynamics._products
    monkeypatch.setattr(dynamics, "_products",
                        lambda *a: calls.append(a) or real_products(*a))
    return calls


@pytest.fixture
def envelope_calls(monkeypatch):
    """A one-item list counting every ``PulseShape.envelope`` call from now on."""
    calls, envelope = [0], PulseShape.envelope

    def counted(self, t):
        calls[0] += 1
        return envelope(self, t)

    monkeypatch.setattr(PulseShape, "envelope", counted)
    return calls
