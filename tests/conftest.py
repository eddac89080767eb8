import importlib
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from seakit.spectral import SpectralFamily

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


class CallCounts:
    """Live call counts keyed by dotted function name; ``count`` is their
    total."""

    def __init__(self, names):
        self.by_name = dict.fromkeys(names, 0)

    def __getitem__(self, name: str) -> int:
        return self.by_name[name]

    @property
    def count(self) -> int:
        return sum(self.by_name.values())


@pytest.fixture
def call_counter(monkeypatch):
    """``call_counter("numpy.linalg.eigh", "seakit.linalg.eigh", ...)``
    counts calls of each named function while the test runs.

    A function is replaced in its home module and in every loaded
    ``seakit`` module that binds it by name (``from .linalg import eigh``
    makes such a binding), so calls through every route are counted.
    """
    def install(*names: str) -> CallCounts:
        counts = CallCounts(names)
        for name in names:
            home, attr = name.rsplit(".", 1)
            module = importlib.import_module(home)
            original = getattr(module, attr)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts.by_name[_name] += 1
                return _original(*args, **kwargs)

            holders = [module] + [
                m for key, m in sorted(sys.modules.items())
                if key.startswith("seakit") and m is not None]
            for holder in holders:
                if vars(holder).get(attr) is original:
                    monkeypatch.setattr(holder, attr, counted)
        return counts

    return install


@pytest.fixture
def eigh_calls(call_counter):
    """Counter of ``numpy.linalg.eigh`` calls made while the test runs."""
    return call_counter("numpy.linalg.eigh")


def _level_set_family(a) -> SpectralFamily:
    """Closed-form family of a pointwise element, built without the
    spectral engine: breakpoints are the distinct values, ascending, and
    the step at a value is the indicator of the points at or below it."""
    values = a.tolist()
    levels = sorted(set(values))
    steps = [np.zeros(len(values))] + [
        np.array([1.0 if x <= mu else 0.0 for x in values]) for mu in levels]
    return SpectralFamily(np.array(levels), np.array(steps))


@pytest.fixture
def level_set_family():
    """The level-set closed form, the oracle for the engine's family on
    the pointwise model."""
    return _level_set_family
