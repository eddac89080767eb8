from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

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


@pytest.fixture
def eigh_calls(monkeypatch):
    """Counter of ``numpy.linalg.eigh`` calls made while the test runs."""
    counter = SimpleNamespace(count=0)
    original = np.linalg.eigh

    def counted(*args, **kwargs):
        counter.count += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return counter
