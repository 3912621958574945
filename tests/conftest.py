import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from angen import GroupModel, QuadratureSpec, reconstruction

settings.register_profile(
    "ci",
    deadline=None,
    max_examples=60,
    # every tier-1 run draws the same examples
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(autouse=True)
def cold_sample_cache():
    # every test starts without cached radial sample sets, so none
    # depends on which tests ran before it
    reconstruction._cached_samples.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def diag4():
    return GroupModel.diagonal([-1.5, -0.6, 0.4, 1.2])


@pytest.fixture
def herm4():
    H = np.array(
        [
            [0.9, 0.3 + 0.2j, 0.0, -0.1j],
            [0.3 - 0.2j, -0.5, 0.2, 0.0],
            [0.0, 0.2, 1.4, 0.25 + 0.15j],
            [0.1j, 0.0, 0.25 - 0.15j, 0.1],
        ]
    )
    return GroupModel.hermitian(H)


@pytest.fixture
def identity3():
    return GroupModel.diagonal([0.0, 0.0, 0.0])


@pytest.fixture
def quad():
    return QuadratureSpec(rel_tolerance=1e-10)


def random_unit(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def random_hermitian(rng, n, radius=2.0):
    """A Hermitian model with a random eigenbasis and exponents in [-radius, radius]."""
    V, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    h = rng.uniform(-radius, radius, n)
    return GroupModel.hermitian((V * h[None, :]) @ V.conj().T)
