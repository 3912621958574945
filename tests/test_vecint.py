import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from angen import (
    NonFiniteSample,
    QuadratureNonConvergence,
    QuadratureSpec,
    integrate_vector,
    pairing_consistency_check,
)
from angen.vecint import gauss_panel_nodes

SQRT_PI = math.sqrt(math.pi)
# even moments of exp(-t^2): Gamma(k + 1/2)
GAUSS_MOMENTS = [SQRT_PI, SQRT_PI / 2.0, 3.0 * SQRT_PI / 4.0, 15.0 * SQRT_PI / 8.0]


def test_spec_validation():
    QuadratureSpec()
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tolerance=1e-1)
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tolerance=1e-16)
    with pytest.raises(ValueError):
        QuadratureSpec(nodes_per_unit=0)
    with pytest.raises(ValueError):
        QuadratureSpec(line_offset_s=math.inf)


def test_panel_nodes_are_ascending_and_weights_sum():
    ts, ws = gauss_panel_nodes(-7.0, 7.0, 8)
    assert np.all(np.diff(ts) > 0)
    assert np.sum(ws) == pytest.approx(14.0, rel=1e-13)


def test_gaussian_moments():
    q = QuadratureSpec(rel_tolerance=1e-12)
    got = integrate_vector(
        lambda t: np.array([1.0, t**2, t**4, t**6]),
        lambda t: math.exp(-(t**2)),
        q,
        tail_rate=2.0,
        truncation=9.0,
    )
    assert np.allclose(got, GAUSS_MOMENTS, rtol=1e-12)


@given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=4))
def test_gaussian_polynomial_pairing(coeffs):
    q = QuadratureSpec(rel_tolerance=1e-12)
    got = integrate_vector(
        lambda t: np.array([sum(c * t ** (2 * k) for k, c in enumerate(coeffs))]),
        lambda t: math.exp(-(t**2)),
        q,
        tail_rate=2.0,
        truncation=9.0,
    )
    want = sum(c * GAUSS_MOMENTS[k] for k, c in enumerate(coeffs))
    assert abs(got[0] - want) <= 1e-11 * (1.0 + abs(want))


def test_sech_integral():
    q = QuadratureSpec(rel_tolerance=1e-11)
    got = integrate_vector(
        lambda t: np.array([1.0]), lambda t: 1.0 / math.cosh(t), q, tail_rate=1.0
    )
    assert got[0] == pytest.approx(math.pi, rel=1e-11)


def test_shifted_line():
    # exp(-z^2) is entire with rapid decay, so the line integral is
    # independent of the imaginary offset
    q = QuadratureSpec(rel_tolerance=1e-12, line_offset_s=0.5)
    got = integrate_vector(
        lambda z: np.array([1.0]), lambda z: np.exp(-(z**2)), q, tail_rate=2.0,
        truncation=9.0,
    )
    assert got[0] == pytest.approx(SQRT_PI, rel=1e-12)


def test_vectorized_path_matches_scalar():
    q = QuadratureSpec(rel_tolerance=1e-11)

    def f_scalar(t):
        return np.array([np.exp(1j * t), 1.0 / (1.0 + t * t)])

    def f_vec(ts):
        return np.stack([np.exp(1j * ts), 1.0 / (1.0 + ts * ts)], axis=1)

    a = integrate_vector(f_scalar, lambda t: 1.0 / np.cosh(t), q, tail_rate=1.0)
    b = integrate_vector(
        f_vec, lambda ts: 1.0 / np.cosh(ts), q, tail_rate=1.0, vectorized=True
    )
    assert np.linalg.norm(a - b) <= 1e-14


def test_adaptive_widening_recovers_slow_tail():
    q = QuadratureSpec(rel_tolerance=1e-10)
    got = integrate_vector(
        lambda t: np.array([1.0]),
        lambda t: 1.0 / math.cosh(0.2 * t),
        q,
        tail_rate=0.2,
        truncation=5.0,  # deliberately far too narrow; widening must kick in
    )
    assert got[0] == pytest.approx(math.pi / 0.2, rel=1e-9)


def test_cap_reached_raises():
    q = QuadratureSpec(rel_tolerance=1e-10)
    with pytest.raises(QuadratureNonConvergence):
        integrate_vector(
            lambda t: np.array([1.0]),
            lambda t: 1.0 / math.cosh(0.05 * t),
            q,
            tail_rate=0.05,
            max_truncation=30.0,
        )


def test_non_finite_sample_raises():
    q = QuadratureSpec(rel_tolerance=1e-10)
    with pytest.raises(NonFiniteSample):
        integrate_vector(
            lambda t: np.array([1.0]),
            lambda t: math.nan if abs(t) < 0.5 else math.exp(-abs(t)),
            q,
            tail_rate=1.0,
        )


def test_bad_tail_rate_rejected():
    q = QuadratureSpec()
    with pytest.raises(ValueError):
        integrate_vector(lambda t: np.array([1.0]), lambda t: 0.0, q, tail_rate=0.0)


def test_repeat_calls_are_bit_identical():
    q = QuadratureSpec(rel_tolerance=1e-11)

    def f(t):
        return np.array([np.exp(1j * 0.7 * t), math.cos(t)])

    def d(t):
        return 1.0 / math.cosh(t)

    a = integrate_vector(f, d, q, tail_rate=1.0)
    b = integrate_vector(f, d, q, tail_rate=1.0)
    assert np.array_equal(a, b)


def test_pairing_against_scalar_quadrature(rng):
    q = QuadratureSpec(rel_tolerance=1e-11)

    def f(t):
        return np.array([np.exp(1j * t), 1.0 / (1.0 + t * t), np.sin(0.3 * t)])

    probes = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(2)]
    worst = pairing_consistency_check(
        f, lambda t: 1.0 / np.cosh(t), q, probes, tail_rate=1.0
    )
    assert worst <= 1e-9
