import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from angen import (
    HypothesisViolation,
    commutation_check,
    group_matrix,
    mollify,
    mollify_operator,
    mollify_oracle,
)

from angen import smoothing
from angen.group_models import _from_eigen, _spectral_matrix, _to_eigen

from conftest import random_hermitian, random_unit


@pytest.mark.parametrize("n", [0.5, 2.0, 25.0, 400.0])
def test_quadrature_matches_closed_form(diag4, herm4, rng, n, quad):
    for g in (diag4, herm4):
        x = random_unit(rng, g.dim)
        got = mollify(g, x, n, quad)
        want = mollify_oracle(g, x, n)
        assert np.linalg.norm(got - want) <= 1e-9


def test_contraction(diag4, rng, quad):
    x = random_unit(rng, 4)
    for n in (0.7, 5.0, 60.0):
        assert np.linalg.norm(mollify(diag4, x, n, quad)) <= 1.0 + 1e-11


@given(st.floats(min_value=0.5, max_value=200.0))
def test_error_bounded_by_quadratic_term(n):
    import angen

    g = angen.GroupModel.diagonal([-1.5, -0.6, 0.4, 1.2])
    x = np.array([0.5, -0.5j, 0.5, 0.5j])
    q = angen.QuadratureSpec(rel_tolerance=1e-10)
    err = np.linalg.norm(mollify(g, x, n, q) - x)
    bound = np.max(g.exponents**2) / (4.0 * n)
    assert err <= bound * np.linalg.norm(x) * (1.0 + 1e-6) + 1e-9


def test_convergence_report_and_rate(diag4, rng, quad):
    x = random_unit(rng, 4)
    ns = np.array([1.0, 4.0, 16.0, 64.0, 256.0])
    errs = np.array([np.linalg.norm(mollify(diag4, x, n, quad) - x) for n in ns])
    assert all(b < a for a, b in zip(errs, errs[1:]))
    # least squares c in err ~ c/n over the last half of the widths, where
    # the quadratic Taylor term max h^2/(4n) dominates
    inv, tail = 1.0 / ns[len(ns) // 2 :], errs[len(ns) // 2 :]
    c = float(np.dot(inv, tail) / np.dot(inv, inv))
    assert c > 0.0
    # at large n the error times n approaches the fitted constant
    assert errs[-1] * ns[-1] == pytest.approx(c, rel=0.25)


def test_identity_model_fixed_points(identity3, rng, quad):
    x = random_unit(rng, 3)
    for n in (1.0, 10.0):
        assert np.linalg.norm(mollify(identity3, x, n, quad) - x) <= 1e-10


def test_rejects_bad_width(diag4, rng, quad):
    for width in (0.0, -3.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            mollify(diag4, random_unit(rng, 4), width, quad)
        with pytest.raises(ValueError):
            mollify_operator(diag4, width, quad)


def test_operator_commutes_with_group(diag4, rng, quad):
    A = mollify_operator(diag4, 3.0, quad)
    # diagonal S in the model basis commutes with all U_t
    S = np.diag(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    samples = [random_unit(rng, 4) for _ in range(4)]
    assert commutation_check(diag4, A, S, samples) <= 1e-9

    for t in (0.9, -2.2):
        U = group_matrix(diag4, t)
        assert np.linalg.norm(A @ U - U @ A, 2) <= 1e-9


def test_commutation_check_rejects_no_samples(diag4, quad):
    A = mollify_operator(diag4, 3.0, quad)
    with pytest.raises(ValueError, match="samples"):
        commutation_check(diag4, A, np.eye(4), [])


def test_commutation_check_rejects_bad_hypothesis(diag4, rng, quad):
    A = mollify_operator(diag4, 3.0, quad)
    S = rng.standard_normal((4, 4))  # generically does not commute
    with pytest.raises(HypothesisViolation):
        commutation_check(diag4, A, S, [random_unit(rng, 4)])


def test_hermitian_operator_matches_oracle(herm4, rng, quad):
    models = [herm4] + [random_hermitian(np.random.default_rng(n), n) for n in (1, 3, 16, 48)]
    for g in models:
        eye = np.eye(g.dim, dtype=complex)
        for width in (0.5, 2.0, 25.0):
            A = mollify_operator(g, width, quad)
            want = np.stack([mollify_oracle(g, eye[:, k], width) for k in range(g.dim)], axis=1)
            assert np.linalg.norm(A - want, 2) <= 1e-9


def test_operator_takes_one_quadrature(diag4, herm4, quad, monkeypatch):
    # one quadrature of the phase matrix gives every mode's multiplier
    calls = []
    integrate = smoothing.integrate_vector

    def counting(*args, **kwargs):
        calls.append(1)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(smoothing, "integrate_vector", counting)
    for g in (diag4, herm4):
        calls.clear()
        mollify_operator(g, 3.0, quad)
        assert len(calls) == 1
        mollify(g, np.ones(g.dim), 3.0, quad)
        assert len(calls) == 2


@pytest.mark.parametrize("n", [0.5, 3.0, 400.0])
def test_vector_and_operator_share_the_multipliers(diag4, herm4, rng, quad, n):
    # the operator is V diag(m) V* and the vector m times the coordinates
    # V* x mapped back, for the one quadrature's multipliers m, bit for bit
    for g in (diag4, herm4):
        x = random_unit(rng, g.dim)
        m = smoothing._mollifier_factors(g, n, quad)
        assert np.array_equal(mollify_operator(g, n, quad), _spectral_matrix(g, m))
        assert np.array_equal(mollify(g, x, n, quad), _from_eigen(g, m * _to_eigen(g, x)))
