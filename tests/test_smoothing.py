import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from angen import (
    HypothesisViolation,
    commutation_check,
    fit_inverse_rate,
    group_matrix,
    mollifier_convergence_report,
    mollify,
    mollify_operator,
    mollify_oracle,
)

from conftest import random_unit


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
    report = mollifier_convergence_report(diag4, x, [1.0, 4.0, 16.0, 64.0, 256.0], quad)
    errs = [e for _, e in report]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    c = fit_inverse_rate(report)
    assert c > 0.0
    # at large n the error times n approaches the fitted constant
    n_last, e_last = report[-1]
    assert e_last * n_last == pytest.approx(c, rel=0.25)


def test_report_rejects_unsorted(diag4, rng, quad):
    with pytest.raises(ValueError):
        mollifier_convergence_report(diag4, random_unit(rng, 4), [4.0, 1.0], quad)
    with pytest.raises(ValueError):
        fit_inverse_rate([])


def test_identity_model_fixed_points(identity3, rng, quad):
    x = random_unit(rng, 3)
    for n in (1.0, 10.0):
        assert np.linalg.norm(mollify(identity3, x, n, quad) - x) <= 1e-10


def test_rejects_bad_width(diag4, rng, quad):
    with pytest.raises(ValueError):
        mollify(diag4, random_unit(rng, 4), 0.0, quad)
    with pytest.raises(ValueError):
        mollify(diag4, random_unit(rng, 4), -3.0, quad)


def test_operator_commutes_with_group(diag4, rng, quad):
    A = mollify_operator(diag4, 3.0, quad)
    # diagonal S in the model basis commutes with all U_t
    S = np.diag(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    samples = [random_unit(rng, 4) for _ in range(4)]
    assert commutation_check(diag4, A, S, samples) <= 1e-9

    for t in (0.9, -2.2):
        U = group_matrix(diag4, t)
        assert np.linalg.norm(A @ U - U @ A, 2) <= 1e-9


def test_commutation_check_rejects_bad_hypothesis(diag4, rng, quad):
    A = mollify_operator(diag4, 3.0, quad)
    S = rng.standard_normal((4, 4))  # generically does not commute
    with pytest.raises(HypothesisViolation):
        commutation_check(diag4, A, S, [random_unit(rng, 4)])


def test_hermitian_operator_matches_oracle(herm4, rng, quad):
    A = mollify_operator(herm4, 2.0, quad)
    eye = np.eye(4, dtype=complex)
    want = np.stack([mollify_oracle(herm4, eye[:, k], 2.0) for k in range(4)], axis=1)
    assert np.linalg.norm(A - want, 2) <= 1e-9
