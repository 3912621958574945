import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from angen import (
    BranchViolation,
    KernelParam,
    QuadratureSpec,
    ampliation,
    analytic_generator,
    build_Rmu,
    check_central_identity,
    compute_Qmu,
    graph_action_matrices,
    graph_restricted_norm,
    make_graph_vector,
    qmu_spectral_oracle,
    spectrum_scan,
    verify_resolvent_identities,
)
from angen.resolvent import MIN_ABS_MU, _graph_basis

from conftest import random_unit

MU_POOL = [1.0, 2.0 + 1.0j, 0.4 - 0.8j, -1.0 + 1.0j]


def kernel_direct(mu: complex, t: float) -> complex:
    # independent re-statement of the kernel, no shared code with the package
    if abs(t) < 1e-8:
        return mu ** (1j * t - 1.0) / (2.0 * math.pi)
    return t * mu ** (1j * t - 1.0) / (math.exp(math.pi * t) - math.exp(-math.pi * t))


@pytest.mark.parametrize(
    "h,mu",
    [
        (0.0, 1.0),
        (-math.log(2.0), 1.0),
        (0.4, 2.0 + 1.0j),
        (1.2, 0.4 - 0.8j),
        (-1.5, 3.0),
    ],
)
def test_scalar_transform_derived_by_brute_force(h, mu):
    # The closed form used as the operator oracle, re-derived here for a
    # single mode by adaptive scalar quadrature: the weighted average of
    # the one-dimensional orbit e^{i t h} must come out to nu/(nu+mu)^2
    # with nu = e^{-h}.
    def integrand(t):
        return kernel_direct(mu, t) * cmath.exp(1j * t * h)

    T = 60.0
    re = quad(lambda t: integrand(t).real, -T, T, limit=600, epsabs=1e-13, epsrel=1e-13)[0]
    im = quad(lambda t: integrand(t).imag, -T, T, limit=600, epsabs=1e-13, epsrel=1e-13)[0]
    nu = math.exp(-h)
    want = nu / (nu + mu) ** 2
    assert abs((re + 1j * im) - want) <= 1e-10 * (1.0 + abs(want))


@pytest.mark.parametrize("mu", MU_POOL)
def test_qmu_matches_spectral_oracle(diag4, herm4, quad, mu):
    p = KernelParam(mu)
    for g in (diag4, herm4):
        Q = compute_Qmu(g, p, quad)
        S = qmu_spectral_oracle(g, p)
        assert np.linalg.norm(Q - S, 2) <= 1e-8 * np.linalg.norm(S, 2)


def test_identity_model_quarter(identity3, quad):
    # nu = 1, mu = 1: the factor is 1/(1+1)^2
    Q = compute_Qmu(identity3, KernelParam(1.0), quad)
    assert np.linalg.norm(Q - np.eye(3) / 4.0, 2) <= 1e-9


def test_known_mode_value(quad):
    import angen

    g = angen.GroupModel.diagonal([-math.log(2.0)])
    Q = compute_Qmu(g, KernelParam(1.0), quad)
    assert Q[0, 0] == pytest.approx(2.0 / 9.0, rel=1e-9)


@pytest.mark.parametrize("mu", MU_POOL)
def test_central_identity(diag4, herm4, rng, quad, mu):
    p = KernelParam(mu)
    for g in (diag4, herm4):
        x = random_unit(rng, g.dim)
        assert check_central_identity(g, p, quad, x) <= 1e-8


def test_central_identity_rejects_zero(diag4, quad):
    with pytest.raises(ValueError):
        check_central_identity(diag4, KernelParam(1.0), quad, np.zeros(4))


def test_block_layout_identity_model(identity3, quad):
    R = build_Rmu(identity3, KernelParam(1.0), quad)
    eye = np.eye(3)
    assert np.allclose(R.a11, 0.75 * eye, atol=1e-9)
    assert np.allclose(R.a12, -0.25 * eye, atol=1e-9)
    assert np.allclose(R.a21, 0.25 * eye, atol=1e-9)
    assert np.allclose(R.a22, 0.25 * eye, atol=1e-9)


def test_graph_action_half_third(quad):
    # one mode with nu = 2 at mu = 1: the graph pair (x, 2x) must map to
    # (x/3, 2x/3), the resolvent values 1/(nu+mu) and nu/(nu+mu)
    import angen

    g = angen.GroupModel.diagonal([-math.log(2.0)])
    R = build_Rmu(g, KernelParam(1.0), quad)
    first, second = graph_action_matrices(g, R)
    assert first[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-9)
    assert second[0, 0] == pytest.approx(2.0 / 3.0, rel=1e-9)


def test_build_rejects_tiny_mu(diag4, quad):
    with pytest.raises(ValueError):
        build_Rmu(diag4, KernelParam(MIN_ABS_MU / 2.0), quad)


@pytest.mark.parametrize("mu", MU_POOL)
def test_resolvent_inverse_identities(diag4, herm4, rng, quad, mu):
    p = KernelParam(mu)
    for g in (diag4, herm4):
        samples = [make_graph_vector(g, random_unit(rng, g.dim)) for _ in range(4)]
        rep = verify_resolvent_identities(g, p, quad, samples)
        assert rep.apply_after_residual <= 1e-8
        assert rep.apply_before_residual <= 1e-8
        assert rep.graph_invariance_residual <= 1e-8
        assert rep.num_samples == 4


@pytest.mark.parametrize("mu", MU_POOL)
def test_graph_action_matches_exact_resolvent(diag4, herm4, quad, mu):
    p = KernelParam(mu)
    for g in (diag4, herm4):
        R = build_Rmu(g, p, quad)
        first, second = graph_action_matrices(g, R)
        Ui = analytic_generator(g)
        inv = np.linalg.inv(Ui + mu * np.eye(g.dim))
        assert np.linalg.norm(first - inv, 2) <= 1e-8 * np.linalg.norm(inv, 2)
        want2 = Ui @ inv
        assert np.linalg.norm(second - want2, 2) <= 1e-8 * np.linalg.norm(want2, 2)


def test_ampliation_blocks(diag4):
    D = ampliation(diag4)
    Ui = analytic_generator(diag4)
    assert np.allclose(D.a11, Ui) and np.allclose(D.a22, Ui)
    assert np.count_nonzero(D.a12) == 0 and np.count_nonzero(D.a21) == 0
    x = np.arange(4.0)
    top, bot = D.apply((x, 2 * x))
    assert np.allclose(top, Ui @ x) and np.allclose(bot, 2 * Ui @ x)


def test_graph_basis_is_orthonormal(diag4, herm4):
    for g in (diag4, herm4):
        P = _graph_basis(g)
        assert P.shape == (2 * g.dim, g.dim)
        assert np.linalg.norm(P.conj().T @ P - np.eye(g.dim), 2) <= 1e-13


@pytest.mark.parametrize("mu", MU_POOL)
def test_restricted_norm_equals_inverse_distance(diag4, herm4, quad, mu):
    # normal models: the graph-restricted resolvent norm saturates the
    # spectral lower bound exactly
    p = KernelParam(mu)
    nus = None
    for g in (diag4, herm4):
        from angen import generator_spectrum

        nus = generator_spectrum(g)
        R = build_Rmu(g, p, quad)
        nrm = graph_restricted_norm(g, R)
        dist = float(np.min(np.abs(mu + nus)))
        assert nrm * dist == pytest.approx(1.0, rel=1e-7)


def test_spectrum_scan_small_grid(diag4, quad):
    grid = [0.5 + 0.9j, 1.5 - 0.4j, -0.8 + 1.2j, 3.0 + 0.0j]
    pts = spectrum_scan(diag4, grid, quad)
    assert [pt.mu for pt in pts] == grid
    for pt in pts:
        assert pt.lower_bound_ok
        assert pt.resolvent_norm * pt.oracle_distance == pytest.approx(1.0, rel=1e-6)


def test_spectrum_scan_rejects_branch_cut(diag4, quad):
    with pytest.raises(BranchViolation):
        spectrum_scan(diag4, [1.0, -2.0], quad)
    # decay rate below the minimum sector clearance is refused up front
    near_cut = cmath.rect(1.0, math.pi - math.pi / 64.0)
    with pytest.raises(BranchViolation):
        spectrum_scan(diag4, [near_cut], quad)
