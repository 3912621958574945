import cmath
import math
from dataclasses import astuple

import numpy as np
import pytest
from scipy.integrate import quad

from angen import (
    BranchViolation,
    FitUnstable,
    OverflowRisk,
    TruncationDominates,
    ampliation,
    analytic_generator,
    apply_Uz,
    decay_bound_fit,
    projection_reduction_residual,
    reconstruct_Ut_cz,
    reconstruct_Ut_delta,
)
from angen.reconstruction import CORRECTION_TERMS, PANELS_DEFAULT

from conftest import random_unit


@pytest.mark.parametrize("nu", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.2 + 0.4j])
def test_scalar_radial_identity_brute_force(nu, alpha):
    # the identity every reconstruction route rests on:
    # integral_0^inf mu^(alpha-1) nu/(nu+mu) dmu = pi nu^alpha / sin(pi alpha),
    # re-derived here on the log axis with adaptive scalar quadrature
    def integrand(u):
        return cmath.exp(alpha * u) * nu / (nu + math.exp(u))

    # the slower tail decays like exp(-min(Re a, 1 - Re a) * U); pick U so
    # the omitted mass sits well under the comparison tolerance
    U = 140.0
    re = quad(lambda u: integrand(u).real, -U, U, limit=800, epsabs=1e-12, epsrel=1e-12)[0]
    im = quad(lambda u: integrand(u).imag, -U, U, limit=800, epsabs=1e-12, epsrel=1e-12)[0]
    want = math.pi * nu**alpha / cmath.sin(math.pi * alpha)
    assert abs((re + 1j * im) - want) <= 1e-8 * abs(want)


@pytest.mark.parametrize("mu", [0.3, 1.0, 7.5])
def test_projection_reduces_to_direct_resolvent(diag4, herm4, mu):
    for g in (diag4, herm4):
        assert projection_reduction_residual(g, mu) <= 1e-12


def test_ampliation_matrix_layout(diag4):
    D = ampliation(diag4).as_matrix()
    Ui = analytic_generator(diag4)
    assert np.allclose(D[:4, :4], Ui)
    assert np.allclose(D[4:, 4:], Ui)
    assert np.count_nonzero(D[:4, 4:]) == 0


def test_graph_route_hits_interpolated_point(diag4, herm4, rng, quad):
    # before taking any limit the approximant at z equals U_z x itself;
    # this pins down the whole radial pipeline including the tail terms
    for g in (diag4, herm4):
        x = random_unit(rng, g.dim)
        for z in (0.7 + 0.25j, -1.2 + 0.6j, 2.0 + 0.05j):
            rep = reconstruct_Ut_delta(g, z.real, x, [z], quad)
            want = apply_Uz(g, z, x)
            assert np.linalg.norm(rep.approximation - want) <= 1e-7


def test_graph_route_errors_shrink(diag4, rng, quad):
    x = random_unit(rng, 4)
    t = 1.0
    zs = [t + 1j * d for d in (0.3, 0.1, 0.03, 0.01)]
    rep = reconstruct_Ut_delta(diag4, t, x, zs, quad)
    errs = [s.error for s in rep.steps]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    # the limit gap at the smallest offset is of order d * max|h|
    d = 0.01
    assert errs[-1] <= 3.0 * d * np.max(np.abs(diag4.exponents))


def test_graph_route_validates_offsets(diag4, rng, quad):
    x = random_unit(rng, 4)
    with pytest.raises(ValueError):
        reconstruct_Ut_delta(diag4, 0.5, x, [0.5 + 1.5j], quad)
    with pytest.raises(ValueError):
        reconstruct_Ut_delta(diag4, 0.5, x, [0.5 - 0.1j], quad)
    with pytest.raises(ValueError):
        reconstruct_Ut_delta(diag4, 0.5, x, [], quad)


def test_window_must_straddle_spectrum(diag4, rng, quad):
    x = random_unit(rng, 4)
    with pytest.raises(ValueError):
        reconstruct_Ut_delta(diag4, 0.5, x, [0.5 + 0.1j], quad, mu_min=0.5, mu_max=1e6)
    with pytest.raises(ValueError):
        reconstruct_Ut_delta(diag4, 0.5, x, [0.5 + 0.1j], quad, mu_min=1e-6, mu_max=5.0)
    with pytest.raises(ValueError):
        reconstruct_Ut_delta(diag4, 0.5, x, [0.5 + 0.1j], quad, mu_min=2.0, mu_max=1.0)


def test_narrow_window_truncation_dominates(diag4, rng, quad):
    # a window that passes the straddle check but whose analytic tail
    # estimate is large compared to the tolerance must refuse loudly
    x = random_unit(rng, 4)
    with pytest.raises(TruncationDominates):
        reconstruct_Ut_delta(diag4, 2.0, x, [2.0 + 0.1j], quad, mu_min=0.1, mu_max=10.0)


@pytest.mark.parametrize(
    "t, error", [(100.0, TruncationDominates), (1000.0, OverflowRisk)]
)
@pytest.mark.parametrize("route", ["graph_pair", "scalar_power"])
def test_far_time_raises_typed_error(diag4, rng, quad, monkeypatch, t, error, route):
    # at t = 1000, sin(pi alpha) ~ e^(pi t) overflows a double; the guard
    # must refuse before the radial solves, which are disabled here
    x = random_unit(rng, 4)
    if error is OverflowRisk:
        monkeypatch.setattr(np.linalg, "solve", None)
    with pytest.raises(error):
        if route == "graph_pair":
            reconstruct_Ut_delta(diag4, t, x, [t + 0.1j], quad)
        else:
            reconstruct_Ut_cz(diag4, t, x, [0.1 + 1j * t], quad)


def test_scalar_route_matches_spectral_power(diag4, rng, quad):
    x = random_unit(rng, 4)
    alpha = 0.15 + 1j * 0.8
    rep = reconstruct_Ut_cz(diag4, 0.8, x, [alpha], quad)
    want = np.exp(-diag4.exponents * alpha) * x
    assert np.linalg.norm(rep.approximation - want) <= 1e-7


def test_scalar_route_orientation_is_reverse(diag4, herm4, rng, quad):
    for g in (diag4, herm4):
        x = random_unit(rng, g.dim)
        t = 1.3
        alphas = [d + 1j * t for d in (0.3, 0.1, 0.03)]
        rep = reconstruct_Ut_cz(g, t, x, alphas, quad)
        assert rep.orientation == "reverse"
        last = rep.steps[-1]
        assert last.error_reverse < last.error_forward
        # and the reverse errors shrink along the sequence
        rev = [s.error_reverse for s in rep.steps]
        assert all(b < a for a, b in zip(rev, rev[1:]))


def test_scalar_route_validates_alpha(diag4, rng, quad):
    x = random_unit(rng, 4)
    with pytest.raises(ValueError):
        reconstruct_Ut_cz(diag4, 0.5, x, [1.5 + 0.5j], quad)
    with pytest.raises(ValueError):
        reconstruct_Ut_cz(diag4, 0.5, x, [-0.2 + 0.5j], quad)
    with pytest.raises(ValueError):
        reconstruct_Ut_cz(diag4, 0.5, x, [], quad)


@pytest.mark.parametrize("route", ["graph_pair", "scalar_power"])
def test_sequence_shares_radial_samples(diag4, herm4, rng, quad, monkeypatch, route):
    # every approximant of a sequence is a weighted sum of one set of
    # resolvent samples: the sequence matches one call per element, and it
    # makes one solve per radial node plus the power-series solves
    t = 0.7
    offsets = (0.3, 0.1, 0.03)
    if route == "graph_pair":
        reconstruct, seq = reconstruct_Ut_delta, [t + 1j * d for d in offsets]
    else:
        reconstruct, seq = reconstruct_Ut_cz, [d + 1j * t for d in offsets]
    solve = np.linalg.solve
    solves = []

    def counted(a, b):
        solves.append(1)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    for g in (diag4, herm4):
        x = random_unit(rng, g.dim)
        singles = [reconstruct(g, t, x, [s], quad) for s in seq]
        solves.clear()
        rep = reconstruct(g, t, x, seq, quad)
        assert len(solves) == 16 * PANELS_DEFAULT + CORRECTION_TERMS

        tol = 1e-13 * np.linalg.norm(x)
        steps = np.array([astuple(s) for s in rep.steps])
        want = np.array([astuple(single.steps[0]) for single in singles])
        assert steps.shape == want.shape
        assert np.max(np.abs(steps - want)) <= tol
        assert np.linalg.norm(rep.approximation - singles[-1].approximation) <= tol


def test_decay_fit_slope_minus_one(diag4, rng, quad):
    x = random_unit(rng, 4)
    mags = np.logspace(1.0, 3.0, 9)
    rep = decay_bound_fit(diag4, x, 0.5, mags, quad)
    assert rep.slope == pytest.approx(-1.0, abs=0.05)
    assert rep.fit_residual <= 0.05
    assert rep.c_r_estimate > 0.0
    assert rep.shift_max_rel_diff <= 1e-6
    assert len(rep.rows) == 9


def test_decay_fit_off_axis_ray(diag4, rng, quad):
    x = random_unit(rng, 4)
    mags = np.logspace(1.0, 2.5, 7)
    rep = decay_bound_fit(diag4, x, 0.5, mags, quad, arg_mu=0.6)
    assert rep.slope == pytest.approx(-1.0, abs=0.1)
    assert rep.shift_max_rel_diff <= 1e-6


def test_decay_fit_validates_inputs(diag4, rng, quad):
    x = random_unit(rng, 4)
    with pytest.raises(ValueError):
        decay_bound_fit(diag4, x, 1.5, [10.0, 100.0, 1000.0], quad)
    with pytest.raises(ValueError):
        decay_bound_fit(diag4, x, 0.5, [-1.0, 10.0], quad)


def test_decay_fit_needs_three_top_decade_points(diag4, rng, quad):
    x = random_unit(rng, 4)
    with pytest.raises(FitUnstable):
        decay_bound_fit(diag4, x, 0.5, [1.0, 2.0, 1000.0], quad)


@pytest.mark.parametrize("arg_mu", [math.pi, math.pi - 0.01])
def test_decay_fit_rejects_ray_near_cut(diag4, rng, quad, arg_mu):
    # the ray's clearance is checked before any quadrature: at arg pi the
    # decay rate is 0, and at pi - 0.01 the window would run into the cap
    x = random_unit(rng, 4)
    with pytest.raises(BranchViolation):
        decay_bound_fit(diag4, x, 0.5, [10.0, 100.0, 1000.0], quad, arg_mu=arg_mu)
