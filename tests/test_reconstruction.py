import cmath
import math
import re
from collections import Counter
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from angen import (
    BranchViolation,
    FitUnstable,
    GroupModel,
    KernelParam,
    OverflowRisk,
    QuadratureNonConvergence,
    TruncationDominates,
    ampliation,
    analytic_generator,
    apply_Uz,
    build_Rmu,
    decay_bound_fit,
    generator_spectrum,
    group_models,
    make_graph_vector,
    qmu_spectral_oracle,
    reconstruct_Ut_cz,
    reconstruct_Ut_delta,
    reconstruction,
    spectrum_scan,
    vecint,
    verify_resolvent_identities,
)
from angen.group_models import H_MAX, _content_key, _to_eigen, apply_Uz_batch
from angen.kernel import _over_double_sinh, eval_kernel_array
from angen.reconstruction import (
    CORRECTION_TERMS,
    PANELS_DEFAULT,
    _cached_samples,
    _shifted_line_plan,
    _sweep,
    _tridiagonalize,
)
from angen.resolvent import _kernel_floor, _quadrature_plan

from conftest import random_unit

# U_i of dimension 1 or 2 is tridiagonal as it stands: the reduction makes
# no reflection and only its phase step acts
SMALLEST = (
    GroupModel.diagonal([0.7]),
    GroupModel.hermitian(np.array([[0.4, 0.3 - 0.2j], [0.3 + 0.2j, -0.8]])),
)


def hermitian_model(rng, n, radius):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = 0.5 * (a + a.conj().T)
    h *= radius / float(np.max(np.abs(np.linalg.eigvalsh(h))))
    return GroupModel.hermitian(h)


def shifted_solves(A, b, mus):
    """The radial sampler's read-only (Q, Y) for A, b and the nodes mus, by content."""
    return _cached_samples(_content_key(A), _content_key(b), _content_key(mus))


def graph_pair_solve(g: GroupModel, x, mu: float) -> np.ndarray:
    """Pr1 (D + mu)^(-1) D (x, U_i x) by a dense solve of the 2n x 2n system."""
    D = ampliation(g).as_matrix()
    pair = make_graph_vector(g, x).stacked()
    return np.linalg.solve(D + mu * np.eye(2 * g.dim), D @ pair)[: g.dim]


def projection_reduction_residual(g: GroupModel, mu: float) -> float:
    """||Pr1 (D + mu)^(-1) D restricted to pairs (x, U_i x) - (U_i+mu)^(-1) U_i||.

    Matrix-level check that the block route of the graph pair
    reconstruction agrees with the direct spectral reduction.
    """
    n = g.dim
    Ui = analytic_generator(g)
    D = ampliation(g).as_matrix()
    lift = np.vstack([np.eye(n, dtype=complex), Ui])
    block = np.linalg.solve(D + mu * np.eye(2 * n), D @ lift)[:n, :]
    direct = np.linalg.solve(Ui + mu * np.eye(n), Ui)
    return float(np.linalg.norm(block - direct, 2))


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
    for g in (diag4, herm4, *SMALLEST):
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
    # must refuse before any resolvent sample: the sample cache and the
    # reduction behind it are counted and neither runs, so a warm cache
    # cannot hide a guard that fires late.  At t = 0.7 the same route runs
    # each of them once, so the counted entries are the ones it samples
    # through, and no call solves a dense system
    x = random_unit(rng, 4)
    calls = Counter()
    record_calls(monkeypatch, calls, np.linalg, "solve")
    record_calls(monkeypatch, calls, reconstruction, "_cached_samples")
    record_calls(monkeypatch, calls, reconstruction, "_tridiagonalize")

    def run(t):
        if route == "graph_pair":
            return reconstruct_Ut_delta(diag4, t, x, [t + 0.1j], quad)
        return reconstruct_Ut_cz(diag4, t, x, [0.1 + 1j * t], quad)

    with pytest.raises(error):
        run(t)
    assert not calls
    run(0.7)
    assert calls == {"_cached_samples": 1, "_tridiagonalize": 1}


def test_scalar_route_matches_spectral_power(diag4, rng, quad):
    x = random_unit(rng, 4)
    alpha = 0.15 + 1j * 0.8
    rep = reconstruct_Ut_cz(diag4, 0.8, x, [alpha], quad)
    want = np.exp(-diag4.exponents * alpha) * x
    assert np.linalg.norm(rep.approximation - want) <= 1e-7
    for g in SMALLEST:
        x = random_unit(rng, g.dim)
        rep = reconstruct_Ut_cz(g, 0.8, x, [alpha], quad)
        # spectrally B(alpha) = nu**alpha x = U_{i alpha} x
        want = apply_Uz(g, 1j * alpha, x)
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


def delta_entry(g, x, q, t=0.7, z=0.7 + 0.1j, **window):
    return reconstruct_Ut_delta(g, t, x, [z], q, **window)


def cz_entry(g, x, q, t=0.7, alpha=0.1 + 0.7j, **window):
    return reconstruct_Ut_cz(g, t, x, [alpha], q, **window)


def fit_entry(g, x, q, mags=(100.0, 300.0, 1000.0), arg_mu=0.0):
    return decay_bound_fit(g, x, 0.5, mags, q, arg_mu=arg_mu)


NAN, INF = math.nan, math.inf
BAD_RADIAL_INPUTS = [
    (delta_entry, {"t": NAN}),
    (delta_entry, {"z": complex(NAN, 0.1)}),
    (delta_entry, {"z": complex(INF, 0.1)}),
    (delta_entry, {"mu_max": INF}),
    (delta_entry, {"panels": 0}),
    (delta_entry, {"panels": 2.5}),
    (cz_entry, {"t": NAN}),
    (cz_entry, {"alpha": complex(0.1, NAN)}),
    (cz_entry, {"mu_max": INF}),
    (cz_entry, {"panels": True}),
    (fit_entry, {"mags": (100.0, 300.0, INF)}),
    (fit_entry, {"mags": (NAN, 300.0, 1000.0)}),
    (fit_entry, {"arg_mu": NAN}),
    (fit_entry, {"arg_mu": INF}),
]


@pytest.mark.parametrize(
    ("entry", "bad"),
    BAD_RADIAL_INPUTS,
    ids=[f"{entry.__name__}-{k}={v}" for entry, bad in BAD_RADIAL_INPUTS for k, v in bad.items()],
)
def test_non_finite_radial_inputs_are_rejected(diag4, rng, quad, monkeypatch, entry, bad):
    # a NaN or infinite t, z, alpha, window end, magnitude or ray angle, or
    # panels that is not a positive int, raises ValueError before any
    # sample: neither the radial grid nor a fit's window plan is taken.  The
    # entry with valid inputs takes one of them, so both are on its path
    calls = Counter()
    record_calls(monkeypatch, calls, reconstruction, "_radial_grid")
    record_calls(monkeypatch, calls, reconstruction, "_direct_line_plan")
    x = random_unit(rng, 4)
    with pytest.raises(ValueError, match="finite|positive int"):
        entry(diag4, x, quad, **bad)
    assert not calls
    entry(diag4, x, quad)
    assert sum(calls.values()) == 1


@pytest.mark.parametrize("route", ["graph_pair", "scalar_power"])
def test_sequence_shares_radial_samples(diag4, herm4, rng, quad, monkeypatch, route):
    # every approximant of a sequence is a weighted sum of one set of
    # resolvent samples: the sequence matches one call per element.  The
    # count is of reductions computed, not looked up: the first single
    # reduces the model's matrix, the other singles and the sequence reuse
    # its samples.  The power-series tails are products with U_i and
    # U_{-i}, so no call solves a dense system
    t = 0.7
    offsets = (0.3, 0.1, 0.03)
    if route == "graph_pair":
        reconstruct, seq = reconstruct_Ut_delta, [t + 1j * d for d in offsets]
    else:
        reconstruct, seq = reconstruct_Ut_cz, [d + 1j * t for d in offsets]
    calls = Counter()
    record_calls(monkeypatch, calls, np.linalg, "solve")
    record_calls(monkeypatch, calls, reconstruction, "_tridiagonalize")
    for g in (diag4, herm4):
        x = random_unit(rng, g.dim)
        calls.clear()
        singles = [reconstruct(g, t, x, [s], quad) for s in seq]
        assert calls == {"_tridiagonalize": 1}
        calls.clear()
        rep = reconstruct(g, t, x, seq, quad)
        assert not calls

        tol = 1e-13 * np.linalg.norm(x)
        steps = np.array([astuple(s) for s in rep.steps])
        want = np.array([astuple(single.steps[0]) for single in singles])
        assert steps.shape == want.shape
        assert np.max(np.abs(steps - want)) <= tol
        assert np.linalg.norm(rep.approximation - singles[-1].approximation) <= tol


@pytest.mark.parametrize("route", ["graph_pair", "scalar_power"])
def test_tails_from_the_inverse_generator_on_a_wide_spectrum(rng, quad, monkeypatch, route):
    # at max|h| = 8, cond(U_i) = e^16: the tail vectors U_{-i}^k x agree with
    # k dense solves against U_i to within k cond(U_i) eps, and the route's
    # approximant stays at the quadrature tolerance of U_z x (the radial
    # window is widened so that the analytic tails pass their gate)
    V, _ = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    g = GroupModel.hermitian((V * np.linspace(-8.0, 8.0, 16)) @ V.conj().T)
    x = random_unit(rng, g.dim)
    t = 0.7
    reconstruct, seq = route_sequence(route, t)
    radial_integral, calls = reconstruction._radial_integral, []

    def recorded(g, alphas, x, *rest):
        calls.append((g, x))
        return radial_integral(g, alphas, x, *rest)

    monkeypatch.setattr(reconstruction, "_radial_integral", recorded)
    rep = reconstruct(g, t, x, seq, quad, mu_min=1e-9, mu_max=1e9)
    [(g_used, x_used)] = calls
    assert g_used is g and np.array_equal(x_used, x)
    Ui, U_minus_i = g._U_i, g._U_minus_i
    cond = np.linalg.cond(Ui)
    assert cond >= math.exp(16.0) * (1.0 - 1e-9)
    eps = np.finfo(float).eps
    by_product = by_solve = x
    for k in range(1, CORRECTION_TERMS + 1):
        by_product, by_solve = U_minus_i @ by_product, np.linalg.solve(Ui, by_solve)
        gap = np.linalg.norm(by_product - by_solve)
        assert gap <= k * cond * eps * np.linalg.norm(by_product)
    z = seq[-1] if route == "graph_pair" else 1j * seq[-1]
    want = apply_Uz(g, z, x)
    assert np.linalg.norm(rep.approximation - want) <= 10.0 * quad.rel_tolerance * np.linalg.norm(x)


def test_shifted_solves_match_dense_block_solves(diag4, herm4, rng, quad, monkeypatch):
    # the reduction of U_i is unitary and tridiagonal, and the samples the
    # graph pair route takes, the sampler's solves against its keys of U_i
    # and U_i x, match dense LU of the 2n x 2n graph pair system
    # Pr1 (D + mu)^(-1) D (x, U_i x) at nodes across the radial window
    mus = np.array([1e-6, 1e-2, 1.0, 1e2, 1e6])
    sample, keys = reconstruction._cached_samples, []

    def recorded(A_key, b_key, mus_key):
        keys.append((A_key, b_key))
        return sample(A_key, b_key, mus_key)

    monkeypatch.setattr(reconstruction, "_cached_samples", recorded)
    for g in (diag4, herm4, hermitian_model(rng, 64, 2.0)):
        n = g.dim
        Ui = analytic_generator(g)
        Q, d, e = _tridiagonalize(Ui)
        T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        assert np.all(e >= 0.0)
        assert np.linalg.norm(Q.conj().T @ Q - np.eye(n), 2) <= 1e-13
        assert np.linalg.norm(Q @ T @ Q.conj().T - Ui, 2) <= 1e-13 * np.linalg.norm(Ui, 2)
        if g is diag4:
            assert np.array_equal(Q, np.eye(n))
            assert not np.any(e)
        x = random_unit(rng, n)
        keys.clear()
        reconstruct_Ut_delta(g, 0.7, x, [0.7 + 0.1j], quad)
        [(A_key, b_key)] = keys
        B, Y = sample(A_key, b_key, _content_key(mus))
        got = (B @ Y).T
        assert got.shape == (mus.size, n)
        for mu, row in zip(mus, got):
            want = graph_pair_solve(g, x, mu)
            assert np.linalg.norm(row - want) <= 1e-13 * np.linalg.norm(want)


def test_both_routes_share_one_reduction_and_sweep(herm4, rng, quad, monkeypatch):
    # the graph pair samples are those of U_i against U_i x, so a delta call
    # and then a cz call on one (g, x) reduce U_i once and sweep once, and
    # the cz call's report is bit for bit the one it gives from cold caches
    calls = Counter()
    record_calls(monkeypatch, calls, reconstruction, "_tridiagonalize")
    record_calls(monkeypatch, calls, reconstruction, "_sweep")
    x = random_unit(rng, herm4.dim)
    reconstruct_Ut_delta(herm4, 0.7, x, [0.7 + 0.1j, 0.7 + 0.03j], quad)
    warm = reconstruct_Ut_cz(herm4, 0.7, x, [0.1 + 0.7j, 0.03 + 0.7j], quad)
    assert calls == {"_tridiagonalize": 1, "_sweep": 1}
    reconstruction._cached_samples.cache_clear()
    cold = reconstruct_Ut_cz(herm4, 0.7, x, [0.1 + 0.7j, 0.03 + 0.7j], quad)
    assert np.array_equal(cold.approximation, warm.approximation)
    assert replace(cold, approximation=None) == replace(warm, approximation=None)


@pytest.mark.parametrize("route", ["graph_pair", "scalar_power"])
def test_weighting_in_reduced_basis_matches_mapped_back_samples(
    herm4, rng, quad, monkeypatch, route
):
    # weighting the sweep's columns in the tridiagonal basis and mapping
    # each approximant back once is the same sum as mapping every node's
    # solution back first and weighting those: the reference hands
    # _radial_integral the mapped-back samples with the identity as basis
    t = 0.7
    offsets = (0.3, 0.1, 0.03)
    if route == "graph_pair":
        reconstruct, seq = reconstruct_Ut_delta, [t + 1j * d for d in offsets]
    else:
        reconstruct, seq = reconstruct_Ut_cz, [d + 1j * t for d in offsets]
    sample, mapped = reconstruction._cached_samples, []

    def mapped_back(A_key, b_key, mus_key):
        Q, Y = sample(A_key, b_key, mus_key)
        mapped.append(1)
        return np.eye(len(Q)), Q @ Y

    for g in (herm4, hermitian_model(rng, 64, 2.0)):
        x = random_unit(rng, g.dim)
        rep = reconstruct(g, t, x, seq, quad)
        mapped.clear()
        with monkeypatch.context() as patch:
            patch.setattr(reconstruction, "_cached_samples", mapped_back)
            want = reconstruct(g, t, x, seq, quad)
        assert len(mapped) == 1
        tol = 1e-13 * np.linalg.norm(x)
        steps = np.array([astuple(s) for s in rep.steps])
        assert np.max(np.abs(steps - np.array([astuple(s) for s in want.steps]))) <= tol
        assert np.linalg.norm(rep.approximation - want.approximation) <= tol


# a hair inside the cap, so that rounding in V diag(h) V* never crosses it
H_BOUND = H_MAX * (1.0 - 1e-9)


@settings(max_examples=30, derandomize=True)
@given(
    h=st.lists(st.floats(min_value=-H_BOUND, max_value=H_BOUND), min_size=1, max_size=16),
    log_mu=st.floats(min_value=math.log(1e-12), max_value=math.log(1e12)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_shifted_solve_is_backward_stable(h, log_mu, seed):
    # unitary reduction and an unpivoted sweep of a positive definite
    # tridiagonal are both backward stable, however ill-conditioned U_i + mu
    # is (up to e^40 at ||H|| = H_MAX and mu = 1e-12)
    rng = np.random.default_rng(seed)
    n = len(h)
    V, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    Ui = analytic_generator(GroupModel.hermitian((V * np.array(h)[None, :]) @ V.conj().T))
    b = random_unit(rng, n)
    mu = math.exp(log_mu)
    B, Y = shifted_solves(Ui, b, np.array([mu]))
    y = (B @ Y).T[0]
    residual = np.linalg.norm((Ui + mu * np.eye(n)) @ y - b)
    eps = np.finfo(float).eps
    assert residual <= 100.0 * eps * (np.linalg.norm(Ui, 2) + mu) * np.linalg.norm(y)
    # the cache is cleared once per test, so it sees every example's sample
    # set and must stay bounded, and it holds the latest one
    info = reconstruction._cached_samples.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
    kept_B, kept_Y = shifted_solves(Ui, b, np.array([mu]))
    assert kept_B is B and kept_Y is Y


def test_sample_sets_are_cached_by_content(herm4, rng, quad):
    Ui = analytic_generator(herm4)
    n = herm4.dim
    b = Ui @ random_unit(rng, n)
    mus = np.logspace(-2.0, 2.0, 5)
    B, Y = shifted_solves(Ui, b, mus)
    Q, d, e = _tridiagonalize(Ui)
    assert np.array_equal(B, Q) and np.array_equal(Y, _sweep(Q, d, e, b, mus))
    # equal content in other arrays, A in either memory order, is a hit
    for A in (Ui.copy(), np.asfortranarray(Ui)):
        again = shifted_solves(A, b.copy(), mus.copy())
        assert again[0] is B and again[1] is Y
    assert reconstruction._cached_samples.cache_info().misses == 1
    # one bit moved in A (a diagonal entry, so still Hermitian), in b or in
    # a node is a new sample set, reduced and swept afresh
    moved_A, moved_b, moved_mus = Ui.copy(), b.copy(), mus.copy()
    moved_A[0, 0] = np.nextafter(moved_A[0, 0].real, np.inf)
    moved_b[0] = complex(np.nextafter(b[0].real, np.inf), b[0].imag)
    moved_mus[2] = np.nextafter(mus[2], np.inf)
    for misses, (A, rhs, nodes) in enumerate(
        ((moved_A, b, mus), (Ui, moved_b, mus), (Ui, b, moved_mus)), start=2
    ):
        B2, Y2 = shifted_solves(A, rhs, nodes)
        assert reconstruction._cached_samples.cache_info().misses == misses
        Q2, d2, e2 = _tridiagonalize(A)
        assert np.array_equal(B2, Q2) and np.array_equal(Y2, _sweep(Q2, d2, e2, rhs, nodes))
        assert not np.array_equal(Y2, Y)

    # cold and warm reports of both routes are bit-identical
    t = 0.7
    x = random_unit(rng, herm4.dim)
    routes = (
        (reconstruct_Ut_delta, [t + 0.1j, t + 0.03j]),
        (reconstruct_Ut_cz, [0.1 + 1j * t, 0.03 + 1j * t]),
    )
    for reconstruct, seq in routes:
        reconstruction._cached_samples.cache_clear()
        cold = reconstruct(herm4, t, x, seq, quad)
        warm = reconstruct(herm4, t, x, seq, quad)
        info = reconstruction._cached_samples.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert np.array_equal(cold.approximation, warm.approximation)
        assert replace(cold, approximation=None) == replace(warm, approximation=None)


def test_one_model_builds_its_fixed_operators_once(herm4, rng, quad, monkeypatch):
    # U_i, U_{-i} and the graph basis depend on the model alone: three delta
    # calls, three cz calls, a decay fit, a resolvent check and a scan on
    # one model build each of them once, and both routes hand the sample
    # cache the model's kept key of U_i and the grid's kept key of the
    # nodes, so no warm call copies or hashes either again
    built = Counter()
    nus = generator_spectrum(herm4)
    spectral, content_key, qr = (
        group_models._spectral_matrix, group_models._content_key, np.linalg.qr
    )

    def counted_spectral(g, vals):
        for name, want in (("U_i", nus), ("U_minus_i", 1.0 / nus)):
            if np.allclose(vals, want, rtol=1e-12, atol=0.0):
                built[name] += 1
        return spectral(g, vals)

    def counted_key(a):
        built[f"key{a.shape}"] += 1
        return content_key(a)

    def counted_qr(a, *args, **kwargs):
        built["qr"] += 1
        return qr(a, *args, **kwargs)

    sample, keys = reconstruction._cached_samples, []

    def recorded(A_key, b_key, mus_key):
        keys.append((A_key, b_key, mus_key))
        return sample(A_key, b_key, mus_key)

    monkeypatch.setattr(group_models, "_spectral_matrix", counted_spectral)
    monkeypatch.setattr(group_models, "_content_key", counted_key)
    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    monkeypatch.setattr(reconstruction, "_cached_samples", recorded)
    n = herm4.dim
    x = random_unit(rng, n)
    for t in (0.4, 0.7, 1.3):
        reconstruct_Ut_delta(herm4, t, x, [t + 0.1j], quad)
        reconstruct_Ut_cz(herm4, t, x, [0.1 + 1j * t], quad)
    decay_bound_fit(herm4, x, 0.5, np.logspace(1.0, 3.0, 7), quad)
    p = KernelParam(1.5 + 0.5j)
    verify_resolvent_identities(herm4, p, build_Rmu(herm4, p, quad), [make_graph_vector(herm4, x)])
    ampliation(herm4)
    spectrum_scan(herm4, [0.5 + 0.9j, 1.5 - 0.4j, 3.0], quad)
    assert built == {"U_i": 1, "U_minus_i": 1, f"key{(n, n)}": 1, "qr": 1}
    assert len(keys) == 6
    assert all(A is herm4._U_i_key for A, _, _ in keys)
    assert all(b == keys[0][1] for _, b, _ in keys)
    assert all(mus is keys[0][2] for _, _, mus in keys)


def test_kept_operators_give_the_reports_of_a_fresh_model(rng, quad):
    # a 64-dim model whose operators are kept and warm gives, bit for bit,
    # the reports of a fresh model with the same content from cold caches
    H = hermitian_model(rng, 64, 2.0).generator_matrix
    x = random_unit(rng, 64)
    t = 0.7

    def reports(g):
        return (
            reconstruct_Ut_delta(g, t, x, [t + 0.1j, t + 0.03j], quad),
            reconstruct_Ut_cz(g, t, x, [0.1 + 1j * t, 0.03 + 1j * t], quad),
            decay_bound_fit(g, x, 0.5, np.logspace(1.0, 4.0, 13), quad),
        )

    kept = GroupModel.hermitian(H)
    reports(kept)
    warm = reports(kept)
    reconstruction._cached_samples.cache_clear()
    reconstruction._radial_grid.cache_clear()
    cold = reports(GroupModel.hermitian(H))
    for w, c in zip(warm[:2], cold[:2]):
        assert np.array_equal(w.approximation, c.approximation)
        assert replace(w, approximation=None) == replace(c, approximation=None)
    assert warm[2] == cold[2]


def route_sequence(route, t):
    """The reconstruction function of a route and a three-step sequence towards t."""
    offsets = (0.3, 0.1, 0.03)
    if route == "graph_pair":
        return reconstruct_Ut_delta, [t + 1j * d for d in offsets]
    return reconstruct_Ut_cz, [d + 1j * t for d in offsets]


def record_calls(monkeypatch, calls, module, name):
    """Patch module.name with a wrapper that counts its calls in calls[name]."""
    fn = getattr(module, name)

    def recorded(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)


def counted_sweeps(monkeypatch):
    """A list that grows by one entry per Thomas sweep run from here on."""
    sweep, sweeps = reconstruction._sweep, []

    def counted(*args):
        sweeps.append(1)
        return sweep(*args)

    monkeypatch.setattr(reconstruction, "_sweep", counted)
    return sweeps


@pytest.mark.parametrize("route", ["graph_pair", "scalar_power"])
def test_radial_samples_are_swept_once_across_times(herm4, rng, quad, monkeypatch, route):
    # the samples depend on the matrix, the right-hand side and the nodes,
    # never on t: three times on one (g, x) run one sweep, and every warm
    # report is bit for bit the report computed from a cold cache
    sweeps = counted_sweeps(monkeypatch)
    x = random_unit(rng, herm4.dim)
    times = (0.4, 0.7, 1.3)
    warm = []
    for t in times:
        reconstruct, seq = route_sequence(route, t)
        warm.append(reconstruct(herm4, t, x, seq, quad))
    assert len(sweeps) == 1
    for t, w in zip(times, warm):
        reconstruction._cached_samples.cache_clear()
        reconstruct, seq = route_sequence(route, t)
        cold = reconstruct(herm4, t, x, seq, quad)
        assert np.array_equal(cold.approximation, w.approximation)
        assert replace(cold, approximation=None) == replace(w, approximation=None)
    assert len(sweeps) == 1 + len(times)


@pytest.mark.parametrize("route", ["graph_pair", "scalar_power"])
def test_moved_state_or_other_panels_sweep_again(herm4, rng, quad, monkeypatch, route):
    # x moved by one ulp changes the right-hand side, and other panels
    # change the nodes: either is a new sample set, which reduces the
    # matrix again and runs a new sweep
    sweeps, reductions = counted_sweeps(monkeypatch), Counter()
    record_calls(monkeypatch, reductions, reconstruction, "_tridiagonalize")
    reconstruct, seq = route_sequence(route, 0.7)
    x = random_unit(rng, herm4.dim)
    moved = x.copy()
    moved[0] = complex(np.nextafter(x[0].real, np.inf), x[0].imag)
    runs = (
        (x, PANELS_DEFAULT, 1),
        (x, PANELS_DEFAULT, 1),
        (moved, PANELS_DEFAULT, 2),
        (moved, PANELS_DEFAULT + 1, 3),
        (moved, PANELS_DEFAULT + 1, 3),
    )
    for state, panels, total in runs:
        reconstruct(herm4, 0.7, state, seq, quad, panels=panels)
        assert len(sweeps) == reductions["_tridiagonalize"] == total


def test_shifted_solves_keep_the_latest_samples(herm4, rng, monkeypatch):
    # equal (A, b, nodes) content returns the kept read-only arrays without
    # a sweep; A, b or one node moved by one ulp sweeps again, and the
    # first samples stay among the latest four sets
    sweeps = counted_sweeps(monkeypatch)
    Ui = analytic_generator(herm4)
    n = herm4.dim
    b = Ui @ random_unit(rng, n)
    mus = np.logspace(-2.0, 2.0, 5)
    B, Y = shifted_solves(Ui, b, mus)
    assert not B.flags.writeable and not Y.flags.writeable
    for kept in (B, Y):
        with pytest.raises(ValueError):
            kept[0, 0] = 0.0
    again = shifted_solves(Ui.copy(), b.copy(), mus.copy())
    assert again[0] is B and again[1] is Y and len(sweeps) == 1

    A_moved = Ui.copy()
    A_moved[0, 0] = np.nextafter(Ui[0, 0].real, np.inf)
    b_moved = b.copy()
    b_moved[0] = complex(np.nextafter(b[0].real, np.inf), b[0].imag)
    mus_moved = mus.copy()
    mus_moved[2] = np.nextafter(mus[2], np.inf)
    for args, total in (((Ui, b_moved, mus), 2), ((Ui, b, mus_moved), 3), ((A_moved, b, mus), 4)):
        shifted_solves(*args)
        assert len(sweeps) == reconstruction._cached_samples.cache_info().currsize == total
    B4, Y4 = shifted_solves(Ui, b, mus)
    assert B4 is B and Y4 is Y and len(sweeps) == 4


def test_sample_cache_holds_four_sets(herm4, rng, monkeypatch):
    # a fifth sample set evicts the least recently used one, which comes
    # back swept afresh, to the bit; the other sets stay kept
    sweeps = counted_sweeps(monkeypatch)
    Ui = analytic_generator(herm4)
    n = herm4.dim
    b = Ui @ random_unit(rng, n)
    grids = [np.logspace(-2.0, 2.0, 5 + k) for k in range(5)]
    first = [shifted_solves(Ui, b, mus) for mus in grids[:4]]
    assert len(sweeps) == reconstruction._cached_samples.cache_info().currsize == 4
    shifted_solves(Ui, b, grids[4])
    assert len(sweeps) == 5 and reconstruction._cached_samples.cache_info().currsize == 4
    for mus, (B, Y) in zip(grids[1:4], first[1:]):
        kept = shifted_solves(Ui, b, mus)
        assert kept[0] is B and kept[1] is Y
    assert len(sweeps) == 5
    B0, Y0 = shifted_solves(Ui, b, grids[0])
    assert len(sweeps) == 6
    assert Y0 is not first[0][1] and np.array_equal(Y0, first[0][1])
    assert np.array_equal(B0, first[0][0])


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


def test_decay_fit_rejects_the_zero_state(quad, monkeypatch):
    # y(mu) vanishes for x = 0 and has no log-log slope; the state is
    # rejected before any window is planned, where a nonzero state plans
    planned = Counter()
    record_calls(monkeypatch, planned, reconstruction, "_quadrature_plan")
    g = GroupModel.diagonal([-0.7, 0.1, 0.9])
    with pytest.raises(ValueError, match="x must be nonzero"):
        decay_bound_fit(g, np.zeros(3), 0.5, np.logspace(1.0, 3.0, 9), quad)
    assert not planned
    decay_bound_fit(g, np.ones(3), 0.5, np.logspace(1.0, 3.0, 9), quad)
    assert planned["_quadrature_plan"] > 0


def test_decay_fit_rejects_a_nan_fit_residual(diag4, rng, quad, monkeypatch):
    # a residual that is not a number fails the fit instead of passing it
    monkeypatch.setattr(np, "polyfit", lambda *a: (math.nan, math.nan))
    with pytest.raises(FitUnstable):
        decay_bound_fit(diag4, random_unit(rng, 4), 0.5, np.logspace(1.0, 3.0, 9), quad)


def test_decay_fit_needs_three_top_decade_points(diag4, rng, quad):
    x = random_unit(rng, 4)
    with pytest.raises(FitUnstable):
        decay_bound_fit(diag4, x, 0.5, [1.0, 2.0, 1000.0], quad)


@pytest.mark.parametrize("mags", [[100.0] * 13, [10.0, 100.0, 100.0, 1000.0, 1000.0, 1000.0]])
def test_decay_fit_needs_three_distinct_top_decade_magnitudes(
    diag4, rng, quad, monkeypatch, mags
):
    # equal magnitudes share one abscissa, so they carry no slope: the fit
    # is refused before any quadrature runs, instead of handing polyfit a
    # rank-deficient system
    calls = Counter()
    record_calls(monkeypatch, calls, reconstruction, "integrate_vector")
    with pytest.raises(FitUnstable, match="distinct"):
        decay_bound_fit(diag4, random_unit(rng, 4), 0.5, mags, quad)
    assert not calls


@pytest.mark.parametrize("arg_mu", [math.pi, math.pi - 0.01])
def test_decay_fit_rejects_ray_near_cut(diag4, rng, quad, arg_mu):
    # the ray's clearance is checked before any quadrature: at arg pi the
    # decay rate is 0, and at pi - 0.01 the window would run into the cap
    x = random_unit(rng, 4)
    with pytest.raises(BranchViolation):
        decay_bound_fit(diag4, x, 0.5, [10.0, 100.0, 1000.0], quad, arg_mu=arg_mu)


def _count_fit_quadratures(monkeypatch):
    """Record decay_bound_fit's quadratures and every phase matrix it builds.

    Each integrate_vector call of the fit gets a list of the node arrays of
    the windows it takes; the fit integrates the direct line first and the
    shifted line second.
    """
    calls, builds = [], []
    nodes, integrate = vecint._nodes, reconstruction.integrate_vector
    phase_matrix = reconstruction._phase_matrix

    def counting_nodes(T, npu):
        ts, ws = nodes(T, npu)
        calls[-1].append(ts)
        return ts, ws

    def recording(*args, **kwargs):
        calls.append([])
        return integrate(*args, **kwargs)

    def counting_phases(g, zs):
        builds.append(zs)
        return phase_matrix(g, zs)

    monkeypatch.setattr(vecint, "_nodes", counting_nodes)
    monkeypatch.setattr(reconstruction, "integrate_vector", recording)
    monkeypatch.setattr(reconstruction, "_phase_matrix", counting_phases)
    return calls, builds


FIT_CASES = [(np.logspace(1.0, 3.0, 9), 0.0), (np.logspace(1.0, 2.5, 7), 0.6)]


@pytest.mark.parametrize(("mags", "arg_mu"), FIT_CASES)
def test_decay_fit_direct_line_takes_one_window(
    diag4, herm4, rng, quad, monkeypatch, mags, arg_mu
):
    # the direct line's gate is relative to ||Q_mu w|| ~ ||x|| nu/|mu| while
    # its integrand is ~ ||x||, so its plan is longer by log1p(|mu|)/rate;
    # every magnitude is one row of one quadrature per line, which takes
    # one window, accepted, to the tolerance of each row's result
    calls, _ = _count_fit_quadratures(monkeypatch)
    for g in (diag4, herm4):
        calls.clear()
        x = random_unit(rng, g.dim)
        rep = decay_bound_fit(g, x, 0.5, mags, quad, arg_mu=arg_mu)
        assert len(calls) == 2 and all(len(windows) == 1 for windows in calls)
        Ui_x = analytic_generator(g) @ x
        for m, y_direct, _ in rep.rows:
            mu = m * cmath.exp(1j * arg_mu)
            want = np.linalg.norm(qmu_spectral_oracle(g, KernelParam(mu)) @ (mu * x + Ui_x))
            assert abs(y_direct - want) <= quad.rel_tolerance * want


@pytest.mark.parametrize(("mags", "arg_mu"), FIT_CASES)
def test_decay_fit_builds_one_phase_matrix_per_window(
    diag4, herm4, rng, quad, monkeypatch, mags, arg_mu
):
    # both lines sample orbits of the diagonal twin, and each line takes one
    # window for the whole ray, so a fit builds two phase matrices
    # exp(i t h), one per line on its window, after the one at the times
    # i and ir that gives the coordinates of U_i x and U_ir x
    calls, builds = _count_fit_quadratures(monkeypatch)
    for g in (diag4, herm4):
        calls.clear()
        builds.clear()
        decay_bound_fit(g, random_unit(rng, g.dim), 0.5, mags, quad, arg_mu=arg_mu)
        assert len(calls) == 2 and all(len(windows) == 1 for windows in calls)
        assert len(builds) == 3
        assert np.array_equal(builds[0], [1j, 0.5j])
        assert builds[1] is calls[0][0] and builds[2] is calls[1][0]


def decay_fit_rows_reference(g, x, r, mags, q, arg_mu):
    """decay_bound_fit's rows with each line's orbit built on its own.

    The direct line samples U_t (V* w) and the shifted line U_{t+ir} (V* x),
    each by its own apply_Uz_batch on the diagonal twin, over the same
    windows as the library: the direct line's one plan for the ray, the
    longest and densest of the per-magnitude plans lengthened by
    log(1 + |mu|)/rate and raised to _kernel_floor, and the shifted line's
    one plan for the ray.
    """
    twin, c = GroupModel.diagonal(g.exponents), _to_eigen(g, x)
    c_ui = _to_eigen(g, analytic_generator(g) @ x)
    ps = [KernelParam(m * cmath.exp(1j * arg_mu)) for m in mags]
    nus = np.exp(-g.exponents)
    least = np.linalg.norm(nus / (nus + np.array(mags)[:, None]) * c, axis=1)
    c_shift = np.exp(-r * g.exponents) * c
    T_shift, npu_shift = _shifted_line_plan(g, ps, q, r, np.linalg.norm(c_shift) / least)
    plans = []
    for m, p, y_least in zip(mags, ps, least):
        T, npu = _quadrature_plan(g, p, q)
        c_w = p.mu * c + c_ui
        floor = _kernel_floor(p, q, npu, np.linalg.norm(c_w) / y_least)
        plans.append((max(T + math.log1p(m) / p.decay_rate, floor), npu))
    T_direct = max(T for T, _ in plans)
    npu_direct = max(npu for _, npu in plans)
    rows = []
    for m, p in zip(mags, ps):
        mu = p.mu
        c_w = mu * c + c_ui
        direct = vecint.integrate_vector(
            lambda ts: apply_Uz_batch(twin, ts, c_w),
            lambda ts: eval_kernel_array(p, ts),
            q,
            p.decay_rate,
            T_direct,
            npu_direct,
        )
        shift = vecint.integrate_vector(
            lambda ts: apply_Uz_batch(twin, ts + 1j * r, c),
            lambda ts: _over_double_sinh(1j, ts + 1j * r, 1j * (ts + 1j * r) * cmath.log(mu)),
            q,
            p.decay_rate,
            T_shift,
            npu_shift,
        )
        rows.append((m, np.linalg.norm(direct), np.linalg.norm(shift)))
    return np.array(rows)


@pytest.mark.parametrize(("mags", "arg_mu"), FIT_CASES)
def test_decay_fit_rows_match_lines_built_on_their_own(diag4, herm4, rng, quad, mags, arg_mu):
    for g in (diag4, herm4, hermitian_model(rng, 16, 2.0)):
        x = random_unit(rng, g.dim)
        got = np.array(decay_bound_fit(g, x, 0.5, mags, quad, arg_mu=arg_mu).rows)
        want = decay_fit_rows_reference(g, x, 0.5, mags, quad, arg_mu)
        assert np.array_equal(got[:, 0], want[:, 0])
        assert np.max(np.abs(got[:, 1:] - want[:, 1:]) / want[:, 1:]) <= 1e-13


def test_decay_fit_rows_keep_their_bits_at_any_block_size(diag4, herm4, rng, quad, monkeypatch):
    # each line takes its magnitudes in blocks of about _FIT_BLOCK density
    # entries, of at least two rows each: at one entry a block is two rows
    # (the last three), and the rows are the same bits at every size
    mags = np.logspace(1.0, 4.0, 13)
    calls = Counter()
    record_calls(monkeypatch, calls, reconstruction, "integrate_vector")
    for g in (diag4, herm4, hermitian_model(rng, 16, 2.0)):
        x = random_unit(rng, g.dim)
        reports, quadratures = {}, {}
        for block in (1, 1000, 10**9):
            monkeypatch.setattr(reconstruction, "_FIT_BLOCK", block)
            calls.clear()
            reports[block] = decay_bound_fit(g, x, 0.5, mags, quad, arg_mu=0.6)
            quadratures[block] = calls["integrate_vector"]
        assert reports[1] == reports[1000] == reports[10**9]
        # six blocks per line at one entry, one block per line below the default
        assert quadratures[1] == 12 and quadratures[10**9] == 2


def test_decay_fit_names_the_magnitude_whose_row_misses_its_gate(diag4, rng, quad, monkeypatch):
    # one magnitude's kernel row gets a slowly decaying tail: the fit fails
    # on the direct line and names that magnitude
    mags = np.logspace(1.0, 3.0, 9)
    rows = reconstruction.kernel_rows

    def heavy(log_mu, ts):
        values = rows(log_mu, ts)
        hit = np.flatnonzero(np.isclose(np.exp(log_mu.real), mags[4]))
        values[hit] += 1e-3 / np.cosh(0.05 * ts)
        return values

    monkeypatch.setattr(reconstruction, "kernel_rows", heavy)
    named = re.escape(f"|mu| = {float(mags[4])!r}")
    with pytest.raises(QuadratureNonConvergence, match=named) as err:
        decay_bound_fit(diag4, random_unit(rng, 4), 0.5, mags, quad)
    assert err.value.row == 4
