import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from angen import (
    BranchViolation,
    GroupModel,
    KernelParam,
    QuadratureSpec,
    ampliation,
    analytic_generator,
    build_Rmu,
    check_central_identity,
    compute_Qmu,
    graph_action_matrices,
    make_graph_vector,
    qmu_spectral_oracle,
    spectrum_scan,
    verify_resolvent_identities,
)
from angen import resolvent, vecint
from angen.group_models import _phase_matrix, _spectral_matrix, apply_Uz_batch
from angen.kernel import DELTA_MIN, eval_kernel_array, l1_norm
from angen.resolvent import (
    MIN_ABS_MU,
    _compressed,
    _qmu_plan,
)

from conftest import random_hermitian, random_unit

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


def kernel_l1_norm_by_quadrature(mu: complex) -> float:
    # ||F(mu, .)||_L1 by adaptive quadrature of |F| on [-200, 200]; at decay
    # rate pi/16 the omitted tails weigh about 1e-14 of the total
    T = 200.0
    opts = dict(limit=400, epsabs=0.0, epsrel=1e-13)
    left = quad(lambda t: abs(kernel_direct(mu, t)), -T, 0.0, **opts)[0]
    right = quad(lambda t: abs(kernel_direct(mu, t)), 0.0, T, **opts)[0]
    return left + right


# a hair inside |arg mu| <= pi - pi/16, so rounding never leaves the sector
ARG_MAX = (math.pi - math.pi / 16.0) * (1.0 - 1e-12)


@settings(max_examples=30, derandomize=True)
@given(
    h=st.lists(st.floats(min_value=-12.0, max_value=12.0), min_size=1, max_size=16),
    log_abs_mu=st.floats(min_value=math.log(1e-3), max_value=math.log(1e5)),
    arg_mu=st.floats(min_value=-ARG_MAX, max_value=ARG_MAX),
    attained=st.booleans(),
    seed=st.none() | st.integers(min_value=0, max_value=2**32 - 1),
)
@example(h=[0.0, 3.0], log_abs_mu=math.log(1e-3), arg_mu=ARG_MAX, attained=True, seed=None)
@example(h=[0.0, -3.0], log_abs_mu=math.log(1e5), arg_mu=-ARG_MAX, attained=True, seed=11)
def test_qmu_norm_obeys_kernel_l1_bound(h, log_abs_mu, arg_mu, attained, seed):
    # the paper's bound on any model: ||Q_mu|| <= ||F(mu, .)||_L1, whose
    # closed form kernel.l1_norm = 1/(2(|mu| + Re mu)) = sup_nu nu/|nu + mu|^2
    # makes it sharp; it is attained when the spectrum contains nu = |mu|.  A seed
    # builds a Hermitian model with a random eigenbasis, None a diagonal one.
    if attained:
        h = [-log_abs_mu] + h[1:]
    if seed is None:
        g = GroupModel.diagonal(h)
    else:
        n = len(h)
        rng = np.random.default_rng(seed)
        V, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        g = GroupModel.hermitian((V * np.array(h)[None, :]) @ V.conj().T)
    mu = cmath.rect(math.exp(log_abs_mu), arg_mu)
    q = QuadratureSpec(rel_tolerance=1e-10)

    p = KernelParam(mu)
    phi = kernel_l1_norm_by_quadrature(mu)
    assert phi == pytest.approx(l1_norm(p), rel=1e-10)
    norm = float(np.linalg.norm(compute_Qmu(g, p, q), 2))
    assert norm <= phi * (1.0 + 10.0 * q.rel_tolerance)
    if attained:
        assert norm >= phi * (1.0 - 1e-8)


# mu = 0.5 would stall at 6.9e-12 with an odd panel count, which centres a
# panel at t = 0, under the kernel's poles at t = +-i
ORACLE_CASES = [(mu, 1e-8) for mu in MU_POOL] + [(0.5, 1e-12)]


@pytest.mark.parametrize("mu, rtol", ORACLE_CASES, ids=[str(mu) for mu, _ in ORACLE_CASES])
def test_qmu_matches_spectral_oracle(diag4, herm4, quad, mu, rtol):
    p = KernelParam(mu)
    for g in (diag4, herm4):
        Q = compute_Qmu(g, p, quad)
        S = qmu_spectral_oracle(g, p)
        assert np.linalg.norm(Q - S, 2) <= rtol * np.linalg.norm(S, 2)


TOLERANCE_MODELS = [(0.0, 0.0, 0.0), (0.3, -0.3, 0.1), (-1.5, -0.6, 0.4, 1.2), (5.0, -3.0)]
TOLERANCE_MUS = [
    cmath.rect(r, a)
    for r in (0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0)
    for a in (0.0, math.pi / 2, -math.pi / 2, 3 * math.pi / 4, -3 * math.pi / 4)
]


@pytest.mark.parametrize("tol", [1e-10, 1e-12, 1e-13])
def test_qmu_meets_rel_tolerance(tol):
    # rel_tolerance holds from |mu| = 0.01 to 30 on either side of the real
    # axis, within a factor 10 for the rounding of the mode factors
    q = QuadratureSpec(rel_tolerance=tol)
    worst = 0.0
    for h in TOLERANCE_MODELS:
        g = GroupModel.diagonal(h)
        for mu in TOLERANCE_MUS:
            p = KernelParam(mu)
            S = qmu_spectral_oracle(g, p)
            err = np.linalg.norm(compute_Qmu(g, p, q) - S, 2) / np.linalg.norm(S, 2)
            worst = max(worst, err / tol)
    assert worst <= 10.0


def test_identity_model_quarter(identity3, quad):
    # nu = 1, mu = 1: the factor is 1/(1+1)^2
    Q = compute_Qmu(identity3, KernelParam(1.0), quad)
    assert np.linalg.norm(Q - np.eye(3) / 4.0, 2) <= 1e-9


def test_known_mode_value(quad):
    import angen

    g = angen.GroupModel.diagonal([-math.log(2.0)])
    Q = compute_Qmu(g, KernelParam(1.0), quad)
    assert Q[0, 0] == pytest.approx(2.0 / 9.0, rel=1e-9)


@pytest.mark.parametrize(
    "n, seed",
    [(1, 1), (3, 3), (16, 16), (48, 48), (16, 5)],
    ids=["1", "3", "16", "48", "16-seed5"],
)
def test_qmu_matches_oracle_on_random_hermitian(quad, n, seed):
    g = random_hermitian(np.random.default_rng(seed), n)
    for mu in MU_POOL:
        p = KernelParam(mu)
        S = qmu_spectral_oracle(g, p)
        assert np.linalg.norm(compute_Qmu(g, p, quad) - S, 2) <= 1e-8 * np.linalg.norm(S, 2)


def _count_phase_builds(monkeypatch):
    """Record every node array compute_Qmu samples and every phase matrix it builds."""
    windows, builds = [], []
    nodes, phase_matrix = vecint._nodes, resolvent._phase_matrix

    def counting_nodes(T, npu):
        ts, ws = nodes(T, npu)
        windows.append(ts)
        return ts, ws

    def counting_phases(g, zs):
        builds.append(len(zs))
        return phase_matrix(g, zs)

    monkeypatch.setattr(vecint, "_nodes", counting_nodes)
    monkeypatch.setattr(resolvent, "_phase_matrix", counting_phases)
    return windows, builds


@pytest.mark.parametrize("mu", MU_POOL + [0.5, 5.0 * cmath.exp(2.5j)])
def test_qmu_takes_one_window_per_mode(diag4, herm4, quad, monkeypatch, mu):
    # every mode's quadrature samples the one planned window, and all modes
    # share the phase matrix of that window
    windows, builds = _count_phase_builds(monkeypatch)
    for g in (diag4, herm4):
        windows.clear()
        builds.clear()
        compute_Qmu(g, KernelParam(mu), quad)
        assert len(windows) == g.dim
        assert builds == [len(windows[0])]


def test_scan_row_shares_whole_panel_windows(diag4, quad, monkeypatch):
    # every Q_mu of a scan row (Re mu = 2.5, 41 points) plans a whole number
    # of panel widths, so neighbouring mu land on one cached window: the row
    # builds a few windows, where exact-width plans built 26
    plans = []
    integrate = resolvent.integrate_vector

    def recording(f, density, q, tail_rate, truncation, nodes_per_unit, *args):
        plans.append((truncation, 16.0 / nodes_per_unit))
        return integrate(f, density, q, tail_rate, truncation, nodes_per_unit, *args)

    monkeypatch.setattr(resolvent, "integrate_vector", recording)
    row = [complex(2.5, -y) for y in np.linspace(-5.0, 5.0, 41)]
    vecint._cached_window.cache_clear()
    spectrum_scan(diag4, row, quad)
    assert len(plans) == diag4.dim * len(row)
    for T, width in plans:
        assert T / width == pytest.approx(round(T / width), abs=1e-9)
    assert vecint._cached_window.cache_info().misses <= len(row) // 8


# a row of one density (Re mu = 2.5) and a ray across six
SCAN_ROWS = [
    [complex(2.5, -y) for y in np.linspace(-5.0, 5.0, 41)],
    [complex(x, 3.0) for x in np.geomspace(1e-3, 1e4, 41)],
]


@pytest.mark.parametrize("row", SCAN_ROWS, ids=["one-density", "six-densities"])
def test_scan_builds_one_phase_matrix_per_density(diag4, quad, monkeypatch, row):
    # the scan visits its mu by density, the widest window of each first,
    # and shares one phase memo, which serves the nested windows of that
    # density slices of the widest one's matrix: one build per distinct
    # density of the row, on its widest window, where one build per
    # distinct window made 3 and 10; the order of the grid does not change
    # a bit of the norms
    plans = [_qmu_plan(diag4, KernelParam(mu), quad) for mu in row]
    windows, builds = _count_phase_builds(monkeypatch)
    forward = [pt.resolvent_norm for pt in spectrum_scan(diag4, row, quad)]
    assert len(windows) == diag4.dim * len(row)
    densities = sorted({npu for _, npu in plans})
    widest = [
        max(ts.size for ts in windows if vecint._panel_window_of(ts).lattice.nodes_per_unit == npu)
        for npu in densities
    ]
    assert builds == widest
    backward = [pt.resolvent_norm for pt in spectrum_scan(diag4, row[::-1], quad)]
    assert np.array_equal(forward, backward[::-1])


def test_scan_plans_each_point_once(diag4, herm4, quad, monkeypatch):
    # the scan orders its grid by the plans and hands each to compute_Qmu,
    # which then plans nothing itself; the norms are the bits of a scan whose
    # Q_mu plan their own windows
    grid = [complex(2.5, -y) for y in np.linspace(-5.0, 5.0, 9)] + [0.4 - 0.8j, 3.0]
    plan, build = resolvent._qmu_plan, resolvent.compute_Qmu

    def replanning(g, p, q, *, phase_memo=None, plan=None):
        return build(g, p, q, phase_memo=phase_memo)

    for g in (diag4, herm4):
        with monkeypatch.context() as m:
            m.setattr(resolvent, "compute_Qmu", replanning)
            want = [pt.resolvent_norm for pt in spectrum_scan(g, grid, quad)]
        calls = []
        with monkeypatch.context() as m:
            m.setattr(resolvent, "_qmu_plan", lambda g, p, q: calls.append(p.mu) or plan(g, p, q))
            got = [pt.resolvent_norm for pt in spectrum_scan(g, grid, quad)]
        assert calls == grid
        assert np.array_equal(got, want)


def test_spectrum_scan_rejects_small_mu_before_any_quadrature(diag4, quad, monkeypatch):
    calls = []
    integrate = resolvent.integrate_vector

    def counting(*args):
        calls.append(args)
        return integrate(*args)

    monkeypatch.setattr(resolvent, "integrate_vector", counting)
    with pytest.raises(ValueError, match="the blocks contain 1/mu"):
        spectrum_scan(diag4, [1.0, 2.0 + 1.0j, 0.5 * MIN_ABS_MU], quad)
    assert calls == []


def test_qmu_rejects_a_phase_memo_of_another_model(diag4, herm4, quad):
    p = KernelParam(2.0 + 1.0j)
    memo = resolvent._PhaseMemo(GroupModel.diagonal(herm4.exponents))
    with pytest.raises(ValueError, match="other exponents"):
        compute_Qmu(diag4, p, quad, phase_memo=memo)
    # a memo of the model's own exponents gives the bits of a fresh one
    shared = compute_Qmu(herm4, p, quad, phase_memo=memo)
    assert np.array_equal(shared, compute_Qmu(herm4, p, quad))


def test_phase_memo_slices_nested_windows(herm4, monkeypatch):
    # the memo keeps the matrix of one window and serves every nested
    # window of its lattice the middle rows, a view with the bits of a
    # fresh build; a wider window or one of another density builds and
    # replaces it, and any other array, an equal copy included, builds
    # and is not kept
    _, builds = _count_phase_builds(monkeypatch)
    g = GroupModel.diagonal(herm4.exponents)
    memo = resolvent._PhaseMemo(g)
    a, _ = vecint._nodes(9.0, 8)
    b, _ = vecint._nodes(7.0, 8)
    wide, _ = vecint._nodes(13.0, 8)
    other, _ = vecint._nodes(7.0, 9)
    P = memo(a)
    assert memo(a) is P and len(builds) == 1
    nested = memo(b)
    assert len(builds) == 1 and np.shares_memory(nested, P)
    assert np.array_equal(nested, _phase_matrix(g, b))
    assert not np.shares_memory(memo(np.array(b)), P) and len(builds) == 2
    assert np.shares_memory(memo(b), P) and len(builds) == 2
    for ts, count in ((wide, 3), (a, 3), (b, 3), (other, 4), (b, 5), (a, 6)):
        got = memo(ts)
        assert len(builds) == count
        assert np.array_equal(got, _phase_matrix(g, ts))


def _per_mode_factors(g, p, q):
    """One scalar quadrature per mode k of the phase exp(i t h_k), each on its own."""
    T, npu = _qmu_plan(g, p, q)
    twin, ones = GroupModel.diagonal(g.exponents), np.ones(g.dim)
    return np.concatenate(
        [
            vecint.integrate_vector(
                lambda ts, k=k: apply_Uz_batch(twin, ts, ones)[:, k],
                lambda ts: eval_kernel_array(p, ts),
                q,
                tail_rate=p.decay_rate,
                truncation=T,
                nodes_per_unit=npu,
                scale_hint=1.0,
            )
            for k in range(g.dim)
        ]
    )


def test_exponent_classes_name_the_first_mode_of_each_exponent(diag4, identity3):
    # read-only (modes, index), modes in mode order; a distinct spectrum
    # maps every mode to itself
    for g, modes, index in (
        (diag4, [0, 1, 2, 3], [0, 1, 2, 3]),
        (identity3, [0], [0, 0, 0]),
        (GroupModel.diagonal([0.4, -1.5, 0.4, 1.2, -1.5]), [0, 1, 3], [0, 1, 0, 2, 1]),
    ):
        got = g._exponent_classes
        assert [a.tolist() for a in got] == [modes, index]
        assert not any(a.flags.writeable for a in got)


@pytest.mark.parametrize("mu", MU_POOL + [0.5])
def test_qmu_takes_one_quadrature_per_distinct_exponent(identity3, quad, monkeypatch, mu):
    # modes of one exponent share one factor: Q_mu takes one window per
    # distinct exponent and has the bits of one quadrature per mode
    p = KernelParam(mu)
    windows, _ = _count_phase_builds(monkeypatch)
    for g, distinct in ((identity3, 1), (GroupModel.diagonal([-1.5, 0.4, -1.5, 1.2]), 3)):
        windows.clear()
        Q = compute_Qmu(g, p, quad)
        assert len(windows) == distinct
        assert np.array_equal(Q, _spectral_matrix(g, _per_mode_factors(g, p, quad)))


@pytest.mark.parametrize("mu", MU_POOL + [0.5])
def test_qmu_is_mode_quadrature_bitwise(diag4, herm4, quad, mu):
    # Q_mu is V diag(q) V*, where q_k is one scalar quadrature of the
    # phase exp(i t h_k), a column of the diagonal twin's phase matrix,
    # bit for bit
    p = KernelParam(mu)
    for g in (diag4, herm4):
        want = _spectral_matrix(g, _per_mode_factors(g, p, quad))
        assert np.array_equal(compute_Qmu(g, p, quad), want)


@pytest.mark.parametrize("mu", MU_POOL)
def test_hermitian_qmu_is_twin_qmu_in_the_basis(quad, monkeypatch, mu):
    # a Hermitian model's Q_mu is its diagonal twin's, rotated by the
    # eigenbasis, and every quadrature samples one value per node, not a
    # nodes x n block
    shapes = []
    integrate = resolvent.integrate_vector

    def recording(f, *args):
        def sampled(ts):
            vals = f(ts)
            shapes.append((np.shape(vals), len(ts)))
            return vals

        return integrate(sampled, *args)

    monkeypatch.setattr(resolvent, "integrate_vector", recording)
    g = random_hermitian(np.random.default_rng(11), 12)
    p = KernelParam(mu)
    twin_q = np.diag(compute_Qmu(GroupModel.diagonal(g.exponents), p, quad))
    assert np.array_equal(compute_Qmu(g, p, quad), _spectral_matrix(g, twin_q))
    assert len(shapes) >= 2 * g.dim
    assert all(shape == (nodes,) for shape, nodes in shapes)


@pytest.mark.parametrize("mu", MU_POOL)
def test_central_identity(diag4, herm4, rng, quad, mu):
    p = KernelParam(mu)
    for g in (diag4, herm4):
        x = random_unit(rng, g.dim)
        assert check_central_identity(g, p, compute_Qmu(g, p, quad), x) <= 1e-8


def test_central_identity_rejects_zero(diag4, quad):
    p = KernelParam(1.0)
    with pytest.raises(ValueError):
        check_central_identity(diag4, p, compute_Qmu(diag4, p, quad), np.zeros(4))


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
        rep = verify_resolvent_identities(g, p, build_Rmu(g, p, quad), samples)
        assert rep.apply_after_residual <= 1e-8
        assert rep.apply_before_residual <= 1e-8
        assert rep.graph_invariance_residual <= 1e-8
        assert rep.num_samples == 4


def test_resolvent_identities_reject_vacuous_samples(diag4, rng, quad):
    # a zero pair has no relative residual and an empty list checks nothing
    p = KernelParam(1.0)
    R = build_Rmu(diag4, p, quad)
    good = make_graph_vector(diag4, random_unit(rng, 4))
    for samples in ([], [good, make_graph_vector(diag4, np.zeros(4))]):
        with pytest.raises(ValueError):
            verify_resolvent_identities(diag4, p, R, samples)


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
    top, bot = np.split(D.as_matrix() @ np.concatenate([x, 2 * x]), 2)
    assert np.allclose(top, Ui @ x) and np.allclose(bot, 2 * Ui @ x)


def test_graph_basis_is_orthonormal(diag4, herm4):
    for g in (diag4, herm4):
        P = g._graph_basis
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
        nrm = float(np.linalg.norm(_compressed(R, g._graph_basis), 2))
        dist = float(np.min(np.abs(mu + nus)))
        assert nrm * dist == pytest.approx(1.0, rel=1e-7)


def test_spectrum_scan_small_grid(diag4, quad):
    grid = [0.5 + 0.9j, 1.5 - 0.4j, -0.8 + 1.2j, 3.0 + 0.0j]
    pts = spectrum_scan(diag4, grid, quad)
    assert [pt.mu for pt in pts] == grid
    for pt in pts:
        assert pt.lower_bound_ok
        assert pt.resolvent_norm * pt.oracle_distance == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("size", [0, 1, 7])
def test_spectrum_scan_norms_match_per_point_norms(diag4, herm4, quad, size):
    # the scan takes every norm from one stacked SVD
    grid = [cmath.rect(0.6 + 0.5 * k, -2.4 + 0.8 * k) for k in range(size)]
    for g in (diag4, herm4):
        pts = spectrum_scan(g, grid, quad)
        assert [pt.mu for pt in pts] == grid
        for pt in pts:
            R = build_Rmu(g, KernelParam(pt.mu), quad)
            want = float(np.linalg.norm(_compressed(R, g._graph_basis), 2))
            assert abs(pt.resolvent_norm - want) <= 1e-13 * want


def test_spectrum_scan_rejects_branch_cut(diag4, quad):
    with pytest.raises(BranchViolation):
        spectrum_scan(diag4, [1.0, -2.0], quad)
    # decay rate below the minimum sector clearance is refused up front
    near_cut = cmath.rect(1.0, math.pi - math.pi / 64.0)
    with pytest.raises(BranchViolation):
        spectrum_scan(diag4, [near_cut], quad)


def _block_bound_direct(mu: complex) -> float:
    # the paper's ||R_mu|| <= B(mu), from phi = 1/(2(|mu| + Re mu)) per point
    r = abs(mu)
    phi = 1.0 / (2.0 * (r + mu.real))
    return float(np.linalg.norm([[phi + 1.0 / r, phi / r], [r * phi, phi]], 2))


def test_spectrum_scan_obeys_block_bound(diag4, herm4, quad):
    # 21 x 21 square of -mu, minus the guard sector around the spectrum ray
    axis = np.linspace(-4.0, 4.0, 21)
    grid = [
        -complex(a, b)
        for a in axis
        for b in axis
        if abs(complex(a, b)) >= MIN_ABS_MU and abs(cmath.phase(complex(a, b))) >= DELTA_MIN
    ]
    bounds = np.array([_block_bound_direct(mu) for mu in grid])
    batched = resolvent._block_bounds([KernelParam(mu) for mu in grid])
    assert np.allclose(batched, bounds, rtol=1e-13, atol=0)
    for g in (diag4, herm4):
        pts = spectrum_scan(g, grid, quad)
        norms = np.array([pt.resolvent_norm for pt in pts])
        assert all(pt.upper_bound_ok for pt in pts)
        assert np.all(norms <= bounds * (1.0 + 1e-6))
    # the full 2n-norm of R_mu obeys it too, and comes close to it
    ratios = [
        np.linalg.norm(build_Rmu(diag4, KernelParam(mu), quad).as_matrix(), 2)
        / _block_bound_direct(mu)
        for mu in grid[::40]
    ]
    assert max(ratios) <= 1.0 + 1e-6
    assert max(ratios) >= 0.9
