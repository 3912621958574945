import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from angen import (
    BranchViolation,
    KernelParam,
    PoleProximity,
    QuadratureNonConvergence,
    QuadratureSpec,
    ZeroArgument,
    check_functional_eq1,
    check_functional_eq2,
    contour_residue_check,
    eval_kernel,
    eval_kernel_array,
    eval_kernel_by_integral,
    pole_distance,
)
from angen import kernel
from angen.kernel import (
    DELTA_MIN,
    POLE_GUARD,
    SERIES_SWITCH_RADIUS,
    _over_double_sinh,
    require_quadrature_clearance,
)
from angen.vecint import TRUNCATION_CAP, _nodes, _panel_window_of

MU_POOL = [1.0, 2.0 + 1.0j, 0.4 - 0.8j, -1.0 + 1.0j, 0.05, 37.0 - 2.0j]

mu_strategy = st.sampled_from(MU_POOL)


def direct_formula(mu: complex, t: complex) -> complex:
    # plain one-line evaluation, no series or asymptotic switching
    return t * mu ** (1j * t - 1.0) / (cmath.exp(math.pi * t) - cmath.exp(-math.pi * t))


@given(mu_strategy, st.floats(min_value=0.05, max_value=8.0), st.booleans())
def test_matches_direct_formula(mu, t, flip):
    if flip:
        t = -t
    p = KernelParam(mu)
    got = eval_kernel(p, t)
    want = direct_formula(mu, t)
    assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


@pytest.mark.parametrize("mu", MU_POOL)
def test_value_at_zero_is_removable_limit(mu):
    p = KernelParam(mu)
    assert eval_kernel(p, 0.0) == pytest.approx(1.0 / (2.0 * math.pi * mu), rel=1e-14)


@pytest.mark.parametrize("mu", [1.0, 0.4 - 0.8j])
def test_series_patch_is_continuous(mu):
    # both sides of the switch radius must agree with the plain formula,
    # which bounds any jump at the seam
    p = KernelParam(mu)
    for sign in (1.0, -1.0):
        for scale in (0.999, 1.001, 0.5):
            t = sign * SERIES_SWITCH_RADIUS * scale
            assert eval_kernel(p, t) == pytest.approx(direct_formula(mu, t), rel=1e-13)


def test_array_evaluation_matches_scalar(rng):
    p = KernelParam(0.4 - 0.8j)
    ts = np.concatenate([rng.uniform(-10, 10, 40), [0.0, 1e-9, -1e-4, 31.0, -33.5]])
    vals = eval_kernel_array(p, ts)
    for t, v in zip(ts, vals):
        assert abs(v - eval_kernel(p, t)) <= 1e-13 * (1.0 + abs(v))


def test_real_array_takes_the_one_exponent_form_at_ts_plus_0j(rng):
    # an array that is not a cached window, real or complex, takes one
    # form: the values on real points are those at ts + 0j, series disc,
    # both signed zeros and a window's writable copy included
    ts = np.concatenate(
        [
            rng.uniform(-30.0, 30.0, 200),
            rng.uniform(-0.3, 0.3, 400),
            [0.0, -0.0, 1e-9, -1e-4, 0.999 * SERIES_SWITCH_RADIUS, -SERIES_SWITCH_RADIUS],
            [245.0, -245.0],
            np.array(_nodes(25.0, 20)[0]),
        ]
    )
    assert np.any(np.abs(ts) < SERIES_SWITCH_RADIUS)
    for mu in MU_POOL + [1e-6, cmath.rect(1e6, math.pi - DELTA_MIN)]:
        p = KernelParam(mu)
        assert np.array_equal(eval_kernel_array(p, ts), eval_kernel_array(p, ts + 0j))


def _window_bound(ts, mu):
    """8 eps (1 + reach |log|mu||) per node of a cached window, reach = |c_j| + |d_m|:
    the rounding of the phase arguments, as for apply_Uz_batch's phases."""
    window = _panel_window_of(ts)
    reach = (np.abs(window.centres)[:, None] + np.abs(window.offsets)[None, :]).ravel()
    return 8.0 * np.finfo(float).eps * (1.0 + reach * abs(math.log(abs(mu))))


@pytest.mark.parametrize("mu", MU_POOL)
def test_kernel_on_a_cached_window_is_the_per_node_value(mu):
    # a cached window keeps its mu-independent row, series disc included,
    # and takes the oscillation exp(i t log|mu|) from panel-centre and
    # Gauss-offset factors; a writable copy of its nodes takes one complex
    # exponential per node, and off the disc that is the one-exponent form
    # at ts + 0j (numpy's real and complex expm1 differ in the last bit at
    # some nodes near 0)
    ts, _ = _nodes(25.0, 20)
    assert np.any(np.abs(ts) < SERIES_SWITCH_RADIUS)
    p = KernelParam(mu)
    bound = _window_bound(ts, mu)
    far = np.abs(ts) >= SERIES_SWITCH_RADIUS
    t, log_mu = ts[far] + 0j, cmath.log(mu)
    one_exponent = _over_double_sinh(t, t, t * (1j * log_mu) - log_mu)
    for _ in range(2):
        got, want = eval_kernel_array(p, ts), eval_kernel_array(p, np.array(ts))
        assert np.all(np.abs(got - want) <= bound * np.abs(want))
        assert np.array_equal(want[far], one_exponent)
    if math.log(abs(mu)) != 0.0:
        assert not np.array_equal(got, want)


def test_cached_window_keeps_the_last_mu_by_its_bits():
    # a window keeps the values of the last mu: a repeated mu gets the kept
    # array back, and a new mu, even one equal to it as a number (1+0j and
    # 1-0j), gets values of its own.  Every value is the per-node value on
    # a writable copy to the rounding of the phase arguments, and the kept
    # array is read-only
    ts, _ = _nodes(23.0, 12)
    copy = np.array(ts)
    mu = 0.7 + 0.3j
    sequence = [mu, mu.conjugate(), complex(1.0, 0.0), complex(1.0, -0.0)] * 2 + [mu]
    previous = None
    for m in sequence:
        p = KernelParam(m)
        got = eval_kernel_array(p, ts)
        want = eval_kernel_array(p, copy)
        assert np.all(np.abs(got - want) <= _window_bound(ts, m) * np.abs(want))
        assert not got.flags.writeable
        assert got is not previous
        assert eval_kernel_array(p, ts) is got
        previous = got
    # mu and its conjugate differ, so serving one for the other would show
    a, b = (eval_kernel_array(KernelParam(m), copy) for m in sequence[:2])
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("density", [8, 20])
@pytest.mark.parametrize("modulus", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_kernel_on_the_widest_window_keeps_its_range(density, modulus, sign):
    # at the cap T = 200 and |arg mu| = pi - pi/16 the envelope spans the
    # whole double range on one side; the factored window values raise no
    # warning and stay within the per-node bound at every node, the series
    # disc (present at density 20) included.  Nodes whose value is
    # subnormal carry absolute rounding of at most a few subnormal units
    ts, _ = _nodes(TRUNCATION_CAP, density)
    assert np.any(np.abs(ts) < SERIES_SWITCH_RADIUS) == (density == 20)
    mu = cmath.rect(modulus, sign * (math.pi - DELTA_MIN))
    p = KernelParam(mu)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = eval_kernel_array(p, ts)
        want = eval_kernel_array(p, np.array(ts))
    tiny = np.finfo(float).tiny
    assert np.all(np.abs(got - want) <= _window_bound(ts, mu) * np.abs(want) + tiny)
    assert np.all(np.isfinite(got))


@given(mu_strategy, st.floats(min_value=-6.0, max_value=6.0))
def test_three_term_recurrence(mu, t):
    # the shifted arguments t - i, t - 2i sit at distance |t| from a pole
    assume(abs(t) > 0.01)
    p = KernelParam(mu)
    assert check_functional_eq1(p, t) <= 1e-11


@pytest.mark.parametrize("t", [20.0, -20.0, 35.0, -35.0])
def test_asymptotic_branch_matches_direct(t):
    # every node off the series disc takes the one-exponent form
    # s t exp((i t - 1) Log mu - s pi t) / (-expm1(-2 s pi t)), s = sign(Re t);
    # the plain formula is still finite at these t, so the two can be
    # compared head on
    p = KernelParam(0.4 - 0.8j)
    want = direct_formula(p.mu, t)
    assert abs(eval_kernel(p, t) - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("t", [245.0, -245.0, 300.0, -300.0])
def test_no_overflow_near_the_cut(t):
    # at |arg mu| = pi - pi/16, |mu**(i t)| = exp(|t| arg mu) overflows past
    # |t| ~ 240 although F itself decays there (|F| ~ e^-44 at t = -245)
    mu = cmath.rect(3.0, math.pi - math.pi / 16.0)
    got = eval_kernel_array(KernelParam(mu), np.array([t]))[0]
    # log-space reference: t / (e^{pi t} - e^{-pi t}) is positive for real t
    a = abs(t)
    expo = (1j * t - 1.0) * cmath.log(mu)
    log_abs = math.log(a) - math.pi * a - math.log1p(-math.exp(-2.0 * math.pi * a)) + expo.real
    want = cmath.exp(complex(log_abs, expo.imag))  # underflows to 0 for t > 0, as F does
    assert cmath.isfinite(got)
    assert abs(got - want) <= 1e-12 * abs(want)


@given(mu_strategy, st.floats(min_value=0.2, max_value=6.0), st.booleans())
def test_two_term_shift_identity(mu, t, flip):
    p = KernelParam(mu)
    assert check_functional_eq2(p, -t if flip else t) <= 1e-11


@pytest.mark.parametrize("modulus", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("arg", [0.0, 1.0, -2.0, 2.9, -2.9])
def test_functional_equations_are_relative_at_every_scale(modulus, arg, monkeypatch):
    # the terms of both identities scale with mu, so their residuals are
    # measured against the largest term: at |mu| = 1e6 an absolute residual
    # reads ~1e-8 on exact values, and at |mu| = 1e-6 it reads ~1e-21 even
    # when a value is off by 1e-6 relative
    p = KernelParam(cmath.rect(modulus, arg))
    points = [0.05, -0.3, 1.7, -3.9, 0.5 + 0.4j, -2.2 + 0.7j]
    for t in points:
        assert check_functional_eq1(p, t) <= 1e-11
        assert check_functional_eq2(p, t) <= 1e-11
    exact = kernel.eval_kernel_array

    def first_value_off(p, ts):
        vals = np.array(exact(p, ts))
        vals[0] *= 1.0 + 1e-6
        return vals

    monkeypatch.setattr(kernel, "eval_kernel_array", first_value_off)
    for t in points:
        assert check_functional_eq1(p, t) >= 1e-8
        assert check_functional_eq2(p, t) >= 1e-8


def test_two_term_identity_rejects_origin():
    from angen import ZeroArgument

    with pytest.raises(ZeroArgument):
        check_functional_eq2(KernelParam(1.0), 0.0)


@pytest.mark.parametrize("mu", [1.0, 2.0 + 1.0j, 0.4 - 0.8j])
@pytest.mark.parametrize("t", [0.0, 0.7, -1.3, 2.5])
def test_integral_representation_agrees(mu, t):
    p = KernelParam(mu)
    q = QuadratureSpec(rel_tolerance=1e-11)
    closed = eval_kernel(p, t)
    via_integral = eval_kernel_by_integral(p, t, q)
    assert abs(closed - via_integral) <= 1e-9 * (1.0 + abs(closed))


@pytest.mark.parametrize("mu", [1.0, 2.0 + 1.0j, 0.4 - 0.8j])
@pytest.mark.parametrize("lam", [0.5, 1.0, math.e])
def test_loop_integral_recovers_residue(mu, lam):
    p = KernelParam(mu)
    resid = contour_residue_check(p, lam, 0.5)
    assert resid <= 1e-8 * abs((1.0 / lam) / mu**2)


def test_loop_integral_validates_inputs():
    p = KernelParam(1.0)
    with pytest.raises(ValueError):
        contour_residue_check(p, 1.0, 1.5)
    with pytest.raises(ValueError):
        contour_residue_check(p, -2.0, 0.5)


@given(mu_strategy, st.floats(min_value=1.0, max_value=25.0), st.booleans())
def test_decay_envelope(mu, t, flip):
    if flip:
        t = -t
    p = KernelParam(mu)
    # |F(mu, t)| <= C (1+|t|) exp(-decay_rate |t|) for real |t| >= 1
    C = 1.0 / (abs(p.mu) * (1.0 - math.exp(-2.0 * math.pi)))
    bound = C * (1.0 + abs(t)) * math.exp(-p.decay_rate * abs(t))
    assert abs(eval_kernel(p, t)) <= bound * (1.0 + 1e-12)


def test_pole_distance():
    assert pole_distance(0.0) == pytest.approx(1.0)
    assert pole_distance(0.5) == pytest.approx(math.hypot(0.5, 1.0))
    assert pole_distance(1j * 0.98) == pytest.approx(0.02)
    assert pole_distance(-2.001j) == pytest.approx(0.001)
    assert pole_distance(3.0 + 7.2j) == pytest.approx(math.hypot(3.0, 0.2))


def test_near_pole_evaluation_raises():
    p = KernelParam(1.0)
    with pytest.raises(PoleProximity):
        eval_kernel(p, 1j * (1.0 - 0.5 * POLE_GUARD))
    with pytest.raises(PoleProximity):
        eval_kernel(p, complex(1e-4, -1.0))
    # just outside the guard is fine
    eval_kernel(p, 1j * (1.0 - 2.0 * POLE_GUARD))


@pytest.mark.parametrize("bad", [0.0, -1.0, -0.3 + 0.0j])
def test_branch_cut_rejected(bad):
    with pytest.raises(BranchViolation):
        KernelParam(bad)


def test_decay_rate_metadata():
    p = KernelParam(-1.0 + 1.0j)
    assert p.arg_mu == pytest.approx(3.0 * math.pi / 4.0)
    assert p.decay_rate == pytest.approx(math.pi / 4.0)


def test_quadrature_clearance_guard():
    # arg close to pi: decay rate below pi/16 must be refused for quadrature
    bad = KernelParam(cmath.rect(1.0, math.pi - math.pi / 32.0))
    with pytest.raises(BranchViolation):
        require_quadrature_clearance(bad)
    require_quadrature_clearance(KernelParam(cmath.rect(1.0, math.pi - math.pi / 8.0)))


# |arg mu| <= pi - pi/16, |mu| from 1e-6 to 1e6; 0.05 <= |t| <= 50 crosses
# the oracle's node densities (8 up to 44 from the oscillation alone)
array_mu = st.builds(
    cmath.rect,
    st.floats(min_value=math.log(1e-6), max_value=math.log(1e6)).map(math.exp),
    st.floats(min_value=-(math.pi - DELTA_MIN), max_value=math.pi - DELTA_MIN),
)
array_ts = st.lists(
    st.tuples(st.floats(min_value=0.05, max_value=50.0), st.booleans()),
    min_size=1,
    max_size=24,
).map(lambda pairs: np.array([-t if flip else t for t, flip in pairs]))


@settings(derandomize=True, max_examples=40)
@given(array_mu, array_ts)
@example(1.0, np.array([0.05, -3.9, 7.5, -19.0, 33.3, -50.0]))
@example(cmath.rect(1e6, math.pi - DELTA_MIN), np.array([-0.05, 4.0, -12.5, 50.0]))
@example(cmath.rect(1e-6, -(math.pi - DELTA_MIN)), np.array([0.05, -24.0, 49.9]))
def test_array_forms_are_the_one_point_calls(mu, ts):
    # each point of an array gets the bits of its one-point call, across the
    # oracle's node densities; a point whose oracle fails alone fails the array
    p = KernelParam(mu)
    q = QuadratureSpec(rel_tolerance=1e-10)
    points = ts.tolist()
    assert check_functional_eq1(p, ts).tolist() == [check_functional_eq1(p, t) for t in points]
    assert check_functional_eq2(p, ts).tolist() == [check_functional_eq2(p, t) for t in points]
    alone, unconverged = [], []
    for t in points:
        try:
            alone.append(eval_kernel_by_integral(p, t, q))
        except QuadratureNonConvergence:
            unconverged.append(t)
    if unconverged:
        with pytest.raises(QuadratureNonConvergence) as info:
            eval_kernel_by_integral(p, ts, q)
        assert any(f"at t={t!r}," in str(info.value) for t in unconverged)
    else:
        assert eval_kernel_by_integral(p, ts, q).tolist() == alone
    assert isinstance(eval_kernel_by_integral(p, 0.5, q), complex)
    assert isinstance(check_functional_eq1(p, points[0]), float)
    assert isinstance(check_functional_eq2(p, points[0]), float)


def test_array_forms_accept_complex_points():
    # the recurrences take complex points off the real line too, each as alone
    p = KernelParam(0.4 - 0.8j)
    zs = np.array([0.5 + 0.4j, -2.2 + 0.7j, 3.0 - 0.3j, 0.05])
    assert [check_functional_eq1(p, z) for z in zs] == check_functional_eq1(p, zs).tolist()
    assert [check_functional_eq2(p, z) for z in zs] == check_functional_eq2(p, zs).tolist()


@pytest.mark.parametrize("where", [0, 3, -1])
def test_a_point_near_a_pole_anywhere_in_an_array_raises(where):
    # t - i sits at distance |t| from the pole -i, and z = i + 1e-4 at 1e-4 from i
    p = KernelParam(2.0 + 1.0j)
    ts = np.array([0.7, -1.3, 2.5, 4.0, -0.2])
    near = ts.astype(complex)
    near[where] = 0.5 * POLE_GUARD
    with pytest.raises(PoleProximity, match=r"t=\(?-?0\.0005"):
        check_functional_eq1(p, near)
    near[where] = 1j + 1e-4
    with pytest.raises(PoleProximity):
        check_functional_eq2(p, near)
    zero = ts.copy()
    zero[where] = 0.0
    with pytest.raises(ZeroArgument):
        check_functional_eq2(p, zero)
    # the same arrays without the bad point pass
    check_functional_eq1(p, ts)
    check_functional_eq2(p, ts)


def test_one_failing_tail_gate_raises_and_names_its_point(monkeypatch):
    # the window of the densest group is cut to a quarter of its width, so the
    # gate of the one point on it fails while the other points' gates pass
    p = KernelParam(1.0)
    q = QuadratureSpec(rel_tolerance=1e-10)
    ts = np.array([0.3, -1.7, 30.0, 2.9])
    dense = kernel._panel_density(q.rel_tolerance, 30.0)
    assert dense > kernel._panel_density(q.rel_tolerance, 2.9)
    nodes = kernel._nodes
    monkeypatch.setattr(kernel, "_nodes", lambda T, npu: nodes(T / 4.0 if npu == dense else T, npu))
    with pytest.raises(QuadratureNonConvergence, match="at t=30.0,"):
        eval_kernel_by_integral(p, ts, q)
    with pytest.raises(QuadratureNonConvergence):
        eval_kernel_by_integral(p, 30.0, q)
    good = ts[ts != 30.0]
    alone = [eval_kernel_by_integral(p, t, q) for t in good]
    assert np.array_equal(eval_kernel_by_integral(p, good, q), alone)


def test_oracle_blocks_rows_at_a_fixed_size(monkeypatch):
    # blocks of one row, of two rows and of all rows at once give the same bits
    p = KernelParam(0.7 + 0.9j)
    q = QuadratureSpec(rel_tolerance=1e-12)
    ts = np.linspace(-20.0, 20.0, 17)
    want = eval_kernel_by_integral(p, ts, q)
    for block in (1, 1200, 10**9):
        monkeypatch.setattr(kernel, "_ORACLE_BLOCK", block)
        assert np.array_equal(eval_kernel_by_integral(p, ts, q), want)


@pytest.mark.parametrize("mu", [1.0, 2.0 + 1.0j, 0.4 - 0.8j, -1.0 + 1.0j, 1e5 + 3j, 1e-4])
@pytest.mark.parametrize("lam", [1e-3, 1.0, math.e, 1e3])
@pytest.mark.parametrize("radius", [0.01, 0.5, 0.99])
def test_half_residue_loop_is_the_loop_on_half_the_nodes(mu, lam, radius):
    # the convergence check's half loop, taken from every second node, is
    # bit for bit a trapezoid loop of its own on half as many nodes
    p = KernelParam(mu)
    n = kernel._RESIDUE_LOOP_NODES // 2
    w = radius * np.exp(1j * np.arange(n) * (2.0 * math.pi / n))
    ts = 1j + w
    dts = 1j * w * (2.0 * math.pi / n)
    alone = complex(np.sum(eval_kernel_array(p, ts) * np.exp(1j * ts * math.log(lam)) * dts))
    assert kernel._residue_loops(p, lam, radius)[1] == alone


@pytest.mark.parametrize("window", [(7.0, 8), (55.0, 23), (200.0, 31)])
def test_kernel_rows_are_the_one_mu_values(window):
    # one row per mu, bit for bit eval_kernel_array at that mu: on a cached
    # window (the panel-factored form), on a copy of it and on points in the
    # series disc (the one-exponent form), in blocks of any size
    mus = [1e-6, 0.01 - 0.002j, 1.0, 2.0 + 1.0j, 37.0 - 2.0j, cmath.rect(1e6, 2.9), 1e5j]
    log_mu = np.array([cmath.log(mu) for mu in mus])
    ts, _ = _nodes(*window)
    for points in (ts, np.array(ts), np.linspace(-0.02, 0.02, 41)):
        for size in (1, 3, len(mus)):
            for start in range(0, len(mus), size):
                rows = kernel.kernel_rows(log_mu[start : start + size], points)
                assert rows.shape == (len(log_mu[start : start + size]), points.size)
                for mu, row in zip(mus[start : start + size], rows):
                    assert np.array_equal(row, eval_kernel_array(KernelParam(mu), points))


# |mu| from 0.1 to 10 on both sides of the real axis, up to the guard sector
SYMMETRY_MUS = [
    cmath.rect(r, a)
    for r in (0.1, 0.37, 1.0, 2.9, 10.0)
    for a in (0.0, 0.3, -1.0, 2.5, -(math.pi - DELTA_MIN))
]


@pytest.mark.parametrize("window", [(25.0, 20), (40.0, 8)])
def test_kernel_reflection_and_adjoint_on_a_lattice_window(window):
    # a lattice window is symmetric about 0, so ts[::-1] is -ts node for
    # node, and the window's values keep F(1/mu, -t) = mu^2 F(mu, t) and
    # F(conj mu, -t) = conj F(mu, t) to 8 eps (1 + reach (pi + |Log mu|)):
    # the two sides round the exponent -t arg mu - log|mu| - pi |t| and the
    # phase arguments as different sums (reach = |c_j| + |d_m|, as in
    # _window_bound)
    ts, _ = _nodes(*window)
    assert np.array_equal(ts[::-1], -ts)
    w = _panel_window_of(ts)
    reach = (np.abs(w.centres)[:, None] + np.abs(w.offsets)[None, :]).ravel()
    for mu in SYMMETRY_MUS:
        f = eval_kernel_array(KernelParam(mu), ts)
        bound = 8.0 * np.finfo(float).eps * (1.0 + reach * (math.pi + abs(cmath.log(mu))))
        bound *= np.abs(f)
        reflected = eval_kernel_array(KernelParam(1.0 / mu), ts)[::-1]
        assert np.all(np.abs(reflected - mu**2 * f) <= bound * abs(mu) ** 2)
        adjoint = eval_kernel_array(KernelParam(mu.conjugate()), ts)[::-1]
        assert np.all(np.abs(adjoint - np.conj(f)) <= bound)
