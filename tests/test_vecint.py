import cmath
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from angen import (
    GroupModel,
    KernelParam,
    NonFiniteSample,
    QuadratureNonConvergence,
    QuadratureSpec,
    apply_Uz,
    apply_Uz_batch,
    eval_kernel,
    eval_kernel_array,
    integrate_vector,
)
from angen import vecint
from angen.group_models import _phase_matrix
from angen.kernel import kernel_rows
from angen.vecint import TRUNCATION_CAP, _nodes, _panel_density, _panel_window_of

# the panel density of the engine tests, the one rel_tolerance needs down to 1e-11
NPU = 8
SQRT_PI = math.sqrt(math.pi)
# even moments of exp(-t^2): Gamma(k + 1/2)
GAUSS_MOMENTS = [SQRT_PI, SQRT_PI / 2.0, 3.0 * SQRT_PI / 4.0, 15.0 * SQRT_PI / 8.0]


def pairing_consistency_check(
    f,
    density,
    q: QuadratureSpec,
    probes,
    tail_rate: float,
) -> float:
    """Duality check for the vector integral.

    The defining property of the vector-valued integral y is that
    <y, phi> equals the scalar integral of <f(t), phi> * density(t) for
    every probe functional phi.  The scalar side here is computed with an
    independent adaptive routine (QUADPACK via scipy) rather than the
    panel rule, so agreement is meaningful.  Returns the worst absolute
    mismatch over the probes.
    """
    T = max(1.0, math.log(1.0 / q.rel_tolerance) / tail_rate)
    y = integrate_vector(f, density, q, tail_rate, T, NPU)
    T = min(1.5 * T + 2.0, TRUNCATION_CAP)

    worst = 0.0
    for phi in probes:
        phi = np.asarray(phi, dtype=complex).ravel()

        def scalar(t: float) -> complex:
            ts = np.array([t])
            row = np.asarray(f(ts), dtype=complex).ravel()
            return complex(np.vdot(phi, row) * np.asarray(density(ts)).ravel()[0])

        re = quad(lambda t: scalar(t).real, -T, T, limit=400, epsabs=1e-13, epsrel=1e-12)[0]
        im = quad(lambda t: scalar(t).imag, -T, T, limit=400, epsabs=1e-13, epsrel=1e-12)[0]
        lhs = complex(np.vdot(phi, y))
        worst = max(worst, abs(lhs - (re + 1j * im)))
    return worst


def test_spec_validation():
    QuadratureSpec()
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tolerance=1e-1)
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tolerance=1e-16)


def test_panel_density_follows_the_tolerance_and_the_frequency():
    # 4 (rho - 1/rho) with rho = (10/tol)^(1/32), never below 8, and
    # 0.8 frequency + 4 for an oscillating integrand
    assert [_panel_density(10.0**-k, 0.0) for k in range(2, 15)] == [8] * 10 + [9, 10, 11]
    assert _panel_density(1e-10, 10.0) == 12 and _panel_density(1e-14, 10.0) == 12


def test_bad_panel_density_rejected():
    q = QuadratureSpec()
    for npu in (0, -3, math.nan):
        with pytest.raises(ValueError, match="nodes_per_unit"):
            integrate_vector(np.ones_like, np.exp, q, tail_rate=1.0, truncation=5.0,
                             nodes_per_unit=npu)


def test_panel_nodes_are_ascending_and_weights_sum():
    # [-7, 7] at 8 nodes per unit rounds up to k = 4 panels of width w = 2
    # on each side of 0: the weights sum to the window's own 2 k w
    ts, ws = _nodes(7.0, 8)
    assert np.all(np.diff(ts) > 0)
    assert ts.size == 2 * 4 * 16
    assert np.sum(ws) == pytest.approx(16.0, rel=1e-13)


def test_panel_nodes_are_cached_and_read_only():
    ts, ws = _nodes(7.0, 8)
    again = _nodes(7.0, 8)
    assert again[0] is ts and again[1] is ws
    for arr in (ts, ws):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_arrays_that_are_not_cached_windows_take_the_per_node_paths(rng):
    # only a node array the window cache holds is a window: a slice, a
    # shifted complex line and a window evicted by 16 newer ones are plain
    # arrays, on which apply_Uz_batch and eval_kernel_array give the bits
    # of a writable copy, and the exact values (the cache is keyed by panel
    # count: 9 takes 5 panels of width 2 a side, the newer ones 6 to 21)
    ts, _ = _nodes(9.0, 8)
    assert _panel_window_of(ts).ts is ts
    g, p = GroupModel.diagonal([-1.4, 0.3, 2.2]), KernelParam(0.7 - 0.4j)
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    piece, line = ts[40:72], ts[::7] + 0.3j
    for k in range(16):
        _nodes(11.0 + 2.0 * k, 8)
    for zs in (piece, line, ts):
        assert _panel_window_of(zs) is None
        copy = np.array(zs)
        rows = apply_Uz_batch(g, zs, x)
        assert np.array_equal(rows, apply_Uz_batch(g, copy, x))
        kernel = eval_kernel_array(p, zs)
        assert np.array_equal(kernel, eval_kernel_array(p, copy))
        for z, row, value in zip(zs, rows, kernel):
            assert np.linalg.norm(row - apply_Uz(g, z, x)) <= 1e-12 * np.linalg.norm(x)
            want = eval_kernel(p, z)
            assert abs(value - want) <= 1e-13 * (1.0 + abs(want))


@pytest.mark.parametrize("npu", [8, 9, 13])
def test_every_window_is_a_slice_of_one_lattice(npu):
    # every window of a density is ceil(T npu / 16) panels of exactly
    # 16/npu on each side of 0, symmetric about it, and a contiguous
    # read-only view of the one lattice of its density, once the widest
    # window has been asked for (a window cached before keeps the bits of
    # a slice of the smaller lattice it was cut from)
    vecint._cached_window.cache_clear()
    width = 16.0 / npu
    widest = _panel_window_of(_nodes(199.0, npu)[0])
    for T in (1.0, 3.5, 7.0, 30.0, 199.0, 16.0 * 5 / npu):
        ts, ws = _nodes(T, npu)
        window = _panel_window_of(ts)
        k = math.ceil(T * npu / 16.0)
        assert window.lattice is widest.lattice and window.panels == k
        assert ts.size == ws.size == 32 * k and k * width >= T
        assert np.array_equal(window.centres, (np.arange(-k, k) + 0.5) * width)
        assert np.array_equal(ts.reshape(-1, 16), window.centres[:, None] + window.offsets)
        assert np.array_equal(ts[::-1], -ts)
        assert np.array_equal(ws, np.tile(0.5 * width * vecint.GAUSS_WEIGHTS, 2 * k))
        for arr, whole in ((ts, window.lattice.ts), (ws, window.lattice.ws)):
            assert arr.flags.c_contiguous and not arr.flags.writeable
            assert np.shares_memory(arr, whole) and np.array_equal(arr, whole[window.nodes])


def test_half_widths_of_one_panel_count_share_one_window():
    # the cache is keyed by panel count: at 8 nodes per unit (w = 2) every
    # T in (4, 6] takes 3 panels a side and the same node array, and T just
    # past 6 takes 4
    vecint._cached_window.cache_clear()
    ts, ws = _nodes(4.1, 8)
    for T in (5.0, 5.99, 6.0):
        again, again_ws = _nodes(T, 8)
        assert again is ts and again_ws is ws
    assert _nodes(6.01, 8)[0].size == 2 * 4 * 16
    assert vecint._cached_window.cache_info().misses == 2


def test_window_bits_do_not_depend_on_what_was_asked_before(diag4, quad):
    # the nodes, weights, kernel row, phase slice and Q_mu of _nodes(7, 8),
    # first cut from a lattice of 4 panels per side, keep their bits once
    # _nodes(199, 8) has grown the lattice to 100 and 7 comes back as a
    # slice of it
    from angen import compute_Qmu, resolvent

    vecint._cached_window.cache_clear()
    vecint._LATTICES.pop(8, None)
    p = KernelParam(0.7 - 0.4j)
    ts, ws = _nodes(7.0, 8)
    eval_kernel_array(p, ts)
    row = [np.array(a) for a in _panel_window_of(ts).kernel_row[:2]]
    phases = _phase_matrix(diag4, ts)
    Q = compute_Qmu(diag4, KernelParam(2.0 + 1.0j), quad)
    assert _panel_window_of(ts).lattice.panels == 4
    wide = _panel_window_of(_nodes(199.0, 8)[0])
    assert wide.lattice.panels == 100
    vecint._cached_window.cache_clear()
    memo = resolvent._PhaseMemo(diag4)
    memo(wide.ts)
    again, again_ws = _nodes(7.0, 8)
    window = _panel_window_of(again)
    assert again is not ts and window.lattice is wide.lattice
    assert np.array_equal(again, ts) and np.array_equal(again_ws, ws)
    eval_kernel_array(p, again)
    assert all(np.array_equal(a, b) for a, b in zip(window.kernel_row[:2], row))
    assert np.array_equal(memo(again), phases)
    assert np.array_equal(compute_Qmu(diag4, KernelParam(2.0 + 1.0j), quad), Q)


def test_gaussian_moments():
    q = QuadratureSpec(rel_tolerance=1e-12)
    got = integrate_vector(
        lambda t: np.stack([np.ones_like(t), t**2, t**4, t**6], axis=1),
        lambda t: np.exp(-(t**2)),
        q,
        tail_rate=2.0,
        truncation=9.0,
        nodes_per_unit=NPU,
    )
    assert np.allclose(got, GAUSS_MOMENTS, rtol=1e-12)


@given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=4))
def test_gaussian_polynomial_pairing(coeffs):
    q = QuadratureSpec(rel_tolerance=1e-12)
    got = integrate_vector(
        lambda t: sum(c * t ** (2 * k) for k, c in enumerate(coeffs)),
        lambda t: np.exp(-(t**2)),
        q,
        tail_rate=2.0,
        truncation=9.0,
        nodes_per_unit=NPU,
    )
    want = sum(c * GAUSS_MOMENTS[k] for k, c in enumerate(coeffs))
    assert abs(got[0] - want) <= 1e-11 * (1.0 + abs(want))


def test_sech_integral():
    q = QuadratureSpec(rel_tolerance=1e-11)
    got = integrate_vector(
        np.ones_like, lambda t: 1.0 / np.cosh(t), q, tail_rate=1.0, truncation=25.0,
        nodes_per_unit=NPU,
    )
    assert got[0] == pytest.approx(math.pi, rel=1e-11)


def test_shifted_line():
    # exp(-z^2) is entire with rapid decay, so the line integral is
    # independent of the imaginary offset
    q = QuadratureSpec(rel_tolerance=1e-12)
    got = integrate_vector(
        np.ones_like, lambda t: np.exp(-((t + 0.5j) ** 2)), q, tail_rate=2.0,
        truncation=9.0,
        nodes_per_unit=NPU,
    )
    assert got[0] == pytest.approx(SQRT_PI, rel=1e-12)


def test_short_truncation_raises_after_one_window(monkeypatch):
    # a window planned far too short is sampled once and rejected; it is
    # never widened
    windows = []
    nodes = vecint._nodes

    def counting_nodes(T, npu):
        windows.append(T)
        return nodes(T, npu)

    monkeypatch.setattr(vecint, "_nodes", counting_nodes)
    q = QuadratureSpec(rel_tolerance=1e-10)
    with pytest.raises(QuadratureNonConvergence, match="planned window 7.0"):
        integrate_vector(
            np.ones_like,
            lambda t: 1.0 / np.cosh(0.2 * t),
            q,
            tail_rate=0.2,
            truncation=5.0,  # deliberately far too narrow
            nodes_per_unit=NPU,
        )
    assert windows == [7.0]


def test_cap_reached_raises():
    q = QuadratureSpec(rel_tolerance=1e-10)
    with pytest.raises(QuadratureNonConvergence):
        # at rate 0.05 the tail is still far above the tolerance at the
        # cap of 200, so no window this integrand could be planned passes
        integrate_vector(
            np.ones_like,
            lambda t: 1.0 / np.cosh(0.05 * t),
            q,
            tail_rate=0.05,
            truncation=50.0,
            nodes_per_unit=NPU,
        )


def test_non_finite_sample_raises():
    q = QuadratureSpec(rel_tolerance=1e-10)
    with pytest.raises(NonFiniteSample):
        integrate_vector(
            np.ones_like,
            lambda t: np.where(np.abs(t) < 0.5, np.nan, np.exp(-np.abs(t))),
            q,
            tail_rate=1.0,
            truncation=25.0,
            nodes_per_unit=NPU,
        )


def _at(t, k, value, elsewhere):
    """elsewhere, with node k of the node array t set to value."""
    return np.where(np.arange(t.size) == k, value, elsewhere)


def _gauss(t):
    return np.exp(-(t**2))


@pytest.mark.parametrize(
    "f, density",
    [
        # nan in one column of a multi-column integrand
        (lambda t: np.stack([_gauss(t), _at(t, 40, np.nan, 1.0)], axis=1), np.ones_like),
        # inf in the density only
        (np.ones_like, lambda t: _at(t, 40, np.inf, _gauss(t))),
        # nan at a node where the density is exactly 0: the weight is 0
        (lambda t: _at(t, 40, np.nan, 1.0), lambda t: _at(t, 40, 0.0, _gauss(t))),
        # a cancelling +-inf pair at equal weights
        (lambda t: _at(t, 40, np.inf, _at(t, t.size - 41, -np.inf, 1.0)), lambda t: 1.0 / np.cosh(t)),
    ],
    ids=["nan-in-one-column", "inf-density", "nan-at-zero-weight", "cancelling-inf-pair"],
)
def test_every_non_finite_sample_raises(f, density):
    # the samples are scanned only when the weighted sum is not finite or a
    # weight is 0; each of these must still raise the typed error, and no
    # RuntimeWarning (which the test configuration turns into an error)
    q = QuadratureSpec(rel_tolerance=1e-10)
    with pytest.raises(NonFiniteSample):
        integrate_vector(f, density, q, tail_rate=1.0, truncation=25.0, nodes_per_unit=NPU)


def test_overflowing_sum_of_finite_samples_is_not_a_non_finite_sample():
    # finite samples whose weighted sum overflows are returned as they are,
    # with numpy's overflow warning, as before the samples were scanned lazily
    q = QuadratureSpec(rel_tolerance=1e-10)
    with pytest.warns(RuntimeWarning, match="overflow"):
        got = integrate_vector(
            lambda t: np.full(t.size, 1.5e308), _gauss, q, tail_rate=1.0, truncation=25.0,
            nodes_per_unit=NPU,
        )
    assert np.isinf(got.real).all()


def test_bad_tail_rate_rejected():
    q = QuadratureSpec()
    with pytest.raises(ValueError):
        integrate_vector(np.ones_like, np.zeros_like, q, tail_rate=0.0, truncation=1.0,
                         nodes_per_unit=NPU)


def test_wrong_shape_rejected():
    # one row of f and one density value per node, or a ValueError
    q = QuadratureSpec()
    with pytest.raises(ValueError, match="unexpected shape"):
        integrate_vector(lambda t: np.ones((3, 2)), np.exp, q, 1.0, 5.0, NPU)
    with pytest.raises(ValueError, match="unexpected shape"):
        integrate_vector(np.ones_like, lambda t: np.ones(3), q, 1.0, 5.0, NPU)


def test_repeat_calls_are_bit_identical():
    q = QuadratureSpec(rel_tolerance=1e-11)

    def f(t):
        return np.stack([np.exp(1j * 0.7 * t), np.cos(t)], axis=1)

    def d(t):
        return 1.0 / np.cosh(t)

    a = integrate_vector(f, d, q, tail_rate=1.0, truncation=25.0, nodes_per_unit=NPU)
    b = integrate_vector(f, d, q, tail_rate=1.0, truncation=25.0, nodes_per_unit=NPU)
    assert np.array_equal(a, b)


def test_pairing_against_scalar_quadrature(rng):
    q = QuadratureSpec(rel_tolerance=1e-11)

    def f(t):
        return np.stack([np.exp(1j * t), 1.0 / (1.0 + t * t), np.sin(0.3 * t)], axis=1)

    probes = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(2)]
    worst = pairing_consistency_check(
        f, lambda t: 1.0 / np.cosh(t), q, probes, tail_rate=1.0
    )
    assert worst <= 1e-9


# the parameters of the row-batch tests: one row of kernel values each
ROW_MUS = [0.3 + 0.1j, 2.0, 15.0 - 4.0j, 120.0 + 30.0j, 1e3j]
ROW_T, ROW_Q = 40.0, QuadratureSpec(rel_tolerance=1e-10)


def _row_batch(rng):
    """A 4-mode model, its phase matrix, the kernel rows of ROW_MUS and
    coordinates, one set per row."""
    g = GroupModel.diagonal([-1.5, -0.6, 0.4, 1.2])
    ps = [KernelParam(mu) for mu in ROW_MUS]
    log_mu = np.array([cmath.log(p.mu) for p in ps])
    coords = rng.standard_normal((len(ps), 4)) + 1j * rng.standard_normal((len(ps), 4))
    npu = _panel_density(ROW_Q.rel_tolerance, 1.5 + max(abs(math.log(abs(mu))) for mu in ROW_MUS))
    return g, ps, functools.partial(_phase_matrix, g), log_mu, coords, npu


def test_row_batch_rows_are_one_row_calls(rng):
    # every row of a batch, with coordinates per row, shared or none, is
    # the one-row quadrature of its density against the scaled orbit
    g, ps, phases, log_mu, coords, npu = _row_batch(rng)
    rate = min(p.decay_rate for p in ps)

    def batch(c):
        return integrate_vector(
            phases, lambda ts: kernel_rows(log_mu, ts), ROW_Q, rate, ROW_T, npu, coords=c
        )

    for got, cs in ((batch(coords), coords), (batch(coords[2]), [coords[2]] * 5),
                    (batch(None), [np.ones(4)] * 5)):
        assert got.shape == (len(ps), 4)
        for p, row, c in zip(ps, got, cs):
            want = integrate_vector(
                lambda ts: phases(ts) * c,
                functools.partial(eval_kernel_array, p),
                ROW_Q,
                p.decay_rate,
                ROW_T,
                npu,
                scale_hint=None,
            )
            assert np.linalg.norm(row - want) <= 1e-13 * np.linalg.norm(want)


def test_one_row_density_as_a_vector_or_a_block_gives_the_same_bits(rng):
    _, ps, phases, log_mu, coords, npu = _row_batch(rng)
    p = ps[2]

    def call(density, c):
        return integrate_vector(phases, density, ROW_Q, p.decay_rate, ROW_T, npu, coords=c)

    vector = functools.partial(eval_kernel_array, p)
    block = lambda ts: kernel_rows(log_mu[2:3], ts)  # noqa: E731
    for c_vector, c_block in ((None, None), (coords[2], coords[2:3]), (coords[2], coords[2])):
        one, rows = call(vector, c_vector), call(block, c_block)
        assert one.shape == (4,) and rows.shape == (1, 4)
        assert np.array_equal(one, rows[0])


def test_a_heavy_row_edge_fails_the_gate_and_names_its_row(rng):
    # rows 1 and 3 carry a slowly decaying tail, row 3 the heavier one; the
    # other rows would pass, and the error names the row that misses most
    _, ps, phases, log_mu, coords, npu = _row_batch(rng)
    rate = min(p.decay_rate for p in ps)

    def density(ts):
        rows = kernel_rows(log_mu, ts)
        rows[1] += 1e-9 / np.cosh(0.05 * ts)
        rows[3] += 1e-3 / np.cosh(0.05 * ts)
        return rows

    with pytest.raises(QuadratureNonConvergence, match="in row 3") as err:
        integrate_vector(phases, density, ROW_Q, rate, ROW_T, npu, coords=coords)
    assert err.value.row == 3
    # without the heavy rows every gate passes
    integrate_vector(phases, lambda ts: kernel_rows(log_mu, ts), ROW_Q, rate, ROW_T, npu,
                     coords=coords)


@pytest.mark.parametrize("where", ["density", "density-at-zero-weight", "inf-density", "coords"])
def test_a_non_finite_sample_in_one_row_raises_without_a_warning(rng, where):
    _, ps, phases, log_mu, coords, npu = _row_batch(rng)
    rate = min(p.decay_rate for p in ps)

    def density(ts):
        rows = np.array(kernel_rows(log_mu, ts))
        if where == "density":
            rows[2, 40] = np.nan
        elif where == "density-at-zero-weight":
            rows[2, 40] = 0.0
            rows[4, 40] = np.nan
        elif where == "inf-density":
            rows[2, 40] = np.inf
        return rows

    if where == "coords":
        coords[2, 1] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteSample):
            integrate_vector(phases, density, ROW_Q, rate, ROW_T, npu, coords=coords)


def test_coordinates_of_a_wrong_shape_are_rejected(rng):
    _, ps, phases, log_mu, coords, npu = _row_batch(rng)
    for c in (coords[:, :3], coords[:4], coords[None]):
        with pytest.raises(ValueError, match="coordinates"):
            integrate_vector(phases, lambda ts: kernel_rows(log_mu, ts), ROW_Q, 1.0, ROW_T, npu,
                             coords=c)
