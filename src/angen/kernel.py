"""The complex averaging kernel and its verification utilities.

For a parameter mu off the excluded ray (-inf, 0] the kernel is

    F(mu, t) = t * mu**(i*t - 1) / (exp(pi*t) - exp(-pi*t)),

with the principal branch of mu**(i*t - 1) = exp((i*t - 1) * Log mu).
Along the real line the kernel decays like exp(-(pi - |arg mu|) * |t|);
that angular clearance pi - |arg mu| is the decay rate used to size every
downstream truncation.  As a function of complex t the kernel is
meromorphic with simple poles at t = +/- i*n for integer n >= 1.  At
t = 0 the zero of the numerator cancels the zero of the denominator
(t / (2*sinh(pi*t)) extends to 1/(2*pi)), and evaluation switches to a
Taylor series inside a small disc to avoid 0/0 cancellation.  Elsewhere F
is one exponent, s*t*exp((i*t - 1)*Log mu - s*pi*t) / (-expm1(-2*s*pi*t))
with s = sign(Re t), which overflows only where F itself does; every point
array takes this form as a complex array, except the real nodes of a cached
window of vecint._nodes.  There it reads
|t| * exp(i*t*Log mu - Log mu - pi*|t|) / (-expm1(-2*pi*|t|)), where only
the exponential depends on mu; the rest, the kernel row, is computed once
on the window's lattice and each window keeps its slice of it (a node has
the same bits in every window of the lattice), with the values of the last
mu it was asked for.  The window's nodes are sums c_j + d_m of panel
centres and Gauss offsets, so the exponential splits into a real envelope,
one real exponential per node, and the oscillation
exp(i*c_j*log|mu|) * exp(i*d_m*log|mu|), one complex exponential per
centre and per offset.  kernel_rows evaluates either form
for many mu at once, one row per mu, each row bit for bit the values of
eval_kernel_array at that mu.

Two independent routes to the same values exist: the closed form above
and the Fourier-side representation

    F(mu, t) = (1/(2*pi)) * integral exp(E*(1 + i*t)) / (exp(E) + mu)**2 dE,

which this module evaluates by quadrature as an oracle.  Two exact
recurrences tie values on neighbouring horizontal lines together:

    F(mu, t - 2i) + 2*mu*F(mu, t - i) + mu**2 * F(mu, t) = 0
    mu*F(mu, z) + F(mu, z - i) = i * mu**(i*z) / (exp(pi*z) - exp(-pi*z))

and the residue of F(mu, t) * lam**(i*t) at t = i is -i * lam**(-1) / (2*pi*mu**2).
All three structures are exposed as checks returning residuals: the two
recurrences relative to their largest term, the residue loop absolute.

The two recurrence checks and the Fourier-side oracle take one point or a
1-d array of points and return one value per point, the value a one-point
call returns, bit for bit: complex products and moduli are rounded as
those of single numbers are (_times, _modulus), where numpy's vector loops
fuse or reorder them.  Every guard covers the whole array, so a point near
a pole anywhere in it raises PoleProximity.  The residue loop's convergence
check takes every second node of the loop, bit for bit the nodes and steps
of a loop of half as many.
"""

from __future__ import annotations

import cmath
import functools
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import BranchViolation, PoleProximity, QuadratureNonConvergence, ZeroArgument
from .vecint import QuadratureSpec, _nodes, _panel_density, _panel_window_of

# switch to the Taylor series of t/(2 sinh(pi t)) inside this disc
SERIES_SWITCH_RADIUS = 1e-2
# minimum allowed distance from an evaluation point to a pole +/- i*n
POLE_GUARD = 1e-3
# minimum decay rate required by quadrature-based operations
DELTA_MIN = math.pi / 16.0

# Taylor coefficients of x/sinh(x) in powers of x**2
_X_OVER_SINH = (1.0, -1.0 / 6.0, 7.0 / 360.0, -31.0 / 15120.0, 127.0 / 604800.0)

# trapezoid nodes on the residue loop; every second one gives the convergence check
_RESIDUE_LOOP_NODES = 256
# entries of one block of the oracle's (samples x nodes) rows: 1 MB of complex values
_ORACLE_BLOCK = 1 << 16


@dataclass(frozen=True)
class KernelParam:
    """The kernel parameter mu with its branch and decay metadata.

    mu must avoid the ray (-inf, 0]; arg_mu is the principal argument and
    decay_rate = pi - |arg_mu| > 0 the exponential decay rate of F(mu, .)
    on the real line.
    """

    mu: complex
    arg_mu: float = field(init=False)
    decay_rate: float = field(init=False)

    def __post_init__(self) -> None:
        mu = complex(self.mu)
        if mu == 0 or (mu.imag == 0.0 and mu.real < 0.0):
            raise BranchViolation(
                f"mu={mu} lies on the excluded ray (-inf, 0]; the principal "
                "branch of mu**(i*t-1) requires |arg mu| < pi"
            )
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "arg_mu", cmath.phase(mu))
        object.__setattr__(self, "decay_rate", math.pi - abs(cmath.phase(mu)))


def require_quadrature_clearance(p: KernelParam) -> None:
    """Quadrature-based operations need decay_rate >= pi/16."""
    if p.decay_rate < DELTA_MIN:
        raise BranchViolation(
            f"decay rate {p.decay_rate:.5f} below the minimum {DELTA_MIN:.5f}; "
            f"|arg mu| = {abs(p.arg_mu):.5f} is too close to pi"
        )


def _modulus(z):
    """|z| elementwise as np.hypot(z.real, z.imag): bit for bit abs() of each
    number, which np.abs of a complex array need not be (its vector loops
    round differently)."""
    return np.hypot(np.real(z), np.imag(z))


def _times(c: complex, z):
    """c * z elementwise, rounded as the product of two complex numbers is: each
    real product rounded on its own, where numpy's vector loops may fuse them."""
    out = np.empty(np.shape(z), dtype=complex)
    out.real = c.real * np.real(z) - c.imag * np.imag(z)
    out.imag = c.real * np.imag(z) + c.imag * np.real(z)
    return out


def _one_or_many(t, values, kind=float):
    """values as one number of the given kind if the point t was one number, else as they are."""
    return kind(values) if np.ndim(t) == 0 else values


def pole_distance(t):
    """Distance from t to the pole set {i*n : n integer, n != 0}, elementwise on an array.

    The nearest pole is i*round(Im t), or i*sign(Im t) where that rounds to 0.
    """
    t = np.asarray(t, dtype=complex)
    n = np.round(t.imag)
    n = np.where(n == 0.0, np.copysign(1.0, t.imag), n)
    return _one_or_many(t, np.hypot(t.real, t.imag - n))


def _require_off_poles(ts) -> None:
    """Raise PoleProximity, naming the nearest point, if any point of ts is
    within POLE_GUARD of a pole."""
    ts = np.asarray(ts, dtype=complex)
    dist = np.asarray(pole_distance(ts))
    near = dist <= POLE_GUARD
    if near.any():
        worst = complex(ts[near].flat[np.argmin(dist[near])])
        raise PoleProximity(f"t={worst} within guard distance {POLE_GUARD} of a pole +/- i*n")


def _over_double_sinh(num, z, log_scale=0.0):
    """num * exp(log_scale) / (exp(pi*z) - exp(-pi*z)), elementwise, for z off i*Z.

    Evaluated as num * s * exp(log_scale - s*pi*z) / (-expm1(-2*s*pi*z)) with
    s = sign(Re z): one exponent, which overflows only where the value does.
    """
    z = np.asarray(z)
    s = np.where(z.real < 0.0, -1.0, 1.0)
    sz = s * z
    return num * s * np.exp(log_scale - math.pi * sz) / -np.expm1(-2.0 * math.pi * sz)


def eval_kernel(p: KernelParam, t: complex) -> complex:
    """Closed-form kernel value F(mu, t) on the principal branch."""
    t = complex(t)
    _require_off_poles(t)
    return complex(eval_kernel_array(p, t))


def _kernel_row(ts: np.ndarray):
    """The mu-independent parts (pi|t|, amp) of the kernel on the real nodes of a lattice.

    F(mu, t) = amp * exp(i t Log mu - Log mu - pi|t|), with amp = |t| inv
    and inv = 1/(-expm1(-2 pi |t|)) = sign(t) e^{pi |t|} / (e^{pi t} - e^{-pi t}),
    the value of _over_double_sinh at log_scale pi|t|, whose exponential
    is then exp(0) = 1.  Inside the series disc around 0, |t| is replaced
    by the series of t / (2 sinh(pi t)), and pi|t| by 0 and inv by 1.
    """
    small = np.abs(ts) < SERIES_SWITCH_RADIUS
    safe = np.where(small, 1.0, ts)  # no 0/0 at an exact zero node
    abs_t = np.abs(safe)
    pi_abs = math.pi * abs_t
    inv = _over_double_sinh(np.sign(safe), safe, pi_abs)
    if small.any():
        series = np.polynomial.polynomial.polyval((math.pi * ts) ** 2, _X_OVER_SINH)
        abs_t = np.where(small, series / (2.0 * math.pi), abs_t)
        pi_abs, inv = np.where(small, 0.0, pi_abs), np.where(small, 1.0, inv)
    return pi_abs, abs_t * inv


def _kernel_on_window(log_mu, window) -> np.ndarray:
    """F(mu, t) on the nodes of a cached window, with the oscillation factored by panel.

    log_mu is Log mu, one number or a column (m, 1) of them with one row of
    values each.  F(mu, t) = amp(t) * exp(-t arg mu - log|mu| - pi|t|) *
    e^(-i arg mu) * exp(i t log|mu|), with amp = |t| inv the window's kept
    row, which the first call on the window slices from its lattice's row
    (the lattice's first call computes that row on all its nodes).  The real
    envelope takes one real exponential per node, with the real part of the
    one-exponent form's argument as its own, so it has that form's range.
    The oscillation, exp(i t log|mu|) with t = c_j + d_m, is the product
    exp(i c_j log|mu|) * exp(i d_m log|mu|), one exponential per panel centre
    and one per Gauss offset, as _phase_matrix takes its phases; e^(-i arg mu)
    rides on the centre factors.  The values differ from the one-exponent
    form's by the rounding of the arguments, a few units of
    eps * (1 + (|c_j| + |d_m|) |log|mu||).  Every operation is elementwise
    along the nodes, so a row of a column of log_mu has the bits of a call
    on its one number.
    """
    if window.kernel_row is None:
        lattice = window.lattice
        if lattice.kernel_row is None:
            lattice.kernel_row = _kernel_row(lattice.ts)
        points = np.concatenate((window.centres, window.offsets))
        window.kernel_row = (*(row[window.nodes] for row in lattice.kernel_row), points)
    pi_abs, amp, points = window.kernel_row
    log_abs, arg = log_mu.real, log_mu.imag
    envelope = window.ts * -arg
    envelope -= log_abs
    envelope -= pi_abs
    np.exp(envelope, out=envelope)
    envelope *= amp
    panels = window.centres.size
    angles = points * log_abs
    angles[..., :panels] -= arg
    factors = np.exp(1j * angles)
    vals = factors[..., :panels, None] * factors[..., None, panels:]
    vals *= envelope.reshape(vals.shape)
    return vals.reshape(envelope.shape)


def _kernel_off_window(log_mu, ts) -> np.ndarray:
    """F(mu, t) in the one-exponent form on points ts that are not a cached window.

    log_mu is Log mu, one number or a column (m, 1) of them with one row of
    values each.  The values are those at ts + 0j; points inside the series
    disc around 0 are taken out of the form and overwritten.
    """
    ts = np.asarray(ts, dtype=complex)
    small = np.abs(ts) < SERIES_SWITCH_RADIUS
    if not small.any():
        return _over_double_sinh(ts, ts, ts * (1j * log_mu) - log_mu)
    safe = np.where(small, 1.0, ts)  # no 0/0 at an exact zero node
    out = np.asarray(_over_double_sinh(safe, safe, safe * (1j * log_mu) - log_mu))
    near = ts[small]
    series = np.polynomial.polynomial.polyval((math.pi * near) ** 2, _X_OVER_SINH)
    out[..., small] = series / (2.0 * math.pi) * np.exp(near * (1j * log_mu) - log_mu)
    return out


def eval_kernel_array(p: KernelParam, ts: np.ndarray) -> np.ndarray:
    """Vectorized closed-form kernel on an array of (real or complex) points.

    Intended for quadrature nodes; callers are responsible for staying off
    the poles (real-line nodes always are).  A window of vecint._nodes
    keeps its slice of the mu-independent row of _kernel_row, computed once
    per lattice however many windows, mu and modes sample it, and the
    values of the last mu, keyed by
    the exact bits of mu (1+0j and 1-0j are two keys): the modes of one
    Q_mu then share one read-only array.  On a window the values take one
    real exponential per node and one complex exponential per panel centre
    and per Gauss offset (_kernel_on_window); they agree with the
    one-exponent form to the rounding of the phase arguments.  Every other
    array, real or complex, takes the one-exponent form (_kernel_off_window).
    """
    window = _panel_window_of(ts)
    if window is None:
        return _kernel_off_window(cmath.log(p.mu), ts)
    key = struct.pack("<2d", p.mu.real, p.mu.imag)
    if window.kernel_last is None or window.kernel_last[0] != key:
        vals = _kernel_on_window(cmath.log(p.mu), window)
        vals.flags.writeable = False
        window.kernel_last = (key, vals)
    return window.kernel_last[1]


def kernel_rows(log_mu: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """F(mu_j, t) for a 1-d array log_mu of Log mu_j, one row of values per mu_j.

    Row j has the bits of eval_kernel_array at mu_j on the same points,
    from the same form (the panel-factored one on a cached window, the
    one-exponent one elsewhere), but no row is kept on the window.
    """
    window = _panel_window_of(ts)
    log_mu = np.asarray(log_mu, dtype=complex)[:, None]
    if window is None:
        return _kernel_off_window(log_mu, ts)
    return _kernel_on_window(log_mu, window)


def eval_kernel_by_integral(p: KernelParam, t, q: QuadratureSpec):
    """Independent oracle for F(mu, t) at one real t or at each point of a 1-d array.

    Evaluates (1/(2*pi)) * integral exp(E*(1+i*t)) / (exp(E) + mu)**2 dE by
    composite Gauss panels over E, on the cached window of vecint._nodes
    for [-T, T], which it rounds up to whole panels.  The integrand decays
    like exp(-|E|) at both ends, like e^(-E) once e^E passes |mu| and like
    e^E / |mu|^2 below, so the window T = log(1/tol) + max(log|mu|,
    2 log(1/|mu|)) + 4 puts both edges at e^(-4) tol or below; its poles
    sit at E = log|mu| + i*(arg mu +/- pi), a distance decay_rate from the
    real axis, so the node density scales with 1/decay_rate, and it
    oscillates at frequency |t|, which raises the density further.

    The density _panel_density(tol, |t|) grows with |t|, so the points are
    grouped by density.  The points of one group share their window and its
    t-independent denominator (exp(E) + mu)**2 and form (points x nodes)
    rows, taken in blocks of at most _ORACLE_BLOCK entries, each row summed
    along its nodes: the pairwise sum np.sum takes of one row alone, so a
    point gets the value of a one-point call bit for bit.  Each point's tail
    is gated on its own edge panels, and QuadratureNonConvergence names the
    point whose tail estimate exceeds its tolerance the most.
    """
    ts = np.asarray(t, dtype=float)
    require_quadrature_clearance(p)
    tol = q.rel_tolerance
    # |integrand| is about e^-E as E -> +inf, once e^E passes |mu|, and about
    # e^E / |mu|^2 as E -> -inf: the right edge needs log|mu| more where
    # |mu| > 1, the left one 2 log(1/|mu|) more where |mu| < 1
    log_abs = math.log(abs(p.mu))
    T = math.log(1.0 / tol) + max(log_abs, -2.0 * log_abs) + 4.0
    flat = ts.reshape(-1)
    floor = math.ceil(10.0 / p.decay_rate)
    densities = np.array([max(_panel_density(tol, abs(x)), floor) for x in flat.tolist()])
    values = np.empty(flat.size, dtype=complex)
    edges = np.empty(flat.size)
    for npu in np.unique(densities).tolist():
        Es, ws = _nodes(T, npu)
        den = (np.exp(Es) + p.mu) ** 2
        group = np.flatnonzero(densities == npu)
        step = max(1, _ORACLE_BLOCK // Es.size)
        for block in (group[k : k + step] for k in range(0, group.size, step)):
            vals = Es * (1.0 + 1j * flat[block, None])
            np.exp(vals, out=vals)
            vals /= den
            edges[block] = np.maximum(
                np.abs(vals[:, :16]).max(axis=1), np.abs(vals[:, -16:]).max(axis=1)
            )
            vals *= ws
            values[block] = vals.sum(axis=-1) / (2.0 * math.pi)

    tail_est = 2.0 * edges / (2.0 * math.pi)  # unit decay rate at both ends
    limit = tol * (1.0 + _modulus(values))
    failed = tail_est > limit
    if failed.any():
        k = int(np.argmax(np.where(failed, tail_est / limit, 0.0)))
        raise QuadratureNonConvergence(
            f"tail estimate {tail_est[k]:.3e} above tolerance at t={float(flat[k])!r}, "
            f"truncation {T:.1f}"
        )
    return _one_or_many(ts, values.reshape(ts.shape), complex)


def _relative_sum(terms):
    """|sum of terms| over the largest |term|, elementwise: the residual of an
    identity whose terms scale with mu, measured at the size of its terms (0
    where all vanish, nan where a term is nan)."""
    scale = functools.reduce(np.maximum, [_modulus(term) for term in terms])
    total = _modulus(sum(terms))
    return np.divide(total, scale, out=np.zeros(np.shape(total)), where=scale != 0.0)


def check_functional_eq1(p: KernelParam, t):
    """Relative residual of F(mu, t-2i) + 2*mu*F(mu, t-i) + mu**2 * F(mu, t) = 0.

    t is one point or a 1-d array of points, with one residual per point;
    PoleProximity is raised if any of t, t-i, t-2i comes within POLE_GUARD
    of a pole.
    """
    ts = np.asarray(t, dtype=complex)
    shifted = np.stack((ts - 2j, ts - 1j, ts))
    _require_off_poles(shifted)
    f2, f1, f0 = eval_kernel_array(p, shifted)
    return _one_or_many(ts, _relative_sum((f2, _times(2.0 * p.mu, f1), _times(p.mu**2, f0))))


def check_functional_eq2(p: KernelParam, z):
    """Relative residual of mu*F(mu, z) + F(mu, z-i) = i*mu**(i*z) / (e^{pi z} - e^{-pi z}).

    z is one point or a 1-d array of points, with one residual per point;
    ZeroArgument is raised if any z is within POLE_GUARD of 0, and
    PoleProximity if any z or z-i is within it of a pole.
    """
    zs = np.asarray(z, dtype=complex)
    origin = np.abs(zs) <= POLE_GUARD
    if origin.any():
        z0 = complex(zs[origin].flat[0])
        raise ZeroArgument(f"z={z0} sits on the pole of 1/sinh at the origin")
    shifted = np.stack((zs, zs - 1j))
    _require_off_poles(shifted)
    f0, f1 = eval_kernel_array(p, shifted)
    rhs = _over_double_sinh(1j, zs, _times(cmath.log(p.mu), 1j * zs))
    return _one_or_many(zs, _relative_sum((_times(p.mu, f0), f1, -rhs)))


def _residue_loops(p: KernelParam, lam: float, radius: float) -> tuple[complex, complex]:
    """Trapezoid values of the loop integral of F(mu, t) * lam**(i*t) around t = i
    on _RESIDUE_LOOP_NODES nodes and on every second one of them.

    The half loop's nodes and steps are bit for bit those of a loop of half
    as many nodes: the angles 2k * (2 pi/n) and k * (2 pi/(n/2)) are equal,
    and so are 2 * dt_(2k) and the step of the half loop.
    """
    n = _RESIDUE_LOOP_NODES
    w = radius * np.exp(1j * np.arange(n) * (2.0 * math.pi / n))
    ts = 1j + w
    dts = 1j * w * (2.0 * math.pi / n)
    vals = eval_kernel_array(p, ts) * np.exp(1j * ts * math.log(lam))
    return complex(np.sum(vals * dts)), complex(np.sum(vals[::2] * (2.0 * dts[::2])))


def contour_residue_check(p: KernelParam, lam: float, radius: float) -> float:
    """Residual of the loop integral of F(mu, t) * lam**(i*t) around t = i.

    A circle of the given radius (0 < radius < 1, so only the pole at i is
    enclosed) is traversed with the trapezoid rule, which is spectrally
    accurate on periodic integrands; the loop on every second node checks
    its convergence.  The loop value is compared against 2*pi*i times the
    residue, which evaluates to lam**(-1) / mu**2.
    """
    if not (0.0 < radius < 1.0):
        raise ValueError(f"radius must lie in (0, 1), got {radius}")
    if not lam > 0.0:
        raise ValueError(f"lam must be positive, got {lam}")
    # the circle passes closest to the poles i and 2i
    if min(radius, 1.0 - radius) <= POLE_GUARD:
        raise PoleProximity(f"radius {radius} brings the loop within {POLE_GUARD} of a pole")

    full, half = _residue_loops(p, lam, radius)
    if abs(full - half) > 1e-9 * (1.0 + abs(full)):
        raise QuadratureNonConvergence(
            f"loop integral not converged: |delta|={abs(full - half):.3e}"
        )
    expected = (1.0 / lam) / p.mu**2
    return abs(full - expected)


def l1_norm(p: KernelParam) -> float:
    """||F(mu, .)||_L1 = 1/(2(|mu| + Re mu)), the paper's bound on ||Q_mu||.

    It equals sup_{nu > 0} nu/|nu + mu|^2, attained at nu = |mu|, so the
    bound is sharp.  Written as 1/(4 |mu| cos^2(arg mu / 2)), which does not
    cancel near the cut.
    """
    return 0.25 / (abs(p.mu) * math.cos(0.5 * p.arg_mu) ** 2)
