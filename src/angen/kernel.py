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
the exponential depends on mu; the window keeps the rest, its kernel row,
and the values of the last mu it was asked for.  The window's nodes are
sums c_j + d_m of panel centres and Gauss offsets, so the exponential
splits into a real envelope, one real exponential per node, and the
oscillation exp(i*c_j*log|mu|) * exp(i*d_m*log|mu|), one complex
exponential per centre and per offset.

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
"""

from __future__ import annotations

import cmath
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

# trapezoid nodes on the residue loop; half as many give the convergence check
_RESIDUE_LOOP_NODES = 256


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


def pole_distance(t: complex) -> float:
    """Distance from t to the pole set {i*n : n integer, n != 0}."""
    t = complex(t)
    n = round(t.imag)
    best = math.inf
    for m in (n - 1, n, n + 1, 1, -1):
        if m == 0:
            continue
        best = min(best, abs(t - 1j * m))
    return best


def _require_point(t: complex) -> None:
    if pole_distance(t) <= POLE_GUARD:
        raise PoleProximity(
            f"t={complex(t)} within guard distance {POLE_GUARD} of a pole +/- i*n"
        )


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
    _require_point(t)
    return complex(eval_kernel_array(p, t))


def _kernel_row(ts: np.ndarray):
    """The mu-independent parts (pi|t|, amp) of the kernel on the real nodes of a window.

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


def _kernel_on_window(log_mu: complex, window) -> np.ndarray:
    """F(mu, t) on the nodes of a cached window, with the oscillation factored by panel.

    F(mu, t) = amp(t) * exp(-t arg mu - log|mu| - pi|t|) * e^(-i arg mu) *
    exp(i t log|mu|), with amp = |t| inv the window's kept row.  The real
    envelope takes one real exponential per node, with the real part of the
    one-exponent form's argument as its own, so it has that form's range.
    The oscillation, exp(i t log|mu|) with t = c_j + d_m, is the product
    exp(i c_j log|mu|) * exp(i d_m log|mu|), one exponential per panel centre
    and one per Gauss offset, as _phase_matrix takes its phases; e^(-i arg mu)
    rides on the centre factors.  The values differ from the one-exponent
    form's by the rounding of the arguments, a few units of
    eps * (1 + (|c_j| + |d_m|) |log|mu||).
    """
    pi_abs, amp, points = window.kernel_row
    log_abs, arg = log_mu.real, log_mu.imag
    envelope = window.ts * -arg
    envelope -= log_abs
    envelope -= pi_abs
    np.exp(envelope, out=envelope)
    envelope *= amp
    panels = window.centres.size
    angles = points * log_abs
    angles[:panels] -= arg
    factors = np.exp(1j * angles)
    vals = factors[:panels, None] * factors[None, panels:]
    vals *= envelope.reshape(vals.shape)
    return vals.ravel()


def eval_kernel_array(p: KernelParam, ts: np.ndarray) -> np.ndarray:
    """Vectorized closed-form kernel on an array of (real or complex) points.

    Intended for quadrature nodes; callers are responsible for staying off
    the poles (real-line nodes always are).  A window of vecint._nodes
    keeps the mu-independent row of _kernel_row, computed once however
    many mu and modes sample it, and the values of the last mu, keyed by
    the exact bits of mu (1+0j and 1-0j are two keys): the modes of one
    Q_mu then share one read-only array.  On a window the values take one
    real exponential per node and one complex exponential per panel centre
    and per Gauss offset (_kernel_on_window); they agree with the
    one-exponent form to the rounding of the phase arguments.  Every other
    array, real or complex, takes the one-exponent form as a complex array,
    bit for bit the values at ts + 0j, and its points inside the series
    disc around 0 are taken out of it and overwritten.
    """
    window = _panel_window_of(ts)
    if window is not None:
        key = struct.pack("<2d", p.mu.real, p.mu.imag)
        if window.kernel_last is None or window.kernel_last[0] != key:
            if window.kernel_row is None:
                points = np.concatenate((window.centres, window.offsets))
                window.kernel_row = (*_kernel_row(ts), points)
            vals = _kernel_on_window(cmath.log(p.mu), window)
            vals.flags.writeable = False
            window.kernel_last = (key, vals)
        return window.kernel_last[1]
    ts = np.asarray(ts, dtype=complex)
    log_mu = cmath.log(p.mu)
    small = np.abs(ts) < SERIES_SWITCH_RADIUS
    if not small.any():
        return _over_double_sinh(ts, ts, ts * (1j * log_mu) - log_mu)
    safe = np.where(small, 1.0, ts)  # no 0/0 at an exact zero node
    out = np.asarray(_over_double_sinh(safe, safe, safe * (1j * log_mu) - log_mu))
    near = ts[small]
    series = np.polynomial.polynomial.polyval((math.pi * near) ** 2, _X_OVER_SINH)
    out[small] = series / (2.0 * math.pi) * np.exp(near * (1j * log_mu) - log_mu)
    return out


def eval_kernel_by_integral(p: KernelParam, t: float, q: QuadratureSpec) -> complex:
    """Independent oracle for F(mu, t), real t.

    Evaluates (1/(2*pi)) * integral exp(E*(1+i*t)) / (exp(E) + mu)**2 dE by
    composite Gauss panels over E, on a cached window [-T, T] of
    vecint._nodes.  The integrand decays like exp(-|E|) at both ends; its
    poles sit at E = log|mu| + i*(arg mu +/- pi), a distance decay_rate
    from the real axis, so the node density scales with 1/decay_rate.
    """
    t = float(t)
    require_quadrature_clearance(p)
    tol = q.rel_tolerance
    center = math.log(abs(p.mu))
    T = math.log(1.0 / tol) + abs(center) + 4.0
    npu = max(_panel_density(tol, abs(t)), math.ceil(10.0 / p.decay_rate))
    Es, ws = _nodes(T, npu)
    vals = np.exp(Es * (1.0 + 1j * t)) / (np.exp(Es) + p.mu) ** 2
    value = complex(np.sum(vals * ws) / (2.0 * math.pi))

    edge = max(float(np.max(np.abs(vals[:16]))), float(np.max(np.abs(vals[-16:]))))
    tail_est = 2.0 * edge / (2.0 * math.pi)  # unit decay rate at both ends
    if tail_est > tol * (1.0 + abs(value)):
        raise QuadratureNonConvergence(
            f"tail estimate {tail_est:.3e} above tolerance at truncation {T:.1f}"
        )
    return value


def _relative_sum(terms) -> float:
    """|sum of terms| over the largest |term|: the residual of an identity whose
    terms scale with mu, measured at the size of its terms (0 if all vanish)."""
    scale = max(abs(term) for term in terms)
    return abs(sum(terms)) / scale if scale > 0.0 else 0.0


def check_functional_eq1(p: KernelParam, t: complex) -> float:
    """Relative residual of F(mu, t-2i) + 2*mu*F(mu, t-i) + mu**2 * F(mu, t) = 0."""
    t = complex(t)
    for w in (t, t - 1j, t - 2j):
        _require_point(w)
    f2, f1, f0 = eval_kernel_array(p, np.array([t - 2j, t - 1j, t]))
    return _relative_sum((f2, 2.0 * p.mu * f1, p.mu**2 * f0))


def check_functional_eq2(p: KernelParam, z: complex) -> float:
    """Relative residual of mu*F(mu, z) + F(mu, z-i) = i*mu**(i*z) / (e^{pi z} - e^{-pi z})."""
    z = complex(z)
    if abs(z) <= POLE_GUARD:
        raise ZeroArgument(f"z={z} sits on the pole of 1/sinh at the origin")
    _require_point(z)
    _require_point(z - 1j)
    f0, f1 = eval_kernel_array(p, np.array([z, z - 1j]))
    rhs = _over_double_sinh(1j, z, 1j * z * cmath.log(p.mu))
    return _relative_sum((p.mu * f0, f1, -complex(rhs)))


def contour_residue_check(p: KernelParam, lam: float, radius: float) -> float:
    """Residual of the loop integral of F(mu, t) * lam**(i*t) around t = i.

    A circle of the given radius (0 < radius < 1, so only the pole at i is
    enclosed) is traversed with the trapezoid rule, which is spectrally
    accurate on periodic integrands.  The loop value is compared against
    2*pi*i times the residue, which evaluates to lam**(-1) / mu**2.
    """
    if not (0.0 < radius < 1.0):
        raise ValueError(f"radius must lie in (0, 1), got {radius}")
    if not lam > 0.0:
        raise ValueError(f"lam must be positive, got {lam}")
    # the circle passes closest to the poles i and 2i
    if min(radius, 1.0 - radius) <= POLE_GUARD:
        raise PoleProximity(f"radius {radius} brings the loop within {POLE_GUARD} of a pole")

    loglam = math.log(lam)

    def loop(n: int) -> complex:
        w = radius * np.exp(1j * np.arange(n) * (2.0 * math.pi / n))
        ts = 1j + w
        dts = 1j * w * (2.0 * math.pi / n)
        return complex(np.sum(eval_kernel_array(p, ts) * np.exp(1j * ts * loglam) * dts))

    full = loop(_RESIDUE_LOOP_NODES)
    half = loop(_RESIDUE_LOOP_NODES // 2)
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
