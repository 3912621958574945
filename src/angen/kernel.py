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
Taylor series inside a small disc to avoid 0/0 cancellation.

Two independent routes to the same values exist: the closed form above
and the Fourier-side representation

    F(mu, t) = (1/(2*pi)) * integral exp(E*(1 + i*t)) / (exp(E) + mu)**2 dE,

which this module evaluates by quadrature as an oracle.  Two exact
recurrences tie values on neighbouring horizontal lines together:

    F(mu, t - 2i) + 2*mu*F(mu, t - i) + mu**2 * F(mu, t) = 0
    mu*F(mu, z) + F(mu, z - i) = i * mu**(i*z) / (exp(pi*z) - exp(-pi*z))

and the residue of F(mu, t) * lam**(i*t) at t = i is -i * lam**(-1) / (2*pi*mu**2).
All three structures are exposed as checks returning residuals.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BranchViolation, PoleProximity, QuadratureNonConvergence, ZeroArgument
from .vecint import QuadratureSpec, gauss_panel_nodes

# switch to the Taylor series of t/(2 sinh(pi t)) inside this disc
SERIES_SWITCH_RADIUS = 1e-2
# minimum allowed distance from an evaluation point to a pole +/- i*n
POLE_GUARD = 1e-3
# minimum decay rate required by quadrature-based operations
DELTA_MIN = math.pi / 16.0

# Taylor coefficients of x/sinh(x) in powers of x**2
_X_OVER_SINH = (1.0, -1.0 / 6.0, 7.0 / 360.0, -31.0 / 15120.0, 127.0 / 604800.0)

# asymptotic switch for the stable 1/(e^x - e^-x) evaluation
_BIG_REAL = 30.0


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


@dataclass(frozen=True)
class KernelPointValue:
    """A kernel sample (t, F(mu, t)) away from the poles +/- i*n."""

    t: complex
    value: complex

    def __post_init__(self) -> None:
        if pole_distance(self.t) <= POLE_GUARD:
            raise PoleProximity(f"t={self.t} within {POLE_GUARD} of a pole +/- i*n")


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


def _over_double_sinh(num, z):
    """Stable num / (exp(pi*z) - exp(-pi*z)), elementwise, for z away from i*Z."""
    num = np.asarray(num, dtype=complex)
    x = math.pi * np.asarray(z, dtype=complex)
    out = np.empty(x.shape, dtype=complex)
    big = np.abs(x.real) > _BIG_REAL
    if np.any(big):
        s = np.where(x.real[big] > 0, 1.0, -1.0)
        e = np.exp(-s * x[big])
        out[big] = num[big] * s * e / (1.0 - e * e)
    rest = ~big
    out[rest] = num[rest] / (2.0 * np.sinh(x[rest]))
    return out


def eval_kernel(p: KernelParam, t: complex) -> complex:
    """Closed-form kernel value F(mu, t) on the principal branch."""
    t = complex(t)
    _require_point(t)
    return complex(eval_kernel_array(p, t))


def eval_kernel_array(p: KernelParam, ts: np.ndarray) -> np.ndarray:
    """Vectorized closed-form kernel on an array of (real or complex) points.

    Intended for quadrature nodes; callers are responsible for staying off
    the poles (real-line nodes always are).
    """
    ts = np.asarray(ts, dtype=complex)
    out = np.empty(ts.shape, dtype=complex)
    small = np.abs(ts) < SERIES_SWITCH_RADIUS
    if np.any(small):
        x2 = (math.pi * ts[small]) ** 2
        acc = np.full(x2.shape, _X_OVER_SINH[-1], dtype=complex)
        for c in reversed(_X_OVER_SINH[:-1]):
            acc = c + x2 * acc
        out[small] = acc / (2.0 * math.pi)
    rest = ~small
    out[rest] = _over_double_sinh(ts[rest], ts[rest])
    return out * np.exp((1j * ts - 1.0) * cmath.log(p.mu))


def eval_kernel_by_integral(p: KernelParam, t: float, q: QuadratureSpec) -> complex:
    """Independent oracle for F(mu, t), real t.

    Evaluates (1/(2*pi)) * integral exp(E*(1+i*t)) / (exp(E) + mu)**2 dE by
    composite Gauss panels over E.  The integrand decays like exp(-|E|) at
    both ends; its poles sit at E = log|mu| + i*(arg mu +/- pi), a distance
    decay_rate from the real axis, so the node density scales with
    1/decay_rate.
    """
    t = float(t)
    require_quadrature_clearance(p)
    tol = q.rel_tolerance
    center = math.log(abs(p.mu))
    T = math.log(1.0 / tol) + abs(center) + 4.0
    npu = max(
        q.nodes_per_unit,
        int(math.ceil(10.0 / p.decay_rate)),
        int(math.ceil(0.8 * abs(t))) + 4,
    )
    Es, ws = gauss_panel_nodes(-T, T, npu)
    vals = np.exp(Es * (1.0 + 1j * t)) / (np.exp(Es) + p.mu) ** 2
    value = complex(np.sum(vals * ws) / (2.0 * math.pi))

    edge = max(float(np.max(np.abs(vals[:16]))), float(np.max(np.abs(vals[-16:]))))
    tail_est = 2.0 * edge / (2.0 * math.pi)  # unit decay rate at both ends
    if tail_est > tol * (1.0 + abs(value)):
        raise QuadratureNonConvergence(
            f"tail estimate {tail_est:.3e} above tolerance at truncation {T:.1f}"
        )
    return value


def check_functional_eq1(p: KernelParam, t: complex) -> float:
    """Residual of F(mu, t-2i) + 2*mu*F(mu, t-i) + mu**2 * F(mu, t) = 0."""
    t = complex(t)
    for w in (t, t - 1j, t - 2j):
        _require_point(w)
    f2, f1, f0 = eval_kernel_array(p, np.array([t - 2j, t - 1j, t]))
    return abs(f2 + 2.0 * p.mu * f1 + p.mu**2 * f0)


def check_functional_eq2(p: KernelParam, z: complex) -> float:
    """Residual of mu*F(mu, z) + F(mu, z-i) = i*mu**(i*z) / (e^{pi z} - e^{-pi z})."""
    z = complex(z)
    if abs(z) <= POLE_GUARD:
        raise ZeroArgument(f"z={z} sits on the pole of 1/sinh at the origin")
    _require_point(z)
    _require_point(z - 1j)
    f0, f1 = eval_kernel_array(p, np.array([z, z - 1j]))
    rhs = _over_double_sinh(1j * cmath.exp(1j * z * cmath.log(p.mu)), z)
    return abs(p.mu * f0 + f1 - complex(rhs))


def contour_residue_check(
    p: KernelParam, lam: float, radius: float, num_nodes: int = 256
) -> float:
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

    full = loop(num_nodes)
    half = loop(num_nodes // 2)
    if abs(full - half) > 1e-9 * (1.0 + abs(full)):
        raise QuadratureNonConvergence(
            f"loop integral not converged: |delta|={abs(full - half):.3e}"
        )
    expected = (1.0 / lam) / p.mu**2
    return abs(full - expected)


def decay_envelope_constant(p: KernelParam) -> float:
    """C such that |F(mu, t)| <= C * (1+|t|) * exp(-decay_rate*|t|) for real |t| >= 1."""
    return 1.0 / (abs(p.mu) * (1.0 - math.exp(-2.0 * math.pi)))
