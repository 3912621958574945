"""Recovering U_t from the analytic generator, and the decay bound fit.

Two reconstruction routes are implemented.  Both rest on the scalar Mellin
identity

    integral_0^inf mu**(alpha-1) * nu/(nu+mu) dmu = nu**alpha * pi/sin(pi*alpha),

valid for 0 < Re alpha < 1 and nu > 0, which the test suite re-derives by
independent scalar quadrature before anything depends on it.

Route one (graph pair form) evaluates, for complex z with 0 < Im z < 1,

    A(z) = (sin(-i*pi*z)/pi) * integral_0^inf mu**(-i*z-1)
             * Pr1 (D + mu I)**(-1) D (x, U_i x) dmu,

where D = diag(U_i, U_i) acts on graph pairs and Pr1 projects onto the
first component.  Spectrally the integrand reduces to
(U_i + mu)**(-1) U_i x and A(z) = U_z x, so A(z) -> U_t x as z -> t from
the upper half plane.  The integrand is evaluated by honest 2n x 2n block
solves, never through the spectral shortcut.

Route two (scalar power form) evaluates, for 0 < Re alpha < 1,

    B(alpha) = (sin(pi*alpha)/pi) * integral_0^inf lam**(alpha-1)
                 * (lam + U_i)**(-1) U_i x dlam,

whose spectral value is nu**alpha.  Under this package's convention
U_t = exp(i*t*H), U_i = exp(-H), the limit alpha -> i*t gives
nu**(i*t) = exp(-i*t*h), which is U_{-t} x rather than U_t x; the
orientation is measured against the oracle and reported, never assumed.

The radial integral is truncated to [mu_min, mu_max] on a logarithmic
Gauss grid.  Naive truncation is useless near the imaginary axis in
alpha: the prefactor sin(pi*alpha) grows like exp(pi*|Im alpha|) while the
omitted tails shrink only algebraically, so both tails are restored
analytically from the resolvent power series,

    (U_i+mu)^(-1) U_i = sum_k (-mu)^k U_i^(-k)            (mu below the spectrum)
    (U_i+mu)^(-1) U_i = sum_k (-1)^(k+1) mu^(-k) U_i^k    (mu above the spectrum),

integrated term by term.  Three terms per end put the truncation error at
machine level for the default [1e-6, 1e6] window; the first omitted term
is monitored and TruncationDominates is raised if it is not negligible.

Finally, decay_bound_fit measures y(mu) = ||mu Q_mu x + Q_mu U_i x||,
which decays like mu**(-1) (spectrally it is nu/(nu+mu) summed over
modes), fits the log-log slope, and cross-validates y(mu) against the
shifted-line representation

    integral i * mu**(i*z) * U_z x / (exp(pi*z) - exp(-pi*z)) dt,   z = t + i*r,

obtained by moving the integration line of Q_mu (mu + U_i) to Im z = r;
the factor mu**(i*z) = mu**(i*t) * mu**(-r) carries the mu**(-r) envelope.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import FitUnstable, OverflowRisk, TruncationDominates
from .group_models import (
    GroupModel,
    analytic_generator,
    apply_Uz,
    apply_Uz_batch,
    as_state,
    generator_spectrum,
    make_graph_vector,
)
from .kernel import KernelParam, _over_double_sinh, require_quadrature_clearance
from .resolvent import _qmu_vector, _quadrature_plan, ampliation
from .vecint import QuadratureSpec, gauss_panels, integrate_vector

MU_MIN_DEFAULT = 1e-6
MU_MAX_DEFAULT = 1e6
PANELS_DEFAULT = 40
# analytic tail corrections use this many power-series terms per endpoint
CORRECTION_TERMS = 3
# sin(pi alpha) grows like e^(pi |Im alpha|) / 2 and overflows past this
_LOG_MAX_DOUBLE = math.log(np.finfo(float).max)


def _check_window(g: GroupModel, mu_min: float, mu_max: float) -> None:
    nus = generator_spectrum(g)
    if not (0.0 < mu_min < mu_max):
        raise ValueError("need 0 < mu_min < mu_max")
    if mu_min >= 0.5 * float(np.min(nus)) or mu_max <= 2.0 * float(np.max(nus)):
        raise ValueError(
            "the radial window [mu_min, mu_max] must straddle the generator "
            f"spectrum [{np.min(nus):.3e}, {np.max(nus):.3e}] with margin"
        )


def _radial_integral(
    g: GroupModel,
    alpha: complex,
    resolvent_apply,
    x: np.ndarray,
    mu_min: float,
    mu_max: float,
    panels: int,
    tol: float,
):
    """sin(pi a)/pi * integral_0^inf mu^(a-1) r(mu) dmu with analytic tails.

    resolvent_apply(mu) must return r(mu) = (U_i + mu)^(-1) U_i x by
    whatever route the caller wants tested; the tails below mu_min and
    above mu_max are restored from the power series of r, which only needs
    powers of the exact generator applied to x.
    """
    if math.pi * abs(alpha.imag) > _LOG_MAX_DOUBLE:
        raise OverflowRisk(f"sin(pi alpha) overflows at |Im alpha| = {abs(alpha.imag):.3f}")
    us, ws = gauss_panels(math.log(mu_min), math.log(mu_max), panels)
    total = np.zeros(g.dim, dtype=complex)
    # substitution mu = e^u turns mu^(a-1) dmu into e^(a u) du
    for u, w in zip(us, ws):
        total = total + (w * cmath.exp(alpha * u)) * resolvent_apply(math.exp(u))

    Ui = analytic_generator(g)
    low_vecs = [x]
    for _ in range(CORRECTION_TERMS):
        low_vecs.append(np.linalg.solve(Ui, low_vecs[-1]))
    high_vecs = [x]
    for _ in range(CORRECTION_TERMS):
        high_vecs.append(Ui @ high_vecs[-1])

    log_lo, log_hi = math.log(mu_min), math.log(mu_max)
    for k in range(CORRECTION_TERMS):
        total = total + ((-1.0) ** k * cmath.exp((alpha + k) * log_lo) / (alpha + k)) * low_vecs[k]
    for k in range(1, CORRECTION_TERMS + 1):
        total = total + ((-1.0) ** (k + 1) * cmath.exp((alpha - k) * log_hi) / (k - alpha)) * high_vecs[k]

    prefactor = cmath.sin(math.pi * alpha) / math.pi
    # first omitted term at each end bounds the remaining truncation error
    K = CORRECTION_TERMS
    est_low = abs(cmath.exp((alpha + K) * log_lo) / (alpha + K)) * float(
        np.linalg.norm(low_vecs[-1])
    )
    est_high = abs(cmath.exp((alpha - K - 1) * log_hi) / (K + 1 - alpha)) * float(
        np.linalg.norm(Ui @ high_vecs[-1])
    )
    xnorm = max(float(np.linalg.norm(x)), 1e-30)
    if abs(prefactor) * (est_low + est_high) > tol * xnorm:
        raise TruncationDominates(
            f"radial truncation estimate {abs(prefactor) * (est_low + est_high):.3e} "
            f"exceeds {tol:.1e} * ||x||; widen [mu_min, mu_max]"
        )
    return prefactor * total


@dataclass(frozen=True)
class ReconstructionStep:
    z: complex
    error: float


@dataclass(frozen=True)
class ReconstructionReport:
    """Per-step errors against the oracle and the final approximation.

    Each step's approximant equals U_z x to quadrature accuracy, so its
    error against U_t x at z = t + i d is the limit gap
    ||(e^(-dH) - I) x|| <= (e^(d max|h|) - 1) ||x||, of order d.
    The limit is reported as a sequence of approximations, never
    extrapolated.
    """

    steps: tuple[ReconstructionStep, ...]
    approximation: np.ndarray


def reconstruct_Ut_delta(
    g: GroupModel,
    t: float,
    x,
    z_sequence,
    q: QuadratureSpec,
    mu_min: float = MU_MIN_DEFAULT,
    mu_max: float = MU_MAX_DEFAULT,
    panels: int = PANELS_DEFAULT,
) -> ReconstructionReport:
    """Graph pair reconstruction of U_t x along a sequence z -> t, Im z > 0.

    Each approximant is computed with alpha = -i z through honest block
    solves (D + mu)^(-1) D on the stacked pair (x, U_i x) and equals U_z x
    to quadrature accuracy.  The reported error is against the exact
    oracle U_t x, so at z = t + i d it is the limit gap
    ||(e^(-dH) - I) x|| <= (e^(d max|h|) - 1) ||x||, of order d: it
    shrinks as Im z -> 0+ but never vanishes at a finite offset.  The
    report lists the approximants; it never extrapolates to d = 0.
    """
    t = float(t)
    x = as_state(g, x)
    _check_window(g, mu_min, mu_max)
    pair = make_graph_vector(g, x).stacked()
    n = g.dim
    D = ampliation(g).as_matrix()
    eye2 = np.eye(2 * n, dtype=complex)
    target = apply_Uz(g, t, x)

    def first_component(mu: float) -> np.ndarray:
        sol = np.linalg.solve(D + mu * eye2, D @ pair)
        return sol[:n]

    steps = []
    approx = None
    for z in z_sequence:
        z = complex(z)
        if not (0.0 < z.imag < 1.0):
            raise ValueError(
                f"Im z must lie in (0, 1) for the radial integral, got z={z}"
            )
        alpha = -1j * z
        approx = _radial_integral(
            g, alpha, first_component, x, mu_min, mu_max, panels, q.rel_tolerance
        )
        steps.append(ReconstructionStep(z, float(np.linalg.norm(approx - target))))
    return ReconstructionReport(tuple(steps), approx)


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


@dataclass(frozen=True)
class OrientationStep:
    alpha: complex
    error_forward: float
    error_reverse: float


@dataclass(frozen=True)
class OrientationReport:
    """Scalar power route approximants against both U_t x and U_{-t} x."""

    steps: tuple[OrientationStep, ...]
    approximation: np.ndarray
    orientation: str


def reconstruct_Ut_cz(
    g: GroupModel,
    t: float,
    x,
    alpha_sequence,
    q: QuadratureSpec,
    mu_min: float = MU_MIN_DEFAULT,
    mu_max: float = MU_MAX_DEFAULT,
    panels: int = PANELS_DEFAULT,
) -> OrientationReport:
    """Scalar power route approximants along alpha -> i*t, 0 < Re alpha < 1.

    The final approximant is compared against both U_t x and U_{-t} x and
    the better match is reported as the resolved orientation; under this
    package's convention the spectral value nu**(i t) = exp(-i t h) matches
    U_{-t} x, and the report makes that measurable rather than assumed.
    """
    t = float(t)
    x = as_state(g, x)
    _check_window(g, mu_min, mu_max)
    Ui = analytic_generator(g)
    eye = np.eye(g.dim, dtype=complex)
    Ui_x = Ui @ x
    forward = apply_Uz(g, t, x)
    reverse = apply_Uz(g, -t, x)

    def resolvent_apply(lam: float) -> np.ndarray:
        return np.linalg.solve(Ui + lam * eye, Ui_x)

    steps = []
    approx = None
    for alpha in alpha_sequence:
        alpha = complex(alpha)
        if not (0.0 < alpha.real < 1.0):
            raise ValueError(f"Re alpha must lie in (0, 1), got alpha={alpha}")
        approx = _radial_integral(
            g, alpha, resolvent_apply, x, mu_min, mu_max, panels, q.rel_tolerance
        )
        steps.append(
            OrientationStep(
                alpha,
                float(np.linalg.norm(approx - forward)),
                float(np.linalg.norm(approx - reverse)),
            )
        )
    last = steps[-1]
    orientation = "reverse" if last.error_reverse <= last.error_forward else "forward"
    return OrientationReport(tuple(steps), approx, orientation)


@dataclass(frozen=True)
class DecayFitReport:
    """Log-log fit of y(mu) = ||mu Q_mu x + Q_mu U_i x|| along a mu ray."""

    slope: float
    c_r_estimate: float
    fit_residual: float
    shift_max_rel_diff: float
    rows: tuple[tuple[float, float, float], ...]  # (|mu|, y_direct, y_shifted)


def _shifted_line_vector(
    g: GroupModel, p: KernelParam, q: QuadratureSpec, x: np.ndarray, r: float
) -> np.ndarray:
    """integral i mu^(i z) U_z x / (e^{pi z} - e^{-pi z}) dt along z = t + ir."""
    T, npu = _quadrature_plan(g, p, q)
    # 1/sinh(pi z) has poles at z = 0 and z = i, at distances r and 1 - r
    # from the shifted line; the nearer one sets the density
    npu = max(npu, int(math.ceil(7.0 / min(r, 1.0 - r))))
    log_mu = cmath.log(p.mu)
    return integrate_vector(
        lambda ts: apply_Uz_batch(g, ts + 1j * r, x),
        lambda ts: _over_double_sinh(1j * np.exp(1j * (ts + 1j * r) * log_mu), ts + 1j * r),
        replace(q, nodes_per_unit=npu),
        tail_rate=p.decay_rate,
        truncation=T,
    )


def decay_bound_fit(
    g: GroupModel,
    x,
    r: float,
    mu_magnitudes,
    q: QuadratureSpec,
    arg_mu: float = 0.0,
) -> DecayFitReport:
    """Fit the decay exponent of y(mu) = ||mu Q_mu x + Q_mu U_i x||.

    The magnitudes run along the ray arg(mu) = arg_mu (real positive by
    default, which is the ray the Bochner-integral bound concerns).  The
    slope is fitted over the largest decade of the magnitudes; the direct
    values are cross-validated against the shifted-line representation at
    offset r.  C_r is only an estimate sup y(mu) * mu^r, it is reported,
    not asserted against anything.
    """
    if not (0.0 < r < 1.0):
        raise ValueError(f"r must lie in (0, 1), got {r}")
    x = as_state(g, x)
    mags = sorted(float(m) for m in mu_magnitudes)
    if any(m <= 0 for m in mags):
        raise ValueError("mu magnitudes must be positive")

    # every mu on the ray shares its decay rate
    require_quadrature_clearance(KernelParam(cmath.exp(1j * arg_mu)))

    Ui_x = analytic_generator(g) @ x
    rows = []
    for m in mags:
        mu = m * cmath.exp(1j * arg_mu)
        p = KernelParam(mu)
        w = mu * x + Ui_x
        # no scale hint: y(mu) = ||Q_mu w|| is much smaller than ||w|| at
        # large mu (the two halves of w nearly cancel under Q_mu), and the
        # tail gate must track the result, not the input
        y_direct = float(np.linalg.norm(_qmu_vector(g, p, q, w)))
        y_shift = float(np.linalg.norm(_shifted_line_vector(g, p, q, x, r)))
        rows.append((m, y_direct, y_shift))

    top = [row for row in rows if row[0] >= rows[-1][0] / 10.0 * (1.0 - 1e-12)]
    if len(top) < 3:
        raise FitUnstable(
            f"only {len(top)} magnitudes in the top decade; need at least 3 for a fit"
        )
    lx = np.log10([row[0] for row in top])
    ly = np.log10([row[1] for row in top])
    slope, intercept = np.polyfit(lx, ly, 1)
    fit_residual = float(np.max(np.abs(slope * lx + intercept - ly)))
    if fit_residual > 0.1:
        raise FitUnstable(
            f"log-log fit residual {fit_residual:.3f} exceeds 0.1; "
            "y(mu) is not a clean power law over the top decade"
        )
    c_r = max(yd * m**r for m, yd, _ in rows)
    shift_rel = max(abs(yd - ys) / max(yd, 1e-30) for _, yd, ys in rows)
    return DecayFitReport(float(slope), float(c_r), fit_residual, shift_rel, tuple(rows))
