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
first component.  D is block diagonal, so (D + mu)**(-1) D acts on each
component alone, and the integrand is (U_i + mu)**(-1) U_i x by the block
structure, with no eigenvalues involved; A(z) = U_z x, so A(z) -> U_t x as
z -> t from the upper half plane.  This is the vector route two samples
too, and both routes take it from one sampler: U_i is brought to real
tridiagonal form by a unitary similarity (Householder reflections, no
eigenvalues), and one Thomas sweep then solves the shifted systems at every
radial node together.  The samples depend on U_i, U_i x and the nodes
alone, never on z or alpha, so the last four sample sets are kept in a
cache keyed on that content: calls of either route at other z (or alpha,
or t) on the same state run neither the reduction nor the sweep.  U_i and
U_{-i} are the model's kept operators (GroupModel), built once per model,
and the log-Gauss grid is kept per window (_radial_grid); the cache is
handed the kept content keys of U_i and of the nodes, so a warm call
builds no matrix and copies or hashes only U_i x.

Route two (scalar power form) evaluates, for 0 < Re alpha < 1,

    B(alpha) = (sin(pi*alpha)/pi) * integral_0^inf lam**(alpha-1)
                 * (lam + U_i)**(-1) U_i x dlam,

whose spectral value is nu**alpha.  Under this package's convention
U_t = exp(i*t*H), U_i = exp(-H), the limit alpha -> i*t gives
nu**(i*t) = exp(-i*t*h), which is U_{-t} x rather than U_t x; the
orientation is measured against the oracle and reported, never assumed.

The radial integral is truncated to [mu_min, mu_max] on a logarithmic
Gauss grid.  The resolvent is sampled once per node, and every approximant
of a z (or alpha) sequence is a weighted sum of those samples.  The
samples stay in the tridiagonal basis of the reduction: they are weighted
there, and each approximant is mapped back once, not each node.  Naive
truncation is useless near the imaginary axis in alpha: the prefactor
sin(pi*alpha) grows like exp(pi*|Im alpha|) while the omitted tails
shrink only algebraically, so both tails are restored analytically from
the resolvent power series,

    (U_i+mu)^(-1) U_i = sum_k (-mu)^k U_i^(-k)            (mu below the spectrum)
    (U_i+mu)^(-1) U_i = sum_k (-1)^(k+1) mu^(-k) U_i^k    (mu above the spectrum),

integrated term by term.  The powers U_i^(-k) x are products with the
exact inverse U_{-i}, built from the model like U_i itself, so the tails
solve no system.  Three terms per end put the truncation error at
machine level for the default [1e-6, 1e6] window; the first omitted term
is monitored and TruncationDominates is raised if it is not negligible.

Finally, decay_bound_fit measures y(mu) = ||mu Q_mu x + Q_mu U_i x||,
which decays like mu**(-1) (spectrally it is nu/(nu+mu) summed over
modes), fits the log-log slope, and cross-validates y(mu) against the
shifted-line representation

    integral i * mu**(i*z) * U_z x / (exp(pi*z) - exp(-pi*z)) dt,   z = t + i*r,

obtained by moving the integration line of Q_mu (mu + U_i) to Im z = r;
the factor mu**(i*z) = mu**(i*t) * mu**(-r) carries the mu**(-r) envelope.
Each line is one row batch of vecint.integrate_vector over every magnitude
of the ray, on one window for the whole ray: the density rows, F(mu_j, t)
on the direct line and i mu_j**(i*z) / (2 sinh(pi*z)) on the shifted one,
are weighted and multiplied by the window's phase matrix exp(i t h) in one
product, and row j is then scaled by eigenbasis coordinates: those of
w_j = mu_j x + U_i x on the direct line, and on the shifted one those of
U_ir x, a row of the same phase form, exp(-r h) times those of x.  A fit
builds two phase matrices, one per line.  A long ray takes its rows in
blocks of about _FIT_BLOCK entries (one block at the shipped sizes), so it
never holds all of them at once.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import FitUnstable, OverflowRisk, QuadratureNonConvergence, TruncationDominates
from .group_models import (
    GroupModel,
    _content_key,
    _from_key,
    _phase_matrix,
    _to_eigen,
    apply_Uz,
    as_state,
    generator_spectrum,
)
from .kernel import KernelParam, _over_double_sinh, kernel_rows, require_quadrature_clearance
from .resolvent import _SINH_FLOOR, _kernel_floor, _quadrature_plan
from .vecint import QuadratureSpec, _truncation_for_edge, _window, gauss_panels, integrate_vector

MU_MIN_DEFAULT = 1e-6
MU_MAX_DEFAULT = 1e6
PANELS_DEFAULT = 40
# entries of one block of a decay-fit line's (magnitudes x nodes) density rows: 1 MB
_FIT_BLOCK = 1 << 16
# analytic tail corrections use this many power-series terms per endpoint
CORRECTION_TERMS = 3
# sin(pi alpha) grows like e^(pi |Im alpha|) / 2 and overflows past this
_LOG_MAX_DOUBLE = math.log(np.finfo(float).max)


def _check_window(g: GroupModel, mu_min: float, mu_max: float, panels: int) -> None:
    """Reject a radial window that is not finite or does not straddle the
    spectrum, and panels that is not a positive int."""
    if isinstance(panels, bool) or not isinstance(panels, (int, np.integer)) or panels < 1:
        raise ValueError(f"panels must be a positive int, got {panels!r}")
    nus = generator_spectrum(g)
    if not (0.0 < mu_min < mu_max < math.inf):
        raise ValueError("need finite 0 < mu_min < mu_max")
    if mu_min >= 0.5 * float(np.min(nus)) or mu_max <= 2.0 * float(np.max(nus)):
        raise ValueError(
            "the radial window [mu_min, mu_max] must straddle the generator "
            f"spectrum [{np.min(nus):.3e}, {np.max(nus):.3e}] with margin"
        )


def _tridiagonalize(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A = Q T Q* for Hermitian A, with Q unitary and T real symmetric tridiagonal.

    Returns (Q, d, e): d is the diagonal of T and e >= 0 its off-diagonal.
    Householder reflections clear each column below the subdiagonal of the
    trailing Hermitian block, and a diagonal phase similarity then makes the
    subdiagonal real and non-negative.  A column that is already clear is
    left alone, so a diagonal A comes back with Q = I and e = 0 exactly.
    """
    T = np.array(A, dtype=complex)
    m = T.shape[0]
    Q = np.eye(m, dtype=complex)
    for k in range(m - 2):
        x = T[k + 1 :, k]
        if not np.any(x[1:]):
            continue
        norm_x = np.linalg.norm(x)
        phase = x[0] / abs(x[0]) if x[0] != 0 else 1.0
        # v = x + phase ||x|| e1 avoids cancellation in H = I - 2 v v*
        v = x.copy()
        v[0] += phase * norm_x
        v /= np.linalg.norm(v)
        # H x = -phase ||x|| e1; of the cleared column and row only this
        # subdiagonal entry is read again
        T[k + 1, k] = -phase * norm_x
        # H B H = B - v w* - w v* with p = 2 B v and w = p - (v* p) v,
        # applied as one rank-2 product
        B = T[k + 1 :, k + 1 :]
        p = 2.0 * (B @ v)
        w = p - np.vdot(v, p) * v
        B -= np.stack((v, w), axis=1) @ np.stack((w.conj(), v.conj()))
        Qk = Q[:, k + 1 :]
        Qk -= np.outer(2.0 * (Qk @ v), v.conj())
    sub = np.diagonal(T, -1)
    e = np.abs(sub)
    phases = np.ones(m, dtype=complex)
    nonzero = e > 0.0
    phases[1:][nonzero] = sub[nonzero] / e[nonzero]
    # S* T S with S = diag(cumprod(phases)) has subdiagonal |sub|
    Q *= np.cumprod(phases)
    return Q, np.diagonal(T).real.copy(), e


def _sweep(
    Q: np.ndarray, d: np.ndarray, e: np.ndarray, b: np.ndarray, mus: np.ndarray
) -> np.ndarray:
    """Columns Q* (A + mu_j I)^(-1) b, A = Q T Q*, by one Thomas sweep over all mu.

    Every mu must be positive and T positive definite, so each shifted
    tridiagonal system is positive definite and the sweep needs no pivoting;
    the pivots and ratios are real.
    """
    m = d.size
    rhs = Q.conj().T @ b
    # LDL* elimination of T + mu, each step over all mu at once
    ratios = np.empty((m, mus.size))
    y = np.empty((m, mus.size), dtype=complex)
    pivot = d[0] + mus
    y[0] = rhs[0] / pivot
    for k in range(1, m):
        ratios[k - 1] = e[k - 1] / pivot
        pivot = d[k] + mus - e[k - 1] * ratios[k - 1]
        y[k] = (rhs[k] - e[k - 1] * y[k - 1]) / pivot
    for k in range(m - 2, -1, -1):
        y[k] -= ratios[k] * y[k + 1]
    return y


@functools.lru_cache(maxsize=4)
def _cached_samples(A_key: tuple, b_key: tuple, mus_key: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(Q, Y) with Q @ Y[:, j] = (A + mu_j I)^(-1) b, for the content keys
    (group_models._content_key) of A, b and the nodes mus.

    Column j of Y holds the solution at mu_j in the tridiagonal basis of A,
    and Q is the unitary reduction.  Nothing is mapped back here: a caller
    that weights the columns maps the weighted sums back with Q, once each.
    A must be Hermitian positive definite and every mu > 0 (see _sweep).
    The last four sample sets are kept, read-only: equal content, in any
    memory order, returns the same arrays without reducing or sweeping, bit
    for bit what a fresh computation gives.  A key kept and passed again
    is neither copied nor hashed again.
    """
    A, b, mus = _from_key(A_key), _from_key(b_key), _from_key(mus_key)
    Q, d, e = _tridiagonalize(A)
    Y = _sweep(Q, d, e, b, mus)
    Q.flags.writeable = Y.flags.writeable = False
    return Q, Y


@functools.lru_cache(maxsize=4)
def _radial_grid(mu_min: float, mu_max: float, panels: int):
    """The read-only log-Gauss grid (us, ws) on [log mu_min, log mu_max] and the
    content key of its nodes mu = e^u; the last four windows are kept."""
    us, ws = gauss_panels(math.log(mu_min), math.log(mu_max), panels)
    us.flags.writeable = ws.flags.writeable = False
    return us, ws, _content_key(np.exp(us))


def _radial_integral(
    g: GroupModel,
    alphas: np.ndarray,
    x: np.ndarray,
    mu_min: float,
    mu_max: float,
    panels: int,
    tol: float,
) -> np.ndarray:
    """sin(pi a)/pi * integral_0^inf mu^(a-1) r(mu) dmu with analytic tails.

    Returns one row per exponent a of alphas, for r(mu) = (U_i + mu)^(-1)
    U_i x on the model g.  The samples Q @ Y[:, j] = r(mu_j) at the nodes
    of _radial_grid come from _cached_samples, handed the kept keys of U_i
    and of the nodes and the key of b = U_i x, the first tail vector.
    Every row is a weighted sum of the same samples, formed in the
    tridiagonal basis and mapped back with Q once per exponent.  The tails
    below mu_min and above mu_max are restored from the power series of r,
    which only needs the powers U_i^k x and U_i^(-k) x: products with U_i
    and with its exact inverse U_{-i}, the model's kept operators, so no
    system is solved (a solve against U_i would meet its condition number
    e^(2 max|h|)).
    """
    im_max = float(np.max(np.abs(alphas.imag)))
    if math.pi * im_max > _LOG_MAX_DOUBLE:
        raise OverflowRisk(f"sin(pi alpha) overflows at |Im alpha| = {im_max:.3f}")
    K = CORRECTION_TERMS
    Ui = g._U_i
    low_vecs, high_vecs = [x], [Ui @ x]
    for _ in range(K):
        low_vecs.append(g._U_minus_i @ low_vecs[-1])
        high_vecs.append(Ui @ high_vecs[-1])

    # term k of each series, k = 0..K below mu_min and k + 1 above mu_max;
    # the last column is the first omitted term and bounds the truncation error
    a = alphas[:, None]
    k = np.arange(K + 1)
    log_lo, log_hi = math.log(mu_min), math.log(mu_max)
    low = (-1.0) ** k * np.exp((a + k) * log_lo) / (a + k)
    high = (-1.0) ** k * np.exp((a - k - 1) * log_hi) / (k + 1 - a)
    prefactor = np.sin(math.pi * alphas) / math.pi
    est = np.abs(prefactor) * (
        np.abs(low[:, K]) * np.linalg.norm(low_vecs[K])
        + np.abs(high[:, K]) * np.linalg.norm(high_vecs[K])
    )
    xnorm = max(float(np.linalg.norm(x)), 1e-30)
    if np.max(est) > tol * xnorm:
        raise TruncationDominates(
            f"radial truncation estimate {np.max(est):.3e} "
            f"exceeds {tol:.1e} * ||x||; widen [mu_min, mu_max]"
        )

    us, ws, mus_key = _radial_grid(mu_min, mu_max, panels)
    Q, Y = _cached_samples(g._U_i_key, _content_key(high_vecs[0]), mus_key)
    # substitution mu = e^u turns mu^(a-1) dmu into e^(a u) du
    total = (
        ((ws * np.exp(a * us)) @ Y.T) @ Q.T
        + low[:, :K] @ np.array(low_vecs[:K])
        + high[:, :K] @ np.array(high_vecs[:K])
    )
    return prefactor[:, None] * total


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

    Each approximant is computed with alpha = -i z from the samples
    Pr1 (D + mu)^(-1) D (x, U_i x) = (U_i + mu)^(-1) U_i x, one per radial
    node and shared by the whole sequence, and equals U_z x to quadrature
    accuracy.  D = diag(U_i, U_i) is block diagonal, so its graph pair
    samples are those of U_i against U_i x, by the block structure alone:
    they come from the one sampler that reconstruct_Ut_cz uses too, a
    unitary tridiagonal reduction of U_i and a Thomas sweep over all
    nodes, kept by a small cache; no eigenvalues are computed.  The
    analytic tails take powers of U_i and of U_{-i}, its exact inverse,
    so no system is solved for them.  The reported error is against the
    exact oracle U_t x, so at z = t + i d it is the limit gap
    ||(e^(-dH) - I) x|| <= (e^(d max|h|) - 1) ||x||, of order d: it
    shrinks as Im z -> 0+ but never vanishes at a finite offset.  The
    report lists the approximants; it never extrapolates to d = 0.
    """
    t = float(t)
    x = as_state(g, x)
    zs = [complex(z) for z in z_sequence]
    if not (zs and math.isfinite(t) and all(cmath.isfinite(z) for z in zs)):
        raise ValueError(f"need finite t and a nonempty, finite z sequence, got {t}, {zs}")
    if not all(0.0 < z.imag < 1.0 for z in zs):
        raise ValueError(f"need 0 < Im z < 1, got {zs}")
    _check_window(g, mu_min, mu_max, panels)
    rows = _radial_integral(g, -1j * np.array(zs), x, mu_min, mu_max, panels, q.rel_tolerance)
    errors = np.linalg.norm(rows - apply_Uz(g, t, x), axis=1)
    steps = tuple(ReconstructionStep(z, float(e)) for z, e in zip(zs, errors))
    return ReconstructionReport(steps, rows[-1])


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
    The resolvent samples (U_i + lam)^(-1) U_i x are those of
    reconstruct_Ut_delta, from the same sampler and cache, so the two
    routes on one (g, x) share one reduction and one sweep; the analytic
    tails take powers of U_i and of its exact inverse U_{-i}, so no system
    is solved for them.
    """
    t = float(t)
    x = as_state(g, x)
    alphas = [complex(a) for a in alpha_sequence]
    if not (alphas and math.isfinite(t) and all(cmath.isfinite(a) for a in alphas)):
        raise ValueError(f"need finite t and a nonempty, finite alpha sequence, got {t}, {alphas}")
    if not all(0.0 < a.real < 1.0 for a in alphas):
        raise ValueError(f"need 0 < Re alpha < 1, got {alphas}")
    _check_window(g, mu_min, mu_max, panels)
    rows = _radial_integral(g, np.array(alphas), x, mu_min, mu_max, panels, q.rel_tolerance)
    forward = np.linalg.norm(rows - apply_Uz(g, t, x), axis=1)
    reverse = np.linalg.norm(rows - apply_Uz(g, -t, x), axis=1)
    steps = tuple(
        OrientationStep(a, float(f), float(r)) for a, f, r in zip(alphas, forward, reverse)
    )
    orientation = "reverse" if reverse[-1] <= forward[-1] else "forward"
    return OrientationReport(steps, rows[-1], orientation)


@dataclass(frozen=True)
class DecayFitReport:
    """Log-log fit of y(mu) = ||mu Q_mu x + Q_mu U_i x|| along a mu ray."""

    slope: float
    c_r_estimate: float
    fit_residual: float
    shift_max_rel_diff: float
    rows: tuple[tuple[float, float, float], ...]  # (|mu|, y_direct, y_shifted)


def _direct_line_plan(g: GroupModel, ps: list[KernelParam], q: QuadratureSpec, ratios):
    """One plan (T, npu) of the direct line, the window of its one row batch
    for every parameter of a ray.

    y(mu) = ||Q_mu w|| is about ||x|| nu/|mu|, while the integrand
    F(mu, t) U_t w is about ||x||: the two halves of w = mu x + U_i x nearly
    cancel under Q_mu.  The gate tracks the result, not the input, so each
    magnitude's plan is lengthened by that dynamic range, 1 + |mu|, and
    raised to _kernel_floor at ratios[j], a bound on the integrand over the
    result at ps[j].  The ray takes the longest truncation and the largest
    density of these plans: a longer, denser window only moves the inner
    edge of its outer panels outwards, so every gate still passes a priori.
    """
    T_ray, npu_ray = 0.0, 1
    for p, ratio in zip(ps, ratios):
        T, npu = _quadrature_plan(g, p, q)
        T = max(T + math.log1p(abs(p.mu)) / p.decay_rate, _kernel_floor(p, q, npu, ratio))
        T_ray, npu_ray = max(T_ray, T), max(npu_ray, npu)
    return T_ray, npu_ray


def _shifted_line_plan(
    g: GroupModel, ps: list[KernelParam], q: QuadratureSpec, r: float, ratios: np.ndarray
):
    """One plan (T, npu) of the shifted line, the window of its one row batch
    for every parameter of a ray.

    ps runs along the ray by magnitude.  The per-magnitude plan is taken at
    its longest (the smallest |mu|) and densest (an end of the ray), and
    1/sinh(pi z) has poles at z = 0 and z = i, at distances r and 1 - r from
    the line, so the nearer one sets a density too.  For |t| >= 1,
    |mu^(iz) / (2 sinh pi z)| <= |mu|^(-r) e^(-rate |t|) / (1 - e^(-2 pi)),
    and ratios[j] bounds the integrand's coordinates over the result at
    ps[j], so the tail gate passes a priori once the inner edge of the outer
    panels is past the point where 2/rate times the worst bound on the ray
    falls to the tolerance.
    """
    (T0, n0), (_, n1) = _quadrature_plan(g, ps[0], q), _quadrature_plan(g, ps[-1], q)
    npu = max(n0, n1, int(math.ceil(7.0 / min(r, 1.0 - r))))
    rate = ps[0].decay_rate
    worst = float(np.max(np.abs([p.mu for p in ps]) ** -r * ratios))
    edge = max(1.0, math.log(2.0 * worst / (q.rel_tolerance * rate * _SINH_FLOOR)) / rate)
    return max(T0, _truncation_for_edge(edge, npu)), npu


def _row_blocks(m: int, width: int) -> list[slice]:
    """Slices of the m rows of a line, to about _FIT_BLOCK entries of width each.

    Every block has at least two rows (when m does): numpy hands a one-row
    product to the BLAS's matrix-vector routine, which rounds differently
    from the matrix product of a block, so with no lone row the rows get
    the same bits at any block size.
    """
    step = max(2, _FIT_BLOCK // width)
    starts = list(range(0, max(m - 1, 1), step))
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [m])]


def _line_norms(g: GroupModel, density, coords, q, rate, T, npu, mags) -> np.ndarray:
    """||integral density_j(t) U_t w_j dt|| for each magnitude mags[j] of a ray, on one line.

    The orbit is the window's phase matrix exp(i t h) times the eigenbasis
    coordinates coords of w_j (one set for every row, or one per row), and
    density(ts, block) gives the density rows of a block of magnitudes.
    Each block is one row batch of integrate_vector on the line's window
    (T, npu), gated row by row at the ray's tail rate: a failing block
    raises, naming the magnitude of its row that misses its gate the most.
    """
    # at least the node count of the window integrate_vector takes for T
    width = int(2.0 * _window(T) * npu) + 32
    norms = np.empty(len(mags))
    for block in _row_blocks(len(mags), width):
        try:
            y = integrate_vector(
                functools.partial(_phase_matrix, g),
                lambda ts: density(ts, block),
                q,
                rate,
                T,
                npu,
                coords=coords if coords.ndim == 1 else coords[block],
            )
        except QuadratureNonConvergence as err:
            raise QuadratureNonConvergence(
                f"{err}, |mu| = {mags[block][err.row]!r}", row=block.start + err.row
            ) from err
        norms[block] = np.linalg.norm(y, axis=1)
    return norms


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

    Each line takes one window for the whole ray (_direct_line_plan,
    _shifted_line_plan), sized before it is sampled and sampled once, and
    integrates every magnitude on it as one row of one quadrature
    (_line_norms): one product of the density rows with the phase matrix
    exp(i t h), so a fit builds two phase matrices.  Each row is gated on
    its own edge panels and its own ||Q_mu w||.  Both windows are raised to
    where every magnitude's tail gate passes a priori, from the kernel's
    envelope and a bound on the integrand over the result taken from the
    coordinates of x.  The direct line is integrated first, then the
    shifted one.
    """
    if not (0.0 < r < 1.0):
        raise ValueError(f"r must lie in (0, 1), got {r}")
    x = as_state(g, x)
    if float(np.linalg.norm(x)) == 0.0:
        raise ValueError("x must be nonzero")
    mags = sorted(float(m) for m in mu_magnitudes)
    if not all(0.0 < m < math.inf for m in mags):
        raise ValueError("mu magnitudes must be positive and finite")
    if not math.isfinite(arg_mu):
        raise ValueError(f"arg_mu must be finite, got {arg_mu}")

    # every mu on the ray shares its decay rate
    require_quadrature_clearance(KernelParam(cmath.exp(1j * arg_mu)))
    # the slope is fitted over the largest decade, which needs three distinct magnitudes
    cut = max(mags, default=0.0) / 10.0 * (1.0 - 1e-12)
    distinct = len({m for m in mags if m >= cut})
    if distinct < 3:
        raise FitUnstable(
            f"only {distinct} distinct magnitudes in the top decade; need at least 3 for a fit"
        )

    # both lines integrate the phase matrix exp(i t h) of their window
    # times eigenbasis coordinates, those of w directly and of U_ir x
    # shifted; V is unitary, so the norms are taken in the eigenbasis
    c = _to_eigen(g, x)
    c_ui, c_shift = _phase_matrix(g, [1j, 1j * r]) * c
    ps = [KernelParam(m * cmath.exp(1j * arg_mu)) for m in mags]
    # both lines integrate to Q_mu w, w = mu x + U_i x, whose coordinates
    # nu/(nu + mu) c are at least nu/(nu + |mu|) c in modulus: the tail gate
    # compares against at least this norm
    nus = generator_spectrum(g)
    y_least = np.linalg.norm(nus / (nus + np.array(mags)[:, None]) * c, axis=1)
    c_ws = np.array([p.mu for p in ps])[:, None] * c + c_ui
    T, npu = _direct_line_plan(g, ps, q, np.linalg.norm(c_ws, axis=1) / y_least)
    T_shift, npu_shift = _shifted_line_plan(g, ps, q, r, np.linalg.norm(c_shift) / y_least)
    # the rate of the ray, at its smallest over the roundings of arg mu
    rate = min(p.decay_rate for p in ps)
    log_mus = np.array([cmath.log(p.mu) for p in ps])

    def shifted(ts, block):
        # i mu^(iz) / (e^{pi z} - e^{-pi z}) at z = t + ir, one row per mu
        z = ts + 1j * r
        return _over_double_sinh(1j, z, (1j * z) * log_mus[block, None])

    direct = _line_norms(
        g, lambda ts, block: kernel_rows(log_mus[block], ts), c_ws, q, rate, T, npu, mags
    )
    shift = _line_norms(g, shifted, c_shift, q, rate, T_shift, npu_shift, mags)
    rows = list(zip(mags, direct.tolist(), shift.tolist()))

    top = [row for row in rows if row[0] >= cut]
    lx = np.log10([row[0] for row in top])
    ly = np.log10([row[1] for row in top])
    slope, intercept = np.polyfit(lx, ly, 1)
    fit_residual = float(np.max(np.abs(slope * lx + intercept - ly)))
    if not fit_residual <= 0.1:
        raise FitUnstable(
            f"log-log fit residual {fit_residual:.3f} exceeds 0.1; "
            "y(mu) is not a clean power law over the top decade"
        )
    c_r = max(yd * m**r for m, yd, _ in rows)
    shift_rel = max(abs(yd - ys) / max(yd, 1e-30) for _, yd, ys in rows)
    return DecayFitReport(float(slope), float(c_r), fit_residual, shift_rel, tuple(rows))
