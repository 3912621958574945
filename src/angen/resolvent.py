"""Kernel-averaged smoothing operator Q_mu, block resolvent, spectrum scans.

The smoothing operator is the kernel-weighted group average

    Q_mu = integral F(mu, t) * U_t dt,

computed by the line quadrature of vecint in the model's eigenbasis: one
quadrature per distinct exponent integrates the phase exp(i t h_k) to a
factor q_k, which every mode of that exponent takes, and the matrix is
mapped back as V diag(q) V*.  Each window is sized in advance from the
kernel's decay envelope (_kernel_floor), rounded up to whole panels so
that neighbouring mu share it (_qmu_plan), cut from its density's lattice
(vecint) and sampled once.
The modes share the phase matrix exp(i t h) of a window (_PhaseMemo, which
holds the model and reads only its exponents).  A memo keeps one matrix
for one call: one Q_mu, or one spectrum_scan, which visits its mu by
density, the widest window of each first, so that the windows nested in
it take row slices of its matrix and a scan builds one phase matrix per
density.  decay_bound_fit integrates Q_mu w for every magnitude of a ray
as that matrix times the coordinates V* w, in one row batch per line, and
needs no memo.
The spectral closed form of Q_mu on a model with generator eigenvalues
nu_k is diagonal (in the eigenbasis) with entries nu_k / (nu_k + mu)**2, i.e.
Q_mu = U_i * (U_i + mu)**(-2); the test suite first re-derives that closed
form by brute-force scalar quadrature before using it as an oracle.

Q_mu satisfies the central identity

    Q_mu U_{2i} x + 2*mu * Q_mu U_i x + mu**2 * Q_mu x = U_i x,

which is what makes the block operator

    R_mu = [[-Q_mu + I/mu,  -Q_mu/mu],
            [ mu*Q_mu,       Q_mu   ]]

act on graph pairs (x, U_i x) exactly as the resolvent (D + mu)**(-1) of
the doubled generator D = diag(U_i, U_i) restricted to the graph.  The
module verifies the two-sided inverse property, graph invariance, and
scans the resolvent norm over a mu grid against the exact spectral
distance 1/dist(-mu, {nu_k}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .group_models import (
    GroupModel,
    _phase_matrix,
    _spectral_matrix,
    analytic_generator,
    apply_Uz,
    as_state,
    generator_spectrum,
    require_graph_vector,
)
from .kernel import KernelParam, eval_kernel_array, l1_norm, require_quadrature_clearance
from .vecint import (
    QuadratureSpec,
    _panel_density,
    _panel_window_of,
    _truncation_for_edge,
    integrate_vector,
)

# the block resolvent contains 1/mu; degenerate parameters are rejected
MIN_ABS_MU = 1e-6


def _quadrature_plan(g: GroupModel, p: KernelParam, q: QuadratureSpec):
    """Envelope truncation estimate and node density for the F(mu, .) * U_t integrand.

    |F(mu, t) U_t x| <= C*(1+|t|)*exp(-decay_rate*|t|)*||x||/|mu|, so T
    grows like log(1/tol)/decay_rate; T counts the 1/|mu| where it exceeds
    1.  T leaves out the (1+|t|) factor and the outer panel that the tail
    gate reads, and integrate_vector adds one margin step for them; where
    that margin falls short, each caller raises T to _kernel_floor.  The
    node density must resolve oscillation at frequency max|h| + |log|mu||
    (group phases times mu**(i t)).
    """
    hmax = g.max_exponent
    log_mu = math.log(abs(p.mu))
    T = (
        math.log(1.0 / q.rel_tolerance) + math.log1p(hmax) + max(0.0, -log_mu)
    ) / p.decay_rate
    return T, _panel_density(q.rel_tolerance, hmax + abs(log_mu))


# |2 sinh(pi t)| >= e^(pi |t|) (1 - e^(-2 pi)) for |t| >= 1
_SINH_FLOOR = -math.expm1(-2.0 * math.pi)


def _kernel_floor(p: KernelParam, q: QuadratureSpec, npu: int, ratio: float) -> float:
    """A truncation estimate whose window passes the tail gate a priori on
    F(mu, t) f(t), where ratio bounds ||f(t)|| over the result the gate
    compares against.

    |F(mu, t)| <= (1+|t|) e^(-rate |t|) / (|mu| (1 - e^(-2 pi))), and the gate
    takes 2/rate times the largest sample in the outer panels, so it passes
    if rate t - log(1+t) >= L = log(2 ratio / (tol rate |mu| (1 - e^(-2 pi))))
    at every |t| past their inner edge.  One fixed-point step gives
    t1 >= 1/rate; log(1+t) lies below its tangent at t1, so the root of the
    tangent inequality is such an edge, exact to second order in t1 - root.
    """
    rate = p.decay_rate
    L = math.log(2.0 * ratio / (q.rel_tolerance * rate * abs(p.mu) * _SINH_FLOOR))
    t1 = max(1.0 / rate, (L + math.log1p(max(L, 0.0) / rate)) / rate)
    edge = (L + math.log1p(t1) - t1 / (1.0 + t1)) / (rate - 1.0 / (1.0 + t1))
    return _truncation_for_edge(edge, npu)


def _qmu_plan(g: GroupModel, p: KernelParam, q: QuadratureSpec):
    """Truncation estimate and node density of compute_Qmu's quadratures.

    The estimate of _quadrature_plan is raised to _kernel_floor at ratio
    1 and then rounded up to a whole number of panel widths 16/npu, so
    that neighbouring mu of a scan, whose estimates differ by less than a
    panel, plan one truncation.  Rounding only lengthens the window, so the
    floor still holds; vecint rounds the window, one margin step past the
    estimate, up to whole panels again.  The longer truncation is kept for
    its accuracy: without it the largest Q_mu error against the spectral
    oracle on the shipped configs (angen qmu) is 8.0e-13, not 1.7e-13, on
    diagonal_small and 1.5e-13, not 6.4e-15, on hermitian4, at no gain in
    speed.
    """
    T, npu = _quadrature_plan(g, p, q)
    T = max(T, _kernel_floor(p, q, npu, 1.0))
    width = 16.0 / npu
    return max(T, math.ceil(T / width) * width), npu


class _PhaseMemo:
    """phases(ts): the matrix exp(i t h) of a node array, one row per node,
    for the exponents h of one model.

    The memo keeps the matrix of one cached window and serves every window
    of the same lattice nested in it (see vecint._PanelWindow) its middle
    rows, a view that is bit for bit _phase_matrix on that window, as each
    row is the product of its panel's centre factor and its offset's
    factor.  A window of another lattice or a wider one builds a matrix
    that replaces the kept one; any other array builds afresh and is not
    kept.  A memo lives only as long as its caller: the matrices are never
    kept on the cached windows.
    """

    def __init__(self, g: GroupModel):
        self.exponents = g.exponents
        self._g = g
        # (nodes_per_unit, panels on each side) of the kept window
        self._kept = self._phases = None
        # the last window's node array and the rows served for it, which the
        # modes of one Q_mu ask for in turn
        self._ts = self._rows = None

    def __call__(self, ts) -> np.ndarray:
        if ts is self._ts:
            return self._rows
        window = _panel_window_of(ts)
        if window is None:
            return _phase_matrix(self._g, ts)
        npu, panels = window.lattice.nodes_per_unit, window.panels
        if self._kept is None or self._kept[0] != npu or self._kept[1] < panels:
            self._kept, self._phases = (npu, panels), _phase_matrix(self._g, ts)
        skip = 16 * (self._kept[1] - panels)
        self._ts = ts
        self._rows = self._phases[skip : skip + ts.size] if skip else self._phases
        return self._rows


def compute_Qmu(
    g: GroupModel,
    p: KernelParam,
    q: QuadratureSpec,
    *,
    phase_memo: _PhaseMemo | None = None,
    plan: tuple[float, int] | None = None,
) -> np.ndarray:
    """The matrix V diag(q) V* of Q_mu, one scalar line quadrature per distinct exponent.

    Mode k integrates its phase exp(i t h_k), q_k = integral F(mu, t)
    exp(i t h_k) dt, once for all modes of its exponent (the model's
    _exponent_classes), which then take that factor bit for bit.  The
    quadratures share one window, the kernel values the window keeps for
    this mu, and the phase matrix exp(i t h) of that window.  Each phase
    has unit modulus and the tail gate is relative to at least 1, so the
    window is the plan raised to _kernel_floor at ratio 1, rounded up to
    whole panels so that neighbouring mu share it (_qmu_plan).
    phase_memo, a _PhaseMemo of g's exponents, lets calls on one window, or
    on windows nested in it, share its phase matrix too (spectrum_scan
    passes one per scan); by default each call takes a fresh one.  plan is
    the pair (T, npu) that _qmu_plan gives for g, p and q, for a caller that
    holds it already (spectrum_scan orders its grid by the plans); by
    default the call plans.
    """
    require_quadrature_clearance(p)
    if phase_memo is None:
        phase_memo = _PhaseMemo(g)
    elif phase_memo.exponents is not g.exponents and not np.array_equal(
        phase_memo.exponents, g.exponents
    ):
        raise ValueError("phase_memo was made for a model with other exponents")
    T, npu = _qmu_plan(g, p, q) if plan is None else plan
    density = partial(eval_kernel_array, p)
    modes, index = g._exponent_classes
    factors = np.concatenate(
        [
            integrate_vector(
                lambda ts, k=k: phase_memo(ts)[:, k], density, q, p.decay_rate, T, npu, 1.0
            )
            for k in modes.tolist()
        ]
    )
    return _spectral_matrix(g, factors if modes.size == g.dim else factors[index])


def qmu_spectral_oracle(g: GroupModel, p: KernelParam) -> np.ndarray:
    """Exact Q_mu from the spectral closed form nu/(nu+mu)**2."""
    nus = generator_spectrum(g)
    return _spectral_matrix(g, nus / (nus + p.mu) ** 2)


def check_central_identity(g: GroupModel, p: KernelParam, Q: np.ndarray, x) -> float:
    """Relative residual of Q U_2i x + 2 mu Q U_i x + mu^2 Q x = U_i x for a built Q = Q_mu."""
    x = as_state(g, x)
    if float(np.linalg.norm(x)) == 0.0:
        raise ValueError("x must be nonzero")
    u1 = apply_Uz(g, 1j, x)
    u2 = apply_Uz(g, 2j, x)
    lhs = Q @ u2 + 2.0 * p.mu * (Q @ u1) + p.mu**2 * (Q @ x)
    return float(np.linalg.norm(lhs - u1) / np.linalg.norm(u1))


@dataclass(frozen=True)
class BlockOperator:
    """A 2x2 block operator on pairs from C^n x C^n.

    The blocks may also be stacks (N, n, n) of such blocks, one operator
    per leading index; as_matrix then returns the stack of matrices.
    """

    a11: np.ndarray
    a12: np.ndarray
    a21: np.ndarray
    a22: np.ndarray

    def as_matrix(self) -> np.ndarray:
        *stack, n, m = self.a11.shape
        blocks = (self.a11, self.a12, self.a21, self.a22)
        M = np.empty(
            (*stack, n + self.a21.shape[-2], m + self.a12.shape[-1]), np.result_type(*blocks)
        )
        M[..., :n, :m], M[..., :n, m:], M[..., n:, :m], M[..., n:, m:] = blocks
        return M


def ampliation(g: GroupModel) -> BlockOperator:
    """The doubled generator D = diag(U_i, U_i) acting on pairs, from the model's kept U_i.

    Being block diagonal, D acts on each component alone: Pr1 (D + mu)^(-1) D
    on a graph pair (x, U_i x) is (U_i + mu)^(-1) U_i x, so the radial
    reconstruction never forms D.  Its as_matrix() is built on each call.
    """
    Ui = analytic_generator(g)
    zero = np.zeros_like(Ui)
    return BlockOperator(Ui, zero, zero, Ui)


def _require_invertible_blocks(p: KernelParam) -> None:
    if abs(p.mu) < MIN_ABS_MU:
        raise ValueError(
            f"|mu| = {abs(p.mu):.2e} below {MIN_ABS_MU:.0e}; the blocks contain 1/mu"
        )


def _resolvent_blocks(Q: np.ndarray, mu) -> BlockOperator:
    """R_mu = [[-Q + I/mu, -Q/mu], [mu Q, Q]] for Q = Q_mu, or for a stack
    of them (N, n, n) with mu of shape (N, 1, 1)."""
    eye = np.eye(Q.shape[-1], dtype=complex)
    return BlockOperator(-Q + eye / mu, -Q / mu, mu * Q, Q)


def build_Rmu(g: GroupModel, p: KernelParam, q: QuadratureSpec) -> BlockOperator:
    """The block resolvent candidate built from Q_mu."""
    _require_invertible_blocks(p)
    return _resolvent_blocks(compute_Qmu(g, p, q), p.mu)


def graph_action_matrices(g: GroupModel, R: BlockOperator) -> tuple[np.ndarray, np.ndarray]:
    """Matrices x -> first and second component of R(x, U_i x).

    On the graph the first component should equal (U_i + mu)**(-1) x and the
    second U_i (U_i + mu)**(-1) x.
    """
    Ui = analytic_generator(g)
    return R.a11 + R.a12 @ Ui, R.a21 + R.a22 @ Ui


@dataclass(frozen=True)
class ResolventReport:
    """Worst-case residuals of the inverse identities over graph samples."""

    apply_after_residual: float
    apply_before_residual: float
    graph_invariance_residual: float
    num_samples: int


def verify_resolvent_identities(
    g: GroupModel, p: KernelParam, R: BlockOperator, samples
) -> ResolventReport:
    """Residuals of (D + mu) R v = v and R (D + mu) v = v on graph vectors, for a built R = R_mu.

    Also measures how far R v strays from the graph (it should stay on it:
    the image is again a pair (w, U_i w), which in finite dimension already
    lies in the domain of the squared generator).
    """
    samples = list(samples)
    if not samples:
        raise ValueError("samples must hold at least one graph pair")
    for v in samples:
        require_graph_vector(g, v)
    M = R.as_matrix()
    A = ampliation(g).as_matrix() + p.mu * np.eye(2 * g.dim)
    Ui = analytic_generator(g)

    after = before = invariance = 0.0
    for v in samples:
        w = v.stacked()
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            raise ValueError("graph pairs must be nonzero")
        out = M @ w
        after = max(after, float(np.linalg.norm(A @ out - w)) / nw)
        before = max(before, float(np.linalg.norm(M @ (A @ w) - w)) / nw)
        top, bot = out[: g.dim], out[g.dim :]
        scale = max(float(np.linalg.norm(top)), 1e-30)
        invariance = max(invariance, float(np.linalg.norm(bot - Ui @ top)) / scale)
    return ResolventReport(after, before, invariance, len(samples))


@dataclass(frozen=True)
class ScanPoint:
    """One grid point of a resolvent norm scan."""

    mu: complex
    resolvent_norm: float
    oracle_distance: float
    lower_bound_ok: bool
    upper_bound_ok: bool


def _compressed(R: BlockOperator, P: np.ndarray) -> np.ndarray:
    """P* M P, the matrix of R compressed to the range of P (a stack for a stacked R)."""
    return P.conj().T @ R.as_matrix() @ P


def _block_bounds(params) -> np.ndarray:
    """The paper's bound B(mu) = ||[[phi + 1/|mu|, phi/|mu|], [|mu| phi, phi]]||_2
    on ||R_mu||, with phi = ||F(mu, .)||_L1, for each parameter in one batch."""
    phi = np.array([l1_norm(p) for p in params])
    r = np.abs([p.mu for p in params])
    blocks = np.stack([phi + 1.0 / r, phi / r, r * phi, phi], axis=-1).reshape(-1, 2, 2)
    return np.linalg.norm(blocks, 2, axis=(1, 2))


def spectrum_scan(g: GroupModel, mu_grid, q: QuadratureSpec) -> list[ScanPoint]:
    """Resolvent norms on the graph along a mu grid, with the exact distance oracle.

    Each grid entry mu parametrizes the resolvent at the point -mu, so the
    grid must avoid the ray (-inf, 0] in mu, equivalently the spectrum ray
    [0, inf) in -mu.  The norm is the largest singular value of the
    graph-restricted block matrix, taken for the whole grid in one stacked
    SVD; the oracle distance is dist(-mu, {nu_k}) and the flag records the
    lower bound norm >= 1/dist (up to 1e-6 slack).  A second flag records
    the paper's upper bound norm <= B(mu) (same slack), see _block_bounds.

    Every mu is checked before any quadrature runs.  The Q_mu are then
    computed by density and, within a density, widest plan first
    (_qmu_plan), each planned once, so that the scan's _PhaseMemo builds
    the phase matrix of each density's widest window once and serves every
    narrower window of that density its row slice; the memo is dropped
    when the scan returns.
    The blocks of every R_mu are formed as one stack and compressed to the
    graph in one batched product, on the graph basis the model keeps; the
    visiting order does not change a bit.
    """
    mus = [complex(m) for m in mu_grid]
    params = [KernelParam(m) for m in mus]  # raises BranchViolation on the cut
    for p in params:
        require_quadrature_clearance(p)
        _require_invertible_blocks(p)
    if not params:
        return []
    plans = [_qmu_plan(g, p, q) for p in params]
    phase_memo = _PhaseMemo(g)
    Q = np.empty((len(params), g.dim, g.dim), dtype=complex)
    # by density, the widest window of each first
    for i in sorted(range(len(params)), key=lambda i: (plans[i][1], -plans[i][0])):
        Q[i] = compute_Qmu(g, params[i], q, phase_memo=phase_memo, plan=plans[i])
    grid = np.array(mus)
    R = _resolvent_blocks(Q, grid[:, None, None])
    norms = np.linalg.svd(_compressed(R, g._graph_basis), compute_uv=False)[:, 0].tolist()
    dists = np.min(np.abs(grid[:, None] + generator_spectrum(g)), axis=1).tolist()
    bounds = _block_bounds(params).tolist()
    return [
        ScanPoint(mu, nrm, dist, nrm >= (1.0 / dist) * (1.0 - 1e-6), nrm <= b * (1.0 + 1e-6))
        for mu, nrm, dist, b in zip(mus, norms, dists, bounds)
    ]
