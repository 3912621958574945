"""Kernel-averaged smoothing operator Q_mu, block resolvent, spectrum scans.

The smoothing operator is the kernel-weighted group average

    Q_mu = integral F(mu, t) * U_t dt,

assembled column by column with the line quadrature of vecint.  Its
spectral closed form on a model with generator eigenvalues nu_k is
diagonal (in the eigenbasis) with entries nu_k / (nu_k + mu)**2, i.e.
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
from dataclasses import dataclass, replace

import numpy as np

from .group_models import (
    GraphVector,
    GroupModel,
    analytic_generator,
    apply_Uz,
    apply_Uz_batch,
    as_state,
    generator_spectrum,
    require_graph_vector,
)
from .kernel import KernelParam, eval_kernel_array, require_quadrature_clearance
from .vecint import QuadratureSpec, integrate_vector

# the block resolvent contains 1/mu; degenerate parameters are rejected
MIN_ABS_MU = 1e-6


def _quadrature_plan(g: GroupModel, p: KernelParam, q: QuadratureSpec):
    """Starting truncation and node density for the F(mu, .) * U_t integrand.

    |F(mu, t) U_t x| <= C*(1+|t|)*exp(-decay_rate*|t|)*||x||, so T grows
    like log(1/tol)/decay_rate; the extra log(1+max|h|) absorbs the
    polynomial factor.  The node density must resolve oscillation at
    frequency max|h| + |log|mu|| (group phases times mu**(i t)).
    integrate_vector clamps T to [1, TRUNCATION_CAP].
    """
    hmax = g.max_exponent
    T = (math.log(1.0 / q.rel_tolerance) + math.log1p(hmax)) / p.decay_rate
    npu = max(
        q.nodes_per_unit,
        int(math.ceil(0.8 * (hmax + abs(math.log(abs(p.mu)))))) + 4,
    )
    return T, npu


def _qmu_vector(
    g: GroupModel,
    p: KernelParam,
    q: QuadratureSpec,
    w: np.ndarray,
    scale_hint: float | None = None,
) -> np.ndarray:
    """Q_mu w by a single vector quadrature; scale_hint as in integrate_vector."""
    T, npu = _quadrature_plan(g, p, q)
    return integrate_vector(
        lambda ts: apply_Uz_batch(g, ts, w),
        lambda ts: eval_kernel_array(p, ts),
        replace(q, nodes_per_unit=npu, line_offset_s=0.0),
        tail_rate=p.decay_rate,
        truncation=T,
        scale_hint=scale_hint,
        vectorized=True,
    )


def compute_Qmu(g: GroupModel, p: KernelParam, q: QuadratureSpec) -> np.ndarray:
    """The matrix of Q_mu by column-wise line quadrature."""
    require_quadrature_clearance(p)
    eye = np.eye(g.dim, dtype=complex)
    # the tail gate of each column is relative to the unit input norm
    return np.stack(
        [_qmu_vector(g, p, q, eye[:, k], scale_hint=1.0) for k in range(g.dim)], axis=1
    )


def qmu_spectral_oracle(g: GroupModel, p: KernelParam) -> np.ndarray:
    """Exact Q_mu from the spectral closed form nu/(nu+mu)**2."""
    nus = generator_spectrum(g)
    vals = nus / (nus + p.mu) ** 2
    if g.kind == "diagonal":
        return np.diag(vals)
    return (g.basis * vals[None, :]) @ g.basis.conj().T


def check_central_identity(
    g: GroupModel, p: KernelParam, q: QuadratureSpec, x
) -> float:
    """Relative residual of Q_mu U_2i x + 2 mu Q_mu U_i x + mu^2 Q_mu x = U_i x."""
    x = as_state(g, x)
    if float(np.linalg.norm(x)) == 0.0:
        raise ValueError("x must be nonzero")
    Q = compute_Qmu(g, p, q)
    u1 = apply_Uz(g, 1j, x)
    u2 = apply_Uz(g, 2j, x)
    lhs = Q @ u2 + 2.0 * p.mu * (Q @ u1) + p.mu**2 * (Q @ x)
    return float(np.linalg.norm(lhs - u1) / np.linalg.norm(u1))


@dataclass(frozen=True)
class BlockOperator:
    """A 2x2 block operator on pairs from C^n x C^n."""

    a11: np.ndarray
    a12: np.ndarray
    a21: np.ndarray
    a22: np.ndarray

    def apply(self, pair) -> tuple[np.ndarray, np.ndarray]:
        if isinstance(pair, GraphVector):
            x, y = pair.first, pair.second
        else:
            x, y = pair
        return (self.a11 @ x + self.a12 @ y, self.a21 @ x + self.a22 @ y)

    def as_matrix(self) -> np.ndarray:
        return np.block([[self.a11, self.a12], [self.a21, self.a22]])


def ampliation(g: GroupModel) -> BlockOperator:
    """The doubled generator diag(U_i, U_i) acting on pairs."""
    Ui = analytic_generator(g)
    zero = np.zeros_like(Ui)
    return BlockOperator(Ui, zero, zero, Ui)


def build_Rmu(g: GroupModel, p: KernelParam, q: QuadratureSpec) -> BlockOperator:
    """The block resolvent candidate built from Q_mu."""
    if abs(p.mu) < MIN_ABS_MU:
        raise ValueError(
            f"|mu| = {abs(p.mu):.2e} below {MIN_ABS_MU:.0e}; the blocks contain 1/mu"
        )
    Q = compute_Qmu(g, p, q)
    eye = np.eye(g.dim, dtype=complex)
    return BlockOperator(-Q + eye / p.mu, -Q / p.mu, p.mu * Q, Q)


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
    g: GroupModel, p: KernelParam, q: QuadratureSpec, samples
) -> ResolventReport:
    """Residuals of (D + mu) R v = v and R (D + mu) v = v on graph vectors.

    Also measures how far R v strays from the graph (it should stay on it:
    the image is again a pair (w, U_i w), which in finite dimension already
    lies in the domain of the squared generator).
    """
    samples = list(samples)
    for v in samples:
        require_graph_vector(g, v)
    R = build_Rmu(g, p, q)
    M = R.as_matrix()
    D = ampliation(g).as_matrix()
    A = D + p.mu * np.eye(2 * g.dim)
    Ui = analytic_generator(g)

    after = before = invariance = 0.0
    for v in samples:
        w = v.stacked()
        nw = float(np.linalg.norm(w))
        after = max(after, float(np.linalg.norm(A @ (M @ w) - w)) / nw)
        before = max(before, float(np.linalg.norm(M @ (A @ w) - w)) / nw)
        out = M @ w
        top, bot = out[: g.dim], out[g.dim :]
        scale = max(float(np.linalg.norm(top)), 1e-30)
        invariance = max(
            invariance, float(np.linalg.norm(bot - Ui @ top)) / scale
        )
    return ResolventReport(after, before, invariance, len(samples))


@dataclass(frozen=True)
class ScanPoint:
    """One grid point of a resolvent norm scan."""

    mu: complex
    resolvent_norm: float
    oracle_distance: float
    lower_bound_ok: bool


def _graph_basis(g: GroupModel) -> np.ndarray:
    """Orthonormal basis of the graph subspace {(x, U_i x)} in C^{2n}."""
    Ui = analytic_generator(g)
    M = np.vstack([np.eye(g.dim, dtype=complex), Ui])
    P, _ = np.linalg.qr(M)
    return P


def graph_restricted_norm(g: GroupModel, R: BlockOperator, P: np.ndarray | None = None) -> float:
    """Largest singular value of R compressed to the graph subspace."""
    if P is None:
        P = _graph_basis(g)
    M = R.as_matrix()
    return float(np.linalg.norm(P.conj().T @ M @ P, 2))


def spectrum_scan(g: GroupModel, mu_grid, q: QuadratureSpec) -> list[ScanPoint]:
    """Resolvent norms on the graph along a mu grid, with the exact distance oracle.

    Each grid entry mu parametrizes the resolvent at the point -mu, so the
    grid must avoid the ray (-inf, 0] in mu, equivalently the spectrum ray
    [0, inf) in -mu.  The norm is the largest singular value of the
    graph-restricted block matrix; the oracle distance is
    dist(-mu, {nu_k}) and the flag records the lower bound
    norm >= 1/dist (up to 1e-6 slack).
    """
    mus = [complex(m) for m in mu_grid]
    params = [KernelParam(m) for m in mus]  # raises BranchViolation on the cut
    for p in params:
        require_quadrature_clearance(p)
    nus = generator_spectrum(g)
    P = _graph_basis(g)

    def one(p: KernelParam) -> ScanPoint:
        R = build_Rmu(g, p, q)
        nrm = graph_restricted_norm(g, R, P)
        dist = float(np.min(np.abs(p.mu + nus)))
        ok = bool(nrm >= (1.0 / dist) * (1.0 - 1e-6))
        return ScanPoint(p.mu, nrm, dist, ok)

    return [one(p) for p in params]
