"""Gaussian mollification along the group orbit.

The mollified vector is

    x_n = sqrt(n/pi) * integral U_t x * exp(-n*t**2) dt,

a Gaussian average of the orbit.  In the Diagonal model the closed form is
componentwise multiplication by exp(-h_k**2/(4n)); the same formula holds
in the eigenbasis of a Hermitian model.  Mollification is a contraction,
commutes with every U_t, and x_n -> x as n grows with error of order
max_k h_k**2 / (4n).  The parameter n ranges over positive reals; nothing
in the construction needs integrality, and real n makes rate fitting
cleaner.

Also here: the commutation check for operators assembled by vector
quadrature.  If S commutes with every U_t then it commutes with any
integral of the form A = integral U_t dnu(t); the check first verifies the
hypothesis on sampled t, then measures ||A S x - S A x|| on sample vectors.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .errors import HypothesisViolation
from .group_models import GroupModel, apply_Uz_batch, as_state, group_matrix
from .vecint import QuadratureSpec, integrate_vector

_T_PROBES = (0.37, -1.13, 2.41, -3.7)


def _mollify_plan(g: GroupModel, n: float, q: QuadratureSpec):
    # Gaussian truncation: exp(-n*T^2) = tol at T = sqrt(log(1/tol)/n);
    # tail rate n*T is the conservative linearization of the quadratic decay
    T = max(1.0, math.sqrt(math.log(1.0 / q.rel_tolerance) / n))
    tail_rate = n * T
    npu = max(
        q.nodes_per_unit,
        int(math.ceil(0.8 * g.max_exponent)) + 4,
        int(math.ceil(8.0 * math.sqrt(n))),
    )
    return T, tail_rate, npu


def mollify(g: GroupModel, x, n: float, q: QuadratureSpec) -> np.ndarray:
    """Gaussian average sqrt(n/pi) * integral U_t x exp(-n t^2) dt."""
    if not (n > 0.0 and math.isfinite(n)):
        raise ValueError(f"n must be positive and finite, got {n}")
    x = as_state(g, x)
    T, tail_rate, npu = _mollify_plan(g, n, q)
    amp = math.sqrt(n / math.pi)

    def f(ts):
        return apply_Uz_batch(g, ts, x)

    def density(ts):
        return amp * np.exp(-n * np.asarray(ts) ** 2)

    return integrate_vector(
        f,
        density,
        replace(q, nodes_per_unit=npu),
        tail_rate=tail_rate,
        truncation=T,
        scale_hint=float(np.linalg.norm(x)),
    )


def mollify_oracle(g: GroupModel, x, n: float) -> np.ndarray:
    """Closed-form mollification: factors exp(-h_k^2/(4n)) in the eigenbasis."""
    x = as_state(g, x)
    factors = np.exp(-g.exponents**2 / (4.0 * n))
    if g.kind == "diagonal":
        return factors * x
    c = g.basis.conj().T @ x
    return g.basis @ (factors * c)


def mollify_operator(g: GroupModel, n: float, q: QuadratureSpec) -> np.ndarray:
    """Matrix of the mollification map, assembled column by column."""
    cols = []
    eye = np.eye(g.dim, dtype=complex)
    for k in range(g.dim):
        cols.append(mollify(g, eye[:, k], n, q))
    return np.stack(cols, axis=1)


def mollifier_convergence_report(
    g: GroupModel, x, n_sequence, q: QuadratureSpec
) -> list[tuple[float, float]]:
    """Pairs (n, ||x_n - x||) along an increasing sequence of widths."""
    ns = [float(n) for n in n_sequence]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_sequence must be strictly increasing")
    x = as_state(g, x)
    out = []
    for n in ns:
        xn = mollify(g, x, n, q)
        out.append((n, float(np.linalg.norm(xn - x))))
    return out


def fit_inverse_rate(report: list[tuple[float, float]]) -> float:
    """Least squares c in err ~ c/n over the tail of a convergence report.

    Uses the last half of the rows, where the quadratic Taylor term
    max h^2/(4n) dominates; returns the fitted constant c.
    """
    if not report:
        raise ValueError("the convergence report is empty")
    rows = report[len(report) // 2 :]
    ns = np.array([r[0] for r in rows])
    errs = np.array([r[1] for r in rows])
    inv = 1.0 / ns
    return float(np.dot(inv, errs) / np.dot(inv, inv))


def commutation_check(g: GroupModel, A, S, samples) -> float:
    """Worst relative commutation defect ||A S x - S A x|| / ||x||.

    S must commute with the group: the hypothesis ||S U_t - U_t S|| <= 1e-10
    relative is verified on fixed probe times first and a violation raises
    instead of returning a vacuous number.
    """
    A = np.asarray(A, dtype=complex)
    S = np.asarray(S, dtype=complex)
    scale = max(float(np.linalg.norm(S, 2)), 1e-30)
    for t in _T_PROBES:
        U = group_matrix(g, t)
        defect = float(np.linalg.norm(S @ U - U @ S, 2)) / scale
        if defect > 1e-10:
            raise HypothesisViolation(
                f"S does not commute with U_t at t={t}: relative defect {defect:.3e}"
            )
    worst = 0.0
    for x in samples:
        x = as_state(g, x)
        nx = max(float(np.linalg.norm(x)), 1e-30)
        worst = max(worst, float(np.linalg.norm(A @ (S @ x) - S @ (A @ x))) / nx)
    return worst
