"""Gaussian mollification along the group orbit.

The mollified vector is

    x_n = sqrt(n/pi) * integral U_t x * exp(-n*t**2) dt,

a Gaussian average of the orbit.  In the Diagonal model the closed form is
componentwise multiplication by exp(-h_k**2/(4n)); the same formula holds
in the eigenbasis of a Hermitian model.  Mollification is a contraction,
commutes with every U_t, and x_n -> x as n grows with error of order
max_k h_k**2 / (4n).  The parameter n ranges over positive reals; nothing
in the construction needs integrality.  One quadrature of the phase matrix
exp(i t h) against the Gaussian gives the multipliers of all modes at once:
mollify applies them to the eigenbasis coordinates V* x and maps back once,
and mollify_operator is V diag(m) V*.

Also here: the commutation check for operators assembled by vector
quadrature.  If S commutes with every U_t then it commutes with any
integral of the form A = integral U_t dnu(t); the check first verifies the
hypothesis on sampled t, then measures ||A S x - S A x|| on sample vectors.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import HypothesisViolation
from .group_models import (
    GroupModel,
    _from_eigen,
    _phase_matrix,
    _spectral_matrix,
    _to_eigen,
    as_state,
    group_matrix,
)
from .vecint import QuadratureSpec, _panel_density, integrate_vector

_T_PROBES = (0.37, -1.13, 2.41, -3.7)


def _mollifier_factors(g: GroupModel, n: float, q: QuadratureSpec) -> np.ndarray:
    """The multipliers m_k = sqrt(n/pi) * integral exp(i t h_k) exp(-n t^2) dt of all modes.

    One quadrature of the phase matrix exp(i t h) against the Gaussian;
    its tail gate is relative to sqrt(g.dim), the norm of each phase row.
    """
    if not (n > 0.0 and math.isfinite(n)):
        raise ValueError(f"n must be positive and finite, got {n}")
    # Gaussian truncation: exp(-n*T^2) = tol at T = sqrt(log(1/tol)/n);
    # tail rate n*T is the conservative linearization of the quadratic
    # decay.  integrate_vector starts one step past T.
    T = max(1.0, math.sqrt(math.log(1.0 / q.rel_tolerance) / n))
    npu = max(_panel_density(q.rel_tolerance, g.max_exponent), math.ceil(8.0 * math.sqrt(n)))
    amp = math.sqrt(n / math.pi)
    return integrate_vector(
        lambda ts: _phase_matrix(g, ts),
        lambda ts: amp * np.exp(-n * np.asarray(ts) ** 2),
        q,
        tail_rate=n * T,
        truncation=T,
        nodes_per_unit=npu,
        scale_hint=math.sqrt(g.dim),
    )


def mollify(g: GroupModel, x, n: float, q: QuadratureSpec) -> np.ndarray:
    """Gaussian average sqrt(n/pi) * integral U_t x exp(-n t^2) dt: the
    multipliers of _mollifier_factors applied to the eigenbasis coordinates of x."""
    x = as_state(g, x)
    return _from_eigen(g, _mollifier_factors(g, n, q) * _to_eigen(g, x))


def mollify_oracle(g: GroupModel, x, n: float) -> np.ndarray:
    """Closed-form mollification: factors exp(-h_k^2/(4n)) in the eigenbasis."""
    factors = np.exp(-g.exponents**2 / (4.0 * n))
    return _from_eigen(g, factors * _to_eigen(g, as_state(g, x)))


def mollify_operator(g: GroupModel, n: float, q: QuadratureSpec) -> np.ndarray:
    """Matrix V diag(m) V* of the mollification map, m from _mollifier_factors."""
    return _spectral_matrix(g, _mollifier_factors(g, n, q))


def commutation_check(g: GroupModel, A, S, samples) -> float:
    """Worst relative commutation defect ||A S x - S A x|| / ||x||.

    S must commute with the group: the hypothesis ||S U_t - U_t S|| <= 1e-10
    relative is verified on fixed probe times first and a violation raises
    instead of returning a vacuous number.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("samples must hold at least one vector")
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
