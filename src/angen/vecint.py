"""Vector-valued quadrature along horizontal lines R + i*s.

Computes integrals of the form

    integral f(t + i*s) * density(t + i*s) dt,   t over the real line,

for a norm-bounded vector integrand f and a scalar density with an
exponential tail bound supplied by the caller.  The rule is composite
16-point Gauss-Legendre.  Truncation starts from the caller's tail decay
rate (T = log(1/tol) / tail_rate unless an explicit start is given) and the
window is widened until the analytic tail estimate drops below the
requested relative tolerance, or the truncation cap is reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteSample, QuadratureNonConvergence

GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(16)

# hard ceiling on the half-width of the integration window
TRUNCATION_CAP = 200.0

_TINY = 1e-300


@dataclass(frozen=True)
class QuadratureSpec:
    """Parameters of a line quadrature.

    rel_tolerance drives both the starting truncation and the tail
    acceptance gate; nodes_per_unit fixes the panel density (each panel
    carries 16 Gauss nodes and spans 16/nodes_per_unit units of t);
    line_offset_s shifts the integration line to R + i*s.
    """

    rel_tolerance: float = 1e-10
    nodes_per_unit: int = 8
    line_offset_s: float = 0.0

    def __post_init__(self) -> None:
        if not (1e-14 <= self.rel_tolerance <= 1e-2):
            raise ValueError(
                f"rel_tolerance must lie in [1e-14, 1e-2], got {self.rel_tolerance}"
            )
        if int(self.nodes_per_unit) < 1:
            raise ValueError("nodes_per_unit must be a positive integer")
        if not math.isfinite(self.line_offset_s):
            raise ValueError("line_offset_s must be finite")


def gauss_panels(lo: float, hi: float, panels: int):
    """Composite 16-point Gauss-Legendre nodes and weights on [lo, hi].

    The interval is cut into the given number of equal panels.  Nodes are
    returned in ascending order.
    """
    edges = np.linspace(lo, hi, panels + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    ts = (centers[:, None] + half * GAUSS_NODES[None, :]).ravel()
    ws = np.tile(half * GAUSS_WEIGHTS, panels)
    return ts, ws


def gauss_panel_nodes(lo: float, hi: float, nodes_per_unit: int):
    """Gauss panels on [lo, hi] with average node density at least nodes_per_unit.

    Panels have width at most 16/nodes_per_unit.
    """
    width = 16.0 / float(nodes_per_unit)
    return gauss_panels(lo, hi, max(1, int(math.ceil((hi - lo) / width))))


def _nodes(q: QuadratureSpec, T: float):
    """One truncation window [-T, T] of integrate_vector."""
    return gauss_panel_nodes(-T, T, q.nodes_per_unit)


def _sample(f, density, zs, vectorized: bool):
    if vectorized:
        vals = np.asarray(f(zs), dtype=complex)
        dens = np.asarray(density(zs), dtype=complex).ravel()
    else:
        vals = np.array([np.asarray(f(z), dtype=complex).ravel() for z in zs])
        dens = np.array([complex(density(z)) for z in zs])
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.shape[0] != len(zs) or dens.shape[0] != len(zs):
        raise ValueError("integrand returned an unexpected shape")
    return vals, dens


def integrate_vector(
    f,
    density,
    q: QuadratureSpec,
    tail_rate: float,
    truncation: float | None = None,
    max_truncation: float = TRUNCATION_CAP,
    scale_hint: float | None = None,
    vectorized: bool = False,
) -> np.ndarray:
    """Quadrature of integral f(t+is) * density(t+is) dt over the real line.

    tail_rate is the caller's exponential decay bound for |f * density|
    beyond the truncation window.  The returned vector carries a tail
    estimate below q.rel_tolerance relative to max(result norm, scale_hint);
    if that cannot be reached before max_truncation the computation raises
    QuadratureNonConvergence.  Summation runs in ascending node order so
    repeated calls are bit-identical.
    """
    if not (tail_rate > 0.0 and math.isfinite(tail_rate)):
        raise ValueError(f"tail_rate must be positive and finite, got {tail_rate}")
    if truncation is None:
        T = max(1.0, math.log(1.0 / q.rel_tolerance) / tail_rate)
    else:
        T = max(1.0, float(truncation))
    T = min(T, max_truncation)

    while True:
        ts, ws = _nodes(q, T)
        zs = ts + 1j * q.line_offset_s if q.line_offset_s != 0.0 else ts
        vals, dens = _sample(f, density, zs, vectorized)
        if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(dens))):
            raise NonFiniteSample("integrand produced non-finite samples")
        contrib = vals * (dens * ws)[:, None]
        result = np.add.reduce(contrib, axis=0)

        # conservative tail estimate: outermost panel magnitude decayed at
        # tail_rate on both sides, i.e. C*exp(-rate*T)/rate with C read off
        # the edge samples directly
        mags = np.abs(dens) * np.linalg.norm(vals, axis=1)
        k = min(16, mags.size)
        edge = max(float(np.max(mags[:k])), float(np.max(mags[-k:])))
        tail_est = 2.0 * edge / tail_rate

        scale = float(np.linalg.norm(result))
        if scale_hint is not None:
            scale = max(scale, float(scale_hint))
        scale = max(scale, _TINY)
        if tail_est <= q.rel_tolerance * scale:
            return result
        if T >= max_truncation - 1e-12:
            raise QuadratureNonConvergence(
                f"tail estimate {tail_est:.3e} exceeds "
                f"{q.rel_tolerance:.1e} * {scale:.3e} at truncation {T:.1f}"
            )
        T = min(max_truncation, max(T + 2.0, 1.3 * T))


def pairing_consistency_check(
    f,
    density,
    q: QuadratureSpec,
    probes,
    tail_rate: float,
    truncation: float | None = None,
) -> float:
    """Duality check for the vector integral.

    The defining property of the vector-valued integral y is that
    <y, phi> equals the scalar integral of <f(t), phi> * density(t) for
    every probe functional phi.  The scalar side here is computed with an
    independent adaptive routine (QUADPACK via scipy) rather than the
    panel rule, so agreement is meaningful.  Returns the worst absolute
    mismatch over the probes.
    """
    from scipy.integrate import quad

    y = integrate_vector(f, density, q, tail_rate, truncation=truncation)
    if truncation is None:
        T = max(1.0, math.log(1.0 / q.rel_tolerance) / tail_rate)
    else:
        T = max(1.0, float(truncation))
    T = min(1.5 * T + 2.0, TRUNCATION_CAP)
    s = q.line_offset_s

    worst = 0.0
    for phi in probes:
        phi = np.asarray(phi, dtype=complex).ravel()

        def scalar(t: float) -> complex:
            w = t + 1j * s
            return complex(np.vdot(phi, np.asarray(f(w), dtype=complex)) * density(w))

        re = quad(lambda t: scalar(t).real, -T, T, limit=400, epsabs=1e-13, epsrel=1e-12)[0]
        im = quad(lambda t: scalar(t).imag, -T, T, limit=400, epsabs=1e-13, epsrel=1e-12)[0]
        lhs = complex(np.vdot(phi, y))
        worst = max(worst, abs(lhs - (re + 1j * im)))
    return worst
