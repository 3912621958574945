"""Vector-valued quadrature over the real line.

Computes integrals of the form

    integral f(t) * density(t) dt,   t over the real line,

for a norm-bounded vector integrand f and a scalar density with an
exponential tail bound supplied by the caller; both take the whole array
of nodes.  A line R + i*s is integrated by closures that evaluate at
t + i*s.  The rule is composite 16-point Gauss-Legendre.  Truncation
starts one widening step past the caller's envelope estimate and is
widened until the analytic tail estimate drops below the requested
relative tolerance, or the truncation cap is reached.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteSample, QuadratureNonConvergence

GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(16)

# hard ceiling on the half-width of the integration window
TRUNCATION_CAP = 200.0

_TINY = 1e-300
# the outermost panel on each side, read by the tail gate (a window has two or more)
_EDGE_ROWS = np.r_[0:16, -16:0]


@dataclass(frozen=True)
class QuadratureSpec:
    """Parameters of a line quadrature.

    rel_tolerance drives both the starting truncation and the tail
    acceptance gate; nodes_per_unit fixes the panel density (each panel
    carries 16 Gauss nodes and spans 16/nodes_per_unit units of t).
    """

    rel_tolerance: float = 1e-10
    nodes_per_unit: int = 8

    def __post_init__(self) -> None:
        if not (1e-14 <= self.rel_tolerance <= 1e-2):
            raise ValueError(
                f"rel_tolerance must lie in [1e-14, 1e-2], got {self.rel_tolerance}"
            )
        if int(self.nodes_per_unit) < 1:
            raise ValueError("nodes_per_unit must be a positive integer")


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


@functools.lru_cache(maxsize=16)
def gauss_panel_nodes(lo: float, hi: float, nodes_per_unit: int):
    """Gauss panels on [lo, hi] with average node density at least nodes_per_unit.

    Panels have width at most 16/nodes_per_unit, and their count is even.
    The arrays are cached and read-only: the eigenmodes of one Q_mu share
    a window, so all but the first get it from the cache.
    """
    width = 16.0 / float(nodes_per_unit)
    panels = max(1, int(math.ceil((hi - lo) / width)))
    # On a window [-T, T] an odd count centres a panel at t = 0, right
    # under the kernel's poles at t = +-i, and that panel's error dominates
    # (compute_Qmu on a 4-mode diagonal model at mu = 0.5: 6.9e-12 relative
    # error).  An even count puts a panel edge there, where the pole lies
    # on a larger Bernstein ellipse of both neighbouring panels (4.9e-15).
    ts, ws = gauss_panels(lo, hi, panels + panels % 2)
    ts.flags.writeable = ws.flags.writeable = False
    return ts, ws


def _nodes(q: QuadratureSpec, T: float):
    """One truncation window [-T, T] of integrate_vector."""
    return gauss_panel_nodes(-T, T, q.nodes_per_unit)


def _widen(T: float) -> float:
    """The next truncation window after the tail gate rejects [-T, T]."""
    return min(TRUNCATION_CAP, max(T + 2.0, 1.3 * T))


def _sample(f, density, ts):
    vals = np.asarray(f(ts), dtype=complex)
    dens = np.asarray(density(ts), dtype=complex).ravel()
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.shape[0] != len(ts) or dens.shape[0] != len(ts):
        raise ValueError("integrand returned an unexpected shape")
    return vals, dens


def integrate_vector(
    f,
    density,
    q: QuadratureSpec,
    tail_rate: float,
    truncation: float,
    scale_hint: float | None = None,
) -> np.ndarray:
    """Quadrature of integral f(t) * density(t) dt over the real line.

    f maps the array of nodes to an array with one row per node (a 1-d
    result is read as one column); density maps it to one value per node.
    tail_rate is the caller's exponential decay bound for |f * density|
    beyond the truncation window.  truncation is the caller's envelope
    estimate, where the decay bound alone reaches the tolerance; it leaves
    out polynomial factors of the envelope and the outer panel that the
    tail gate reads, so the first window is one _widen step past it
    (clamped to [1, TRUNCATION_CAP]).  The returned vector carries a tail
    estimate below q.rel_tolerance relative to max(result norm, scale_hint);
    if that cannot be reached before TRUNCATION_CAP the computation raises
    QuadratureNonConvergence.  The weighted sum over nodes is one BLAS
    product per window, so repeated calls are bit-identical.
    """
    if not (tail_rate > 0.0 and math.isfinite(tail_rate)):
        raise ValueError(f"tail_rate must be positive and finite, got {tail_rate}")
    T = max(1.0, _widen(float(truncation)))

    while True:
        ts, ws = _nodes(q, T)
        vals, dens = _sample(f, density, ts)
        if not (np.isfinite(vals).all() and np.isfinite(dens).all()):
            raise NonFiniteSample("integrand produced non-finite samples")
        result = (dens * ws) @ vals

        # conservative tail estimate: outermost panel magnitude decayed at
        # tail_rate on both sides, i.e. C*exp(-rate*T)/rate with C read off
        # the edge samples directly
        edge = np.abs(dens[_EDGE_ROWS]) * np.linalg.norm(vals[_EDGE_ROWS], axis=1)
        tail_est = 2.0 * float(edge.max()) / tail_rate

        scale = float(np.linalg.norm(result))
        if scale_hint is not None:
            scale = max(scale, float(scale_hint))
        scale = max(scale, _TINY)
        if tail_est <= q.rel_tolerance * scale:
            return result
        if T >= TRUNCATION_CAP - 1e-12:
            raise QuadratureNonConvergence(
                f"tail estimate {tail_est:.3e} exceeds "
                f"{q.rel_tolerance:.1e} * {scale:.3e} at truncation {T:.1f}"
            )
        T = _widen(T)
