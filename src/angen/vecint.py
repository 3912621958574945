"""Vector-valued quadrature over the real line.

Computes integrals of the form

    integral f(t) * density(t) dt,   t over the real line,

for a norm-bounded vector integrand f and a scalar density with an
exponential tail bound supplied by the caller; both take the whole array
of nodes.  A line R + i*s is integrated by closures that evaluate at
t + i*s.  The rule is composite 16-point Gauss-Legendre on one window,
one margin step past the caller's truncation estimate, clamped to
[1, TRUNCATION_CAP] and rounded up to whole panels, at least as dense as
the tolerance needs (_panel_density).  Callers size both in advance, so
that the analytic tail estimate read off the outer panels meets the
requested relative tolerance; a window that misses it raises instead of
being widened.
The weighted sum is one BLAS product, and the samples are scanned for
non-finite values only when that sum is not finite or a weight is 0.

A row batch (decay_bound_fit's lines) integrates a block (m, N) of
density rows against one f in one product, each row gated on its own by
the one tail gate (_require_tail); the one-row quadrature of compute_Qmu
and the mollifier keeps its own path, its bits and its numpy calls.

Every window is cut from one lattice per nodes_per_unit (_Lattice): panels
of exactly w = 16/nodes_per_unit, centred at c_j = (j + 1/2) w, with an edge
at t = 0, their nodes the sums c_j + d_m of the centres and the scaled Gauss
offsets d_m.  A half-width T takes ceil(T nodes_per_unit / 16) panels on
each side of 0, so a node has the same bits in every window it belongs to,
a window is symmetric about 0 (ts[::-1] == -ts), and all windows of one
density nest.  The windows of the last 16 panel counts are cached (_nodes)
as read-only contiguous views of the lattice, which is rebuilt larger only
when a wider window is asked for; an evicted window comes back as a slice.
A cached window keeps what its nodes' integrands share: the centres and
offsets, its slice of the kernel's mu-independent row (kept once per
lattice) and the kernel values of the last mu.
_panel_window_of recognises a cached node array by identity, so
group_models._phase_matrix, the one source of the orbit phases of every
quadrature, can take the phases exp(i t h) as exp(i c_j h) * exp(i d_m h),
and eval_kernel_array its oscillation exp(i t log|mu|) the same way,
reusing the row and the values; every other array takes the per-node
paths.  Neighbouring mu of a scan, whose truncation estimates differ by
less than a panel, share one window, and the phase matrix of the widest
window serves the nested ones as row slices (resolvent._PhaseMemo).
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteSample, QuadratureNonConvergence

GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(16)

# hard ceiling on the half-width a window is planned for (its whole panels
# reach past it by less than one panel)
TRUNCATION_CAP = 200.0
# the accepted range of QuadratureSpec.rel_tolerance
REL_TOLERANCE_MIN, REL_TOLERANCE_MAX = 1e-14, 1e-2

_TINY = 1e-300


@dataclass(frozen=True)
class QuadratureSpec:
    """The relative tolerance of a line quadrature: it sets the window, density and tail gate."""

    rel_tolerance: float = 1e-10

    def __post_init__(self) -> None:
        if not (REL_TOLERANCE_MIN <= self.rel_tolerance <= REL_TOLERANCE_MAX):
            raise ValueError(
                f"rel_tolerance must lie in [{REL_TOLERANCE_MIN}, {REL_TOLERANCE_MAX}], "
                f"got {self.rel_tolerance}"
            )


def _panel_density(rel_tolerance: float, frequency: float) -> int:
    """Gauss nodes per unit of t for oscillation at frequency and rel_tolerance.

    Panels of 16/npu units put the kernel's poles t = +-i on the Bernstein
    ellipse rho - 1/rho = npu/4, where the 16-node rule errs like rho^(-32)
    (Trefethen, Approximation Theory and Approximation Practice, Thm 19.3):
    rho = (10/tol)^(1/32) keeps a factor 10.  At least 8, so that no panel
    is wider than the margin step of _window.
    """
    rho = (10.0 / rel_tolerance) ** (1.0 / 32.0)
    return max(8, math.ceil(4.0 * (rho - 1.0 / rho)), math.ceil(0.8 * frequency) + 4)


def gauss_panels(lo: float, hi: float, panels: int):
    """Composite 16-point Gauss-Legendre nodes and weights on [lo, hi].

    The interval is cut into the given number of equal panels.  Nodes are
    returned in ascending order.
    """
    edges = np.linspace(lo, hi, panels + 1)
    centres = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    ts = (centres[:, None] + half * GAUSS_NODES[None, :]).ravel()
    return ts, np.tile(half * GAUSS_WEIGHTS, panels)


class _Lattice:
    """The panels of width w = 16/nodes_per_unit on [-panels w, panels w].

    Panel j (-panels <= j < panels) is centred at c_j = (j + 1/2) w, computed
    from j alone, and holds the nodes c_j + d_m of the 16 scaled Gauss
    offsets d_m, with the weights (w/2) gauss_m (complex, so that weighting
    complex samples casts nothing: w and w + 0j give the same products).
    A node therefore has the same bits in a lattice of any extent, and the
    nodes are symmetric about 0, where a panel edge lies.  kernel_row is a
    slot for the kernel's mu-independent row on ts, which the kernel fills.
    """

    __slots__ = ("nodes_per_unit", "panels", "centres", "offsets", "ts", "ws", "kernel_row",
                 "__weakref__")

    def __init__(self, nodes_per_unit: int, panels: int):
        width = 16.0 / nodes_per_unit
        self.nodes_per_unit, self.panels = nodes_per_unit, panels
        self.centres = (np.arange(-panels, panels) + 0.5) * width
        self.offsets = (0.5 * width) * GAUSS_NODES
        self.ts = (self.centres[:, None] + self.offsets[None, :]).ravel()
        self.ws = np.tile((0.5 * width) * GAUSS_WEIGHTS, 2 * panels).astype(complex)
        for arr in (self.ts, self.ws, self.centres, self.offsets):
            arr.flags.writeable = False
        self.kernel_row = None


class _PanelWindow:
    """One cached window: the middle panels of a lattice, the given number
    on each side of 0, as read-only contiguous views of the lattice's nodes
    ts, weights ws and centres (node ts[16 j + m] is centres[j] + offsets[m]).
    kernel_row and kernel_last are slots that the kernel fills: the window's
    slice of the lattice's kernel row (with the centres and offsets its
    phase factors take), and the pair (bits of mu, read-only kernel values
    on ts) of the last mu that eval_kernel_array was asked for."""

    __slots__ = ("lattice", "panels", "nodes", "ts", "ws", "centres", "offsets", "kernel_row",
                 "kernel_last", "__weakref__")

    def __init__(self, lattice: _Lattice, panels: int):
        skip = lattice.panels - panels
        self.lattice, self.panels = lattice, panels
        # the window's node range in the lattice
        self.nodes = slice(16 * skip, 16 * (skip + 2 * panels))
        self.ts, self.ws = lattice.ts[self.nodes], lattice.ws[self.nodes]
        self.centres, self.offsets = lattice.centres[skip : skip + 2 * panels], lattice.offsets
        self.kernel_row = self.kernel_last = None


# The lattices by nodes_per_unit, each held by the cached windows cut from it
# and freed with the last of them.
_LATTICES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
# The windows the cache holds, by the identity of their node arrays.  The
# cache holds the only reference to a window, so a window it evicts leaves
# this index too, and its node array is an ordinary array from then on.
_CACHED_WINDOWS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@functools.lru_cache(maxsize=16)
def _cached_window(panels: int, nodes_per_unit: int) -> _PanelWindow:
    """The window of the given number of panels on each side of 0.

    It is cut from the lattice of nodes_per_unit, which is rebuilt larger
    only when it holds fewer panels, so a window the cache evicted comes
    back as a slice.
    """
    lattice = _LATTICES.get(nodes_per_unit)
    if lattice is None or lattice.panels < panels:
        lattice = _LATTICES[nodes_per_unit] = _Lattice(nodes_per_unit, panels)
    window = _PanelWindow(lattice, panels)
    _CACHED_WINDOWS[id(window.ts)] = window
    return window


def _panel_window_of(ts) -> _PanelWindow | None:
    """The cached window whose node array is ts itself, else None.

    A copy, a slice, a shifted line ts + i r and a window the cache has
    evicted are not recognised, and take the per-node paths.
    """
    window = _CACHED_WINDOWS.get(id(ts))
    return window if window is not None and window.ts is ts else None


def _nodes(T: float, nodes_per_unit: int):
    """The cached, read-only nodes and weights (complex, with zero imaginary
    parts) of the ceil(T nodes_per_unit / 16) lattice panels, each exactly
    16/nodes_per_unit wide, on each side of 0: [-T, T] rounded up to whole
    panels (see _Lattice and _PanelWindow).  The cache is keyed by the
    panel count, so every T of one count shares one window."""
    window = _cached_window(max(1, math.ceil(T * nodes_per_unit / 16.0)), nodes_per_unit)
    return window.ts, window.ws


def _window(truncation: float) -> float:
    """The half-width integrate_vector samples for a truncation estimate.

    It is one margin step past the estimate, for the polynomial factors
    of an envelope and the outer panel that the tail gate reads, clamped
    to [1, TRUNCATION_CAP]; _nodes rounds it up to whole panels.
    """
    return max(1.0, min(TRUNCATION_CAP, max(truncation + 2.0, 1.3 * truncation)))


def _truncation_for_edge(edge: float, nodes_per_unit: int) -> float:
    """A truncation estimate whose window puts the inner edge of its outer
    panels at |t| >= edge (below the cap).

    A panel is 16/nodes_per_unit wide and the window is rounded up to
    whole panels, so a window that reaches edge plus that width has its
    outer panels' inner edges past edge; the margin of _window is then
    inverted.
    """
    reach = edge + 16.0 / nodes_per_unit
    return min(reach - 2.0, reach / 1.3)


def _sample(f, density, ts):
    vals = np.asarray(f(ts), dtype=complex)
    dens = np.asarray(density(ts), dtype=complex)
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.shape[0] != len(ts) or dens.shape[-1] != len(ts) or not 1 <= dens.ndim <= 2:
        raise ValueError("integrand returned an unexpected shape")
    return vals, dens


@np.errstate(invalid="ignore")
def _weighted_sum(dens, ws, vals):
    """The weights dens * ws and the one BLAS product weights @ vals.

    dens is one row of values or a block (m, N) of them.  A non-finite
    sample sets the "invalid" flag here; integrate_vector reports it as
    NonFiniteSample, so numpy does not warn of it.
    """
    weights = dens * ws
    return weights, weights @ vals


def _require_finite(*samples) -> None:
    """Raise NonFiniteSample if any of the sample arrays holds a nan or an inf."""
    if not all(np.isfinite(a).all() for a in samples):
        raise NonFiniteSample("integrand produced non-finite samples")


def _require_tail(tail_est: float, scale: float, q: QuadratureSpec, T: float, row=None) -> None:
    """The tail gate: tail_est at most q.rel_tolerance * max(scale, tiny), or
    QuadratureNonConvergence, naming row for a row batch."""
    scale = max(scale, _TINY)
    # "not <=" so that a tail estimate that is not a number fails the gate
    if not tail_est <= q.rel_tolerance * scale:
        where = "" if row is None else f" in row {row}"
        raise QuadratureNonConvergence(
            f"tail estimate {tail_est:.3e} exceeds "
            f"{q.rel_tolerance:.1e} * {scale:.3e} at the planned window {T:.1f}{where}",
            row=row,
        )


def integrate_vector(
    f,
    density,
    q: QuadratureSpec,
    tail_rate: float,
    truncation: float,
    nodes_per_unit: int,
    scale_hint: float | None = None,
    coords=None,
) -> np.ndarray:
    """Quadrature of integral f(t) * density(t) dt over the real line.

    f maps the array of nodes to an array with one row per node (a 1-d
    result is read as one column); density maps it to one value per node.
    tail_rate is the caller's exponential decay bound for |f * density|
    beyond the truncation window.  truncation is the caller's estimate,
    sized in advance so that the decay bound has fallen to the tolerance
    at the inner edge of the window's outer panels; the one window sampled
    is one margin step past it (see _window), rounded up to whole panels
    of the caller's planned density nodes_per_unit.  The tail gate reads the
    outer panel on each side: if its estimate exceeds q.rel_tolerance
    relative to max(result norm, scale_hint), the window was planned too
    short and the computation raises QuadratureNonConvergence.  The
    weighted sum over nodes is one BLAS product, so repeated calls are
    bit-identical.

    A density that returns a block (m, N) of rows, or a call with coords,
    is a row batch (_integrate_rows): row j of the result is the integral
    of density_j(t) * f(t) * coords_j, with coords one set (k,) for every
    row or one set per row (m, k).  A (1, N) density gives the bits of the
    same density as (N,) with coords.

    A non-finite sample raises NonFiniteSample.  The samples are scanned
    only when the weighted sum is not finite or some weight density * w
    is exactly 0, and the test is exact: under IEEE arithmetic a nan or
    inf sample at a nonzero weight makes the sum non-finite (inf times a
    nonzero finite number is inf, and inf - inf and nan are nan), and the
    one product a BLAS may skip is one with a zero multiplier, which the
    scan covers.  A sum that overflows from finite samples is scanned and
    returned as it is.
    """
    if not (tail_rate > 0.0 and math.isfinite(tail_rate)):
        raise ValueError(f"tail_rate must be positive and finite, got {tail_rate}")
    if not nodes_per_unit >= 1:
        raise ValueError(f"nodes_per_unit must be at least 1, got {nodes_per_unit}")
    T = _window(float(truncation))
    ts, ws = _nodes(T, nodes_per_unit)
    vals, dens = _sample(f, density, ts)
    if coords is not None or dens.ndim == 2:
        return _integrate_rows(vals, dens, ws, coords, q, tail_rate, T, scale_hint)
    weights, result = _weighted_sum(dens, ws, vals)
    norm = abs(result[0]) if result.size == 1 else float(np.linalg.norm(result))
    if not math.isfinite(norm) or np.count_nonzero(weights) < weights.size:
        _require_finite(vals, dens)

    # conservative tail estimate: outermost panel magnitude decayed at
    # tail_rate on both sides, i.e. C*exp(-rate*T)/rate with C read off
    # the edge samples directly: the first and the last panel of 16 rows,
    # taken as views; a scalar integrand needs no row norms
    last = ts.size // 16 - 1
    edge = dens.reshape(-1, 16)[::last, :, None] * vals.reshape(last + 1, 16, vals.shape[1])[::last]
    size = np.abs(edge) if edge.shape[2] == 1 else np.linalg.norm(edge, axis=2)
    tail_est = 2.0 * float(size.max()) / tail_rate
    _require_tail(tail_est, norm if scale_hint is None else max(norm, float(scale_hint)), q, T)
    return result


def _integrate_rows(vals, dens, ws, coords, q, tail_rate, T, scale_hint):
    """The row batch of integrate_vector: row j is ((dens_j * w) @ vals) * coords_j.

    All rows take one product with the samples vals of f.  Each row is gated
    on its own edge panels, |dens_j(t)| * ||vals[t] * coords_j|| at the 32
    nodes of the outer panels, relative to max(||row j||, scale_hint):
    the squared norms come from one product |vals|^2 @ (|coords|^2)^T, so
    no (m, 32, k) block is formed.  Under IEEE division a row's estimate
    over its limit exceeds 1 exactly when the row misses its gate, so the
    row with the largest ratio (a nan first) goes to the one gate of
    integrate_vector, which names it.  The non-finite scan covers the
    coordinates too.
    """
    rows = dens.reshape(-1, dens.shape[-1])
    c = np.ones(vals.shape[1]) if coords is None else np.asarray(coords, dtype=complex)
    if c.shape[-1] != vals.shape[1] or c.ndim > 2 or (c.ndim == 2 and c.shape[0] != rows.shape[0]):
        raise ValueError("coordinates of an unexpected shape")
    weights, result = _weighted_sum(rows, ws, vals)
    with np.errstate(invalid="ignore"):
        result = result * c
        norms = np.linalg.norm(result, axis=1)
    if not np.isfinite(norms).all() or np.count_nonzero(weights) < weights.size:
        _require_finite(vals, rows, c)

    last = ws.size // 16 - 1
    edge_vals = vals.reshape(last + 1, 16, -1)[::last].reshape(32, -1)
    edge_norms = np.sqrt((edge_vals.real**2 + edge_vals.imag**2) @ (c.real**2 + c.imag**2).T)
    edge_dens = np.abs(rows.reshape(rows.shape[0], -1, 16)[:, ::last]).reshape(-1, 32)
    tail_est = 2.0 * (edge_dens * edge_norms.T).max(axis=1) / tail_rate
    scale = norms if scale_hint is None else np.maximum(norms, float(scale_hint))
    scale = np.maximum(scale, _TINY)
    j = int(np.argmax(tail_est / (q.rel_tolerance * scale)))
    _require_tail(float(tail_est[j]), float(scale[j]), q, T, row=j)
    return result if dens.ndim == 2 else result[0]
