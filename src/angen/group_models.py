"""Finite-dimensional one-parameter isometry groups with exact complex time.

Two model kinds are provided.  A Diagonal model is given by real exponents
h_1..h_n and acts as (U_z x)_k = exp(i*z*h_k) * x_k.  A Hermitian model is
given by a Hermitian matrix H and acts as U_z = exp(i*z*H), evaluated
through the eigendecomposition of H (numerically the most accurate route
for Hermitian inputs; scaling-and-squaring is kept test-side as a cross
check).  For real z both are isometries of l2; for complex z they realize
the analytic continuation exactly, which makes them ground-truth oracles
for every quadrature-based construction in this package.

The analytic generator is U at z = i, a positive definite matrix with
eigenvalues nu_k = exp(-h_k).  Pairs (x, U_i x) form its graph; the block
constructions downstream act on such pairs.  The operators that depend on
the model alone (U_i, U_{-i} and an orthonormal basis of the graph) are
built once per model, on first use, and kept on it read-only.

Every vector here is an entire analytic vector: in finite dimension the
orbit z -> U_z x is entire, so the domain subtleties of the general theory
collapse and identities can be tested against closed forms.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GraphMembershipViolation, OverflowRisk
from .vecint import _panel_window_of

# cap on |h_k| (or ||H||) so exp(2H) stays well inside double range
H_MAX = 20.0
# cap on |Im z| * H_MAX; exp(40) ~ 2.4e17 leaves headroom in double precision
OVERFLOW_GUARD = 40.0
# relative tolerance for the graph membership test
GRAPH_TOL = 1e-8

_HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class GroupModel:
    """A one-parameter isometry group on C^n with exact U_z evaluation.

    exponents holds the real eigenvalues h_k of the Hamiltonian; basis is
    the eigenvector matrix V (None for a Diagonal model, where V = I);
    generator_matrix keeps the original H of a Hermitian model.  All three
    are read-only copies taken at construction, so what the model derives
    from them cannot go stale: max_exponent = max |h_k|, _exponent_classes
    (the modes of each distinct exponent, which compute_Qmu integrates once),
    and the read-only operators built on first use and kept until the model
    is freed.  The operators are bit for bit what group_matrix builds, but
    through the private _group_matrix, so they count as no U_t rows computed.
    """

    kind: str
    exponents: np.ndarray
    basis: np.ndarray | None = None
    generator_matrix: np.ndarray | None = None
    max_exponent: float = field(init=False, repr=False, compare=False)
    _exponent_classes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        h = np.array(self.exponents, dtype=float)
        h.flags.writeable = False
        object.__setattr__(self, "exponents", h)
        object.__setattr__(self, "max_exponent", float(np.max(np.abs(h), initial=0.0)))
        object.__setattr__(self, "_exponent_classes", _exponent_classes(h))
        for name in ("basis", "generator_matrix"):
            if getattr(self, name) is not None:
                a = np.array(getattr(self, name))
                a.flags.writeable = False
                object.__setattr__(self, name, a)

    @cached_property
    def _U_i_key(self) -> tuple:
        """The content key (shape, dtype, bytes) of U_i, whose bytes back _U_i."""
        return _content_key(_group_matrix(self, 1j))

    @cached_property
    def _U_i(self) -> np.ndarray:
        """U_i = exp(-H), read-only."""
        return _from_key(self._U_i_key)

    @cached_property
    def _U_minus_i(self) -> np.ndarray:
        """U_{-i} = exp(H), the exact inverse of U_i, read-only."""
        m = _group_matrix(self, -1j)
        m.flags.writeable = False
        return m

    @cached_property
    def _graph_basis(self) -> np.ndarray:
        """An orthonormal basis of the graph {(x, U_i x)} in C^{2n}, read-only."""
        P, _ = np.linalg.qr(np.vstack([np.eye(self.dim, dtype=complex), self._U_i]))
        P.flags.writeable = False
        return P

    @staticmethod
    def diagonal(exponents) -> "GroupModel":
        h = np.atleast_1d(np.asarray(exponents, dtype=float)).ravel()
        if h.size == 0:
            raise ValueError("a model needs at least one exponent")
        if not np.all(np.isfinite(h)):
            raise ValueError("exponents must be finite")
        if float(np.max(np.abs(h))) > H_MAX:
            raise OverflowRisk(
                f"max |h_k| = {np.max(np.abs(h)):.3f} exceeds the cap {H_MAX}"
            )
        return GroupModel("diagonal", h)

    @staticmethod
    def hermitian(H) -> "GroupModel":
        H = np.asarray(H, dtype=complex)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError(f"generator must be square, got shape {H.shape}")
        scale = max(float(np.linalg.norm(H)), 1e-30)
        defect = float(np.linalg.norm(H - H.conj().T))
        if defect > _HERMITICITY_TOL * scale:
            raise ValueError(
                f"generator is not Hermitian: ||H - H*|| = {defect:.3e} "
                f"exceeds {_HERMITICITY_TOL:.0e} * ||H||"
            )
        evals, V = np.linalg.eigh(0.5 * (H + H.conj().T))
        if float(np.max(np.abs(evals))) > H_MAX:
            raise OverflowRisk(
                f"||H||_2 = {np.max(np.abs(evals)):.3f} exceeds the cap {H_MAX}"
            )
        return GroupModel("hermitian", evals, V, H)

    @property
    def dim(self) -> int:
        return int(self.exponents.size)


def _exponent_classes(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(modes, index), read-only: modes holds the first mode of each distinct
    exponent, in mode order, and index[k] the position in modes of the mode
    whose exponent (to the bit) is h_k.  Distinct exponents give
    0, 1, ..., n - 1 for both."""
    _, first, inverse = np.unique(h.view(np.uint64), return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    modes, index = first[order], rank[inverse]
    for a in (modes, index):
        a.flags.writeable = False
    return modes, index


def as_state(g: GroupModel, x) -> np.ndarray:
    """Validate and normalize x to a finite complex vector of the model's dimension."""
    x = np.asarray(x, dtype=complex).ravel()
    if x.size != g.dim:
        raise ValueError(f"vector has length {x.size}, model dimension is {g.dim}")
    if not np.all(np.isfinite(x)):
        raise ValueError("vector entries must be finite")
    return x


def _check_overflow(z: complex) -> None:
    if not cmath.isfinite(z):
        raise ValueError(f"time z must be finite, got {z}")
    if abs(complex(z).imag) * H_MAX > OVERFLOW_GUARD + 1e-12:
        raise OverflowRisk(
            f"|Im z| = {abs(complex(z).imag):.3f} exceeds "
            f"{OVERFLOW_GUARD / H_MAX:.1f} allowed by the overflow guard"
        )


def apply_Uz(g: GroupModel, z: complex, x) -> np.ndarray:
    """Exact U_z x: the phases exp(i z h_k) times the eigenbasis coordinates of x."""
    z = complex(z)
    _check_overflow(z)
    phases = np.exp(1j * z * g.exponents)
    return _from_eigen(g, phases * _to_eigen(g, as_state(g, x)))


def _phase_matrix(g: GroupModel, zs) -> np.ndarray:
    """The phases exp(i z h) for an array of (possibly complex) times, one row per time.

    It reads only g.exponents.  Every orbit integrand of a quadrature
    (Q_mu's modes, the mollifier, both lines of the decay fit) is this
    matrix times eigenbasis coordinates, and apply_Uz_batch maps it back.

    On a cached window of vecint._nodes, whose node 16 j + m is the sum of a
    panel centre c_j and a Gauss offset d_m, they are the products
    exp(i c_j h) * exp(i d_m h): panels + 16 exponentials per mode instead
    of one per node.  They differ from the per-node phases by the rounding
    of the arguments, a few units of eps * (1 + (|c_j| + |d_m|) max|h|).
    A row depends on its panel centre and offset alone, so the matrix of a
    window nested in another of its lattice is a row slice of the other's,
    bit for bit.
    """
    h = g.exponents
    window = _panel_window_of(zs)
    if window is not None:
        return (
            np.exp(1j * np.multiply.outer(window.centres, h))[:, None, :]
            * np.exp(1j * np.multiply.outer(window.offsets, h))[None, :, :]
        ).reshape(zs.size, h.size)
    zs = np.asarray(zs, dtype=complex).ravel()
    if not np.all(np.isfinite(zs)):
        raise ValueError("times z must be finite")
    if zs.size:
        _check_overflow(1j * float(np.max(np.abs(zs.imag))))
    return np.exp(1j * np.multiply.outer(zs, h))


def apply_Uz_batch(g: GroupModel, zs, x) -> np.ndarray:
    """U_z x for an array of (possibly complex) times; rows follow zs.

    The phases come from _phase_matrix, panel-factored on a cached window.
    """
    phases = _phase_matrix(g, zs)
    # one coordinate row per time: map the transpose, one column each
    return _from_eigen(g, (phases * _to_eigen(g, as_state(g, x))[None, :]).T).T


def _eigen_adjoint(g: GroupModel) -> np.ndarray:
    """V*, whose column k holds the eigenbasis coordinates of the unit vector e_k."""
    return np.eye(g.dim, dtype=complex) if g.kind == "diagonal" else g.basis.conj().T


def _to_eigen(g: GroupModel, x: np.ndarray) -> np.ndarray:
    """Eigenbasis coordinates V* x; the identity map for a Diagonal model."""
    return x if g.kind == "diagonal" else g.basis.conj().T @ x


def _from_eigen(g: GroupModel, c: np.ndarray) -> np.ndarray:
    """V c for coordinates c (a vector, or one column each); the inverse of _to_eigen."""
    return c if g.kind == "diagonal" else g.basis @ c


def _spectral_matrix(g: GroupModel, vals: np.ndarray) -> np.ndarray:
    """The matrix V diag(vals) V* that acts on eigenbasis coordinates as the factors vals."""
    if g.kind == "diagonal":
        return np.diag(vals)
    return (g.basis * vals[None, :]) @ g.basis.conj().T


def _group_matrix(g: GroupModel, z: complex) -> np.ndarray:
    z = complex(z)
    _check_overflow(z)
    return _spectral_matrix(g, np.exp(1j * z * g.exponents))


def group_matrix(g: GroupModel, z: complex) -> np.ndarray:
    """The matrix of U_z."""
    return _group_matrix(g, z)


def analytic_generator(g: GroupModel) -> np.ndarray:
    """The matrix of U_i = exp(-H); positive definite with eigenvalues exp(-h_k).

    It is the model's kept operator, built once and read-only; copy it to
    change it.
    """
    return g._U_i


def _content_key(a: np.ndarray) -> tuple:
    """(shape, dtype, bytes): equal for arrays of equal content in any memory order.

    Python hashes a bytes object once, so a key kept and passed again is
    looked up without copying or hashing the array a second time.
    """
    return a.shape, a.dtype.str, a.tobytes()


def _from_key(key: tuple) -> np.ndarray:
    """The read-only array a content key describes, backed by the key's bytes."""
    shape, dtype, data = key
    return np.frombuffer(data, dtype).reshape(shape)


def generator_spectrum(g: GroupModel) -> np.ndarray:
    """Eigenvalues nu_k = exp(-h_k) of the analytic generator."""
    return np.exp(-g.exponents)


@dataclass(frozen=True)
class GraphVector:
    """A pair (x, y) intended to satisfy y = U_i x."""

    first: np.ndarray
    second: np.ndarray

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.first, self.second])


def make_graph_vector(g: GroupModel, x) -> GraphVector:
    x = as_state(g, x)
    return GraphVector(x, apply_Uz(g, 1j, x))


def graph_defect(g: GroupModel, v: GraphVector) -> float:
    """Relative defect ||y - U_i x|| / ||x|| of a candidate graph pair."""
    x = as_state(g, v.first)
    y = as_state(g, v.second)
    nx = float(np.linalg.norm(x))
    if nx == 0.0:
        return float(np.linalg.norm(y))
    return float(np.linalg.norm(y - apply_Uz(g, 1j, x))) / nx


def require_graph_vector(g: GroupModel, v: GraphVector) -> None:
    d = graph_defect(g, v)
    if d > GRAPH_TOL:
        raise GraphMembershipViolation(
            f"pair fails the graph condition: relative defect {d:.3e} > {GRAPH_TOL:.0e}"
        )
