from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from angen import (
    GraphMembershipViolation,
    GraphVector,
    GroupModel,
    KernelParam,
    OverflowRisk,
    analytic_generator,
    apply_Uz,
    apply_Uz_batch,
    compute_Qmu,
    generator_spectrum,
    graph_defect,
    group_matrix,
    make_graph_vector,
    mollify_operator,
    mollify_oracle,
    qmu_spectral_oracle,
    require_graph_vector,
)
from angen.group_models import H_MAX, OVERFLOW_GUARD, _check_overflow, _from_key, as_state
from angen.vecint import _nodes, _panel_window_of

from conftest import random_unit

times = st.floats(min_value=-8.0, max_value=8.0)
offsets = st.floats(min_value=-1.9, max_value=1.9)

_STRIP_SAMPLES = 10


@dataclass(frozen=True)
class StripReport:
    """Residuals of the interpolation checks along a horizontal strip."""

    group_law_residual: float
    cauchy_riemann_residual: float


def strip_continuation_check(g: GroupModel, x, z: complex) -> StripReport:
    """Consistency of the continuation t -> U_{t+is} x across the strip.

    Checks the interpolation property U_t (U_{is} x) = U_{t+is} x at sampled
    real t, and discrete Cauchy-Riemann equations for F(z) = U_z x by
    central finite differences in both coordinate directions.
    """
    z = complex(z)
    _check_overflow(z)
    x = as_state(g, x)
    nx = max(float(np.linalg.norm(x)), 1e-30)
    s = z.imag
    half_span = abs(z.real) + 1.0
    ts = np.linspace(-half_span, half_span, _STRIP_SAMPLES)

    shifted = apply_Uz(g, 1j * s, x)
    group_law = 0.0
    for t in ts:
        lhs = apply_Uz(g, t, shifted)
        rhs = apply_Uz(g, t + 1j * s, x)
        group_law = max(group_law, float(np.linalg.norm(lhs - rhs)) / nx)

    step = 1e-5 / (1.0 + g.max_exponent)
    cr = 0.0
    for t in ts:
        w = t + 1j * s
        d_re = (apply_Uz(g, w + step, x) - apply_Uz(g, w - step, x)) / (2.0 * step)
        d_im = (apply_Uz(g, w + 1j * step, x) - apply_Uz(g, w - 1j * step, x)) / (
            2.0 * step
        )
        cr = max(cr, float(np.linalg.norm(d_im - 1j * d_re)) / nx)

    return StripReport(group_law, cr)


def test_diagonal_constructor_validates():
    with pytest.raises(ValueError):
        GroupModel.diagonal([])
    with pytest.raises(ValueError):
        GroupModel.diagonal([1.0, np.inf])
    with pytest.raises(OverflowRisk):
        GroupModel.diagonal([0.0, H_MAX * 1.5])


def test_hermitian_constructor_validates():
    with pytest.raises(ValueError):
        GroupModel.hermitian(np.ones((2, 3)))
    with pytest.raises(ValueError):
        GroupModel.hermitian(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(OverflowRisk):
        GroupModel.hermitian(np.diag([0.0, 25.0]))


def test_exponents_are_a_read_only_copy_and_max_exponent_stays_valid():
    # max|h| is taken once at construction, so the exponents it was taken
    # from must not change afterwards: the model keeps its own read-only copy
    h = np.array([0.5, -1.25, 0.75])
    for g in (GroupModel.diagonal(h), GroupModel.hermitian(np.diag(h))):
        h_before = g.exponents.copy()
        h[1] = -7.0
        assert np.array_equal(g.exponents, h_before)
        assert g.max_exponent == 1.25
        with pytest.raises(ValueError):
            g.exponents[0] = 3.0
        h[1] = -1.25


def test_generator_and_basis_are_read_only_copies():
    # a complex H is not kept by reference: changing the caller's matrix
    # leaves the model, and every operator it keeps, as they were
    H = np.array([[0.9, 0.3 + 0.2j], [0.3 - 0.2j, -0.5]])
    g = GroupModel.hermitian(H)
    kept = g.generator_matrix.copy(), g.basis.copy(), analytic_generator(g).copy()
    H[0, 0] = 7.0
    assert g.generator_matrix is not H
    assert np.array_equal(g.generator_matrix, kept[0])
    assert np.array_equal(g.basis, kept[1])
    assert np.array_equal(analytic_generator(g), kept[2])
    with pytest.raises(ValueError):
        g.basis[0, 0] = 1.0
    with pytest.raises(ValueError):
        g.generator_matrix[0, 0] = 1.0


def test_kept_operators_are_read_only_and_equal_fresh_builds(diag4, herm4, rng):
    # U_i, U_{-i} and the graph basis are built once per model through a
    # private path, bit for bit what the public builders give, and the
    # content key of U_i describes the kept matrix
    for g in (diag4, herm4, GroupModel.hermitian(np.diag(rng.uniform(-2.0, 2.0, 5)))):
        fresh = np.vstack([np.eye(g.dim, dtype=complex), group_matrix(g, 1j)])
        want = {
            "_U_i": group_matrix(g, 1j),
            "_U_minus_i": group_matrix(g, -1j),
            "_graph_basis": np.linalg.qr(fresh)[0],
        }
        for name, matrix in want.items():
            kept = getattr(g, name)
            assert getattr(g, name) is kept
            assert not kept.flags.writeable
            assert kept.dtype == matrix.dtype and np.array_equal(kept, matrix)
            with pytest.raises(ValueError):
                kept[0, 0] = 0.0
        assert analytic_generator(g) is g._U_i
        key = g._U_i_key
        assert key == (want["_U_i"].shape, want["_U_i"].dtype.str, want["_U_i"].tobytes())
        assert np.array_equal(_from_key(key), g._U_i)


def test_unitarity_on_real_times(diag4, herm4, rng):
    for g in (diag4, herm4):
        x = random_unit(rng, g.dim)
        for t in (0.3, -2.6, 7.1):
            assert np.linalg.norm(apply_Uz(g, t, x)) == pytest.approx(1.0, abs=1e-12)


@given(times, times, offsets)
def test_group_law(z_re, w_re, s):
    g = GroupModel.diagonal([-1.5, -0.6, 0.4, 1.2])
    x = np.array([0.5, -0.3 + 0.2j, 0.1j, 0.7])
    z = z_re + 1j * s
    w = complex(w_re)
    lhs = apply_Uz(g, w, apply_Uz(g, z, x))
    rhs = apply_Uz(g, z + w, x)
    assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(rhs)


def test_hermitian_route_matches_expm(herm4, rng):
    H = herm4.generator_matrix
    x = random_unit(rng, 4)
    for z in (0.7, -1.3 + 0.4j, 1j):
        want = scipy.linalg.expm(1j * z * H) @ x
        got = apply_Uz(herm4, z, x)
        assert np.linalg.norm(got - want) <= 1e-11


def test_group_matrix_consistent_with_apply(herm4, rng):
    x = random_unit(rng, 4)
    for z in (0.0, 1.1 - 0.6j, 2j):
        assert np.allclose(group_matrix(herm4, z) @ x, apply_Uz(herm4, z, x), atol=1e-12)


def test_batch_matches_scalar(diag4, herm4, rng):
    zs = np.array([0.0, 1.5, -2.0 + 0.5j, 1j, -0.25j])
    for g in (diag4, herm4):
        x = random_unit(rng, g.dim)
        rows = apply_Uz_batch(g, zs, x)
        for z, row in zip(zs, rows):
            assert np.linalg.norm(row - apply_Uz(g, z, x)) <= 1e-12


def test_batch_on_a_cached_window_matches_per_node_phases(diag4, herm4, rng):
    # a cached window builds exp(i t h) from panel-centre and Gauss-offset
    # factors; a writable copy of its nodes takes one exponential per node.
    # The two differ by the rounding of the arguments t h, c_j h and d_m h,
    # which for large |h| near t = 0 is set by |c_j| + |d_m| rather than |t|
    ts, _ = _nodes(40.0, 10)
    window = _panel_window_of(ts)
    reach = (np.abs(window.centres)[:, None] + np.abs(window.offsets)[None, :]).ravel()
    copy = np.array(ts)
    eps = np.finfo(float).eps
    wide = GroupModel.diagonal([-H_MAX, -3.3, 0.0, 7.1, H_MAX])
    for g, arg in ((diag4, np.abs(ts)), (herm4, np.abs(ts)), (wide, reach)):
        x = random_unit(rng, g.dim)
        got, want = apply_Uz_batch(g, ts, x), apply_Uz_batch(g, copy, x)
        bound = 8.0 * eps * (1.0 + arg * g.max_exponent)
        assert np.all(np.abs(got - want) <= bound[:, None])
        assert not np.array_equal(got, want)


def test_model_kind_is_invisible_outside_group_models(rng, quad):
    # a Hermitian model with a diagonal generator is the Diagonal model in a
    # permuted eigenbasis, so every operator built from either must agree
    h = np.array([0.9, -1.3, 0.2, 1.7, -0.4])
    diag, herm = GroupModel.diagonal(h), GroupModel.hermitian(np.diag(h))
    assert herm.kind == "hermitian" and not np.allclose(np.abs(herm.basis), np.eye(h.size))
    x = random_unit(rng, h.size)
    zs = np.array([0.7, -1.1 + 0.4j, 0.3 - 0.9j])
    p, width = KernelParam(2.0 + 1.0j), 3.0
    for build in (
        lambda g: apply_Uz(g, zs[1], x),
        lambda g: apply_Uz_batch(g, zs, x),
        lambda g: group_matrix(g, zs[2]),
        lambda g: qmu_spectral_oracle(g, p),
        lambda g: mollify_oracle(g, x, width),
        lambda g: compute_Qmu(g, p, quad),
        lambda g: mollify_operator(g, width, quad),
    ):
        want = build(diag)
        assert np.linalg.norm(build(herm) - want) <= 1e-12 * np.linalg.norm(want)


def test_overflow_guard_trips():
    g = GroupModel.diagonal([0.0, 1.0])
    limit = OVERFLOW_GUARD / H_MAX
    apply_Uz(g, 1j * limit, [1.0, 1.0])
    with pytest.raises(OverflowRisk):
        apply_Uz(g, 1j * (limit + 0.01), [1.0, 1.0])
    with pytest.raises(OverflowRisk):
        apply_Uz_batch(g, [0.0, -1j * (limit + 0.01)], [1.0, 1.0])


@pytest.mark.parametrize(
    "z", [complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 0.0), complex(1.0, -np.inf)]
)
def test_non_finite_times_are_rejected(diag4, herm4, z):
    # a NaN or infinite time has no U_z: each entry point of the group layer
    # raises instead of returning NaN phases
    for g in (diag4, herm4):
        x = np.ones(g.dim)
        with pytest.raises(ValueError, match="finite"):
            apply_Uz(g, z, x)
        with pytest.raises(ValueError, match="finite"):
            group_matrix(g, z)
        with pytest.raises(ValueError, match="finite"):
            apply_Uz_batch(g, np.array([0.5, z]), x)


def test_generator_and_spectrum(diag4, herm4):
    for g in (diag4, herm4):
        Ui = analytic_generator(g)
        nus = generator_spectrum(g)
        got = np.sort(np.linalg.eigvals(Ui).real)
        assert np.allclose(got, np.sort(nus), rtol=1e-12)
        # positive definite
        assert np.min(got) > 0.0


def test_graph_vectors(diag4, rng):
    x = random_unit(rng, 4)
    v = make_graph_vector(diag4, x)
    assert graph_defect(diag4, v) <= 1e-14
    require_graph_vector(diag4, v)
    assert v.stacked().shape == (8,)

    corrupted = GraphVector(v.first, v.second + 1e-3)
    with pytest.raises(GraphMembershipViolation):
        require_graph_vector(diag4, corrupted)


def test_as_state_validates(diag4):
    with pytest.raises(ValueError):
        as_state(diag4, [1.0, 2.0])
    with pytest.raises(ValueError):
        as_state(diag4, [1.0, np.nan, 0.0, 0.0])
    out = as_state(diag4, [1, 2, 3, 4])
    assert out.dtype == complex


@pytest.mark.parametrize("z", [0.5 + 0.3j, -1.0 + 1.0j, 2.0 - 0.8j])
def test_strip_continuation(diag4, herm4, rng, z):
    for g in (diag4, herm4):
        x = random_unit(rng, g.dim)
        rep = strip_continuation_check(g, x, z)
        assert rep.group_law_residual <= 1e-10
        assert rep.cauchy_riemann_residual <= 1e-6


def test_identity_model_is_trivial(identity3, rng):
    x = random_unit(rng, 3)
    assert np.allclose(apply_Uz(identity3, 1.7 - 0.9j, x), x)
    assert np.allclose(analytic_generator(identity3), np.eye(3))
