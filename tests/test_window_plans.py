"""Every line quadrature of Q_mu, the mollifier and the decay fit samples one
window, planned in advance; a window is rejected only at the truncation cap."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from angen import (
    FitUnstable,
    GroupModel,
    KernelParam,
    QuadratureNonConvergence,
    QuadratureSpec,
    compute_Qmu,
    decay_bound_fit,
    mollify_operator,
    qmu_spectral_oracle,
    reconstruction,
    resolvent,
    smoothing,
    vecint,
)
from angen.vecint import TRUNCATION_CAP

from conftest import random_unit

# a hair inside |arg mu| <= pi - pi/16, so rounding never leaves the sector
ARG_MAX = (math.pi - math.pi / 16.0) * (1.0 - 1e-12)


def record_windows(mp):
    """One list per integrate_vector call of the three callers, holding the
    half-width of every window it samples."""
    calls = []
    nodes, integrate = vecint._nodes, vecint.integrate_vector

    def counting_nodes(T, npu):
        calls[-1].append(T)
        return nodes(T, npu)

    def recording(*args, **kwargs):
        calls.append([])
        return integrate(*args, **kwargs)

    mp.setattr(vecint, "_nodes", counting_nodes)
    for module in (resolvent, smoothing, reconstruction):
        mp.setattr(module, "integrate_vector", recording)
    return calls


def run_planned(calls, fn, quadratures=None):
    """Run fn; a QuadratureNonConvergence must come from a window at the cap.

    Where fn runs all its quadratures, and quadratures is given, it makes
    exactly that many integrate_vector calls.
    """
    try:
        fn()
    except QuadratureNonConvergence:
        assert calls[-1] == [TRUNCATION_CAP]
    except FitUnstable:
        pass  # raised after every quadrature of the fit has run
    else:
        assert quadratures is None or len(calls) == quadratures
    assert calls and all(len(windows) == 1 for windows in calls)


@settings(max_examples=12, derandomize=True)
@given(
    hmax=st.sampled_from([0.0, 1.0, 5.0, 20.0]),
    tol=st.sampled_from([1e-14, 1e-10, 1e-6]),
    log_abs_mu=st.floats(min_value=math.log(1e-3), max_value=math.log(1e5)),
    arg_mu=st.floats(min_value=-ARG_MAX, max_value=ARG_MAX),
    r=st.sampled_from([0.1, 0.25, 0.5, 0.9]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(hmax=20.0, tol=1e-14, log_abs_mu=math.log(1e5), arg_mu=ARG_MAX, r=0.1, seed=0)
@example(hmax=0.0, tol=1e-6, log_abs_mu=math.log(1e-3), arg_mu=-ARG_MAX, r=0.9, seed=1)
def test_every_quadrature_samples_one_planned_window(hmax, tol, log_abs_mu, arg_mu, r, seed):
    rng = np.random.default_rng(seed)
    g = GroupModel.diagonal(np.append(rng.uniform(-hmax, hmax, 3), hmax))
    q = QuadratureSpec(rel_tolerance=tol)
    mu = cmath.rect(math.exp(log_abs_mu), arg_mu)
    mags = abs(mu) * np.logspace(0.0, 1.0, 4)
    x = random_unit(rng, g.dim)
    with pytest.MonkeyPatch.context() as mp:
        calls = record_windows(mp)
        run_planned(calls, lambda: compute_Qmu(g, KernelParam(mu), q))
        calls.clear()
        run_planned(calls, lambda: mollify_operator(g, abs(mu), q))
        calls.clear()
        # one row-batched quadrature per line of the fit
        run_planned(calls, lambda: decay_bound_fit(g, x, r, mags, q, arg_mu=arg_mu), 2)


def test_identity_model_takes_one_window(identity3, quad, monkeypatch):
    # at mu = 1 the plan's margin misses the (1 + |t|) factor of the
    # kernel's envelope, so the window is raised to where the bound needs;
    # the three modes share their one exponent and its one quadrature
    calls = record_windows(monkeypatch)
    p = KernelParam(1.0)
    Q = compute_Qmu(identity3, p, quad)
    assert len(calls) == 1 and all(len(windows) == 1 for windows in calls)
    S = qmu_spectral_oracle(identity3, p)
    assert np.linalg.norm(Q - S, 2) <= 1e-9 * np.linalg.norm(S, 2)


def test_shifted_line_near_its_pole_takes_one_window(herm4, quad, monkeypatch):
    # the bound-fit of configs/hermitian4.json at r = 0.25, with the state
    # the CLI draws at seed 1: the shifted line's one window for the whole
    # ray is raised to where the bound needs, and every magnitude is a row
    # of the one quadrature on it
    calls = record_windows(monkeypatch)
    mags = np.logspace(1.0, 4.0, 13)
    x = random_unit(np.random.default_rng(1), herm4.dim)
    rep = decay_bound_fit(herm4, x, 0.25, mags, quad)
    assert len(calls) == 2 and all(len(windows) == 1 for windows in calls)
    assert len(rep.rows) == len(mags)
    assert rep.shift_max_rel_diff <= 1e-8
