"""The four benchmark workloads and their oracle checks.

Every workload is a fixed list of operations built from the seed.  An
operation is one call into the library; ``points`` says how many user-level
operations it completes (a scan call over one grid row completes one
operation per grid point).  ``check`` compares an operation's output with
the exact spectral oracle and returns one ``(ok, relative_error)`` pair per
point.  Tolerances come from the CLI's ``DEFAULT_TOLERANCES`` where one
matches.  Operations call the library through the ``angen`` and
``angen.cli`` module attributes, so that a tracer that re-binds them sees
every call.

The seed changes the models and vectors but not the amount of work: node
counts depend on ``max|h|``, the ``mu`` values and the tolerances, which
are fixed, so every seed runs the same quadratures.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import angen
import angen.cli
from angen import GroupModel, KernelParam, QuadratureSpec, apply_Uz, qmu_spectral_oracle
from angen.cli import DEFAULT_TOLERANCES, SUBCOMMANDS, scan_grid
from angen.kernel import DELTA_MIN

QUAD = QuadratureSpec(rel_tolerance=1e-10)
# spectral radius of every generated model; fixes the node density
H_RADIUS = 2.0
# radial approximants against U_z x: 100x the quadrature tolerance
RADIAL_TOL = 1e-8
CONFIGS = ("diagonal_small.json", "hermitian4.json", "identity.json")
# CLI checks that compare a quadrature result with an exact oracle
ORACLE_CHECKS = ("kernel_integral", "qmu_oracle", "graph_correspondence", "scan_equality", "mollifier_factor")


@dataclass
class Op:
    label: str
    points: int
    run: Callable[[], object]
    check: Callable[[object], list[tuple[bool, float]]]


def _rel(a, b) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _hermitian(rng: np.random.Generator, n: int) -> GroupModel:
    """A dense Hermitian model with spectral radius exactly H_RADIUS."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = 0.5 * (a + a.conj().T)
    h *= H_RADIUS / float(np.max(np.abs(np.linalg.eigvalsh(h))))
    return GroupModel.hermitian(h)


def _unit(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


class Workload:
    """Inputs built from a seed; ``ops`` is the fixed work of one pass."""

    ops: list[Op]

    def close(self) -> None:
        pass


class Scan(Workload):
    """spectrum_scan on a 4-mode diagonal model over the default 41x41 grid.

    The grid is scanned one row (fixed Re of -mu) per call, so per-point
    latency is measured while batching over mu inside a row still shows.
    """

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        inner = np.sort(rng.uniform(-1.2, 1.2, 2))
        g = GroupModel.diagonal([-1.5, inner[0], inner[1], 1.2])
        grid = scan_grid(
            {"re_min": -5.0, "re_max": 5.0, "im_min": -5.0, "im_max": 5.0,
             "points": 41, "guard_angle": DELTA_MIN}
        )
        rows: dict[float, list[complex]] = {}
        for mu in grid:
            rows.setdefault(-mu.real, []).append(mu)
        tol = DEFAULT_TOLERANCES["scan_equality"]

        def check(points):
            return [
                (pt.lower_bound_ok and abs(e) <= tol, abs(e))
                for pt in points
                for e in [pt.resolvent_norm * pt.oracle_distance - 1.0]
            ]

        self.ops = [
            Op(f"scan.row{i}", len(row), lambda row=row: angen.spectrum_scan(g, row, QUAD), check)
            for i, row in enumerate(rows.values())
        ]


class Dense(Workload):
    """compute_Qmu on a 128-dim Hermitian model at 4 mu, mollify_operator at 3 widths."""

    DIM = 128
    MUS = (1.0, 2.0 + 1.0j, 0.4 - 0.8j, -1.0 + 1.0j)
    WIDTHS = (1.0, 10.0, 100.0)

    def __init__(self, seed: int):
        g = _hermitian(np.random.default_rng(seed), self.DIM)
        ops = []
        for mu in self.MUS:
            p = KernelParam(mu)
            oracle = qmu_spectral_oracle(g, p)
            ops.append(Op(f"qmu{mu}", 1, lambda p=p: angen.compute_Qmu(g, p, QUAD),
                          self._checker(oracle, DEFAULT_TOLERANCES["qmu_oracle"])))
        for n in self.WIDTHS:
            factors = np.exp(-g.exponents**2 / (4.0 * n))
            oracle = (g.basis * factors[None, :]) @ g.basis.conj().T
            ops.append(Op(f"mollify{n:g}", 1, lambda n=n: angen.mollify_operator(g, n, QUAD),
                          self._checker(oracle, DEFAULT_TOLERANCES["mollifier_factor"])))
        self.ops = ops

    @staticmethod
    def _checker(oracle, tol):
        scale = float(np.linalg.norm(oracle, 2))

        def check(m):
            err = float(np.linalg.norm(m - oracle, 2)) / scale
            return [(err <= tol, err)]

        return check


class Radial(Workload):
    """Both reconstruction routes on a 64-dim Hermitian model, plus one decay-bound fit.

    Each reconstruction is one call per (t, Im z) pair, checked against the
    exact U_z x.  The limit gap ||A(t + i d) - U_t x|| of acceptance
    criterion 08 is recorded as the library reports it and never checked.
    """

    DIM = 64
    TIMES = (0.5, 1.0, 2.0)
    OFFSETS = (0.1, 0.03, 0.01)
    R = 0.5
    MAGNITUDES = tuple(np.logspace(1.0, 4.0, 13))

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        g = _hermitian(rng, self.DIM)
        x = _unit(rng, self.DIM)
        self.limit_gaps: dict[float, float] = {}
        ops = []
        for t in self.TIMES:
            for d in self.OFFSETS:
                z = t + 1j * d
                ops.append(Op(f"delta{t:g},{d:g}", 1,
                              lambda t=t, z=z: angen.reconstruct_Ut_delta(g, t, x, [z], QUAD),
                              self._delta_checker(t, d, apply_Uz(g, z, x))))
                alpha = d + 1j * t
                # spectrally B(alpha) = nu**alpha x = U_{i alpha} x
                ops.append(Op(f"cz{t:g},{d:g}", 1,
                              lambda t=t, a=alpha: angen.reconstruct_Ut_cz(g, t, x, [a], QUAD),
                              self._exact_checker(apply_Uz(g, 1j * alpha, x))))
        Ui_x = apply_Uz(g, 1j, x)
        exact_y = {}
        for m in self.MAGNITUDES:
            p = KernelParam(m)
            exact_y[m] = float(np.linalg.norm(qmu_spectral_oracle(g, p) @ (m * x + Ui_x)))
        ops.append(Op("bound_fit", 1,
                      lambda: angen.decay_bound_fit(g, x, self.R, self.MAGNITUDES, QUAD),
                      self._fit_checker(exact_y)))
        self.ops = ops

    def _delta_checker(self, t, d, exact):
        def check(rep):
            if d == min(self.OFFSETS):
                self.limit_gaps[t] = rep.steps[-1].error
            err = _rel(rep.approximation, exact)
            return [(err <= RADIAL_TOL, err)]

        return check

    @staticmethod
    def _exact_checker(exact):
        def check(rep):
            err = _rel(rep.approximation, exact)
            return [(err <= RADIAL_TOL and rep.orientation == "reverse", err)]

        return check

    def _fit_checker(self, exact_y):
        tol = DEFAULT_TOLERANCES["qmu_oracle"]

        def check(rep):
            err = max(abs(yd - exact_y[m]) / exact_y[m] for m, yd, _ in rep.rows)
            ok = (
                err <= tol
                and rep.shift_max_rel_diff <= DEFAULT_TOLERANCES["bound_shift_match"]
                and rep.slope + self.R <= DEFAULT_TOLERANCES["bound_slope_margin"]
            )
            return [(ok, err)]

        return check


class Suite(Workload):
    """All CLI subcommands over the shipped configs, in-process, into a scratch directory."""

    def __init__(self, seed: int, root: Path, scratch: Path):
        scratch.mkdir(parents=True, exist_ok=True)
        self.out = Path(tempfile.mkdtemp(prefix="suite-", dir=scratch))
        ops = []
        for cfg in CONFIGS:
            path = root / "configs" / cfg
            if not path.is_file():
                raise FileNotFoundError(f"missing shipped config {path}")
            for sub in SUBCOMMANDS:
                argv = [sub, "--config", str(path), "--out",
                        str(self.out / Path(cfg).stem / sub), "--seed", str(seed)]
                ops.append(Op(f"{Path(cfg).stem}/{sub}", 1,
                              lambda argv=argv: self._cli(argv), self._check))
        self.ops = ops

    @staticmethod
    def _cli(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = angen.cli.main(argv)
        return code, buf.getvalue()

    @staticmethod
    def _check(result):
        code, text = result
        err = 0.0
        for line in text.splitlines():
            parts = line.split()
            if len(parts) >= 3 and parts[0] in ("PASS", "FAIL") and parts[1] in ORACLE_CHECKS:
                err = max(err, float(parts[2].removeprefix("value=")))
        return [(code == 0, err)]

    def close(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


def build(name: str, seed: int, root: Path, scratch: Path) -> Workload:
    if name == "suite":
        return Suite(seed, root, scratch)
    return {"scan": Scan, "dense": Dense, "radial": Radial}[name](seed)

