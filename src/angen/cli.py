"""Batch experiment runner.

Usage: angen <subcommand> --config <path> [--out <dir>] [--seed <u64>]

Subcommands: kernel-check, qmu, resolvent-verify, spectrum-scan, mollify,
reconstruct, bound-fit.  Each loads a JSON experiment config, writes one or
more CSV reports (header row, 17 significant digits) into the output
directory and prints one PASS/FAIL summary line per check to stdout.

Exit codes: 0 all checks passed, 1 a verification residual exceeded its
tolerance or was NaN, 2 invalid configuration or flags.  The keys, types
and ranges of a config are those of the table _SCHEMA below; an invalid
value exits 2 with one "config error:" line on stderr and never produces a
traceback.

Every computation runs in one thread: the work is bound by the interpreter
lock, and worker threads only made the spectrum scan slower.  Reruns with
the same config and seed produce byte-identical CSV files.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .errors import AngenError, BranchViolation, ConfigError
from .group_models import (
    GroupModel,
    _eigen_adjoint,
    _spectral_matrix,
    _to_eigen,
    analytic_generator,
    generator_spectrum,
    make_graph_vector,
)
from .kernel import (
    DELTA_MIN,
    KernelParam,
    _modulus,
    check_functional_eq1,
    check_functional_eq2,
    contour_residue_check,
    eval_kernel_array,
    eval_kernel_by_integral,
    l1_norm,
)
from .reconstruction import (
    _check_window,
    decay_bound_fit,
    reconstruct_Ut_cz,
    reconstruct_Ut_delta,
)
from .resolvent import (
    MIN_ABS_MU,
    build_Rmu,
    check_central_identity,
    compute_Qmu,
    graph_action_matrices,
    qmu_spectral_oracle,
    spectrum_scan,
    verify_resolvent_identities,
)
from .smoothing import commutation_check, mollify, mollify_operator, mollify_oracle
from .vecint import REL_TOLERANCE_MAX, REL_TOLERANCE_MIN, QuadratureSpec

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2

SUBCOMMANDS = (
    "kernel-check",
    "qmu",
    "resolvent-verify",
    "spectrum-scan",
    "mollify",
    "reconstruct",
    "bound-fit",
)

DEFAULT_TOLERANCES = {
    "kernel_eq1": 1e-9,
    "kernel_eq2": 1e-9,
    "kernel_integral": 1e-9,
    "residue_loop": 1e-7,
    "qmu_oracle": 1e-6,
    "central_identity": 1e-6,
    "resolvent_apply": 1e-6,
    "graph_invariance": 1e-6,
    "graph_correspondence": 1e-6,
    "scan_lower_bound": 1e-6,
    "scan_equality": 1e-6,
    "mollifier_factor": 1e-8,
    "commutation": 1e-8,
    "reconstruct_error": 5e-2,
    "bound_slope_margin": 0.1,
    "bound_shift_match": 1e-6,
}

# Every config key with its default and closed range [lo, hi].  The type
# comes from the default: an int default takes an int (not a bool), a float
# default any finite number, a list default a nonempty list of finite
# numbers, each in the range.  The upper ends of counts cap grid sizes.
_SCHEMA = {
    "samples": (8, 1, 1000),
    "quadrature": {
        "rel_tolerance": (1e-10, REL_TOLERANCE_MIN, REL_TOLERANCE_MAX),
    },
    "tolerances": {key: (tol, 0.0, 1.0) for key, tol in DEFAULT_TOLERANCES.items()},
    "kernel": {
        "num_samples": (40, 1, 10_000),
        # sample times are drawn with |t| >= 0.05
        "t_max": (4.0, 0.1, 50.0),
        "lambdas": ([1.0, 2.718281828459045], 1e-3, 1e3),
        "radius": (0.5, 0.01, 0.99),
    },
    "scan": {
        "re_min": (-5.0, -1e6, 1e6),
        "re_max": (5.0, -1e6, 1e6),
        "im_min": (-5.0, -1e6, 1e6),
        "im_max": (5.0, -1e6, 1e6),
        "points": (41, 1, 201),
        "guard_angle": (DELTA_MIN, DELTA_MIN, math.pi),
    },
    "mollify": {
        "n_sequence": ([1.0, 10.0, 100.0, 1000.0], 1e-3, 1e6),
        "commutation_n": (10.0, 1e-3, 1e6),
    },
    "reconstruct": {
        # sin(pi alpha) grows like e^(pi |t|) and overflows past |t| ~ 225
        "t_list": ([0.5, 1.0, 2.0], -100.0, 100.0),
        "imag_offsets": ([0.1, 0.03, 0.01], 1e-3, 0.99),
        "mu_min": (1e-6, 1e-12, 1e12),
        "mu_max": (1e6, 1e-12, 1e12),
        "panels": (40, 1, 10_000),
    },
    "bound_fit": {
        "r_list": ([0.25, 0.5, 0.75], 0.01, 0.99),
        "mag_min": (10.0, 1e-3, 1e8),
        "mag_max": (1e4, 1e-3, 1e8),
        # the slope fit needs three magnitudes in the top decade
        "num_magnitudes": (13, 3, 1000),
        "arg_mu": (0.0, DELTA_MIN - math.pi, math.pi - DELTA_MIN),
    },
}


def _reject_unknown(section: dict, allowed, where: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}"
        )


def _as_real(v, where: str) -> float:
    # the magnitude test also rejects NaN, +-inf and ints beyond float range
    if isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max:
        return float(v)
    raise ConfigError(f"{where}: expected a finite number, got {v!r}")


def _as_complex(v, where: str) -> complex:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise ConfigError(f"{where}: complex values are written as [re, im], got {v!r}")
    return complex(_as_real(v[0], where), _as_real(v[1], where))


def _checked(value, spec: tuple, where: str):
    """The value, typed as the default of spec = (default, lo, hi), in [lo, hi]."""
    default, lo, hi = spec
    if isinstance(default, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{where}: expected a nonempty list of numbers, got {value!r}")
        return [_checked(v, (default[0], lo, hi), where) for v in value]
    if isinstance(default, int):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{where}: expected an integer, got {value!r}")
    else:
        value = _as_real(value, where)
    if not lo <= value <= hi:
        raise ConfigError(f"{where}: {value!r} lies outside [{lo}, {hi}]")
    return value


def _section(raw: dict, name: str):
    """The checked value of a top-level key, or of each key of a section."""
    table = _SCHEMA[name]
    if isinstance(table, tuple):
        return _checked(raw.get(name, table[0]), table, name)
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"section {name!r} must be an object")
    _reject_unknown(section, table, f"section {name!r}")
    return {
        key: _checked(section.get(key, spec[0]), spec, f"{name}.{key}")
        for key, spec in table.items()
    }


def _build_model(raw: dict) -> GroupModel:
    if "model" not in raw:
        raise ConfigError("config is missing the 'model' section")
    m = raw["model"]
    if not isinstance(m, dict):
        raise ConfigError("'model' must be an object")
    kind = m.get("kind")
    try:
        if kind == "diagonal":
            _reject_unknown(m, {"kind", "exponents"}, "'model'")
            exps = m.get("exponents")
            if not isinstance(exps, list) or not exps:
                raise ConfigError("'model.exponents' must be a nonempty list of reals")
            return GroupModel.diagonal([_as_real(v, "model.exponents") for v in exps])
        if kind == "hermitian":
            _reject_unknown(m, {"kind", "generator"}, "'model'")
            gen = m.get("generator")
            if not isinstance(gen, list) or not gen or not all(isinstance(r, list) for r in gen):
                raise ConfigError("'model.generator' must be a nested [re, im] matrix")
            H = np.array(
                [[_as_complex(v, "model.generator") for v in row] for row in gen]
            )
            return GroupModel.hermitian(H)
    except ValueError as exc:
        raise ConfigError(f"invalid model: {exc}") from exc
    raise ConfigError(f"'model.kind' must be 'diagonal' or 'hermitian', got {kind!r}")


def _build_mu_list(raw: dict) -> list[complex]:
    entries = raw.get("mu_list", [[1.0, 0.0], [2.0, 1.0]])
    if not isinstance(entries, list) or not entries:
        raise ConfigError("'mu_list' must be a nonempty list of [re, im] pairs")
    mus = [_as_complex(v, "mu_list") for v in entries]
    for mu in mus:
        # the scan rectangle's range; far beyond it the kernel overflows
        for part in (mu.real, mu.imag):
            _checked(part, _SCHEMA["scan"]["re_min"], "mu_list")
        if mu == 0 or (mu.imag == 0.0 and mu.real < 0.0):
            raise ConfigError(
                f"mu={mu} lies on the branch cut (-inf, 0]; parameters must "
                "avoid the negative real axis where the principal power "
                "mu**(i*t-1) is undefined"
            )
        if abs(mu) < MIN_ABS_MU:
            raise ConfigError(
                f"|mu| = {abs(mu):.2e} is below {MIN_ABS_MU:.0e}; the block "
                "resolvent contains 1/mu"
            )
    return mus


class Experiment:
    """Validated experiment configuration."""

    def __init__(self, raw: dict, config_dir: Path):
        if not isinstance(raw, dict):
            raise ConfigError("top-level config must be a JSON object")
        _reject_unknown(raw, {"model", "mu_list", "output_dir", *_SCHEMA}, "the top level")
        self.model = _build_model(raw)
        self.mu_list = _build_mu_list(raw)
        self.quadrature = QuadratureSpec(**_section(raw, "quadrature"))
        self.tolerances = _section(raw, "tolerances")
        if "qmu_oracle" not in raw.get("tolerances", {}):
            # unset, the Q_mu check follows the quadrature's own tolerance
            # (with the 10x margin of the tests), never looser than the default
            self.tolerances["qmu_oracle"] = min(
                DEFAULT_TOLERANCES["qmu_oracle"], 10.0 * self.quadrature.rel_tolerance
            )
        self.samples = _section(raw, "samples")
        self.kernel = _section(raw, "kernel")
        self.scan = _section(raw, "scan")
        self.mollify = _section(raw, "mollify")
        self.reconstruct = _section(raw, "reconstruct")
        self.bound_fit = _section(raw, "bound_fit")
        out = raw.get("output_dir", "out")
        if not isinstance(out, str) or not out:
            raise ConfigError("'output_dir' must be a nonempty string")
        self.output_dir = (config_dir / out).resolve() if not os.path.isabs(out) else Path(out)


def load_experiment(path: str) -> Experiment:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except ValueError as exc:  # also bad UTF-8 and ints past the digit limit
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return Experiment(raw, p.parent)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


@functools.lru_cache(maxsize=64)
def _row_format(types: tuple) -> str | None:
    """The %-format that writes a row of values of these types as _fmt does,
    or None if a type has no such conversion.

    %d is str(int(v)) for bools ("1" and "0"), ints and numpy integers, and
    %.17g is format(float(v), ".17g") for floats and numpy floating types,
    nan, inf and -0.0 included: both take the value as float(v) and write it
    with one routine.
    """
    specs = []
    for t in types:
        if issubclass(t, (int, np.integer)):
            specs.append("%d")
        elif issubclass(t, (float, np.floating)):
            specs.append("%.17g")
        else:
            return None
    return ",".join(specs)


def _write_csv(path: Path, header, rows) -> None:
    """Write rows as CSV lines, each value as _fmt writes it: one %-format per
    row, cached by the types of its values, or _fmt per value for a row with
    another type."""
    lines = [",".join(header)]
    for row in rows:
        row = tuple(row)
        fmt = _row_format(tuple(map(type, row)))
        lines.append(",".join(_fmt(v) for v in row) if fmt is None else fmt % row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class CheckSheet:
    """Reduces each named check to its worst sample and prints PASS/FAIL lines.

    add(name, value) compares the largest value of a check, NaN above any
    number, with the check's entry in tolerances.  flag(name, ok) records a
    pass/fail check as 0 or 1 against 0.5, so that a failed flag stays
    failed.  Checks print in the order they were first seen.
    """

    def __init__(self, tolerances: dict):
        self.tolerances = tolerances
        self.worst: dict[str, tuple[float, float]] = {}

    def add(self, name: str, value: float) -> None:
        self._keep_worst(name, float(value), self.tolerances[name])

    def flag(self, name: str, ok: bool) -> None:
        self._keep_worst(name, 0.0 if ok else 1.0, 0.5)

    def _keep_worst(self, name: str, value: float, tol: float) -> None:
        if name in self.worst:
            old = self.worst[name][0]
            if math.isnan(old) or value <= old:
                return
        self.worst[name] = (value, tol)

    def report(self) -> int:
        code = EXIT_OK
        for name, (value, tol) in self.worst.items():
            ok = value <= tol
            print(f"{'PASS' if ok else 'FAIL'} {name} value={value:.6e} tol={tol:.6e}")
            if not ok:
                code = EXIT_FAIL
        return code


def _random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# subcommand handlers


def _run_kernel_check(exp: Experiment, rng, outdir: Path, sheet: CheckSheet) -> None:
    cfg = exp.kernel
    t_max, radius = cfg["t_max"], cfg["radius"]
    rows = []
    residue_rows = []
    for mu in exp.mu_list:
        p = KernelParam(mu)
        ts = np.empty(cfg["num_samples"])
        for k in range(ts.size):
            t = 0.0
            while abs(t) < 0.05:
                t = rng.uniform(-t_max, t_max)
            ts[k] = t
        # one call per check on all samples of this mu, each sample as it would be alone
        e1 = check_functional_eq1(p, ts)
        e2 = check_functional_eq2(p, ts)
        closed = eval_kernel_array(p, ts)
        oracle = eval_kernel_by_integral(p, ts, exp.quadrature)
        dv = _modulus(closed - oracle) / (1.0 + _modulus(closed))
        columns = zip(ts.tolist(), e1.tolist(), e2.tolist(), dv.tolist())
        rows += [(mu.real, mu.imag, *row) for row in columns]
        sheet.add("kernel_eq1", np.max(e1))
        sheet.add("kernel_eq2", np.max(e2))
        sheet.add("kernel_integral", np.max(dv))
        for lam in cfg["lambdas"]:
            res = contour_residue_check(p, lam, radius)
            rel = res / abs((1.0 / lam) / p.mu**2)
            residue_rows.append((mu.real, mu.imag, lam, radius, res, rel))
            sheet.add("residue_loop", rel)
    _write_csv(
        outdir / "kernel_check.csv",
        ["mu_re", "mu_im", "t", "eq1_residual", "eq2_residual", "closed_vs_integral"],
        rows,
    )
    _write_csv(
        outdir / "residue_loop.csv",
        ["mu_re", "mu_im", "lambda", "radius", "abs_residual", "rel_residual"],
        residue_rows,
    )


def _flag_l1_bound(sheet: CheckSheet, p: KernelParam, Q: np.ndarray) -> None:
    # the paper's ||Q_mu|| <= ||F(mu, .)||_L1, attained when |mu| is an eigenvalue of U_i
    sheet.flag("qmu_l1_bound", np.linalg.norm(Q, 2) <= l1_norm(p) * (1.0 + 1e-6))


def _run_qmu(exp: Experiment, rng, outdir: Path, sheet: CheckSheet) -> None:
    g = exp.model
    rows = []
    nus = generator_spectrum(g)
    V = _eigen_adjoint(g).conj().T
    for mu in exp.mu_list:
        p = KernelParam(mu)
        Q = compute_Qmu(g, p, exp.quadrature)
        S = qmu_spectral_oracle(g, p)
        sheet.add("qmu_oracle", np.linalg.norm(Q - S, 2) / np.linalg.norm(S, 2))
        _flag_l1_bound(sheet, p, Q)
        # per-mode diagonal entries of V* A V, in the eigenbasis of the model
        qd, sd = (np.diag(_to_eigen(g, A) @ V) for A in (Q, S))
        rows += [
            (mu.real, mu.imag, k, nu, q.real, q.imag, s.real, s.imag, abs(q - s))
            for k, (nu, q, s) in enumerate(zip(nus, qd, sd))
        ]
    _write_csv(
        outdir / "qmu_table.csv",
        [
            "mu_re",
            "mu_im",
            "mode_index",
            "nu",
            "q_quad_re",
            "q_quad_im",
            "q_oracle_re",
            "q_oracle_im",
            "abs_error",
        ],
        rows,
    )


def _run_resolvent_verify(exp: Experiment, rng, outdir: Path, sheet: CheckSheet) -> None:
    g = exp.model
    xs = [_random_state(rng, g.dim) for _ in range(exp.samples)]
    rows = []
    corr_rows = []
    Ui = analytic_generator(g)
    for mu in exp.mu_list:
        p = KernelParam(mu)
        # one Q_mu per mu serves every check below; R.a22 is Q_mu itself
        R = build_Rmu(g, p, exp.quadrature)
        rep = verify_resolvent_identities(g, p, R, [make_graph_vector(g, x) for x in xs])
        for idx, x in enumerate(xs):
            central = check_central_identity(g, p, R.a22, x)
            sheet.add("central_identity", central)
            rows.append((mu.real, mu.imag, idx, central))
        sheet.add("resolvent_apply", rep.apply_after_residual)
        sheet.add("resolvent_apply", rep.apply_before_residual)
        sheet.add("graph_invariance", rep.graph_invariance_residual)

        first, second = graph_action_matrices(g, R)
        inv = np.linalg.inv(Ui + mu * np.eye(g.dim))
        err1 = float(np.linalg.norm(first - inv, 2) / np.linalg.norm(inv, 2))
        err2 = float(np.linalg.norm(second - Ui @ inv, 2) / np.linalg.norm(Ui @ inv, 2))
        corr = max(err1, err2)
        sheet.add("graph_correspondence", corr)
        _flag_l1_bound(sheet, p, R.a22)
        corr_rows.append(
            (
                mu.real,
                mu.imag,
                rep.apply_after_residual,
                rep.apply_before_residual,
                rep.graph_invariance_residual,
                corr,
            )
        )
    _write_csv(
        outdir / "resolvent_central.csv",
        ["mu_re", "mu_im", "sample_index", "central_identity_residual"],
        rows,
    )
    _write_csv(
        outdir / "resolvent_identities.csv",
        [
            "mu_re",
            "mu_im",
            "apply_after_residual",
            "apply_before_residual",
            "graph_invariance_residual",
            "graph_correspondence_error",
        ],
        corr_rows,
    )


def scan_grid(cfg: dict) -> list[complex]:
    """The mu grid of a spectrum scan: -mu covers a rectangle, minus the
    guard sector |arg(-mu)| < guard_angle around the spectrum ray."""
    res = np.linspace(float(cfg["re_min"]), float(cfg["re_max"]), int(cfg["points"]))
    ims = np.linspace(float(cfg["im_min"]), float(cfg["im_max"]), int(cfg["points"]))
    guard = float(cfg["guard_angle"])
    grid = []
    for sre in res:
        for sim in ims:
            s = complex(sre, sim)  # s = -mu ranges over the rectangle
            if abs(s) < 1e-6 or abs(cmath.phase(s)) < guard:
                continue
            grid.append(-s)
    return grid


def _run_spectrum_scan(exp: Experiment, rng, outdir: Path, sheet: CheckSheet) -> None:
    g = exp.model
    grid = scan_grid(exp.scan)
    if not grid:
        raise ConfigError("the scan rectangle lies inside the guard sector")
    points = spectrum_scan(g, grid, exp.quadrature)
    rows = [
        (pt.mu.real, pt.mu.imag, pt.resolvent_norm, pt.oracle_distance, pt.lower_bound_ok)
        for pt in points
    ]
    _write_csv(
        outdir / "spectrum_scan.csv",
        ["mu_re", "mu_im", "resolvent_norm", "oracle_distance", "lower_bound_ok"],
        rows,
    )
    sheet.flag("scan_lower_bound", all(pt.lower_bound_ok for pt in points))
    sheet.flag("scan_upper_bound", all(pt.upper_bound_ok for pt in points))
    # models here are normal, so the bound is an equality
    for pt in points:
        sheet.add("scan_equality", abs(pt.resolvent_norm * pt.oracle_distance - 1.0))


def _run_mollify(exp: Experiment, rng, outdir: Path, sheet: CheckSheet) -> None:
    g = exp.model
    x = _random_state(rng, g.dim)
    rows = []
    errs = {}  # by width: equal widths give equal errors, so a repeated width is one entry
    # widths in increasing order, so that the errors should decrease
    for n in sorted(exp.mollify["n_sequence"]):
        xn = mollify(g, x, n, exp.quadrature)
        oracle = mollify_oracle(g, x, n)
        factor_err = float(np.linalg.norm(xn - oracle))
        err = float(np.linalg.norm(xn - x))
        rows.append((n, err, float(np.linalg.norm(oracle - x)), factor_err))
        sheet.add("mollifier_factor", factor_err)
        errs[n] = err
    _write_csv(
        outdir / "mollify_convergence.csv",
        ["n", "error", "oracle_error", "quad_vs_oracle"],
        rows,
    )
    # below 1e-10 the sequence sits in quadrature noise; do not demand order there
    seq = list(errs.values())
    sheet.flag("mollifier_monotone", all(b < a or b <= 1e-10 for a, b in zip(seq, seq[1:])))

    # commutation: S diagonal in the model eigenbasis commutes with the group
    S = _spectral_matrix(g, rng.standard_normal(g.dim) + 1j * rng.standard_normal(g.dim))
    A = mollify_operator(g, exp.mollify["commutation_n"], exp.quadrature)
    resid = commutation_check(g, A, S, [x] + [_random_state(rng, g.dim) for _ in range(3)])
    sheet.add("commutation", resid)


def _run_reconstruct(exp: Experiment, rng, outdir: Path, sheet: CheckSheet) -> None:
    g = exp.model
    cfg = exp.reconstruct
    window = {key: cfg[key] for key in ("mu_min", "mu_max", "panels")}
    try:
        _check_window(g, cfg["mu_min"], cfg["mu_max"], cfg["panels"])
    except ValueError as exc:
        raise ConfigError(f"reconstruct: {exc}") from exc
    x = _random_state(rng, g.dim)
    # offsets in decreasing order, so that z approaches t and the errors should decrease
    offsets = sorted(cfg["imag_offsets"], reverse=True)
    rows = []
    cz_rows = []
    for t in cfg["t_list"]:
        zs = [t + 1j * d for d in offsets]
        rep = reconstruct_Ut_delta(g, t, x, zs, exp.quadrature, **window)
        errs = [s.error for s in rep.steps]
        sheet.add("reconstruct_error", errs[-1])
        sheet.flag("reconstruct_monotone", all(b <= a + 1e-12 for a, b in zip(errs, errs[1:])))
        for s in rep.steps:
            rows.append((t, s.z.imag, s.error))

        alphas = [d + 1j * t for d in offsets]
        orep = reconstruct_Ut_cz(g, t, x, alphas, exp.quadrature, **window)
        for s in orep.steps:
            cz_rows.append((t, s.alpha.real, s.error_forward, s.error_reverse))
        sheet.flag("cz_orientation_reverse", t == 0.0 or orep.orientation == "reverse")
    _write_csv(
        outdir / "reconstruct_errors.csv", ["t", "im_z", "error_vs_oracle"], rows
    )
    _write_csv(
        outdir / "reconstruct_orientation.csv",
        ["t", "re_alpha", "error_vs_forward", "error_vs_reverse"],
        cz_rows,
    )


def _run_bound_fit(exp: Experiment, rng, outdir: Path, sheet: CheckSheet) -> None:
    g = exp.model
    cfg = exp.bound_fit
    x = _random_state(rng, g.dim)
    mags = np.logspace(
        math.log10(cfg["mag_min"]), math.log10(cfg["mag_max"]), cfg["num_magnitudes"]
    )
    value_rows = []
    fit_rows = []
    for r in cfg["r_list"]:
        rep = decay_bound_fit(g, x, r, mags, exp.quadrature, arg_mu=cfg["arg_mu"])
        for m, yd, ys in rep.rows:
            value_rows.append((r, m, yd, ys, abs(yd - ys) / max(yd, 1e-30)))
        fit_rows.append((r, rep.slope, rep.c_r_estimate, rep.fit_residual))
        sheet.add("bound_slope_margin", rep.slope + r)  # need slope <= -r + margin
        sheet.add("bound_shift_match", rep.shift_max_rel_diff)
    _write_csv(
        outdir / "bound_fit_values.csv",
        ["r", "mu_mag", "y_direct", "y_shifted", "rel_diff"],
        value_rows,
    )
    _write_csv(
        outdir / "bound_fit_slopes.csv",
        ["r", "slope", "c_r_estimate", "fit_residual"],
        fit_rows,
    )


_HANDLERS = {
    "kernel-check": _run_kernel_check,
    "qmu": _run_qmu,
    "resolvent-verify": _run_resolvent_verify,
    "spectrum-scan": _run_spectrum_scan,
    "mollify": _run_mollify,
    "reconstruct": _run_reconstruct,
    "bound-fit": _run_bound_fit,
}


def _parse_seed(raw: str) -> int:
    try:
        seed = int(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {raw!r}") from exc
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return seed


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The angen argument parser, built once per process: main only reads it."""
    parser = argparse.ArgumentParser(
        prog="angen",
        description="verification experiments for the analytic generator toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name, help=f"run the {name} suite")
        sp.add_argument("--config", required=True, help="path to a JSON experiment config")
        sp.add_argument("--out", default=None, help="output directory (overrides config)")
        sp.add_argument("--seed", type=_parse_seed, default=0, help="seed for sample vectors")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0

    try:
        exp = load_experiment(args.config)
    except (ConfigError, AngenError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    outdir = Path(args.out) if args.out else exp.output_dir
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot create output dir: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    rng = np.random.default_rng(args.seed)
    sheet = CheckSheet(exp.tolerances)
    try:
        _HANDLERS[args.command](exp, rng, outdir, sheet)
    except (BranchViolation, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AngenError as exc:
        print(f"FAIL {args.command} error={exc}")
        return EXIT_FAIL
    return sheet.report()


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
