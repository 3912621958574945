"""Batch experiment runner.

Usage: angen <subcommand> --config <path> [--out <dir>] [--seed <u64>]

Subcommands: kernel-check, qmu, resolvent-verify, spectrum-scan, mollify,
reconstruct, bound-fit.  Each loads a JSON experiment config, writes one or
more CSV reports (header row, 17 significant digits) into the output
directory and prints one PASS/FAIL summary line per check to stdout.

Exit codes: 0 all checks passed, 1 a verification residual exceeded its
tolerance, 2 invalid configuration or flags.

The environment variable TOOL_THREADS is validated (a non-integer or
non-positive value draws a warning on stderr) but selects nothing: every
computation runs in one thread, because the work is bound by the
interpreter lock and worker threads only made the spectrum scan slower.
It stays accepted so that job scripts which set it keep working.  Reruns
with the same config and seed produce byte-identical CSV files.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .errors import AngenError, BranchViolation, ConfigError
from .group_models import (
    GroupModel,
    analytic_generator,
    apply_Uz,
    generator_spectrum,
    make_graph_vector,
)
from .kernel import (
    DELTA_MIN,
    KernelParam,
    check_functional_eq1,
    check_functional_eq2,
    contour_residue_check,
    eval_kernel,
    eval_kernel_by_integral,
)
from .reconstruction import decay_bound_fit, reconstruct_Ut_cz, reconstruct_Ut_delta
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
from .vecint import QuadratureSpec

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

_QUAD_KEYS = {
    "rel_tolerance": float,
    "nodes_per_unit": int,
    "line_offset_s": float,
}

_SCAN_DEFAULTS = {
    "re_min": -5.0,
    "re_max": 5.0,
    "im_min": -5.0,
    "im_max": 5.0,
    "points": 41,
    "guard_angle": DELTA_MIN,
}

_KERNEL_DEFAULTS = {
    "num_samples": 40,
    "t_max": 4.0,
    "lambdas": [1.0, 2.718281828459045],
    "radius": 0.5,
}

_MOLLIFY_DEFAULTS = {"n_sequence": [1.0, 10.0, 100.0, 1000.0], "commutation_n": 10.0}

_RECONSTRUCT_DEFAULTS = {
    "t_list": [0.5, 1.0, 2.0],
    "imag_offsets": [0.1, 0.03, 0.01],
    "mu_min": 1e-6,
    "mu_max": 1e6,
    "panels": 40,
}

_BOUND_FIT_DEFAULTS = {
    "r_list": [0.25, 0.5, 0.75],
    "mag_min": 10.0,
    "mag_max": 1e4,
    "num_magnitudes": 13,
    "arg_mu": 0.0,
}

_TOP_KEYS = {
    "model",
    "mu_list",
    "quadrature",
    "tolerances",
    "output_dir",
    "samples",
    "kernel",
    "scan",
    "mollify",
    "reconstruct",
    "bound_fit",
}


def _reject_unknown(section: dict, allowed, where: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}"
        )


def _as_complex(v, where: str) -> complex:
    if (
        not isinstance(v, (list, tuple))
        or len(v) != 2
        or not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in v)
    ):
        raise ConfigError(f"{where}: complex values are written as [re, im], got {v!r}")
    return complex(float(v[0]), float(v[1]))


def _as_real(v, where: str) -> float:
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ConfigError(f"{where}: expected a number, got {v!r}")
    return float(v)


def _merge_section(raw: dict, name: str, defaults: dict) -> dict:
    """The section over its defaults; each value must have its default's type.

    An int passes where a float is expected; lists must be nonempty lists of
    numbers.
    """
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"section {name!r} must be an object")
    _reject_unknown(section, defaults, f"section {name!r}")
    for key, value in section.items():
        default, where = defaults[key], f"{name}.{key}"
        if isinstance(default, list):
            if not isinstance(value, list) or not value:
                raise ConfigError(f"{where}: expected a nonempty list of numbers, got {value!r}")
            for v in value:
                _as_real(v, where)
        elif isinstance(default, int):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{where}: expected an integer, got {value!r}")
        else:
            _as_real(value, where)
    out = dict(defaults)
    out.update(section)
    return out


def _build_model(raw: dict) -> GroupModel:
    if "model" not in raw:
        raise ConfigError("config is missing the 'model' section")
    m = raw["model"]
    if not isinstance(m, dict):
        raise ConfigError("'model' must be an object")
    kind = m.get("kind")
    if kind == "diagonal":
        _reject_unknown(m, {"kind", "exponents"}, "'model'")
        exps = m.get("exponents")
        if not isinstance(exps, list) or not exps:
            raise ConfigError("'model.exponents' must be a nonempty list of reals")
        return GroupModel.diagonal([_as_real(v, "model.exponents") for v in exps])
    if kind == "hermitian":
        _reject_unknown(m, {"kind", "generator"}, "'model'")
        gen = m.get("generator")
        if not isinstance(gen, list) or not gen:
            raise ConfigError("'model.generator' must be a nested [re, im] matrix")
        H = np.array(
            [[_as_complex(v, "model.generator") for v in row] for row in gen]
        )
        return GroupModel.hermitian(H)
    raise ConfigError(f"'model.kind' must be 'diagonal' or 'hermitian', got {kind!r}")


def _build_mu_list(raw: dict) -> list[complex]:
    entries = raw.get("mu_list", [[1.0, 0.0], [2.0, 1.0]])
    if not isinstance(entries, list) or not entries:
        raise ConfigError("'mu_list' must be a nonempty list of [re, im] pairs")
    mus = [_as_complex(v, "mu_list") for v in entries]
    for mu in mus:
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


def _build_quadrature(raw: dict) -> QuadratureSpec:
    section = raw.get("quadrature", {})
    if not isinstance(section, dict):
        raise ConfigError("'quadrature' must be an object")
    _reject_unknown(section, _QUAD_KEYS, "'quadrature'")
    kwargs = {}
    for key, cast in _QUAD_KEYS.items():
        if key in section:
            try:
                kwargs[key] = cast(section[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"'quadrature.{key}': {exc}") from exc
    try:
        return QuadratureSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid quadrature spec: {exc}") from exc


def _build_tolerances(raw: dict) -> dict:
    section = raw.get("tolerances", {})
    if not isinstance(section, dict):
        raise ConfigError("'tolerances' must be an object")
    _reject_unknown(section, DEFAULT_TOLERANCES, "'tolerances'")
    out = dict(DEFAULT_TOLERANCES)
    for k, v in section.items():
        out[k] = _as_real(v, f"tolerances.{k}")
    return out


class Experiment:
    """Validated experiment configuration."""

    def __init__(self, raw: dict, config_dir: Path):
        if not isinstance(raw, dict):
            raise ConfigError("top-level config must be a JSON object")
        _reject_unknown(raw, _TOP_KEYS, "the top level")
        self.model = _build_model(raw)
        self.mu_list = _build_mu_list(raw)
        self.quadrature = _build_quadrature(raw)
        self.tolerances = _build_tolerances(raw)
        self.samples = raw.get("samples", 8)
        if not isinstance(self.samples, int) or isinstance(self.samples, bool) or self.samples < 1:
            raise ConfigError(f"'samples' must be a positive integer, got {self.samples!r}")
        self.kernel = _merge_section(raw, "kernel", _KERNEL_DEFAULTS)
        self.scan = _merge_section(raw, "scan", _SCAN_DEFAULTS)
        self.mollify = _merge_section(raw, "mollify", _MOLLIFY_DEFAULTS)
        if min(self.mollify["n_sequence"]) <= 0 or self.mollify["commutation_n"] <= 0:
            raise ConfigError("mollify widths 'n_sequence' and 'commutation_n' must be positive")
        self.reconstruct = _merge_section(raw, "reconstruct", _RECONSTRUCT_DEFAULTS)
        self.bound_fit = _merge_section(raw, "bound_fit", _BOUND_FIT_DEFAULTS)
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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return Experiment(raw, p.parent)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class CheckSheet:
    """Collects named check results and prints PASS/FAIL lines."""

    def __init__(self):
        self.rows: list[tuple[str, float, float, bool]] = []

    def add(self, name: str, value: float, tol: float, ok: bool | None = None) -> None:
        if ok is None:
            ok = value <= tol
        self.rows.append((name, value, tol, bool(ok)))

    def report(self) -> int:
        code = EXIT_OK
        for name, value, tol, ok in self.rows:
            status = "PASS" if ok else "FAIL"
            print(f"{status} {name} value={value:.6e} tol={tol:.6e}")
            if not ok:
                code = EXIT_FAIL
        return code


def _random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _check_tool_threads() -> None:
    """Warn about an invalid TOOL_THREADS; the value selects nothing."""
    raw = os.environ.get("TOOL_THREADS")
    if raw is None:
        return
    try:
        n = int(raw)
    except ValueError:
        print(f"warning: ignoring non-integer TOOL_THREADS={raw!r}", file=sys.stderr)
        return
    if n < 1:
        print(f"warning: ignoring non-positive TOOL_THREADS={n}", file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommand handlers


def _run_kernel_check(exp: Experiment, rng, outdir: Path, sheet: CheckSheet) -> None:
    cfg = exp.kernel
    num = int(cfg["num_samples"])
    t_max = float(cfg["t_max"])
    radius = float(cfg["radius"])
    rows = []
    residue_rows = []
    worst = {"kernel_eq1": 0.0, "kernel_eq2": 0.0, "kernel_integral": 0.0, "residue_loop": 0.0}
    for mu in exp.mu_list:
        p = KernelParam(mu)
        for _ in range(num):
            t = 0.0
            while abs(t) < 0.05:
                t = rng.uniform(-t_max, t_max)
            e1 = check_functional_eq1(p, t)
            e2 = check_functional_eq2(p, t)
            closed = eval_kernel(p, t)
            oracle = eval_kernel_by_integral(p, t, exp.quadrature)
            dv = abs(closed - oracle) / (1.0 + abs(closed))
            rows.append((mu.real, mu.imag, t, e1, e2, dv))
            worst["kernel_eq1"] = max(worst["kernel_eq1"], e1)
            worst["kernel_eq2"] = max(worst["kernel_eq2"], e2)
            worst["kernel_integral"] = max(worst["kernel_integral"], dv)
        for lam in cfg["lambdas"]:
            res = contour_residue_check(p, float(lam), radius)
            rel = res / abs((1.0 / float(lam)) / p.mu**2)
            residue_rows.append((mu.real, mu.imag, float(lam), radius, res, rel))
            worst["residue_loop"] = max(worst["residue_loop"], rel)
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
    for name, val in worst.items():
        sheet.add(name, val, exp.tolerances[name])


def _run_qmu(exp: Experiment, rng, outdir: Path, sheet: CheckSheet) -> None:
    g = exp.model
    rows = []
    worst = 0.0
    for mu in exp.mu_list:
        p = KernelParam(mu)
        Q = compute_Qmu(g, p, exp.quadrature)
        S = qmu_spectral_oracle(g, p)
        rel = float(np.linalg.norm(Q - S, 2) / np.linalg.norm(S, 2))
        worst = max(worst, rel)
        # per-mode diagonal entries in the eigenbasis of the model
        if g.kind == "diagonal":
            qd, sd = np.diag(Q), np.diag(S)
        else:
            qd = np.diag(g.basis.conj().T @ Q @ g.basis)
            sd = np.diag(g.basis.conj().T @ S @ g.basis)
        nus = generator_spectrum(g)
        for k in range(g.dim):
            rows.append(
                (
                    mu.real,
                    mu.imag,
                    k,
                    nus[k],
                    qd[k].real,
                    qd[k].imag,
                    sd[k].real,
                    sd[k].imag,
                    abs(qd[k] - sd[k]),
                )
            )
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
    sheet.add("qmu_oracle", worst, exp.tolerances["qmu_oracle"])


def _run_resolvent_verify(exp: Experiment, rng, outdir: Path, sheet: CheckSheet) -> None:
    g = exp.model
    xs = [_random_state(rng, g.dim) for _ in range(exp.samples)]
    rows = []
    corr_rows = []
    worst_central = worst_apply = worst_inv = worst_corr = 0.0
    Ui = analytic_generator(g)
    for mu in exp.mu_list:
        p = KernelParam(mu)
        samples = [make_graph_vector(g, x) for x in xs]
        rep = verify_resolvent_identities(g, p, exp.quadrature, samples)
        for idx, x in enumerate(xs):
            central = check_central_identity(g, p, exp.quadrature, x)
            worst_central = max(worst_central, central)
            rows.append((mu.real, mu.imag, idx, central))
        worst_apply = max(worst_apply, rep.apply_after_residual, rep.apply_before_residual)
        worst_inv = max(worst_inv, rep.graph_invariance_residual)

        R = build_Rmu(g, p, exp.quadrature)
        first, second = graph_action_matrices(g, R)
        inv = np.linalg.inv(Ui + mu * np.eye(g.dim))
        err1 = float(np.linalg.norm(first - inv, 2) / np.linalg.norm(inv, 2))
        err2 = float(np.linalg.norm(second - Ui @ inv, 2) / np.linalg.norm(Ui @ inv, 2))
        corr = max(err1, err2)
        worst_corr = max(worst_corr, corr)
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
    sheet.add("central_identity", worst_central, exp.tolerances["central_identity"])
    sheet.add("resolvent_apply", worst_apply, exp.tolerances["resolvent_apply"])
    sheet.add("graph_invariance", worst_inv, exp.tolerances["graph_invariance"])
    sheet.add("graph_correspondence", worst_corr, exp.tolerances["graph_correspondence"])


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
    bound_ok = all(pt.lower_bound_ok for pt in points)
    sheet.add("scan_lower_bound", 0.0 if bound_ok else 1.0, 0.5, ok=bound_ok)
    # models here are normal, so the bound is an equality
    eq = max(abs(pt.resolvent_norm * pt.oracle_distance - 1.0) for pt in points)
    sheet.add("scan_equality", eq, exp.tolerances["scan_equality"])


def _run_mollify(exp: Experiment, rng, outdir: Path, sheet: CheckSheet) -> None:
    g = exp.model
    x = _random_state(rng, g.dim)
    rows = []
    worst_factor = 0.0
    errs = []
    for n in exp.mollify["n_sequence"]:
        n = float(n)
        xn = mollify(g, x, n, exp.quadrature)
        oracle = mollify_oracle(g, x, n)
        factor_err = float(np.linalg.norm(xn - oracle))
        err = float(np.linalg.norm(xn - x))
        rows.append((n, err, float(np.linalg.norm(oracle - x)), factor_err))
        worst_factor = max(worst_factor, factor_err)
        errs.append(err)
    _write_csv(
        outdir / "mollify_convergence.csv",
        ["n", "error", "oracle_error", "quad_vs_oracle"],
        rows,
    )
    sheet.add("mollifier_factor", worst_factor, exp.tolerances["mollifier_factor"])
    # below 1e-10 the sequence sits in quadrature noise; do not demand order there
    monotone = all(b < a or b <= 1e-10 for a, b in zip(errs, errs[1:]))
    sheet.add("mollifier_monotone", 0.0 if monotone else 1.0, 0.5, ok=monotone)

    # commutation: S diagonal in the model eigenbasis commutes with the group
    diag = rng.standard_normal(g.dim) + 1j * rng.standard_normal(g.dim)
    if g.kind == "diagonal":
        S = np.diag(diag)
    else:
        S = (g.basis * diag[None, :]) @ g.basis.conj().T
    A = mollify_operator(g, float(exp.mollify["commutation_n"]), exp.quadrature)
    resid = commutation_check(g, A, S, [x] + [_random_state(rng, g.dim) for _ in range(3)])
    sheet.add("commutation", resid, exp.tolerances["commutation"])


def _run_reconstruct(exp: Experiment, rng, outdir: Path, sheet: CheckSheet) -> None:
    g = exp.model
    cfg = exp.reconstruct
    x = _random_state(rng, g.dim)
    rows = []
    cz_rows = []
    worst_err = 0.0
    monotone = True
    orientation_ok = True
    for t in cfg["t_list"]:
        t = float(t)
        zs = [t + 1j * float(d) for d in cfg["imag_offsets"]]
        rep = reconstruct_Ut_delta(
            g,
            t,
            x,
            zs,
            exp.quadrature,
            mu_min=float(cfg["mu_min"]),
            mu_max=float(cfg["mu_max"]),
            panels=int(cfg["panels"]),
        )
        errs = [s.error for s in rep.steps]
        monotone = monotone and all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
        worst_err = max(worst_err, errs[-1])
        for s in rep.steps:
            rows.append((t, s.z.imag, s.error))

        alphas = [float(d) + 1j * t for d in cfg["imag_offsets"]]
        orep = reconstruct_Ut_cz(
            g,
            t,
            x,
            alphas,
            exp.quadrature,
            mu_min=float(cfg["mu_min"]),
            mu_max=float(cfg["mu_max"]),
            panels=int(cfg["panels"]),
        )
        for s in orep.steps:
            cz_rows.append((t, s.alpha.real, s.error_forward, s.error_reverse))
        if t != 0.0:
            orientation_ok = orientation_ok and orep.orientation == "reverse"
    _write_csv(
        outdir / "reconstruct_errors.csv", ["t", "im_z", "error_vs_oracle"], rows
    )
    _write_csv(
        outdir / "reconstruct_orientation.csv",
        ["t", "re_alpha", "error_vs_forward", "error_vs_reverse"],
        cz_rows,
    )
    sheet.add("reconstruct_error", worst_err, exp.tolerances["reconstruct_error"])
    sheet.add("reconstruct_monotone", 0.0 if monotone else 1.0, 0.5, ok=monotone)
    sheet.add("cz_orientation_reverse", 0.0 if orientation_ok else 1.0, 0.5, ok=orientation_ok)


def _run_bound_fit(exp: Experiment, rng, outdir: Path, sheet: CheckSheet) -> None:
    g = exp.model
    cfg = exp.bound_fit
    x = _random_state(rng, g.dim)
    mags = np.logspace(
        math.log10(float(cfg["mag_min"])),
        math.log10(float(cfg["mag_max"])),
        int(cfg["num_magnitudes"]),
    )
    value_rows = []
    fit_rows = []
    worst_margin = -math.inf
    worst_shift = 0.0
    for r in cfg["r_list"]:
        r = float(r)
        rep = decay_bound_fit(g, x, r, mags, exp.quadrature, arg_mu=float(cfg["arg_mu"]))
        for m, yd, ys in rep.rows:
            value_rows.append((r, m, yd, ys, abs(yd - ys) / max(yd, 1e-30)))
        fit_rows.append((r, rep.slope, rep.c_r_estimate, rep.fit_residual))
        worst_margin = max(worst_margin, rep.slope + r)  # need slope <= -r + margin
        worst_shift = max(worst_shift, rep.shift_max_rel_diff)
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
    sheet.add("bound_slope_margin", worst_margin, exp.tolerances["bound_slope_margin"])
    sheet.add("bound_shift_match", worst_shift, exp.tolerances["bound_shift_match"])


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


def build_parser() -> argparse.ArgumentParser:
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
    _check_tool_threads()

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
    sheet = CheckSheet()
    try:
        _HANDLERS[args.command](exp, rng, outdir, sheet)
    except BranchViolation as exc:
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
