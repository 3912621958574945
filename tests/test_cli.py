import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from angen import (
    ConfigError,
    KernelParam,
    check_functional_eq1,
    check_functional_eq2,
    contour_residue_check,
    eval_kernel,
    eval_kernel_by_integral,
)
from angen.cli import _SCHEMA, SUBCOMMANDS, CheckSheet, Experiment, load_experiment, main

NAN, INF = math.nan, math.inf
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

BASE = {
    "model": {"kind": "diagonal", "exponents": [0.0, 0.7]},
    "mu_list": [[1.0, 0.0]],
    "quadrature": {"rel_tolerance": 1e-10},
    "samples": 2,
    "kernel": {"num_samples": 4, "t_max": 3.0, "lambdas": [1.0], "radius": 0.5},
    "scan": {"re_min": -2.0, "re_max": 2.0, "im_min": -2.0, "im_max": 2.0, "points": 5},
    "mollify": {"n_sequence": [1.0, 10.0], "commutation_n": 5.0},
    "reconstruct": {"t_list": [0.5], "imag_offsets": [0.1, 0.05]},
    "bound_fit": {"r_list": [0.5], "mag_min": 10.0, "mag_max": 1000.0, "num_magnitudes": 7},
}


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = json.loads(json.dumps(BASE))
    for key, value in overrides.items():
        # the model's keys depend on its kind, so a model override replaces it
        if isinstance(value, dict) and key != "model" and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def run(args):
    return main([str(a) for a in args])


@pytest.mark.parametrize(
    "command",
    ["kernel-check", "qmu", "resolvent-verify", "mollify", "reconstruct", "bound-fit"],
)
def test_subcommands_pass(tmp_path, capsys, command):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", out, "--seed", 7]) == 0
    captured = capsys.readouterr().out
    assert "PASS" in captured
    assert "FAIL" not in captured
    assert list(out.glob("*.csv"))


def test_spectrum_scan_csv_columns(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run(["spectrum-scan", "--config", cfg, "--out", out]) == 0
    header = (out / "spectrum_scan.csv").read_text().splitlines()[0]
    assert header == "mu_re,mu_im,resolvent_norm,oracle_distance,lower_bound_ok"


def test_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["qmu", "--config", cfg, "--out", a, "--seed", 3]) == 0
    assert run(["qmu", "--config", cfg, "--out", b, "--seed", 3]) == 0
    name = "qmu_table.csv"
    assert (a / name).read_bytes() == (b / name).read_bytes()


def test_resolvent_verify_builds_each_qmu_once(tmp_path, monkeypatch):
    import angen.cli as cli
    import angen.resolvent as resolvent

    calls = []
    build = resolvent.compute_Qmu

    def counting(g, p, q):
        calls.append(p.mu)
        return build(g, p, q)

    monkeypatch.setattr(resolvent, "compute_Qmu", counting)
    monkeypatch.setattr(cli, "compute_Qmu", counting)
    mu_list = [[1.0, 0.0], [2.0, 1.0], [0.4, -0.8]]
    cfg = write_config(tmp_path, mu_list=mu_list, samples=3)
    assert run(["resolvent-verify", "--config", cfg, "--out", tmp_path / "out"]) == 0
    assert len(calls) == len(mu_list)


def test_csv_has_17_digit_floats(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run(["qmu", "--config", cfg, "--out", out]) == 0
    rows = (out / "qmu_table.csv").read_text().splitlines()
    # nu = exp(-0.7) written with 17 significant digits
    assert "0.49658530379140953" in rows[2]


def test_failed_check_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, tolerances={"qmu_oracle": 1e-30})
    out = tmp_path / "out"
    assert run(["qmu", "--config", cfg, "--out", out]) == 1
    assert "FAIL qmu_oracle" in capsys.readouterr().out


def test_kernel_identities_pass_at_a_large_mu(tmp_path, capsys):
    # the recurrences' terms scale like |mu|: at |mu| ~ 1.4e6 their exact
    # values leave an absolute residual of ~7e-9, but a relative one of ~1e-14
    cfg = write_config(tmp_path, mu_list=[[1e6, 1e6]], kernel={"num_samples": 40})
    assert run(["kernel-check", "--config", cfg, "--out", tmp_path / "out"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_bound_fit_over_equal_magnitudes_fails_without_a_warning(tmp_path, capsys):
    fit = {"mag_min": 100.0, "mag_max": 100.0, "num_magnitudes": 13}
    cfg = write_config(tmp_path, bound_fit=fit)
    assert run(["bound-fit", "--config", cfg, "--out", tmp_path / "out"]) == 1
    captured = capsys.readouterr()
    assert "FAIL bound-fit error=only 1 distinct magnitudes" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize(
    ("command", "key", "ordered"),
    [
        ("reconstruct", "imag_offsets", [0.1, 0.03, 0.01]),
        ("mollify", "n_sequence", [10.0, 100.0, 1000.0]),
    ],
)
def test_convergence_checks_do_not_depend_on_config_order(tmp_path, capsys, command, key, ordered):
    # offsets are visited in decreasing order and widths in increasing
    # order, whatever order the config lists them in
    results = []
    for name, values in (("ordered", ordered), ("reversed", ordered[::-1])):
        cfg = write_config(tmp_path, name=f"{name}.json", **{command: {key: values}})
        out = tmp_path / name
        code = run([command, "--config", cfg, "--out", out, "--seed", 1])
        csvs = sorted(p.read_bytes() for p in out.glob("*.csv"))
        results.append((code, capsys.readouterr().out, csvs))
    assert results[0][0] == 0
    assert results[1] == results[0]


def test_check_sheet_keeps_the_worst_value_and_fails_nan(capsys):
    sheet = CheckSheet({"late_nan": 1.0, "worst": 1e-6, "early_nan": 1e-6})
    sheet.add("late_nan", 0.5)
    sheet.add("worst", 1e-9)
    sheet.add("late_nan", NAN)
    sheet.flag("flag", False)
    sheet.add("early_nan", NAN)
    sheet.add("early_nan", 1e-9)
    sheet.add("worst", 1e-7)
    sheet.add("worst", 1e-8)
    sheet.flag("flag", True)
    assert sheet.report() == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL late_nan value=nan tol=1.000000e+00",
        "PASS worst value=1.000000e-07 tol=1.000000e-06",
        "FAIL flag value=1.000000e+00 tol=5.000000e-01",
        "FAIL early_nan value=nan tol=1.000000e-06",
    ]
    passing = CheckSheet({"worst": 1e-6})
    passing.add("worst", 1e-9)
    passing.flag("flag", True)
    assert passing.report() == 0


def test_missing_config_exits_two(tmp_path):
    assert run(["qmu", "--config", tmp_path / "nope.json"]) == 2


def test_invalid_json_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["qmu", "--config", bad]) == 2


def test_unknown_top_level_key_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, extra_section={"a": 1})
    assert run(["qmu", "--config", cfg]) == 2
    assert "extra_section" in capsys.readouterr().err


def test_unknown_nested_key_exits_two(tmp_path, capsys):
    for key, value in (
        ("nodes", 4),
        ("rule", "tanh-sinh"),
        ("truncation_T", 30.0),
        ("line_offset_s", 2.0),
    ):
        cfg = write_config(tmp_path, quadrature={key: value})
        assert run(["qmu", "--config", cfg]) == 2
        assert key in capsys.readouterr().err


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_configs_load(path):
    raw = json.loads(path.read_text())
    assert load_experiment(str(path)).quadrature.rel_tolerance == raw["quadrature"]["rel_tolerance"]


def test_qmu_oracle_follows_the_quadrature_tolerance(tmp_path, capsys, monkeypatch):
    # a Q_mu far off the config's rel_tolerance (1e-12) fails the oracle
    # check unless the config itself sets a looser qmu_oracle
    import angen.resolvent as resolvent

    monkeypatch.setattr(resolvent, "_panel_density", lambda tol, frequency: 2)
    cfg = CONFIG_DIR / "identity.json"
    assert run(["qmu", "--config", cfg, "--out", tmp_path / "out"]) == 1
    assert "FAIL qmu_oracle" in capsys.readouterr().out
    raw = json.loads(cfg.read_text())
    raw["tolerances"] = {"qmu_oracle": 1e-6}
    loose = tmp_path / "identity.json"
    loose.write_text(json.dumps(raw))
    assert run(["qmu", "--config", loose, "--out", tmp_path / "out"]) == 0


def test_qmu_oracle_default_is_never_looser_than_before(tmp_path):
    for tol, want in [(1e-12, 1e-11), (1e-10, 1e-9), (1e-6, 1e-6), (1e-2, 1e-6)]:
        cfg = write_config(tmp_path, quadrature={"rel_tolerance": tol})
        assert load_experiment(str(cfg)).tolerances["qmu_oracle"] == pytest.approx(want)


def test_config_setting_nodes_per_unit_exits_two(tmp_path, capsys):
    # the panel density is worked out from rel_tolerance, so a config
    # written for the key that used to set it is rejected, naming the key
    raw = json.loads((CONFIG_DIR / "identity.json").read_text())
    raw["quadrature"]["nodes_per_unit"] = 10
    cfg = tmp_path / "identity.json"
    cfg.write_text(json.dumps(raw))
    assert run(["qmu", "--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "nodes_per_unit" in err


def test_mu_on_branch_cut_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, mu_list=[[-1.0, 0.0]])
    assert run(["qmu", "--config", cfg]) == 2
    assert "branch cut" in capsys.readouterr().err


def test_malformed_complex_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, mu_list=[[1.0]])
    assert run(["qmu", "--config", cfg]) == 2
    assert "[re, im]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, override",
    [
        ("resolvent-verify", {"samples": "abc"}),
        ("spectrum-scan", {"scan": {"points": "x"}}),
        ("reconstruct", {"reconstruct": {"t_list": 5}}),
        ("mollify", {"mollify": {"n_sequence": [-1.0]}}),
        ("resolvent-verify", {"mu_list": [[1e-7, 0.0]]}),
        ("spectrum-scan", {"scan": {"points": 0}}),
        ("kernel-check", {"kernel": {"radius": 1.5}}),
        ("kernel-check", {"kernel": {"lambdas": [-1.0]}}),
        ("kernel-check", {"kernel": {"num_samples": 0}}),
        ("kernel-check", {"kernel": {"t_max": 0.01}}),
        ("reconstruct", {"reconstruct": {"mu_min": -1.0}}),
        ("reconstruct", {"reconstruct": {"panels": 0}}),
        ("reconstruct", {"reconstruct": {"imag_offsets": [1.5]}}),
        ("bound-fit", {"bound_fit": {"r_list": [1.5]}}),
        ("bound-fit", {"bound_fit": {"mag_min": -1.0}}),
        ("bound-fit", {"bound_fit": {"num_magnitudes": 0}}),
        ("qmu", {"tolerances": {"qmu_oracle": -1.0}}),
        ("qmu", {"tolerances": {"qmu_oracle": NAN}}),
        ("reconstruct", {"reconstruct": {"panels": 8.7}}),
        ("reconstruct", {"reconstruct": {"panels": True}}),
        ("qmu", {"quadrature": {"rel_tolerance": "1e-10"}}),
        ("qmu", {"model": {"kind": "diagonal", "exponents": [NAN]}}),
        ("qmu", {"model": {"kind": "hermitian", "generator": [[[1.0, 0.0], [0.0, 0.0]]]}}),
        ("mollify", {"mollify": {"n_sequence": [INF]}}),
        ("spectrum-scan", {"scan": {"re_min": NAN}}),
        # depend on the model or the grid, so no static range can catch them
        (
            "spectrum-scan",
            {"scan": {"re_min": 1.0, "re_max": 2.0, "im_min": -0.01, "im_max": 0.01}},
        ),
        ("reconstruct", {"reconstruct": {"mu_min": 0.5}}),
    ],
    ids=[
        "samples",
        "scan-points",
        "t-list",
        "n-sequence",
        "tiny-mu",
        "scan-points-zero",
        "kernel-radius",
        "kernel-lambdas",
        "kernel-num-samples",
        "kernel-t-max",
        "reconstruct-mu-min",
        "reconstruct-panels",
        "reconstruct-imag-offsets",
        "bound-fit-r-list",
        "bound-fit-mag-min",
        "bound-fit-num-magnitudes",
        "tolerance-negative",
        "tolerance-nan",
        "reconstruct-panels-fraction",
        "reconstruct-panels-bool",
        "rel-tolerance-string",
        "exponents-nan",
        "generator-not-square",
        "n-sequence-inf",
        "scan-re-min-nan",
        "scan-inside-guard-sector",
        "reconstruct-window-misses-spectrum",
    ],
)
def test_invalid_value_exits_two_with_one_line(tmp_path, capsys, command, override):
    cfg = write_config(tmp_path, **override)
    assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert err.count("\n") == 1


def test_bad_quadrature_value_exits_two(tmp_path):
    cfg = write_config(tmp_path, quadrature={"rel_tolerance": 0.5})
    assert run(["qmu", "--config", cfg]) == 2


def test_bad_model_kind_exits_two(tmp_path):
    cfg = write_config(tmp_path, model={"kind": "unitary", "exponents": [0.0]})
    assert run(["qmu", "--config", cfg]) == 2


def test_bad_seed_exits_two(tmp_path):
    cfg = write_config(tmp_path)
    assert run(["qmu", "--config", cfg, "--seed", "abc"]) == 2
    assert run(["qmu", "--config", cfg, "--seed", str(2**64)]) == 2


def test_calls_in_a_row_share_one_parser_and_keep_every_exit_code(tmp_path, capsys):
    # the parser is built once per process; a parse that fails (an unknown
    # subcommand, a bad seed) or a run that fails a check leaves nothing on
    # it that changes the next call's exit code
    import angen.cli as cli

    good = write_config(tmp_path)
    failing = write_config(tmp_path, name="failing.json", tolerances={"qmu_oracle": 1e-30})
    calls = [
        (["kernel-check", "--config", good, "--out", tmp_path / "a"], 0),
        (["qmu", "--config", failing, "--out", tmp_path / "b"], 1),
        (["no-such-command", "--config", good], 2),
        (["qmu", "--config", good, "--seed", "abc"], 2),
        (["qmu", "--config", good, "--out", tmp_path / "c"], 0),
        (["qmu", "--config", failing, "--out", tmp_path / "d"], 1),
        (["spectrum-scan", "--config", good, "--out", tmp_path / "e"], 0),
    ]
    for argv, code in calls:
        assert run(argv) == code, argv
    assert cli.build_parser() is cli.build_parser()
    capsys.readouterr()


def test_out_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, output_dir="from_config")
    override = tmp_path / "override"
    assert run(["qmu", "--config", cfg, "--out", override]) == 0
    assert (override / "qmu_table.csv").exists()
    assert not (tmp_path / "from_config").exists()


def test_console_invocation_smoke(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "angen.cli", "qmu", "--config", str(cfg), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "PASS qmu_oracle" in proc.stdout


def test_bound_check_lines(tmp_path, capsys, monkeypatch):
    import angen.cli as cli

    cfg = CONFIG_DIR / "identity.json"
    assert run(["spectrum-scan", "--config", cfg, "--out", tmp_path / "scan"]) == 0
    assert "PASS scan_upper_bound" in capsys.readouterr().out
    for command in ("qmu", "resolvent-verify"):
        assert run([command, "--config", cfg, "--out", tmp_path / command]) == 0
        assert "PASS qmu_l1_bound" in capsys.readouterr().out
    # at mu = 1 the identity model attains ||Q_mu|| = ||F(mu, .)||_L1, so a
    # Q_mu larger by 1e-4 breaks the bound
    build = cli.compute_Qmu
    monkeypatch.setattr(cli, "compute_Qmu", lambda g, p, q: build(g, p, q) * (1.0 + 1e-4))
    assert run(["qmu", "--config", cfg, "--out", tmp_path / "scaled"]) == 1
    assert "FAIL qmu_l1_bound" in capsys.readouterr().out


_WITHOUT_SCIPY = """
import contextlib, io, json, sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
src, config, out = sys.argv[1:]
sys.path.insert(0, src)
import angen
from angen.cli import SUBCOMMANDS, main

codes = {}
for command in SUBCOMMANDS:
    with contextlib.redirect_stdout(io.StringIO()):
        codes[command] = main([command, "--config", config, "--out", f"{out}/{command}"])
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
try:
    import scipy.integrate
    blocked = False
except ImportError:
    blocked = True
print(json.dumps({"codes": codes, "loaded": loaded, "blocked": blocked}))
"""


def test_package_runs_without_scipy(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    args = [str(src), str(CONFIG_DIR / "diagonal_small.json"), str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, *args], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["blocked"]
    assert result["codes"] == {command: 0 for command in SUBCOMMANDS}
    assert result["loaded"] == []


# loader fuzz: mutate one leaf of a shipped config (or one key of the table)
SHIPPED = [json.loads(p.read_text()) for p in sorted(CONFIG_DIR.glob("*.json"))]
OTHER_TYPES = [None, True, "1e-10", {"k": 1}, [0.5], 0.5, 3]
# mutations after which the config can never be valid
ALWAYS_INVALID = ("nan", "inf", "-inf", "outside", "empty", "unknown-key", "huge-mu")


def _leaves(node, path=()):
    if path:
        yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _leaves(child, path + (key,))


def _table_paths():
    for name, entry in _SCHEMA.items():
        if isinstance(entry, tuple):
            yield (name,)
        else:
            yield from ((name, key) for key in entry)


def _spec(path):
    """The table entry (default, lo, hi) of a path, or None."""
    entry = _SCHEMA.get(path[0])
    if len(path) == 2 and isinstance(entry, dict):
        entry = entry.get(path[1])
    return entry if isinstance(entry, tuple) else None


def _outside(spec, upper: bool):
    default, lo, hi = spec
    scalar = default[0] if isinstance(default, list) else default
    if isinstance(scalar, int):
        v = hi + 1 if upper else lo - 1
    else:
        v = math.nextafter(hi, INF) if upper else math.nextafter(lo, -INF)
    return [v] if isinstance(default, list) else v


def _is_mu_part(path):
    return path[0] == "mu_list" and len(path) == 3


# a real or imaginary part of mu beyond the scan rectangle's range
HUGE_MU_PARTS = st.floats(1.01e6, 1e300) | st.floats(-1e300, -1.01e6)


def _container(raw, path):
    """The dict or list that holds the leaf at path, made if missing."""
    parent = raw
    for key in path[:-1]:
        parent = parent.setdefault(key, {}) if isinstance(parent, dict) else parent[key]
    return parent


@st.composite
def mutated_configs(draw):
    raw = json.loads(json.dumps(draw(st.sampled_from(SHIPPED))))
    paths = sorted(set(_leaves(raw)) | set(_table_paths()), key=repr)
    path = draw(st.sampled_from(paths))
    kinds = ["type", "nan", "inf", "-inf", "empty", "unknown-key", "drop-section"]
    if _spec(path) is not None:
        kinds.append("outside")
    if _is_mu_part(path):
        kinds.append("huge-mu")
    kind = draw(st.sampled_from(kinds))
    if kind == "drop-section":
        raw.pop(path[0], None)
        return raw, kind
    parent = _container(raw, path)
    if kind == "unknown-key":
        (parent if isinstance(parent, dict) else raw)["no_such_key"] = 1.0
        return raw, kind
    value = {"nan": NAN, "inf": INF, "-inf": -INF, "empty": []}.get(kind)
    if kind == "type":
        value = draw(st.sampled_from(OTHER_TYPES))
    elif kind == "outside":
        value = _outside(_spec(path), draw(st.booleans()))
    elif kind == "huge-mu":
        value = draw(HUGE_MU_PARTS)
    parent[path[-1]] = value
    return raw, kind


@settings(derandomize=True, max_examples=300)
@given(mutated_configs())
@example((dict(SHIPPED[0], mu_list=[[1e160, 0.0]]), "huge-mu"))
def test_loader_fuzz_raises_only_config_error(case):
    raw, kind = case
    try:
        Experiment(raw, CONFIG_DIR)
    except ConfigError:
        return
    assert kind not in ALWAYS_INVALID, f"{kind} mutation was accepted: {raw}"


# whole-run fuzz: one mutated leaf of the smallest shipped config, then one
# subcommand run end to end
IDENTITY = json.loads((CONFIG_DIR / "identity.json").read_text())


def _range_end(spec, upper: bool):
    default, lo, hi = spec
    scalar = default[0] if isinstance(default, list) else default
    # a count at its upper end only makes the run long
    v = hi if upper and not isinstance(scalar, int) else lo
    return [v] if isinstance(default, list) else v


@st.composite
def mutated_runs(draw):
    raw = json.loads(json.dumps(IDENTITY))
    paths = sorted(set(_leaves(raw)) | set(_table_paths()), key=repr)
    path = draw(st.sampled_from(paths))
    kinds = ["type", "nan", "inf", "-inf"]
    if _spec(path) is not None:
        kinds += ["outside", "range-end"]
    if _is_mu_part(path):
        kinds.append("huge-mu")
    kind = draw(st.sampled_from(kinds))
    value = {"nan": NAN, "inf": INF, "-inf": -INF}.get(kind)
    if kind == "type":
        value = draw(st.sampled_from(OTHER_TYPES))
    elif kind == "outside":
        value = _outside(_spec(path), draw(st.booleans()))
    elif kind == "range-end":
        value = _range_end(_spec(path), draw(st.booleans()))
    elif kind == "huge-mu":
        value = draw(HUGE_MU_PARTS)
    _container(raw, path)[path[-1]] = value
    return raw, kind, draw(st.sampled_from(SUBCOMMANDS))


@settings(derandomize=True, max_examples=15)
@given(mutated_runs())
# at |mu| = 1e160 the kernel overflows (arg mu = 0) and the SVD of Q_mu fails (arg mu = pi/4)
@example((dict(IDENTITY, mu_list=[[1e160, 0.0]]), "huge-mu", "kernel-check"))
@example((dict(IDENTITY, mu_list=[[1e160, 0.0]]), "huge-mu", "resolvent-verify"))
@example((dict(IDENTITY, mu_list=[[7.07e159, 7.07e159]]), "huge-mu", "qmu"))
def test_run_fuzz_keeps_exit_code_contract(case):
    raw, kind, command = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(raw))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg), "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2)
    if kind in ALWAYS_INVALID:
        lines = err.getvalue().splitlines()
        assert code == 2
        assert len(lines) == 1 and lines[0].startswith("config error:")


FULL_SUITE = Path(__file__).resolve().parent.parent / "scripts" / "run_full_suite.py"


def _compare_trees(new: Path, ref: Path):
    return subprocess.run(
        [sys.executable, str(FULL_SUITE), "--out", str(new), "--compare", str(ref)],
        capture_output=True,
        text=True,
    )


def test_full_suite_compare_lists_identical_and_changed_csvs(tmp_path):
    new, ref = tmp_path / "new", tmp_path / "ref"
    for tree, last in ((new, "2.0000000000000004"), (ref, "2")):
        (tree / "qmu").mkdir(parents=True)
        (tree / "qmu" / "same.csv").write_text("a,b\n1,0\n")
        (tree / "qmu" / "moved.csv").write_text(f"mu,err\n-4,1e-300\n{last},nan\n")
    proc = _compare_trees(new, ref)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1] == "qmu/same.csv: identical"
    # 2 ulps of 2 against the column's largest magnitude 4, and NaN against NaN
    assert lines[0] == "qmu/moved.csv: differs, largest relative change per column: mu 1.1e-16, err 0.0e+00"


def test_full_suite_compare_fails_on_a_missing_file_or_changed_header(tmp_path):
    new, ref = tmp_path / "new", tmp_path / "ref"
    for tree in (new, ref):
        tree.mkdir()
        (tree / "kept.csv").write_text("a\n1\n")
    (new / "kept.csv").write_text("b\n1\n")
    (ref / "only_ref.csv").write_text("a\n1\n")
    proc = _compare_trees(new, ref)
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [
        "kept.csv: header or row count changed",
        f"only_ref.csv: missing under {new}",
    ]


def test_kernel_check_memory_is_bounded_at_the_largest_sample_count(tmp_path):
    # 10000 samples up to |t| = 50 take the oracle's densest windows; the
    # oracle takes its (samples x nodes) rows in fixed blocks, where one
    # array of all rows would hold about 400 MB
    import angen.cli as cli

    cfg = write_config(tmp_path, kernel={"num_samples": 10_000, "t_max": 50.0})
    exp = load_experiment(str(cfg))
    tracemalloc.start()
    try:
        cli._run_kernel_check(exp, np.random.default_rng(0), tmp_path, CheckSheet(exp.tolerances))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert len((tmp_path / "kernel_check.csv").read_text().splitlines()) == 1 + 10_000


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_kernel_check_is_the_per_sample_loop(tmp_path, capsys, path):
    # kernel-check makes one array call per check and mu; the per-sample loop
    # below, with the one-point calls on the same RNG stream, prints the same
    # check lines and draws the same t column
    seed = 5
    assert run(["kernel-check", "--config", path, "--out", tmp_path, "--seed", seed]) == 0
    lines = capsys.readouterr().out
    exp = load_experiment(str(path))
    cfg = exp.kernel
    rng = np.random.default_rng(seed)
    sheet = CheckSheet(exp.tolerances)
    ts = []
    for mu in exp.mu_list:
        p = KernelParam(mu)
        for _ in range(cfg["num_samples"]):
            t = 0.0
            while abs(t) < 0.05:
                t = rng.uniform(-cfg["t_max"], cfg["t_max"])
            ts.append(t)
            closed = eval_kernel(p, t)
            sheet.add("kernel_eq1", check_functional_eq1(p, t))
            sheet.add("kernel_eq2", check_functional_eq2(p, t))
            oracle = eval_kernel_by_integral(p, t, exp.quadrature)
            sheet.add("kernel_integral", abs(closed - oracle) / (1.0 + abs(closed)))
        for lam in cfg["lambdas"]:
            target = abs((1.0 / lam) / p.mu**2)
            sheet.add("residue_loop", contour_residue_check(p, lam, cfg["radius"]) / target)
    assert sheet.report() == 0
    assert capsys.readouterr().out == lines
    rows = (tmp_path / "kernel_check.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[2]) for row in rows] == ts


@pytest.mark.parametrize("widths", [[10.0, 10.0, 100.0], [100.0, 10.0, 10.0]])
def test_mollify_repeated_widths_check_as_distinct_ones(tmp_path, capsys, widths):
    # equal widths give equal errors, so only distinct widths must decrease
    results = []
    for name, values in (("distinct", [10.0, 100.0]), ("repeated", widths)):
        cfg = write_config(tmp_path, name=f"{name}.json", mollify={"n_sequence": values})
        code = run(["mollify", "--config", cfg, "--out", tmp_path / name, "--seed", 1])
        results.append((code, capsys.readouterr().out))
    assert results[0][0] == 0
    assert "PASS mollifier_monotone" in results[0][1]
    assert results[1] == results[0]


@pytest.mark.parametrize("mu", [0.01, 1e-3, 1e-6])
def test_kernel_check_passes_at_a_small_mu(tmp_path, capsys, mu):
    # the oracle's integrand is about e^E / mu^2 on its left tail, so its
    # window is lengthened by 2 log(1/|mu|) there, not log(1/|mu|)
    cfg = write_config(tmp_path, mu_list=[[mu, 0.0]], kernel={"num_samples": 20, "t_max": 5.0})
    out = tmp_path / "out"
    assert run(["kernel-check", "--config", cfg, "--out", out]) == 0
    assert "PASS kernel_integral" in capsys.readouterr().out
    rows = (out / "kernel_check.csv").read_text().splitlines()[1:]
    tol = load_experiment(str(cfg)).tolerances["kernel_integral"]
    assert max(float(row.split(",")[5]) for row in rows) <= tol


def test_csv_lines_are_the_per_value_format(tmp_path):
    # one %-format per row writes each value as _fmt does: bools, ints and
    # numpy integers as integers, every float type with 17 digits, and a
    # row with another type through _fmt itself
    import angen.cli as cli

    rows = [
        (True, False, 0, -7, 2**70, np.int64(-3), np.uint64(2**64 - 1)),
        (0.1, -0.0, NAN, INF, -INF, 1e16, 5e-324),
        (np.float64(1 / 3), np.float32(0.1), np.float16(0.3), 1.7976931348623157e308, 3, 0.5, 1),
        (np.bool_(True), 2.5, np.int8(5), "1.25", -1e-300, False, 7),
    ]
    for k in range(-7, 8):
        rows.append(tuple(np.random.default_rng(k + 7).standard_normal(7) * 10.0 ** (40 * k)))
    path = tmp_path / "mixed.csv"
    cli._write_csv(path, [f"c{k}" for k in range(7)], rows)
    want = [",".join(f"c{k}" for k in range(7))]
    want += [",".join(cli._fmt(v) for v in row) for row in rows]
    assert path.read_text() == "\n".join(want) + "\n"


def test_bound_fit_memory_is_bounded_at_the_largest_magnitude_count(tmp_path):
    # 1000 magnitudes up to 1e8: each line takes its density rows in fixed
    # blocks, where one array of all rows would hold about 23 MB
    import angen.cli as cli

    fit = {"num_magnitudes": 1000, "mag_max": 1e8}
    exp = load_experiment(str(write_config(tmp_path, bound_fit=fit)))
    sheet = CheckSheet(exp.tolerances)
    tracemalloc.start()
    try:
        cli._run_bound_fit(exp, np.random.default_rng(0), tmp_path, sheet)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20
    assert len((tmp_path / "bound_fit_values.csv").read_text().splitlines()) == 1 + 1000
