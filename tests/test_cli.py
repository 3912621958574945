import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angen import ConfigError
from angen.cli import _SCHEMA, SUBCOMMANDS, Experiment, main

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
        ("qmu", {"quadrature": {"nodes_per_unit": 8.7}}),
        ("qmu", {"quadrature": {"nodes_per_unit": True}}),
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
        "nodes-per-unit-fraction",
        "nodes-per-unit-bool",
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


# loader fuzz: mutate one leaf of a shipped config (or one key of the table)
SHIPPED = [json.loads(p.read_text()) for p in sorted(CONFIG_DIR.glob("*.json"))]
OTHER_TYPES = [None, True, "1e-10", {"k": 1}, [0.5], 0.5, 3]
# mutations after which the config can never be valid
ALWAYS_INVALID = ("nan", "inf", "-inf", "outside", "empty", "unknown-key")


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
    parent[path[-1]] = value
    return raw, kind


@settings(derandomize=True, max_examples=300)
@given(mutated_configs())
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
    kind = draw(st.sampled_from(kinds))
    value = {"nan": NAN, "inf": INF, "-inf": -INF}.get(kind)
    if kind == "type":
        value = draw(st.sampled_from(OTHER_TYPES))
    elif kind == "outside":
        value = _outside(_spec(path), draw(st.booleans()))
    elif kind == "range-end":
        value = _range_end(_spec(path), draw(st.booleans()))
    _container(raw, path)[path[-1]] = value
    return raw, kind, draw(st.sampled_from(SUBCOMMANDS))


@settings(derandomize=True, max_examples=15)
@given(mutated_runs())
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
