import json
import subprocess
import sys

import pytest

from angen.cli import main

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
        if isinstance(value, dict) and key in cfg and isinstance(cfg[key], dict):
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
    for key, value in (("nodes", 4), ("rule", "tanh-sinh"), ("truncation_T", 30.0)):
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
    ],
    ids=["samples", "scan-points", "t-list", "n-sequence", "tiny-mu"],
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


def test_tool_threads_env(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    monkeypatch.setenv("TOOL_THREADS", "2")
    assert run(["spectrum-scan", "--config", cfg, "--out", out]) == 0

    monkeypatch.setenv("TOOL_THREADS", "banana")
    out2 = tmp_path / "out2"
    assert run(["spectrum-scan", "--config", cfg, "--out", out2]) == 0
    assert "TOOL_THREADS" in capsys.readouterr().err
    # thread count must not change the output bytes
    name = "spectrum_scan.csv"
    assert (out / name).read_bytes() == (out2 / name).read_bytes()


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
