"""Tests of the benchmark's tracer and runner.

Run from the repository root with ``python -m pytest perfbench``.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import angen  # noqa: E402
import workloads  # noqa: E402
from reference import REF_SECONDS, reference, scale  # noqa: E402
from tracer import COUNT_METRICS, METRICS, Tracer, _angen_modules  # noqa: E402


def _bindings():
    return {(m.__name__, k): v for m in _angen_modules() for k, v in vars(m).items()}


def _qmu_and_norms():
    g = angen.GroupModel.diagonal([-1.5, -0.6, 0.4, 1.2])
    q = angen.QuadratureSpec(rel_tolerance=1e-10)
    mus = [1.0, 2.0 + 1.0j, 0.4 - 0.8j]
    qs = [angen.compute_Qmu(g, angen.KernelParam(mu), q) for mu in mus]
    norms = [pt.resolvent_norm for pt in angen.spectrum_scan(g, [-2.0 + 1.0j, 3.0, 0.5j], q)]
    return qs, norms


def test_restore_puts_back_every_binding():
    before = _bindings()
    tracer = Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer:
            # names imported into other modules are re-bound too
            import angen.resolvent as resolvent
            import angen.vecint as vecint

            assert resolvent.integrate_vector is not vecint.integrate_vector.__wrapped__
            assert resolvent.integrate_vector.__wrapped__ is before[("angen.vecint", "integrate_vector")]
            assert resolvent.eval_kernel_array.__wrapped__ is before[("angen.kernel", "eval_kernel_array")]
            1 / 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_run_is_bit_identical_to_untraced():
    qs, norms = _qmu_and_norms()
    tracer = Tracer()
    with tracer:
        qs_t, norms_t = _qmu_and_norms()
    assert all(np.array_equal(a, b) for a, b in zip(qs, qs_t))
    assert norms == norms_t
    s = tracer.summary()
    assert set(s) == set(METRICS)
    # 3 direct matrices and 3 scan points, one quadrature per column of a 4-dim model
    assert s["resolvent.qmu_calls"] == 6
    assert s["vecint.calls"] == 24
    assert 0.5 < s["vecint.useful_node_ratio"] <= 1.0
    assert s["kernel.points"] == s["vecint.nodes_sampled"]


def test_counts_repeat_and_self_times_add_up():
    wl = workloads.build("scan", 5, ROOT, None)
    runs = []
    for _ in range(2):
        tracer = Tracer()
        with tracer:
            for op in wl.ops[:2]:
                tracer.traced("op", "bench", op.run)()
        runs.append(tracer)
    assert [runs[0].summary()[k] for k in COUNT_METRICS] == [runs[1].summary()[k] for k in COUNT_METRICS]
    tracer = runs[0]
    roots = [e - s for p, s, e in zip(tracer.parent, tracer.start, tracer.end) if p < 0]
    own = sum(v[2] for v in tracer.by_name().values())
    assert own == pytest.approx(sum(roots), rel=1e-9)


def test_reference_scale():
    assert scale(REF_SECONDS, REF_SECONDS) == pytest.approx(1.0)
    # twice as slow on both sides halves the scaled time; the two sides are averaged
    assert scale(2 * REF_SECONDS, 2 * REF_SECONDS) == pytest.approx(0.5)
    assert scale(REF_SECONDS, 3 * REF_SECONDS) == pytest.approx(0.5)
    assert reference() > 0.0


def test_runner_fails_without_the_library(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
