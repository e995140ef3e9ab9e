"""Tests of the benchmark's own code: tracing, oracles and seeds.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
The workloads here are small copies of the benchmark's workloads, so that
every path runs in seconds.
"""

import math
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import checks
import estimate
import run
import workloads
from lpevo.gfunction import QuadratureSpec
from lpevo.grid import SpaceTimeField
from tracing import Tracer, patched

LIGHT = QuadratureSpec(panels=8, order=4, split_levels=4)
TINY = {
    "tiny-static": replace(
        workloads.SPECS["static-1d"],
        name="tiny-static",
        n=16,
        t_nodes=workloads._cell_centred(16),
        band=4,
        quad=LIGHT,
    ),
    "tiny-graded": replace(
        workloads.SPECS["modulated-graded-1d"],
        name="tiny-graded",
        n=16,
        t_nodes=tuple((np.arange(8) / 7.0) ** 2),
        band=4,
        quad=LIGHT,
    ),
    "tiny-2d": replace(
        workloads.SPECS["sharp-2d"],
        name="tiny-2d",
        n=8,
        t_nodes=workloads._cell_centred(8),
        band=2,
        quad=LIGHT,
    ),
}


@pytest.fixture(autouse=True)
def tiny_specs(monkeypatch):
    for name, spec in TINY.items():
        monkeypatch.setitem(workloads.SPECS, name, spec)


def _wrapped_names():
    return {(mod.__name__, attr): getattr(mod, attr) for mod, attr, _, _ in run.TARGETS}


# -- tracing -------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_estimate_is_bit_identical(name):
    plain = workloads.build_workload(name, 3)
    tracer = Tracer(keep_spans=run.SPAN_LAYERS)
    with patched(tracer, run.TARGETS):
        traced = workloads.build_workload(name, 3, wrap=tracer.wrap)
        tracer.reset()
        out = tracer.wrap("estimate", estimate.estimate)(traced)
    assert out.same_as(estimate.estimate(plain))
    assert tracer.total("grid.transform").calls > 0
    assert tracer.total("gfunction").calls == 1
    assert tracer.spans[0].name == "estimate" and tracer.spans[0].parent is None
    assert all(s.parent == 0 for s in tracer.spans[1:])


def test_layer_totals_nest():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(1000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    o, i = tracer.total("outer"), tracer.total("inner")
    assert (o.calls, i.calls) == (1, 2)
    assert o.self_s == pytest.approx(o.busy_s - i.busy_s, abs=1e-12)


def test_traced_run_restores_every_wrapped_name():
    before = _wrapped_names()
    w, outputs, metrics, record, counts_repeat = run.run_traced("tiny-graded", 1, 0.0)
    after = _wrapped_names()
    assert all(after[k] is before[k] for k in before)
    assert not any(hasattr(f, "__wrapped__") for f in after.values())
    assert counts_repeat and len(outputs) == 2 and outputs[0].same_as(outputs[1])
    assert metrics["symbols.coeff_calls"]["value"] > 0
    assert metrics["maximal.maximal_calls"]["value"] == 2


def test_patched_restores_after_an_error():
    before = _wrapped_names()
    with pytest.raises(RuntimeError):
        with patched(Tracer(), run.TARGETS):
            raise RuntimeError
    assert all(_wrapped_names()[k] is v for k, v in before.items())


# -- oracles on hand-derived cases ------------------------------------------------

def test_coeff_integral_closed_form():
    p = workloads.SymbolParams(1.0, 1.0, amp=0.5, rate=2.0)
    # int_0^1 -(1 + e^{-2r}/2) dr = -(1 + (1 - e^{-2})/4)
    want = -(1.0 + (1.0 - math.exp(-2.0)) / 4.0)
    assert checks.coeff_integral(p, 0.0, 1.0) == pytest.approx(want, rel=1e-15)
    assert checks.coeff(p, 0.0) == -1.5


def test_single_mode_window_beta_one():
    # beta = 1: int_a^t e^{-c(t-s)} ds = (1 - e^{-c(t-a)}) / c
    spec = replace(TINY["tiny-static"], psi1=workloads.SymbolParams(1.0, 1.0 / 3.0))
    a, t, xi = 0.1, 0.8, 5.0
    c = spec.q * xi
    got = checks.single_mode_window(spec, a, t, xi)
    assert got == pytest.approx((1.0 - math.exp(-c * (t - a))) / c, rel=1e-14)


def test_single_mode_window_weight_alone():
    # at xi = 0 the integrand is 1: int_a^t (t-s)^(beta-1) ds = (t-a)^beta / beta
    spec = TINY["tiny-graded"]  # modulated psi2: scipy's algebraic weight
    beta = spec.q * spec.psi1.gamma / spec.psi2.gamma
    got = checks.single_mode_window(spec, 0.2, 1.0, 0.0)
    assert got == pytest.approx(0.8**beta / beta, rel=1e-12)


def test_parseval_energy_of_a_single_mode(monkeypatch):
    # q = 2 and beta = 2 gamma1 / gamma2 = 1, so for f = exp(i xi0 x) v:
    # sum_x G^2 dx = 2L |xi0| |v|^2 (1 - e^{-c(t-a)}) / c with c = 2 |xi0|
    spec = replace(
        TINY["tiny-static"], name="mode", q=2.0, psi1=workloads.SymbolParams(1.0, 0.5), quad=QuadratureSpec()
    )
    monkeypatch.setitem(workloads.SPECS, "mode", spec)
    w = workloads.build_workload("mode", 0)
    xi0 = w.grid.freq[w.grid.n // 2 + 2]
    v = np.array([1.0, 2.0j])
    vals = np.exp(1j * xi0 * w.grid.x)[None, :, None] * v * np.ones((len(w.grid.t_grid), 1, 1))
    w = replace(w, field=SpaceTimeField(w.grid, 2, vals))
    c = 2.0 * abs(xi0)
    t = w.grid.t_grid
    want = np.where(t > w.a, 2 * w.grid.half_length * abs(xi0) * 5.0 * (1 - np.exp(-c * (t - w.a))) / c, 0.0)
    np.testing.assert_allclose(checks.parseval_energy(w), want, rtol=1e-6)


def test_centred_oscillation_hand_values():
    # one unit cell among zeros; window of 3 cells: mean 1/3,
    # oscillation (2/3 + 2 * 1/3) / 3 = 4/9 at the cell and its neighbours
    v = np.zeros((1, 4))
    v[0, 1] = 1.0
    osc = checks.centred_oscillation(v, 1, 0, 1)
    np.testing.assert_allclose(osc, [[4 / 9, 4 / 9, 4 / 9, 0.0]], rtol=1e-15)
    # time extends by zero: a constant c with a 3-row window at the edge
    # has mean 2c/3 and oscillation (2 * c/3 + 2c/3) / 3 = 4c/9
    c = 2.5
    osc = checks.centred_oscillation(np.full((2, 4), c), 1, 1, 0)
    np.testing.assert_allclose(osc, np.full((2, 4), 4 * c / 9), rtol=1e-15)
    # space wraps: a window of 3 cells on a period of 2 counts one cell twice
    osc = checks.centred_oscillation(np.array([[1.0, 0.0]]), 1, 0, 1)
    np.testing.assert_allclose(osc, [[4 / 9, 4 / 9]], rtol=1e-15)


def test_centred_oscillation_2d_is_a_product_window():
    v = np.zeros((1, 4, 4))
    v[0, 0, 0] = 9.0
    osc = checks.centred_oscillation(v, 2, 0, 1)
    # 9 cells, mean 1: oscillation (8 + 8 * 1) / 9 on the 3 x 3 around (0, 0)
    assert osc[0, 1, 3] == pytest.approx(16 / 9, rel=1e-15)
    assert osc[0, 2, 2] == 0.0


# -- checks and seeds ------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(TINY))
def test_second_seed_changes_inputs_not_verdicts(name):
    verdicts = []
    fields = []
    for seed in (1, 2):
        w = workloads.build_workload(name, seed)
        out = estimate.estimate(w)
        found = checks.check_outputs(w, out) + checks.check_program(w, seed)
        verdicts.append({c.name: c.ok for c in found})
        fields.append(w.field.values)
    assert not np.array_equal(fields[0], fields[1])
    assert verdicts[0] == verdicts[1]
    assert all(verdicts[0].values())


def test_same_seed_same_inputs():
    a = workloads.build_workload("tiny-graded", 7).field.values
    b = workloads.build_workload("tiny-graded", 7).field.values
    assert np.array_equal(a, b)
    assert np.all(a.imag == 0)


def test_checks_catch_a_wrong_square_function():
    w = workloads.build_workload("tiny-2d", 1)
    out = estimate.estimate(w)
    bad = replace(out, g=out.g * (1 + 1e-6))
    assert not checks.check_parseval(w, bad).ok
    assert checks.check_parseval(w, out).ok


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "static-1d", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- the command's contract ------------------------------------------------------

def _benchmark_json():
    import json

    return json.loads((run.HERE.parent / "BENCHMARK.json").read_text())


def test_traced_run_reports_every_per_layer_metric():
    _, _, metrics, _, _ = run.run_traced("tiny-2d", 1, 0.0)
    per_layer = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == per_layer
    assert metrics["maximal.sharp_s"]["value"] > 0


def test_command_prints_every_end_to_end_metric_last():
    import json

    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sharp-2d", "--seed", "4"]
        + ["--seconds", "0.1", "--trace", "0"],
        cwd=run.HERE.parent,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    bench = _benchmark_json()
    assert sorted(result["metrics"]) == sorted(m["name"] for m in bench["end_to_end"])
    for m in bench["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


# -- the speed probe -----------------------------------------------------------

def test_speed_factor_is_mean_relative_speed():
    import speed

    probe = speed.SpeedProbe()
    assert probe.factor() == 1.0  # no sample yet
    probe.samples += [speed.PROBE_REF_S, 2.0 * speed.PROBE_REF_S]
    assert probe.factor() == pytest.approx(0.75, rel=1e-15)
    assert probe.factor() == 1.0  # samples are used once


def test_speed_probe_samples_and_restores_the_timer():
    import signal
    import time

    import speed

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            sum(range(1000))
    assert len(probe.samples) >= 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
