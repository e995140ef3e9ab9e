"""Three-step estimate benchmark of lpevo.

Run from the repository root, one workload per process:

    python3 perfbench/run.py --workload static-1d --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` next to this directory; nothing is
installed.  The run sets up its workload several times, each time in a
fresh process (``setup_once.py``), then repeats the full estimate
(``estimate.py``) for ``--seconds`` seconds and checks the outputs
(``checks.py``).  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced estimates
and reports the per-layer metrics, and writes the spans to
``perfbench/results/``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

if not (SRC / "lpevo" / "__init__.py").is_file():
    sys.exit(f"lpevo sources not found: {SRC / 'lpevo'} is missing")
sys.path.insert(0, str(SRC))
# one process, one thread: numerical libraries start no worker threads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import lpevo.gfunction  # noqa: E402
import checks  # noqa: E402
import estimate as estimate_mod  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracing import Tracer, patched  # noqa: E402

if Path(lpevo.gfunction.__file__).resolve().parents[2] != SRC.parent:
    sys.exit(f"imported lpevo from {lpevo.gfunction.__file__}, not from {SRC}")

# set-ups per run, each in a fresh process; set-up time is their median
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60


def _points(args, result) -> int:
    return int(np.size(args[0]))


def _nodes(args, result) -> int:
    return len(result[0])


# (module whose namespace makes the call, name, layer, work counter)
TARGETS = [
    (lpevo.gfunction, "lattice_forward", "grid.transform", _points),
    (lpevo.gfunction, "lattice_inverse", "grid.transform", _points),
    (lpevo.gfunction, "symbol_on_lattice", "evolution", None),
    (lpevo.gfunction, "integrated_symbol", "evolution", None),
    (lpevo.gfunction, "graded_quadrature", "gfunction.quadrature", _nodes),
    (estimate_mod, "g_function", "gfunction", None),
    (estimate_mod, "g_tilde", "gfunction", None),
    (estimate_mod, "maximal_values", "maximal.maximal", None),
    (estimate_mod, "sharp_parabolic", "maximal.sharp", None),
    (estimate_mod, "filtration_sharp", "maximal.filtration", None),
    (estimate_mod, "nested_n1", "maximal.filtration", None),
    (estimate_mod, "g_lp_norm", "norms", None),
    (estimate_mod, "lebesgue_norm", "norms", None),
    (workloads, "check_symbol_class", "symbols.class_check", None),
]
SPAN_LAYERS = frozenset(
    {"estimate", "gfunction", "maximal.maximal", "maximal.sharp", "maximal.filtration", "norms"}
)
SYMBOL_LAYERS = ("symbols.eval", "symbols.coeff", "symbols.profile")


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced estimate."""
    t = tr.total
    return {
        "grid.transform_calls": (t("grid.transform").calls, "count"),
        "grid.transform_points": (t("grid.transform").work, "count"),
        "grid.transform_s": (t("grid.transform").busy_s, "s"),
        "symbols.eval_calls": (t("symbols.eval").calls, "count"),
        "symbols.coeff_calls": (t("symbols.coeff").calls, "count"),
        "symbols.eval_s": (sum(t(k).busy_s for k in SYMBOL_LAYERS), "s"),
        "evolution.calls": (t("evolution").calls, "count"),
        "evolution.s": (t("evolution").busy_s, "s"),
        "gfunction.s": (t("gfunction").busy_s, "s"),
        "gfunction.self_s": (t("gfunction").self_s, "s"),
        "gfunction.quadrature_s": (t("gfunction.quadrature").busy_s, "s"),
        "gfunction.quad_nodes": (t("gfunction.quadrature").work, "count"),
        "maximal.sharp_s": (t("maximal.sharp").busy_s, "s"),
        "maximal.filtration_s": (t("maximal.filtration").busy_s, "s"),
        "maximal.maximal_s": (t("maximal.maximal").busy_s, "s"),
        "maximal.maximal_calls": (t("maximal.maximal").calls, "count"),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def setup_seconds(name: str, seed: int) -> tuple[float, float]:
    """Wall time from starting a fresh process to its workload being set
    up, and that time at the reference speed (see ``speed.py``)."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "setup_once.py"), name, str(seed)],
        stdout=subprocess.PIPE,
        text=True,
    ) as child:
        line = child.stdout.readline()
        wall = time.perf_counter() - start
        child.wait(timeout=SETUP_TIMEOUT_S)
    word, _, factor = line.partition(" ")
    if word != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up process failed with exit code {child.returncode}")
    return wall, wall * float(factor)


def run_plain(name: str, seed: int, seconds: float):
    setups = [setup_seconds(name, seed) for _ in range(SETUP_REPEATS)]
    w = workloads.build_workload(name, seed)
    times, outputs = [], []
    with SpeedProbe() as probe:
        deadline = time.perf_counter() + seconds
        while True:
            probe.factor()  # drop samples taken between estimates
            out, dt = _timed(estimate_mod.estimate, w)
            times.append((dt, dt * probe.factor()))
            outputs.append(out)
            if time.perf_counter() >= deadline:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "estimate_s": _metric(statistics.median(t for _, t in times), "s"),
        "setup_s": _metric(statistics.median(t for _, t in setups), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    record = {
        "estimate_s": {"wall": [t for t, _ in times], "scaled": [t for _, t in times]},
        "setup_s": {"wall": [t for t, _ in setups], "scaled": [t for _, t in setups]},
    }
    return w, outputs, metrics, record


def run_traced(name: str, seed: int, seconds: float):
    tracer = Tracer(keep_spans=SPAN_LAYERS)
    traced_estimate = tracer.wrap("estimate", estimate_mod.estimate)
    plain = workloads.build_workload(name, seed)
    class_check_s = []
    for _ in range(SETUP_REPEATS):
        tracer.reset()
        with patched(tracer, TARGETS):
            traced = workloads.build_workload(name, seed, wrap=tracer.wrap)
        class_check_s.append(tracer.total("symbols.class_check").busy_s)
    times = {"plain": [], "traced": []}
    outputs, per_estimate, spans = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        # untraced and traced estimates alternate, so both see the same
        # machine state; their median difference is the tracing overhead
        out, dt = _timed(estimate_mod.estimate, plain)
        times["plain"].append(dt)
        outputs.append(out)
        tracer.reset()
        with patched(tracer, TARGETS):
            out, dt = _timed(traced_estimate, traced)
        times["traced"].append(dt)
        outputs.append(out)
        per_estimate.append(layer_metrics(tracer))
        spans.append(
            {
                "spans": [asdict(sp) for sp in tracer.spans],
                "totals": {k: asdict(v) for k, v in tracer.totals.items()},
            }
        )
        if time.perf_counter() >= deadline:
            break
    metrics = {}
    counts_repeat = True
    for key, (_, unit) in per_estimate[0].items():
        values = [m[key][0] for m in per_estimate]
        if unit == "count":
            counts_repeat &= len(set(values)) == 1
            metrics[key] = _metric(values[0], unit)
        else:
            metrics[key] = _metric(statistics.median(values), unit)
    metrics["symbols.class_check_s"] = _metric(statistics.median(class_check_s), "s")
    metrics["trace.overhead_s"] = _metric(
        statistics.median(times["traced"]) - statistics.median(times["plain"]), "s"
    )
    record = {"estimate_s": times, "class_check_s": class_check_s, "estimates": spans}
    return plain, outputs, metrics, record, counts_repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.trace:
        w, outputs, metrics, record, correct = run_traced(args.workload, args.seed, args.seconds)
    else:
        w, outputs, metrics, record = run_plain(args.workload, args.seed, args.seconds)
        correct = True

    # the first estimate is checked in full; every other one must repeat
    # its outputs bit for bit
    first = outputs[0]
    output_checks = checks.check_outputs(w, first)
    program_checks = checks.check_program(w, args.seed)
    if all(c.ok for c in output_checks):
        failed = sum(not out.same_as(first) for out in outputs)
    else:
        failed = len(outputs)
    correct = correct and all(c.ok for c in program_checks)

    for c in output_checks + program_checks:
        print(f"check {c.name}: error {c.error:.3g} tol {c.tol:.3g} {'ok' if c.ok else 'FAILED'}")
    for key, m in metrics.items():
        print(f"{key} = {m['value']!r} {m['unit']}")
    result = {"correct": correct, "attempted": len(outputs), "failed": failed, "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    record.update(
        result=result,
        ratios=first.ratios,
        checks=[asdict(c) for c in output_checks + program_checks],
    )
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
