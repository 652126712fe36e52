"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py

The smoke runs take about two minutes on one core.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

import spans  # noqa: E402
import workloads  # noqa: E402

BASE_METRICS = {"setup_s", "pass_s", "failed_frac", "peak_rss_mib"}
WORKLOAD_METRICS = {
    "duration_free": {"psi_s", "ruin_s", "bridge_s", "cli_s", "max_abs_err"},
    "duration_dependent": {"psi_s", "finite_time_s", "bridge_s", "survival_s", "max_abs_err"},
    "monte_carlo": {"mc_paths_per_s"},
}
E2E_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "psi_s": "s/pass",
    "ruin_s": "s/pass",
    "bridge_s": "s/pass",
    "finite_time_s": "s/pass",
    "survival_s": "s/pass",
    "cli_s": "s/pass",
    "mc_paths_per_s": "paths/s",
    "max_abs_err": "abs",
    "failed_frac": "ratio",
    "peak_rss_mib": "MiB",
}


def test_self_time_subtracts_covered_child_intervals():
    # root [0, 10] with children A [1, 4] (holding G [2, 3]), B [5, 9],
    # C [8, 9.5] overlapping B, and D [9.5, 11] running past the root's end.
    start = [0.0, 1.0, 2.0, 5.0, 8.0, 9.5]
    end = [10.0, 4.0, 3.0, 9.0, 9.5, 11.0]
    parent = [-1, 0, 1, 0, 0, 0]
    got = spans.self_times(start, end, parent)
    # root: 10 - |[1,4] u [5,9.5] u [9.5,10]| = 10 - (3 + 4.5 + 0.5)
    assert got == pytest.approx([2.0, 2.0, 1.0, 4.0, 1.5, 1.5])


def test_layer_metrics_on_nested_wrapped_calls():
    tracer = spans.Tracer()
    eval_kernel = tracer.wrap("model.eval_kernel", lambda: time.sleep(0.002))

    def sweep():
        for _ in range(6):
            eval_kernel()
        time.sleep(0.01)

    survival_matrix = tracer.wrap("survival.survival_matrix", sweep)
    lo = tracer.mark()
    survival_matrix()
    eval_kernel()  # outside any survival span
    m = spans.layer_metrics(tracer, lo, tracer.mark())
    assert m["model.eval_kernel.calls"] == 7
    assert m["survival.rk4_steps"] == 2
    root = tracer.end[lo] - tracer.start[lo]
    children = sum(tracer.end[i] - tracer.start[i] for i in range(lo + 1, lo + 7))
    assert m["survival.survival_matrix.self_s"] == pytest.approx(root - children)
    assert 0.01 <= m["survival.survival_matrix.self_s"] < root


def test_tracer_restores_every_patched_binding():
    import fluidrisk
    import fluidrisk.descriptors
    import scipy.fft

    import fluidrisk.homogeneous as homogeneous

    before = (fluidrisk.psi, fluidrisk.descriptors.level_fixed_point, homogeneous.rfft, scipy.fft.rfft)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert fluidrisk.psi is not before[0]
        assert fluidrisk.descriptors.level_fixed_point is not before[1]
        assert homogeneous.rfft is not before[2] and scipy.fft.rfft is not before[3]
    finally:
        tracer.uninstall()
    assert (fluidrisk.psi, fluidrisk.descriptors.level_fixed_point, homogeneous.rfft, scipy.fft.rfft) == before


def test_known_defect_exempts_only_its_recorded_symptom():
    defect = workloads.KNOWN_DEFECTS["cli.first_return.two_state.theta0"]
    assert defect.matches(0, workloads.Outcome(False, value=1.0070625))
    assert not defect.matches(1, workloads.Outcome(False, value=1.0070625))  # another exit code
    assert not defect.matches(None, workloads.Outcome(False, note="raised"))  # the call raised
    assert not defect.matches(0, workloads.Outcome(False, value=0.3))  # another mass
    assert not defect.matches(0, workloads.Outcome(False, note="check raised"))  # no CSV


@pytest.mark.parametrize(
    "name, n_paths", [("pareto_psi_by_epoch8", 20_000), ("calendar_return_by_2", 3_000), ("pareto_first_return", 10_000)]
)
def test_committed_mc_reference_agrees_at_small_path_count(name, n_paths):
    ref = workloads.load_references()[name]
    value, se = workloads.MC_REFERENCES[name](n_paths, 7)
    band = workloads.MC_BAND * math.hypot(se, ref["std_error"])
    assert abs(value - ref["value"]) <= band


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    seed = 3
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(ROOT / "bench" / "results" / f"{workload}-seed{seed}-trace{trace}.json") as fh:
        record = json.load(fh)
    return line, record


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", sorted(WORKLOAD_METRICS))
def test_smoke_traced_run_emits_every_metric_with_its_unit(workload):
    line, record = _run(workload, trace=1)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    e2e = record["metrics"]
    assert set(e2e) == BASE_METRICS | WORKLOAD_METRICS[workload]
    assert all(e2e[k]["unit"] == E2E_UNITS[k] for k in e2e)
    units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert set(units) == set(spans.LAYER_METRICS) | {"trace.overhead_s", "trace.overhead_frac", "trace.spans"}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units
    assert record["per_layer"] == line["metrics"]


def test_smoke_untraced_run_prints_the_end_to_end_metrics():
    line, record = _run("monte_carlo", trace=0)
    spec = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in line["metrics"].values())
    assert line["failed"] == 0 and line["correct"] is True
