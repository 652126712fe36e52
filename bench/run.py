#!/usr/bin/env python3
"""Offline benchmark of ``fluidrisk`` on the gallery models.

Run from the repository root:

    python3 bench/run.py --workload duration_free --seed 1 --seconds 40 --trace 0

Workloads (see ``workloads.py`` for their calls and why each was chosen):
``duration_free``, ``duration_dependent`` and ``monte_carlo``.  One caller in
one process makes a workload's calls in a fixed order (a closed loop), with
BLAS and the samplers pinned to one thread.  Passes over the calls repeat
until another pass would end after ``--seconds``; there is always at least
one.  Every output is checked against its reference after its call.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes and prints the per-layer metrics of
the traced ones (``spans.py``) with the tracing overhead.  The full record
(environment, every case's value, reference, error and tolerance, every
pass) goes to ``bench/results/``.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``, holding the metrics ``BENCHMARK.json`` lists for the mode.

``setup_s`` is the median of five set-ups: this process's and four fresh
interpreters' (``--setup-probe``), each timed from before ``import
fluidrisk`` to the first call.
"""

from __future__ import annotations

import os

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "FLUIDRISK_THREADS": "1",
}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "bench" / "results"
SETUP_PROBES = 4
#: Stop starting passes after this long, whatever ``--seconds`` says.
HARD_LIMIT_S = 120.0

#: End-to-end metrics and their units; the time buckets apply where a
#: workload makes the calls they time.
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
TRACE_UNITS = {"trace.overhead_s": "s", "trace.overhead_frac": "ratio", "trace.spans": "count"}


def _checkout_or_exit() -> None:
    """Put the checkout's ``src`` and ``tests`` first on the path, or exit 2."""
    needed = [ROOT / "src" / "fluidrisk" / "__init__.py", ROOT / "tests" / "_oracles.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: {ROOT} is not a fluidrisk checkout (missing {', '.join(missing)})", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]


def _setup(workload_cls, work, smoke: bool):
    t0 = time.perf_counter()
    wl = workload_cls(work, smoke)
    elapsed = time.perf_counter() - t0
    src = (ROOT / "src").resolve()
    if src not in Path(wl.fr.__file__).resolve().parents:
        print(f"error: imported fluidrisk from {wl.fr.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)
    return wl, elapsed


def _probe_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--setup-probe"]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, cwd=ROOT, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_pass(cases, seed: int, pass_index: int) -> dict:
    """One pass over the cases: wall time, per-case times and checked outcomes."""
    from workloads import KNOWN_DEFECTS, Outcome, mc_seed, run_case

    times, outcomes = [], []
    t0 = time.perf_counter()
    for ci, case in enumerate(cases):
        c0 = time.perf_counter()
        try:
            output, warned = run_case(case, mc_seed(seed, pass_index, ci))
        except Exception as exc:  # a raising call is a failed case, not a crashed run
            output, warned = None, []
            outcome = Outcome(False, note=f"raised {type(exc).__name__}: {exc}")
        c1 = time.perf_counter()
        if output is not None:
            try:
                outcome = case.check(output)
            except Exception as exc:
                outcome = Outcome(False, note=f"check raised {type(exc).__name__}: {exc}")
        times.append(c1 - c0)
        defect = KNOWN_DEFECTS.get(case.name)
        outcomes.append(
            {
                "case": case.name,
                "kind": case.kind,
                "ok": outcome.ok,
                "known_defect": not outcome.ok and defect is not None and defect.matches(output, outcome),
                "value": outcome.value,
                "reference": outcome.reference,
                "error": outcome.error,
                "tolerance": outcome.tolerance,
                "seed_error": case.seed_error,
                "deterministic": outcome.deterministic,
                "note": outcome.note,
                "warnings": warned,
            }
        )
    return {"wall_s": time.perf_counter() - t0, "case_s": times, "outcomes": outcomes}


def measure(cases, seed: int, seconds: float, tracer=None) -> tuple[list, list]:
    """Passes until another would end after ``seconds``.

    With a tracer, untraced and traced passes alternate, starting untraced,
    and there is at least one of each.  Returns ``(untraced, traced)``.
    """
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        index = len(untraced) + len(traced)
        if tracer is not None and len(traced) < len(untraced):
            lo = tracer.mark()
            tracer.install()
            try:
                rec = run_pass(cases, seed, index)
            finally:
                tracer.uninstall()
            rec["spans"] = (lo, tracer.mark())
            rec["traced"] = True
            traced.append(rec)
        else:
            rec = run_pass(cases, seed, index)
            rec["traced"] = False
            untraced.append(rec)
        if tracer is not None and not traced:
            continue
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall_s"] for p in untraced + traced)
        if elapsed + typical > seconds or elapsed > HARD_LIMIT_S:
            return untraced, traced


def end_to_end(cases, passes, setups) -> dict:
    """End-to-end metrics of the untraced passes, by name, with units."""
    walls = [p["wall_s"] for p in passes]
    q1, q3 = _quartiles(walls)
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(walls),
    }
    buckets = {
        "psi": "psi_s",
        "ruin": "ruin_s",
        "bridge": "bridge_s",
        "finite_time": "finite_time_s",
        "survival": "survival_s",
        "cli": "cli_s",
    }
    for kind, metric in buckets.items():
        idx = [i for i, c in enumerate(cases) if c.kind == kind]
        if idx:
            metrics[metric] = statistics.median(sum(p["case_s"][i] for i in idx) for p in passes)
    mc = [i for i, c in enumerate(cases) if c.paths]
    if mc:
        paths = sum(cases[i].paths for i in mc)
        metrics["mc_paths_per_s"] = statistics.median(
            paths / sum(p["case_s"][i] for i in mc) for p in passes
        )
    errors = [
        o["error"]
        for p in passes
        for o in p["outcomes"]
        if o["deterministic"] and o["error"] is not None
    ]
    if errors:
        metrics["max_abs_err"] = max(errors)
    outcomes = [o for p in passes for o in p["outcomes"]]
    metrics["failed_frac"] = sum(not o["ok"] for o in outcomes) / len(outcomes)
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()},
        "pass_s": {"median": metrics["pass_s"], "q1": q1, "q3": q3, "passes": len(walls)},
        "setup_samples_s": setups,
    }


def per_layer(tracer, traced, untraced) -> dict:
    """Per-layer metrics: medians over traced passes, and the tracing overhead.

    The overhead pairs each traced pass with the untraced pass just before
    it (``measure`` alternates them) and takes the median of the paired
    differences, so that a drift of the machine's speed over the run cancels
    as far as it is slow.  Where pass-to-pass noise exceeds the overhead the
    figure is unresolved and may come out negative.
    """
    from spans import LAYER_METRICS, layer_metrics

    rows = [layer_metrics(tracer, p["spans"][0], p["spans"][1]) for p in traced]
    values = {k: statistics.median(r[k] for r in rows) for k in LAYER_METRICS}
    pairs = [(t["wall_s"], u["wall_s"]) for t, u in zip(traced, untraced)]
    values["trace.overhead_s"] = statistics.median(t - u for t, u in pairs)
    values["trace.overhead_frac"] = statistics.median((t - u) / u for t, u in pairs)
    values["trace.spans"] = statistics.median(p["spans"][1] - p["spans"][0] for p in traced)
    units = {**LAYER_METRICS, **TRACE_UNITS}
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_pins": THREAD_PINS,
        "sampler_threads": 1,
        "load_model": "closed loop, one caller in one process",
    }


def _contract_names(trace: bool) -> list[str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def _print_table(workload: str, seed: int, metrics: dict, record: dict) -> None:
    print(f"workload {workload}  seed {seed}  ({record['load_model']})")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    ps = record.get("pass_s")
    if ps:
        print(f"  pass_s: median {ps['median']:.4f} s, q1 {ps['q1']:.4f}, q3 {ps['q3']:.4f}, {ps['passes']} passes")
    failures = {}
    for p in record["passes"]:
        for o in p["outcomes"]:
            if not o["ok"]:
                failures.setdefault(o["case"], o)
    for name, o in failures.items():
        tag = " [known defect]" if o["known_defect"] else " [INCORRECT]"
        print(f"  FAILED {name}{tag}: {o['note']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest size (self-tests)")
    parser.add_argument("--setup-probe", action="store_true", help="time set-up only and print it")
    args = parser.parse_args(argv)

    _checkout_or_exit()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    work = RESULTS / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl, setup_s = _setup(cls, work, args.smoke)
        if args.setup_probe:
            print(setup_s)
            return 0
        setups = [setup_s] + [_probe_setup(args) for _ in range(SETUP_PROBES)]
        names = _contract_names(bool(args.trace))

        t_ref = time.perf_counter()
        wl.references()
        reference_s = time.perf_counter() - t_ref
        cases = wl.cases()

        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
        untraced, traced = measure(cases, args.seed, args.seconds, tracer)

        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            **environment(),
            "reference_s": reference_s,
            "passes": [{k: v for k, v in p.items() if k != "spans"} for p in untraced + traced],
        }
        e2e = end_to_end(cases, untraced, setups)
        record.update(e2e)
        if tracer is not None:
            metrics = per_layer(tracer, traced, untraced)
            record["per_layer"] = metrics
            RESULTS.mkdir(parents=True, exist_ok=True)
            tracer.save(RESULTS / f"{args.workload}-seed{args.seed}-spans.npz")
        else:
            metrics = e2e["metrics"]
        RESULTS.mkdir(parents=True, exist_ok=True)
        with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
            json.dump(record, fh, indent=1, default=str)

        _print_table(args.workload, args.seed, {**e2e["metrics"], **(metrics if tracer else {})}, record)
        outcomes = [o for p in untraced + traced for o in p["outcomes"]]
        failed = [o for o in outcomes if not o["ok"]]
        missing = [n for n in names if n not in metrics]
        if missing:
            print(f"error: metrics missing from this run: {missing}", file=sys.stderr)
            return 1
        line = {
            "correct": all(o["known_defect"] for o in failed),
            "attempted": len(outcomes),
            "failed": len(failed),
            "metrics": {n: metrics[n] for n in names},
        }
        print(json.dumps(line))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
