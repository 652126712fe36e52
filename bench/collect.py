#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

Run from the repository root, for example:

    python3 bench/collect.py --seeds 1-10 --out bench/baseline.json

For each workload this makes one untraced run per seed and one traced run
on the first seed, each measuring ``run_seconds`` of ``BENCHMARK.json``,
then records every end-to-end metric's
values with their median, quartiles and spread (interquartile distance over
the median, as ``statistics.quantiles(values, n=4)`` gives the quartiles),
the failure counts, the environment of the first run, and the per-layer
metrics of the traced run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("duration_free", "duration_dependent", "monte_carlo")
ENV_KEYS = ("python", "numpy", "scipy", "platform", "nproc", "affinity", "thread_pins", "sampler_threads", "load_model")


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(ROOT / "bench" / "results" / f"{workload}-seed{seed}-trace{trace}.json") as fh:
        return line, json.load(fh)


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    summary = {"seconds": seconds, "seeds": _seeds(args.seeds), "workloads": {}}
    for workload in WORKLOADS:
        metrics, lines, env = {}, [], None
        for seed in summary["seeds"]:
            t0 = time.perf_counter()
            line, record = _run(workload, seed, seconds, 0)
            env = env or {k: record[k] for k in ENV_KEYS}
            for name, m in record["metrics"].items():
                metrics.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
            lines.append({k: line[k] for k in ("correct", "attempted", "failed")}
                         | {"passes": record["pass_s"]["passes"], "run_wall_s": time.perf_counter() - t0})
            print(workload, seed, json.dumps(line["metrics"]), flush=True)
        entry = {
            "environment": env,
            "runs": lines,
            "metrics": {k: {"unit": v["unit"], **summarise(v["values"])} for k, v in metrics.items()},
        }
        traced_seed = summary["seeds"][0]
        _, record = _run(workload, traced_seed, seconds, 1)
        entry["per_layer"] = {"seed": traced_seed, "metrics": record["per_layer"]}
        summary["workloads"][workload] = entry
        for k, v in entry["metrics"].items():
            print(f"  {workload} {k}: median {v['median']:.6g} {v['unit']}, spread {v['spread']}", flush=True)
    with open(ROOT / args.out, "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
