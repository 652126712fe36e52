"""Regenerate ``references.json``: the Monte Carlo references with no closed form.

Run from the repository root (about five minutes on one core):

    python3 bench/make_references.py

Each reference is the mean of equal blocks with seeds derived from the base
seed, so the file records the value, its standard error, the path count and
the seed that reproduce it.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from pathlib import Path

os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402

#: name -> (paths, block size, base seed)
PLAN = {
    "pareto_psi_by_epoch8": (10_000_000, 500_000, 20_230_412),
    "calendar_return_by_2": (1_000_000, 1_000_000, 20_230_412),
    "pareto_first_return": (4_000_000, 500_000, 20_230_412),
}

DESCRIPTIONS = {
    "pareto_psi_by_epoch8": "first_return_samples(pareto_renewal, 0, 0.3, 0.2, n, 8, seed, "
    "start_state=0): mean weight of paths back at or below the start by epoch 8",
    "calendar_return_by_2": "simulate_path(calendar_switch, 0, 2.0, [seed, k], start_state=0) "
    "for k < n: share of paths with a Poisson epoch before time 2 at or below the start",
    "pareto_first_return": "mc_first_return(pareto_renewal, 0, 0.3, 0.2, n, 10_000, seed)",
}


def estimate(name: str, n_paths: int, block: int, seed: int) -> tuple[float, float]:
    fn = workloads.MC_REFERENCES[name]
    blocks = n_paths // block
    parts = [fn(block, workloads.mc_seed(seed, 0, b)) for b in range(blocks)]
    value = sum(v for v, _ in parts) / blocks
    se = math.sqrt(sum(s * s for _, s in parts)) / blocks
    return value, se


def main() -> int:
    import fluidrisk

    out = {}
    for name, (n_paths, block, seed) in PLAN.items():
        t0 = time.perf_counter()
        value, se = estimate(name, n_paths, block, seed)
        out[name] = {
            "value": value,
            "std_error": se,
            "n_paths": n_paths,
            "block_paths": block,
            "seed": seed,
            "computed_by": DESCRIPTIONS[name],
        }
        print(f"{name}: {value:.7f} +- {se:.2e} ({time.perf_counter() - t0:.1f} s)", flush=True)
    doc = {
        "about": "Monte Carlo references without a closed form; regenerate with "
        "bench/make_references.py. Block b of a reference uses seed "
        "workloads.mc_seed(seed, 0, b).",
        "fluidrisk_version": fluidrisk.__version__,
        "numpy": np.__version__,
        "references": out,
    }
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
