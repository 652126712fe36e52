"""Span tracing of ``fluidrisk`` from outside the library.

The tracer wraps the public functions of each traced module and patches
every module attribute that binds them, so calls made through any import
path (``fluidrisk.psi``, ``descriptors.level_fixed_point``, a function-local
``from .homogeneous import ...``) open a span.  Spans are kept in memory as
``(name, start, end, parent)`` rows and written out when the run ends.

The scipy FFT names bound in ``homogeneous`` are wrapped as
``homogeneous.fft``.  ``bridge.gamma_middle`` imports ``rfft``/``irfft``
from ``scipy.fft`` at call time, so wrapping those ``scipy.fft`` attributes
gives ``bridge.fft``; ``homogeneous`` bound its own copies at import and
does not see that patch.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

#: Modules whose public functions (``__all__``, else names without a leading
#: underscore) are traced, in layer order.
LAYERS = ("model", "survival", "bridge", "homogeneous", "descriptors", "montecarlo", "simulate", "cli")

_HOMOGENEOUS_FFT = ("rfft", "irfft", "rfft2", "irfft2")
_BRIDGE_FFT = ("rfft", "irfft")


def _fft_points(args, kwargs, result) -> float:
    """Transform points of one scipy FFT call: transform length times batch."""
    import numpy as np

    arr = np.asarray(args[0])
    if "s" in kwargs:
        length = float(np.prod(kwargs["s"]))
        batch = arr.size / float(np.prod(arr.shape[-len(kwargs["s"]):]))
    else:
        axis = kwargs.get("axis", -1)
        length = float(kwargs.get("n", arr.shape[axis]))
        batch = arr.size / arr.shape[axis]
    return length * batch


def _first_return_counts(args, kwargs, result) -> dict:
    import numpy as np

    censored = result.n_epoch == 0
    epochs = np.where(censored, result.max_epochs, result.n_epoch).sum()
    return {"paths": float(result.n_paths), "epochs": float(epochs), "censored": float(censored.sum())}


def _tensor_bytes(result) -> float:
    total = 0
    for entry in result.slices.values():
        for arr in entry if isinstance(entry, tuple) else (entry,):
            total += arr.nbytes
    return float(total)


def _level_grid_levels(args, kwargs) -> float:
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    return float(grid.n_levels)


#: Per-span counters taken from a call's arguments and result.
_COUNTERS = {
    "model.eval_kernel_batch": lambda a, k, r: {"points": float(len(r[0]))},
    "bridge.bridge_recursion": lambda a, k, r: {
        "orders": float(len(r.orders)),
        "tensor_bytes": _tensor_bytes(r),
    },
    "homogeneous.level_fixed_point": lambda a, k, r: {
        "sweeps": float(r[2]["iterations"]),
        "grid_levels": _level_grid_levels(a, k),
    },
    "homogeneous.fft": lambda a, k, r: {"points": _fft_points(a, k, r), "bytes": float(r.nbytes)},
    "bridge.fft": lambda a, k, r: {"points": _fft_points(a, k, r), "bytes": float(r.nbytes)},
    "descriptors.ruin_descriptor": lambda a, k, r: {
        "aug_states": float(r.erlangized.model.p),
        "sweeps": float(sum(r.info["iterations"]))
        if isinstance(r.info.get("iterations"), list)
        else 0.0,
    },
    "montecarlo.first_return_samples": _first_return_counts,
    "simulate.simulate_until_return": lambda a, k, r: {"epochs": float(r.n_used)},
}


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.counters: dict[int, dict] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        count = _COUNTERS.get(name)
        names, start, end, parent, stack = self.names, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                self.counters[idx] = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _patch_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fluidrisk" or mod_name.startswith("fluidrisk.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced function and bind the wrapper wherever it is bound."""
        import importlib

        import scipy.fft

        for layer in LAYERS:
            mod = importlib.import_module(f"fluidrisk.{layer}")
            public = getattr(mod, "__all__", None)
            if public is None:
                public = [a for a in vars(mod) if not a.startswith("_")]
            for attr in public:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    self._patch_everywhere(fn, self.wrap(f"{layer}.{attr}", fn))
        homogeneous = sys.modules["fluidrisk.homogeneous"]
        for attr in _HOMOGENEOUS_FFT:
            fn = getattr(homogeneous, attr)
            self._patches.append((homogeneous, attr, fn))
            setattr(homogeneous, attr, self.wrap("homogeneous.fft", fn))
        for attr in _BRIDGE_FFT:
            fn = getattr(scipy.fft, attr)
            self._patches.append((scipy.fft, attr, fn))
            setattr(scipy.fft, attr, self.wrap("bridge.fft", fn))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def mark(self) -> int:
        """Span count so far; spans recorded after a mark belong to the next pass."""
        return len(self.names)

    def save(self, path) -> None:
        """Write the spans as columns of a compressed ``.npz`` archive."""
        import numpy as np

        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        np.savez_compressed(
            path,
            names=np.array(table),
            name=np.array([index[n] for n in self.names], dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int64),
        )


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the part of its interval its children cover.

    Children are clipped to the parent's interval and overlapping children are
    merged, so each instant is subtracted once.
    """
    children = defaultdict(list)
    for idx, par in enumerate(parent):
        if par >= 0:
            children[par].append(idx)
    out = []
    for idx in range(len(start)):
        lo, hi = start[idx], end[idx]
        covered, reach = 0.0, lo
        for a, b in sorted((max(start[c], lo), min(end[c], hi)) for c in children[idx]):
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        out.append((hi - lo) - covered)
    return out


def _has_ancestor(idx: int, parent, names, prefix: str, memo: dict) -> bool:
    chain = []
    found = False
    node = parent[idx]
    while node >= 0:
        if node in memo:
            found = memo[node]
            break
        chain.append(node)
        if names[node].startswith(prefix):
            found = True
            break
        node = parent[node]
    for n in chain:
        memo[n] = found
    return found


#: Per-layer metrics with their units, in report order.
LAYER_METRICS = {
    "model.eval_kernel.calls": "count",
    "model.eval_kernel.s": "s",
    "model.eval_kernel_batch.calls": "count",
    "model.eval_kernel_batch.points": "count",
    "model.eval_kernel_batch.s": "s",
    "model.uniformized_kernel.calls": "count",
    "model.uniformized_kernel.s": "s",
    "survival.survival_matrix.self_s": "s",
    "survival.renewal_operator.self_s": "s",
    "survival.rk4_steps": "count",
    "bridge.bridge_recursion.calls": "count",
    "bridge.orders_built": "count",
    "bridge.bridge2_slice.s": "s",
    "bridge.gamma_first.s": "s",
    "bridge.gamma_middle.calls": "count",
    "bridge.gamma_middle.s": "s",
    "bridge.gamma_last.s": "s",
    "bridge.fft.s": "s",
    "bridge.tensor_bytes": "B",
    "homogeneous.level_fixed_point.calls": "count",
    "homogeneous.level_fixed_point.s": "s",
    "homogeneous.level.sweeps": "count",
    "homogeneous.level.s_per_sweep": "s",
    "homogeneous.level.grid_levels": "count",
    "homogeneous.run_split_recursion.s": "s",
    "homogeneous.fft.calls": "count",
    "homogeneous.fft.points": "count",
    "homogeneous.fft.s": "s",
    "homogeneous.fft.bytes_computed": "B",
    "descriptors.psi.self_s": "s",
    "descriptors.ruin_descriptor.self_s": "s",
    "descriptors.erlangize.s": "s",
    "descriptors.ruin.aug_states": "count",
    "descriptors.ruin.sweeps": "count",
    "descriptors.finite_time_return.self_s": "s",
    "montecarlo.first_return_samples.s": "s",
    "montecarlo.path_epochs": "count",
    "montecarlo.epoch_ns": "ns",
    "montecarlo.censored_frac": "ratio",
    "simulate.simulate_until_return.s": "s",
    "simulate.epochs": "count",
    "simulate.epoch_us": "us",
    "cli.main.self_s": "s",
}


def layer_metrics(tracer: Tracer, lo: int, hi: int) -> dict[str, float]:
    """Per-layer metrics of the spans recorded between two marks (one pass)."""
    names = tracer.names[lo:hi]
    start = tracer.start[lo:hi]
    end = tracer.end[lo:hi]
    parent = [p - lo if p >= lo else -1 for p in tracer.parent[lo:hi]]
    own = self_times(start, end, parent)

    calls = defaultdict(float)
    total = defaultdict(float)
    self_s = defaultdict(float)
    sums = defaultdict(float)
    memo: dict = {}
    under_survival = 0
    for i, name in enumerate(names):
        calls[name] += 1
        total[name] += end[i] - start[i]
        self_s[name] += own[i]
        for key, value in tracer.counters.get(lo + i, {}).items():
            sums[f"{name}.{key}"] += value
        if name == "model.eval_kernel" and _has_ancestor(i, parent, names, "survival.", memo):
            under_survival += 1

    sweeps = sums["homogeneous.level_fixed_point.sweeps"]
    epochs = sums["montecarlo.first_return_samples.epochs"]
    paths = sums["montecarlo.first_return_samples.paths"]
    sim_epochs = sums["simulate.simulate_until_return.epochs"]
    out = {
        "model.eval_kernel.calls": calls["model.eval_kernel"],
        "model.eval_kernel.s": total["model.eval_kernel"],
        "model.eval_kernel_batch.calls": calls["model.eval_kernel_batch"],
        "model.eval_kernel_batch.points": sums["model.eval_kernel_batch.points"],
        "model.eval_kernel_batch.s": total["model.eval_kernel_batch"],
        "model.uniformized_kernel.calls": calls["model.uniformized_kernel"],
        "model.uniformized_kernel.s": total["model.uniformized_kernel"],
        "survival.survival_matrix.self_s": self_s["survival.survival_matrix"],
        "survival.renewal_operator.self_s": self_s["survival.renewal_operator"],
        "survival.rk4_steps": under_survival / 3.0,
        "bridge.bridge_recursion.calls": calls["bridge.bridge_recursion"],
        "bridge.orders_built": sums["bridge.bridge_recursion.orders"],
        "bridge.bridge2_slice.s": total["bridge.bridge2_slice"],
        "bridge.gamma_first.s": total["bridge.gamma_first"],
        "bridge.gamma_middle.calls": calls["bridge.gamma_middle"],
        "bridge.gamma_middle.s": total["bridge.gamma_middle"],
        "bridge.gamma_last.s": total["bridge.gamma_last"],
        "bridge.fft.s": total["bridge.fft"],
        "bridge.tensor_bytes": sums["bridge.bridge_recursion.tensor_bytes"],
        "homogeneous.level_fixed_point.calls": calls["homogeneous.level_fixed_point"],
        "homogeneous.level_fixed_point.s": total["homogeneous.level_fixed_point"],
        "homogeneous.level.sweeps": sweeps,
        "homogeneous.level.s_per_sweep": total["homogeneous.level_fixed_point"] / sweeps
        if sweeps
        else 0.0,
        "homogeneous.level.grid_levels": sums["homogeneous.level_fixed_point.grid_levels"],
        "homogeneous.run_split_recursion.s": total["homogeneous.run_split_recursion"],
        "homogeneous.fft.calls": calls["homogeneous.fft"],
        "homogeneous.fft.points": sums["homogeneous.fft.points"],
        "homogeneous.fft.s": total["homogeneous.fft"],
        "homogeneous.fft.bytes_computed": sums["homogeneous.fft.bytes"],
        "descriptors.psi.self_s": self_s["descriptors.psi"],
        "descriptors.ruin_descriptor.self_s": self_s["descriptors.ruin_descriptor"],
        "descriptors.erlangize.s": total["descriptors.erlangize"],
        "descriptors.ruin.aug_states": sums["descriptors.ruin_descriptor.aug_states"],
        "descriptors.ruin.sweeps": sums["descriptors.ruin_descriptor.sweeps"],
        "descriptors.finite_time_return.self_s": self_s["descriptors.finite_time_return"],
        "montecarlo.first_return_samples.s": total["montecarlo.first_return_samples"],
        "montecarlo.path_epochs": epochs,
        "montecarlo.epoch_ns": 1e9 * total["montecarlo.first_return_samples"] / epochs
        if epochs
        else 0.0,
        "montecarlo.censored_frac": sums["montecarlo.first_return_samples.censored"] / paths
        if paths
        else 0.0,
        "simulate.simulate_until_return.s": total["simulate.simulate_until_return"],
        "simulate.epochs": sim_epochs,
        "simulate.epoch_us": 1e6 * total["simulate.simulate_until_return"] / sim_epochs
        if sim_epochs
        else 0.0,
        "cli.main.self_s": self_s["cli.main"],
    }
    return out
