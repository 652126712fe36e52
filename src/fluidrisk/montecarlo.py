"""Vectorized Monte Carlo reference engines.

Each sampler splits its paths into chunks, to bound memory, and walks each
chunk in lockstep on the walker of :mod:`fluidrisk.simulate`, which resolves
every epoch on the one stepper there.  One chunk runner gives chunk ``b`` its
own RNG stream, derived from ``SeedSequence((seed, b))``.  Results are
reproducible and independent of ``n_threads``; they depend on
``chunk_size``, which fixes how paths are split among the streams.  Censored
paths (no event by ``max_epochs``) contribute weight zero, which biases
weighted estimates downward; the censored fraction is always reported so
callers can bracket the bias.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import FluidModel
from .simulate import _check_start, _first_passage_model, _first_return_chunk, _Walk

__all__ = [
    "McEstimate",
    "ReturnSamples",
    "BridgeHistogram",
    "first_return_samples",
    "mc_first_return",
    "mc_ruin",
    "mc_bridge_histogram",
    "arrival_time_samples",
]

#: Paths per chunk.  Each chunk draws from its own stream, so for a fixed seed
#: a different ``chunk_size`` gives different samples.
_DEFAULT_CHUNK = 1 << 14


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo mean with its standard error and censoring diagnostics."""

    value: float
    std_error: float
    n_paths: int
    censored_fraction: float
    seed: int


@dataclass(frozen=True)
class ReturnSamples:
    """Per-path outcomes of first-passage runs on the uniformized grid.

    ``n_epoch`` is the epoch index of the first grid point at or below the
    barrier (0 when censored), ``exit_state`` the state in force on the
    crossing segment (-1 when censored), ``weight`` the accumulated
    ``exp(-theta1 * dividends - theta2 * costs)`` (0 when censored), and
    ``crossing_time`` the exact within-segment hitting time of the barrier
    (+inf when censored; the fluid is piecewise linear so the crossing time
    is exact, not grid-rounded).
    """

    n_epoch: np.ndarray
    exit_state: np.ndarray
    weight: np.ndarray
    crossing_time: np.ndarray
    start_state: np.ndarray
    n_paths: int
    max_epochs: int
    seed: int

    @property
    def censored_fraction(self) -> float:
        return float(np.mean(self.n_epoch == 0))


@dataclass(frozen=True)
class BridgeHistogram:
    """Binned fixed-epoch bridge events from simulation.

    ``counts[j]`` is the 2-D histogram, over final-segment duration and net
    fluid displacement, of paths whose state on the final segment is ``j``
    and whose intermediate grid levels all stayed at or above
    ``max(0, final displacement)``.  ``n_hits`` counts qualifying paths;
    ``empty`` flags exit states that were never observed.
    """

    counts: np.ndarray
    s_edges: np.ndarray
    l_edges: np.ndarray
    n_hits: np.ndarray
    n_paths: int
    n_epochs: int
    seed: int

    @property
    def empty(self) -> np.ndarray:
        return self.n_hits == 0


def _run_chunks(chunk, n_paths: int, chunk_size: int, seed: int, n_threads: int) -> list:
    """Split ``n_paths`` into chunks of ``chunk_size`` and return, in chunk
    order, ``chunk(m, rng)`` of chunk ``b``: its ``m`` paths and its stream
    ``default_rng(SeedSequence((seed, b)))``."""
    if n_paths < 1:
        raise ValueError(f"n_paths must be at least 1, got {n_paths!r}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be at least 1, got {chunk_size!r}")
    full, rem = divmod(n_paths, chunk_size)
    sizes = [chunk_size] * full + ([rem] if rem else [])

    def worker(b: int):
        return chunk(sizes[b], np.random.default_rng(np.random.SeedSequence((seed, b))))

    if n_threads > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            return list(pool.map(worker, range(len(sizes))))
    return [worker(b) for b in range(len(sizes))]


def first_return_samples(
    model: FluidModel,
    z: float,
    theta1: float,
    theta2: float,
    n_paths: int,
    max_epochs: int,
    seed: int,
    start_state: int | None = None,
    barrier_offset: float = 0.0,
    chunk_size: int = _DEFAULT_CHUNK,
    n_threads: int = 1,
) -> ReturnSamples:
    """Sample first-passage outcomes of the fluid below its start (or a barrier).

    The fluid starts at relative level 0; the event is the first Poisson
    epoch whose level is ``<= -barrier_offset`` (first return for offset 0,
    ruin from capital ``barrier_offset`` otherwise).  Starting states are
    drawn from ``model.alpha`` restricted to the positive-rate class unless
    ``start_state`` pins one.
    """
    base_model = _first_passage_model(
        model, z, theta1, theta2, max_epochs, start_state, barrier_offset
    )

    def chunk(m: int, rng: np.random.Generator):
        return _first_return_chunk(
            base_model, z, theta1, theta2, m, max_epochs, rng, start_state, barrier_offset
        )

    parts = _run_chunks(chunk, n_paths, chunk_size, seed, n_threads)
    return ReturnSamples(
        n_epoch=np.concatenate([p[0] for p in parts]),
        exit_state=np.concatenate([p[1] for p in parts]),
        weight=np.concatenate([p[2] for p in parts]),
        crossing_time=np.concatenate([p[3] for p in parts]),
        start_state=np.concatenate([p[4] for p in parts]),
        n_paths=n_paths,
        max_epochs=max_epochs,
        seed=seed,
    )


def _estimate(values: np.ndarray, censored: float, seed: int) -> McEstimate:
    n = values.size
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else float("nan")
    return McEstimate(value=mean, std_error=se, n_paths=n, censored_fraction=censored, seed=seed)


def mc_first_return(
    model: FluidModel,
    z: float,
    theta1: float,
    theta2: float,
    n_paths: int,
    max_epochs: int,
    seed: int,
    start_state: int | None = None,
    n_threads: int = 1,
) -> McEstimate:
    """Estimate the weighted first-return quantity ``E[1{return} e^{-...}]``.

    Censored paths contribute zero weight, so the value is a lower bound up
    to the reported censored fraction.
    """
    if n_paths < 100:
        raise ValueError(f"n_paths must be at least 100 for a meaningful estimate, got {n_paths}")
    samples = first_return_samples(
        model, z, theta1, theta2, n_paths, max_epochs, seed,
        start_state=start_state, n_threads=n_threads,
    )
    return _estimate(samples.weight, samples.censored_fraction, seed)


def mc_ruin(
    model: FluidModel,
    u: float,
    z: float,
    n_paths: int,
    max_epochs: int,
    seed: int,
    start_state: int | None = None,
    theta1: float = 0.0,
    theta2: float = 0.0,
    horizon: float | None = None,
    n_threads: int = 1,
) -> McEstimate:
    """Estimate the (weighted) ruin quantity from initial capital ``u``.

    Ruin is the fluid's first passage to zero starting from ``F(0) = u``;
    crossing times are exact within segments, so an optional continuous-time
    ``horizon`` restricts to ruin before that time.
    """
    if u < 0.0:
        raise ValueError(f"initial capital must be nonnegative, got {u!r}")
    if horizon is not None and not horizon > 0.0:
        raise ValueError(f"horizon must be positive, got {horizon!r}")
    if n_paths < 100:
        raise ValueError(f"n_paths must be at least 100 for a meaningful estimate, got {n_paths}")
    samples = first_return_samples(
        model, z, theta1, theta2, n_paths, max_epochs, seed,
        start_state=start_state, barrier_offset=u, n_threads=n_threads,
    )
    values = samples.weight
    if horizon is not None:
        values = np.where(samples.crossing_time <= horizon, values, 0.0)
    return _estimate(values, samples.censored_fraction, seed)


def mc_bridge_histogram(
    model: FluidModel,
    z: float,
    n: int,
    s_edges,
    l_edges,
    n_paths: int,
    seed: int,
    start_state: int | None = None,
    chunk_size: int = _DEFAULT_CHUNK,
    n_threads: int = 1,
) -> BridgeHistogram:
    """Histogram the fixed-``n`` bridge event by simulation.

    A path qualifies when its state on segment ``(T_{n-1}, T_n)`` has
    negative rate and every intermediate grid level stays at or above
    ``max(0, F(T_n) - F(0))``; qualifying paths are binned over
    ``(U(T_n-), F(T_n) - F(0))`` per final-segment state.
    """
    _check_start(model, z, start_state)
    if n < 2:
        raise ValueError(f"bridge histograms need at least 2 epochs, got {n!r}")
    s_edges = np.asarray(s_edges, dtype=float)
    l_edges = np.asarray(l_edges, dtype=float)
    if s_edges.ndim != 1 or s_edges.size < 2 or np.any(np.diff(s_edges) <= 0):
        raise ValueError("s_edges must be strictly increasing with at least two entries")
    if l_edges.ndim != 1 or l_edges.size < 2 or np.any(np.diff(l_edges) <= 0):
        raise ValueError("l_edges must be strictly increasing with at least two entries")

    def chunk(m: int, rng: np.random.Generator):
        walk = _Walk(model, z, m, start_state, rng)
        min_interior = np.full(m, np.inf)
        for _ in range(n - 1):
            walk.segment()
            min_interior = np.minimum(min_interior, walk.level_end)
            walk.jump()
        walk.segment()
        final, level = walk.state, walk.level_end
        qualifies = (model.rates[final] < 0.0) & (min_interior >= np.maximum(0.0, level))
        counts = np.zeros((model.p, s_edges.size - 1, l_edges.size - 1), dtype=np.int64)
        hits = np.zeros(model.p, dtype=np.int64)
        for j in np.flatnonzero(np.bincount(final[qualifies], minlength=model.p)):
            sel = qualifies & (final == j)
            hits[j] = int(sel.sum())
            h, _, _ = np.histogram2d(walk.u_arg[sel], level[sel], bins=[s_edges, l_edges])
            counts[j] = h.astype(np.int64)
        return counts, hits

    parts = _run_chunks(chunk, n_paths, chunk_size, seed, n_threads)
    counts = sum(p[0] for p in parts)
    hits = sum(p[1] for p in parts)
    return BridgeHistogram(
        counts=counts,
        s_edges=s_edges,
        l_edges=l_edges,
        n_hits=hits,
        n_paths=n_paths,
        n_epochs=n,
        seed=seed,
    )


def arrival_time_samples(
    model: FluidModel,
    z: float,
    n_arrivals: int,
    n_paths: int,
    seed: int,
    max_epochs: int = 100_000,
    start_state: int | None = None,
    chunk_size: int = _DEFAULT_CHUNK,
    n_threads: int = 1,
) -> np.ndarray:
    """Sample the first ``n_arrivals`` arrival times of each of ``n_paths`` paths.

    Returns an ``(n_paths, n_arrivals)`` array; entries are NaN for arrivals
    not observed within ``max_epochs`` (report and bound this censoring when
    comparing distributions).
    """
    _check_start(model, z, start_state)
    if n_arrivals < 1:
        raise ValueError("n_arrivals must be positive")
    if max_epochs < 1:
        raise ValueError(f"max_epochs must be at least 1, got {max_epochs!r}")

    def chunk(m: int, rng: np.random.Generator):
        walk = _Walk(model, z, m, start_state, rng)
        times = np.full((m, n_arrivals), np.nan)
        n_seen = np.zeros(m, dtype=np.int64)
        for _ in range(max_epochs):
            if walk.idx.size == 0:
                break
            walk.segment()
            arrived = walk.jump()
            if np.any(arrived):
                idx = walk.idx[arrived]
                times[idx, n_seen[idx]] = walk.t[arrived]
                n_seen[idx] += 1
            walk.keep(n_seen[walk.idx] < n_arrivals)
        return times

    return np.concatenate(_run_chunks(chunk, n_paths, chunk_size, seed, n_threads), axis=0)

