"""Vectorized Monte Carlo reference engines.

Each sampler splits its paths into streams of ``_DEFAULT_CHUNK`` paths.
Stream ``b`` draws every random number of its paths from its own RNG,
``default_rng(SeedSequence((seed, b)))``, and walks them on the one refilled
walker of :mod:`fluidrisk.simulate`, on the calling thread: streams are
admitted in order whenever the live set falls to ``_DEFAULT_CHUNK // 8``
paths, so the long tail of one stream walks in the same epochs as the bulk
of the next, and the live set stays below ``_DEFAULT_CHUNK + _DEFAULT_CHUNK
// 8`` paths.  The first-passage samplers (``first_return_samples``,
``mc_first_return``, ``mc_ruin``) finish in Python floats once every stream
is admitted and at most ``simulate.TAIL_PATHS`` paths are live: one numpy
epoch costs about as much as a dozen paths' epochs in floats.  The tail
keeps the streams in lockstep and each stream draws its holding times and
uniforms in the order and batch sizes of the numpy epochs, on the same
float operations, so its samples are bit for bit those of the numpy walk.
``mc_bridge_histogram`` and ``arrival_time_samples`` walk their tails in
numpy.  Results are written in place at each path's number; they depend
only on the seed and the path count, not on when a stream was admitted.
Censored paths (no event by ``max_epochs``) contribute weight zero, which
biases weighted estimates downward; the censored fraction is always
reported so callers can bracket the bias.

The estimators ``mc_first_return`` and ``mc_ruin`` need only the mean
weight, so they walk with Russian roulette on the weights at
``ROULETTE_W_MIN`` (``first_return_samples(..., w_min=)``): a path whose
weight ``w`` falls below ``w_min`` goes on with probability ``w / w_min``,
carrying ``w_min``, and is retired with weight 0 otherwise.  The mean is
unchanged and the paths of negligible weight stop early.  Retired paths
are reported apart from censored ones (``rouletted_fraction``).  At
``theta = (0, 0)`` every weight is 1 and the roulette never draws.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .model import FluidModel
from .simulate import DUR, LEVEL, TIME, _check_start, _first_passage_alpha, _Walk, _walk_to_barrier

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

#: Paths per stream.  Each stream draws from its own RNG, so the stream size
#: fixes the samples of a seed; it also bounds the live set of a walk at
#: ``_DEFAULT_CHUNK + _DEFAULT_CHUNK // 8`` paths.
_DEFAULT_CHUNK = 1 << 14

#: The roulette threshold of ``mc_first_return`` and ``mc_ruin``.  On
#: two_state at theta = (0.3, 0.2), 8.7% of paths end below weight 1e-3;
#: they walk 72.8% of the epochs and carry 1.5e-5 of the estimate.
ROULETTE_W_MIN = 1e-3


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo mean with its standard error and censoring diagnostics.

    ``censored_fraction`` is the share of paths censored at ``max_epochs``
    (a downward bias of ``value``), ``rouletted_fraction`` the share retired
    by the weight roulette (no bias).
    """

    value: float
    std_error: float
    n_paths: int
    censored_fraction: float
    rouletted_fraction: float
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

    Sampled with ``w_min > 0``, the weights were played for by Russian
    roulette (:func:`first_return_samples`): a returning path's ``weight``
    carries the factor the roulette gave it, and a path the roulette retired
    has ``n_epoch`` the epoch it was retired at, ``exit_state`` -1,
    ``weight`` 0 and ``crossing_time`` +inf.  Its ``n_epoch`` is not 0, so
    ``censored_fraction`` counts only the paths censored at ``max_epochs``,
    and ``rouletted_fraction`` the paths the roulette retired.
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

    @property
    def rouletted_fraction(self) -> float:
        return float(np.mean((self.n_epoch > 0) & (self.exit_state < 0)))


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


def _streams(n_paths: int, seed: int):
    """The streams ``(offset, m, rng)`` of ``n_paths`` paths, in order.

    Stream ``b`` covers paths ``b * _DEFAULT_CHUNK`` onward and draws from
    ``default_rng(SeedSequence((seed, b)))``.  ``n_paths`` is checked here,
    before any stream is drawn.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be at least 1, got {n_paths!r}")
    chunk = _DEFAULT_CHUNK
    return (
        (lo, min(chunk, n_paths - lo), np.random.default_rng(np.random.SeedSequence((seed, b))))
        for b, lo in enumerate(range(0, n_paths, chunk))
    )


def _one_thread(n_threads: int) -> None:
    if n_threads != 1:
        raise ValueError(f"the samplers walk on the calling thread: n_threads must be 1, got {n_threads!r}")


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
    *,
    w_min: float = 0.0,
) -> ReturnSamples:
    """Sample first-passage outcomes of the fluid below its start (or a barrier).

    The fluid starts at relative level 0; the event is the first Poisson
    epoch whose level is ``<= -barrier_offset`` (first return for offset 0,
    ruin from capital ``barrier_offset`` otherwise).  Starting states are
    drawn from ``model.alpha`` restricted to the positive-rate class unless
    ``start_state`` pins one.  The samples depend only on ``seed`` and
    ``n_paths`` (and ``w_min``).

    ``w_min`` in ``[0, 1)`` is the weight roulette's threshold.  At 0, the
    default, every ``weight`` is the path's exact transform weight.  Above
    0, after each segment a live path whose weight ``w`` is below ``w_min``
    goes on with probability ``w / w_min`` and then carries ``w_min``; it is
    retired otherwise (see :class:`ReturnSamples` for how such a path is
    reported).  Each weight then has the exact weight's expectation, but
    not its value: use it for means, as ``mc_first_return`` and ``mc_ruin``
    do.  At ``theta = (0, 0)`` every weight is 1 and the roulette never
    draws, so the samples are those of ``w_min = 0``.
    """
    if not 0.0 <= w_min < 1.0:
        raise ValueError(f"w_min must lie in [0, 1), got {w_min!r}")
    cdf = _first_passage_alpha(model, z, theta1, theta2, max_epochs, start_state, barrier_offset)
    streams = _streams(n_paths, seed)
    out = (
        np.zeros(n_paths, dtype=np.int64),
        np.full(n_paths, -1, dtype=np.int64),
        np.zeros(n_paths),
        np.full(n_paths, np.inf),
    )
    starts = np.empty(n_paths, dtype=np.int64)
    walk = _Walk(model, z, streams, start_state, cdf, _DEFAULT_CHUNK // 8, starts)
    _walk_to_barrier(walk, model.rates, theta1, theta2, max_epochs, barrier_offset, out, w_min)
    n_epoch, exit_state, weight, crossing_time = out
    return ReturnSamples(
        n_epoch=n_epoch,
        exit_state=exit_state,
        weight=weight,
        crossing_time=crossing_time,
        start_state=starts,
        n_paths=n_paths,
        max_epochs=max_epochs,
        seed=seed,
    )


def _estimate(values: np.ndarray, samples: ReturnSamples) -> McEstimate:
    n = values.size
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else float("nan")
    return McEstimate(
        value=mean,
        std_error=se,
        n_paths=n,
        censored_fraction=samples.censored_fraction,
        rouletted_fraction=samples.rouletted_fraction,
        seed=samples.seed,
    )


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
    to the reported censored fraction.  The paths are walked with the weight
    roulette at ``ROULETTE_W_MIN`` (:func:`first_return_samples`), which
    leaves the mean unchanged; at ``theta = (0, 0)`` it never fires.
    ``n_threads`` must be 1: every stream is walked on the calling thread.
    """
    _one_thread(n_threads)
    if n_paths < 100:
        raise ValueError(f"n_paths must be at least 100 for a meaningful estimate, got {n_paths}")
    samples = first_return_samples(
        model, z, theta1, theta2, n_paths, max_epochs, seed,
        start_state=start_state, w_min=ROULETTE_W_MIN,
    )
    return _estimate(samples.weight, samples)


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
    ``horizon`` restricts to ruin before that time (a path retired by the
    roulette never counts).  The paths are walked with the weight roulette
    at ``ROULETTE_W_MIN``, as for :func:`mc_first_return`; ``n_threads``
    must be 1.
    """
    _one_thread(n_threads)
    if not u >= 0.0:
        raise ValueError(f"initial capital must be nonnegative, got {u!r}")
    if horizon is not None and not horizon > 0.0:
        raise ValueError(f"horizon must be positive, got {horizon!r}")
    if n_paths < 100:
        raise ValueError(f"n_paths must be at least 100 for a meaningful estimate, got {n_paths}")
    samples = first_return_samples(
        model, z, theta1, theta2, n_paths, max_epochs, seed,
        start_state=start_state, barrier_offset=u, w_min=ROULETTE_W_MIN,
    )
    values = samples.weight
    if horizon is not None:
        values = np.where(samples.crossing_time <= horizon, values, 0.0)
    return _estimate(values, samples)


def mc_bridge_histogram(
    model: FluidModel,
    z: float,
    n: int,
    s_edges,
    l_edges,
    n_paths: int,
    seed: int,
    start_state: int | None = None,
) -> BridgeHistogram:
    """Histogram the fixed-``n`` bridge event by simulation.

    A path qualifies when its state on segment ``(T_{n-1}, T_n)`` has
    negative rate and every intermediate grid level stays at or above
    ``max(0, F(T_n) - F(0))``; qualifying paths are binned over
    ``(U(T_n-), F(T_n) - F(0))`` per final-segment state.  The counts
    depend only on ``seed`` and ``n_paths``.
    """
    _check_start(model, z, start_state)
    if operator.index(n) < 2:
        raise ValueError(f"bridge histograms need at least 2 epochs, got {n!r}")
    s_edges = np.asarray(s_edges, dtype=float)
    l_edges = np.asarray(l_edges, dtype=float)
    if s_edges.ndim != 1 or s_edges.size < 2 or np.any(np.diff(s_edges) <= 0):
        raise ValueError("s_edges must be strictly increasing with at least two entries")
    if l_edges.ndim != 1 or l_edges.size < 2 or np.any(np.diff(l_edges) <= 0):
        raise ValueError("l_edges must be strictly increasing with at least two entries")

    walk = _Walk(model, z, _streams(n_paths, seed), start_state, refill_at=_DEFAULT_CHUNK // 8)
    low = np.full(n_paths, np.inf)  # lowest intermediate grid level per path
    counts = np.zeros((model.p, s_edges.size - 1, l_edges.size - 1), dtype=np.int64)
    hits = np.zeros(model.p, dtype=np.int64)
    while walk.refill():
        walk.segment()
        k = walk.done(n)  # the leading paths on their final segment
        if k:
            final, end = walk.state[:k], walk.x_end[:, :k]
            level = end[LEVEL]
            qualifies = (model.rates[final] < 0.0) & (low[walk.idx[:k]] >= np.maximum(0.0, level))
            for j in np.flatnonzero(np.bincount(final[qualifies], minlength=model.p)):
                sel = qualifies & (final == j)
                hits[j] += int(sel.sum())
                h, _, _ = np.histogram2d(end[DUR, sel], level[sel], bins=[s_edges, l_edges])
                counts[j] += h.astype(np.int64)
            walk.drop(k)
        low[walk.idx] = np.minimum(low[walk.idx], walk.x_end[LEVEL])
        walk.jump()
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
) -> np.ndarray:
    """Sample the first ``n_arrivals`` arrival times of each of ``n_paths`` paths.

    Returns an ``(n_paths, n_arrivals)`` array; entries are NaN for arrivals
    not observed within ``max_epochs`` (report and bound this censoring when
    comparing distributions).  The samples depend only on ``seed`` and
    ``n_paths``.
    """
    _check_start(model, z, start_state)
    if n_arrivals < 1:
        raise ValueError("n_arrivals must be positive")
    if operator.index(max_epochs) < 1:
        raise ValueError(f"max_epochs must be at least 1, got {max_epochs!r}")

    walk = _Walk(model, z, _streams(n_paths, seed), start_state, refill_at=_DEFAULT_CHUNK // 8)
    times = np.full((n_paths, n_arrivals), np.nan)
    n_seen = np.zeros(n_paths, dtype=np.int64)
    arrives = model._epoch.arrives
    while walk.refill():
        walk.segment()
        arrived = arrives.take(walk.jump())
        if arrived.any():
            i = walk.idx[arrived]
            times[i, n_seen[i]] = walk.x[TIME, arrived]
            n_seen[i] += 1
            more = n_seen[walk.idx] < n_arrivals
            if not more.all():
                walk.keep(more)
        walk.drop(walk.done(max_epochs))
    return times
