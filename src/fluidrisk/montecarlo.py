"""Vectorized Monte Carlo reference engines.

The samplers run many paths of the uniformized chain in lockstep, chunked to
bound memory, with one RNG stream per chunk derived from
``SeedSequence((seed, chunk_index))`` so results are reproducible and
independent of chunking or thread scheduling.  Censored paths (no event by
``max_epochs``) contribute weight zero, which biases weighted estimates
downward; the censored fraction is always reported so callers can bracket the
bias.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import EPOCH_PROB_TOL, FluidModel, UniformizationBoundError, eval_kernel_batch
from .simulate import KernelConsistencyError

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


def _chunk_sizes(n_paths: int, chunk_size: int) -> list[int]:
    if n_paths < 1:
        raise ValueError(f"n_paths must be at least 1, got {n_paths!r}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be at least 1, got {chunk_size!r}")
    full, rem = divmod(n_paths, chunk_size)
    return [chunk_size] * full + ([rem] if rem else [])


def _start_states(model: FluidModel, rng: np.random.Generator, m: int, start_state) -> np.ndarray:
    if start_state is not None:
        return np.full(m, int(start_state), dtype=np.int64)
    return rng.choice(model.p, size=m, p=model.alpha).astype(np.int64)


def _batch_transition(
    model: FluidModel, states: np.ndarray, u_args: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Resolve one uniformized epoch for a batch of paths.

    Returns the new states and an arrival indicator per path.  Raises when
    the uniformization bound or the per-epoch probability normalization is
    violated at any sampled duration.
    """
    m = states.size
    gamma = model.gamma
    C, D = eval_kernel_batch(model.kernel, u_args)
    ar = np.arange(m)
    c_rows = C[ar, states, :] / gamma
    d_rows = D[ar, states, :] / gamma
    c_rows[ar, states] += 1.0
    self_prob = c_rows[ar, states]
    if np.any(self_prob < -1e-12):
        k = int(np.argmin(self_prob))
        raise UniformizationBoundError(
            u=float(u_args[k]),
            state=int(states[k]),
            total_rate=float((1.0 - self_prob[k]) * gamma),
            gamma=gamma,
        )
    probs = np.concatenate([c_rows, d_rows], axis=1)
    totals = probs.sum(axis=1)
    err = np.abs(totals - 1.0)
    if np.any(err > EPOCH_PROB_TOL):
        k = int(np.argmax(err))
        raise KernelConsistencyError(
            f"per-epoch transition probabilities sum to {totals[k]!r} "
            f"(state {int(states[k])}, duration {float(u_args[k])!r}); kernel is inconsistent"
        )
    cum = np.cumsum(probs, axis=1)
    pick = rng.random(m) * totals
    idx = np.minimum((cum < pick[:, None]).sum(axis=1), 2 * model.p - 1)
    return (idx % model.p).astype(np.int64), idx >= model.p


def _first_return_chunk(
    model: FluidModel,
    z: float,
    theta1: float,
    theta2: float,
    m: int,
    max_epochs: int,
    seed_key: tuple,
    start_state,
    barrier_offset: float,
):
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    states0 = _start_states(model, rng, m, start_state)
    rates = model.rates
    sigma = model.sigma

    active = np.arange(m)
    states = states0.copy()
    level = np.zeros(m)
    div_int = np.zeros(m)
    costs = np.zeros(m)
    dur = np.full(m, float(z))
    t_now = np.zeros(m)

    n_epoch = np.zeros(m, dtype=np.int64)
    exit_state = np.full(m, -1, dtype=np.int64)
    weight = np.zeros(m)
    t_cross = np.full(m, np.inf)

    for n in range(1, max_epochs + 1):
        if active.size == 0:
            break
        dt = rng.exponential(1.0 / model.gamma, size=active.size)
        s = states[active]
        u_arg = dur[active] + dt
        lvl_next = level[active] + rates[s] * dt
        div_next = div_int[active] + sigma[s] * dt
        hit = lvl_next <= -barrier_offset

        if np.any(hit):
            hit_idx = active[hit]
            s_hit = s[hit]
            n_epoch[hit_idx] = n
            exit_state[hit_idx] = s_hit
            weight[hit_idx] = np.exp(-theta1 * div_next[hit] - theta2 * costs[hit_idx])
            t_cross[hit_idx] = t_now[hit_idx] + (-barrier_offset - level[hit_idx]) / rates[s_hit]

        keep = ~hit
        if not np.any(keep):
            active = active[:0]
            break
        act = active[keep]
        s_k = s[keep]
        u_k = u_arg[keep]
        new_s, arrived = _batch_transition(model, s_k, u_k, rng)
        costs[act] += np.where(arrived, model.k_cost[s_k, new_s], 0.0)
        dur[act] = np.where(arrived, 0.0, u_k)
        states[act] = new_s
        level[act] = lvl_next[keep]
        div_int[act] = div_next[keep]
        t_now[act] += dt[keep]
        active = act

    return n_epoch, exit_state, weight, t_cross, states0


def _run_chunks(worker, sizes, n_threads: int):
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
    if max_epochs < 2:
        raise ValueError(f"max_epochs must be at least 2, got {max_epochs!r}")
    if z < 0.0 or barrier_offset < 0.0:
        raise ValueError("initial duration and barrier offset must be nonnegative")
    if start_state is not None and model.rates[int(start_state)] <= 0.0 and barrier_offset == 0.0:
        raise ValueError(
            f"start state {start_state} has nonpositive fluid rate; first return is degenerate"
        )
    if start_state is None:
        plus_mass = model.alpha[model.s_plus].sum()
        if barrier_offset == 0.0 and plus_mass <= 0.0:
            raise ValueError("alpha has no mass on positive-rate states; specify start_state")

    base_model = model
    if start_state is None and barrier_offset == 0.0:
        alpha_plus = np.zeros(model.p)
        alpha_plus[model.s_plus] = model.alpha[model.s_plus]
        alpha_plus /= alpha_plus.sum()
        base_model = model.with_alpha(alpha_plus)

    sizes = _chunk_sizes(n_paths, chunk_size)

    def worker(b: int):
        return _first_return_chunk(
            base_model, z, theta1, theta2, sizes[b], max_epochs, (seed, b), start_state,
            barrier_offset,
        )

    parts = _run_chunks(worker, sizes, n_threads)
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


def _bridge_chunk(
    model: FluidModel,
    z: float,
    n_epochs: int,
    m: int,
    seed_key: tuple,
    start_state,
    s_edges: np.ndarray,
    l_edges: np.ndarray,
):
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    states = _start_states(model, rng, m, start_state)
    rates = model.rates

    level = np.zeros(m)
    dur = np.full(m, float(z))
    min_interior = np.full(m, np.inf)
    final_dur = np.zeros(m)
    pre_final = states.copy()

    for k in range(1, n_epochs + 1):
        dt = rng.exponential(1.0 / model.gamma, size=m)
        u_arg = dur + dt
        level = level + rates[states] * dt
        if k == n_epochs:
            final_dur = u_arg
            pre_final = states.copy()
            break
        min_interior = np.minimum(min_interior, level)
        new_s, arrived = _batch_transition(model, states, u_arg, rng)
        dur = np.where(arrived, 0.0, u_arg)
        states = new_s

    qualifies = (rates[pre_final] < 0.0) & (min_interior >= np.maximum(0.0, level))
    counts = np.zeros((model.p, s_edges.size - 1, l_edges.size - 1), dtype=np.int64)
    hits = np.zeros(model.p, dtype=np.int64)
    for j in np.flatnonzero(np.bincount(pre_final[qualifies], minlength=model.p)):
        sel = qualifies & (pre_final == j)
        hits[j] = int(sel.sum())
        h, _, _ = np.histogram2d(final_dur[sel], level[sel], bins=[s_edges, l_edges])
        counts[j] = h.astype(np.int64)
    return counts, hits


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
    if n < 2:
        raise ValueError(f"bridge histograms need at least 2 epochs, got {n!r}")
    s_edges = np.asarray(s_edges, dtype=float)
    l_edges = np.asarray(l_edges, dtype=float)
    if s_edges.ndim != 1 or s_edges.size < 2 or np.any(np.diff(s_edges) <= 0):
        raise ValueError("s_edges must be strictly increasing with at least two entries")
    if l_edges.ndim != 1 or l_edges.size < 2 or np.any(np.diff(l_edges) <= 0):
        raise ValueError("l_edges must be strictly increasing with at least two entries")

    sizes = _chunk_sizes(n_paths, chunk_size)

    def worker(b: int):
        return _bridge_chunk(model, z, n, sizes[b], (seed, b), start_state, s_edges, l_edges)

    parts = _run_chunks(worker, sizes, n_threads)
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


def _arrival_chunk(
    model: FluidModel,
    z: float,
    n_arrivals: int,
    m: int,
    max_epochs: int,
    seed_key: tuple,
    start_state,
):
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    states = _start_states(model, rng, m, start_state)
    times = np.full((m, n_arrivals), np.nan)
    n_seen = np.zeros(m, dtype=np.int64)
    t_now = np.zeros(m)
    dur = np.full(m, float(z))
    active = np.arange(m)

    for _ in range(max_epochs):
        if active.size == 0:
            break
        dt = rng.exponential(1.0 / model.gamma, size=active.size)
        u_arg = dur[active] + dt
        t_now[active] += dt
        new_s, arrived = _batch_transition(model, states[active], u_arg, rng)
        states[active] = new_s
        dur[active] = np.where(arrived, 0.0, u_arg)
        if np.any(arrived):
            idx = active[arrived]
            times[idx, n_seen[idx]] = t_now[idx]
            n_seen[idx] += 1
        active = active[n_seen[active] < n_arrivals]

    return times


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
    if n_arrivals < 1:
        raise ValueError("n_arrivals must be positive")
    sizes = _chunk_sizes(n_paths, chunk_size)

    def worker(b: int):
        return _arrival_chunk(model, z, n_arrivals, sizes[b], max_epochs, (seed, b), start_state)

    parts = _run_chunks(worker, sizes, n_threads)
    return np.concatenate(parts, axis=0)

