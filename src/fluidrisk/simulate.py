"""Exact path simulation on the uniformized Poisson grid.

All jumps of the modulating chain are embedded into the epochs of a Poisson
process with the model's uniformization rate ``gamma``.  At each epoch the
chain moves with the duration-evaluated per-epoch matrices
``Cbar(u) = I + C(u)/gamma`` (no arrival; duration keeps running, possibly a
self-loop) or ``Dbar(u) = D(u)/gamma`` (arrival; duration resets to zero).
The fluid level, dividend integral, and arrival costs are accumulated along
the piecewise-constant state path.

The construction supports an initial duration ``z >= 0`` ("delayed" start):
until the first arrival the kernel argument is ``z`` plus the elapsed time,
afterwards it is the time since the last arrival.

A path is walked in numpy arrays or in Python floats, on the same per-model
stepper ``_Epoch``, with the same random numbers in the same order (the
start state, then per epoch the holding time and the epoch uniform) and the
same float operations (``_path_floats`` is one column of ``_Walk``'s block),
so either way gives a path bit for bit:

* the single-path samplers ``simulate_path`` and ``simulate_until_return``
  walk their one path in Python floats with ``_walk_one``: an epoch is two
  scalar draws and a few float operations, where one path walked as a
  stream would make about 20 numpy calls on one-element arrays;
* the multi-path samplers of :mod:`fluidrisk.montecarlo` walk streams of
  paths with ``_Walk``.  A stream is a block of paths whose random numbers
  all come from one RNG.  The walker moves every live path of every admitted
  stream in lockstep, one epoch at a time, and admits the next queued stream
  whenever the live set falls to its refill threshold, so the long tail of
  one stream shares its epochs with the bulk of the next.  Each stream sees
  exactly the draws it would see walked on its own, and counts its own
  epochs, so a sample does not depend on when its stream was admitted;
* the first-passage walk (``_walk_to_barrier``) hands its last paths to
  Python floats once no stream is queued and at most ``TAIL_PATHS`` paths
  are live (``_finish_in_floats``).  The streams stay in lockstep and each
  still draws ``exponential(scale, size=k)``, then ``random(j)`` for the
  weight roulette of its ``j`` low-weight paths (``_Roulette``, when on),
  then ``random(k')`` for its live paths in order, so it consumes its RNG
  exactly as in the numpy epochs (which fill ``scale`` times
  ``standard_exponential``, the same draws, in place), and the epoch is
  resolved by one ``_Epoch`` step for all streams.

``_Epoch`` gathers its cumulative ``[Cbar | Dbar]`` rows from
:func:`~fluidrisk.model.uniformized_kernel`, the one home of the
uniformization rule and its bound on ``gamma``: for a duration-free kernel
once, for every state, after which it only reads rows by state; for a
duration-dependent kernel at every epoch.  Either walker draws start states
from one cumulative distribution (``_cdf``) by one rule.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .model import EPOCH_PROB_TOL, FluidModel, FluidModelError, _check_transform, uniformized_kernel

__all__ = [
    "KernelConsistencyError",
    "PathRecord",
    "FirstReturnSample",
    "simulate_path",
    "simulate_until_return",
]

#: Rows of the walker's ``(5, n)`` block, one column per live path: fluid
#: level, dividend integral, clock (time of the path's last epoch), duration
#: and arrival costs.
LEVEL, DIV, TIME, DUR, COST = range(5)

#: ``_walk_to_barrier`` finishes in Python floats once no stream is queued
#: and at most this many paths are live.  A numpy epoch costs about 20 µs
#: however few paths are live (17-27 µs on two_state, 50-66 µs on
#: pareto_renewal), a path's epoch in Python floats about 1.5-2 µs, and each
#: live stream's two draws cost the same either way.  On 100k-path
#: ``mc_first_return`` runs (2-CPU Xeon VM, one thread) 8, 16 and 32 ran
#: alike within noise (12 alternating pairs each on two_state and
#: pareto_renewal); 16 beat no handover on pareto_renewal in 15 of 20 pairs.
TAIL_PATHS = 16


class KernelConsistencyError(FluidModelError):
    """Per-epoch transition probabilities failed to sum to one."""


@dataclass(frozen=True)
class PathRecord:
    """A simulated path observed on its Poisson epochs ``T_0 = 0 < T_1 < ...``.

    Attributes
    ----------
    poisson_epochs : ndarray
        Epoch times, starting at 0, strictly below the horizon.
    states : ndarray
        ``J(T_k)`` — the state entered at epoch ``k`` (constant until the
        next epoch).
    arrival_epochs : ndarray
        The sub-sequence of epochs at which arrivals occurred, starting with
        the conventional ``S_0 = 0``.
    durations : ndarray
        ``U(T_k-)``: kernel argument in force just before epoch ``k`` (the
        initial duration ``z`` at ``k = 0``).
    fluid : ndarray
        Fluid level ``F(T_k)``; piecewise linear with slope ``r(J)``.
    dividend_integral : ndarray
        Cumulative ``int_0^{T_k} sigma(J(s)) ds``.
    jump_costs : ndarray
        Cumulative arrival costs ``sum k(J(S-), J(S))`` up to ``T_k``.
    seed : object
        The RNG seed that reproduces the path.
    """

    poisson_epochs: np.ndarray
    states: np.ndarray
    arrival_epochs: np.ndarray
    durations: np.ndarray
    fluid: np.ndarray
    dividend_integral: np.ndarray
    jump_costs: np.ndarray
    seed: object


@dataclass(frozen=True)
class FirstReturnSample:
    """Outcome of running the grid until the fluid first returns to its start.

    ``weight`` is ``exp(-theta1 * dividends - theta2 * costs)`` on return and
    zero when censored at ``max_epochs`` (a conservative, downward-biased
    contribution).
    """

    returned: bool
    exit_state: int
    weight: float
    n_used: int


class _Epoch:
    """A model's epoch stepper and the tables a walk reads at every epoch.

    Built once per model, as ``FluidModel._epoch``.  ``step(states, u_args,
    uniforms)`` resolves the epoch ending the segment of each path in
    ``states``, at kernel arguments ``u_args``, from one uniform per path.
    It returns the index ``k`` of the picked entry of the path's row of
    ``[Cbar | Dbar]``: the count of the row's cumulative entries below the
    uniform times the row's total, so ``k >= p`` is an arrival.  ``k`` is
    ``2p`` when rounding puts the pick past the row's last cumulative entry;
    it then stands for ``2p - 1``.  A duration-free kernel's rows are built
    and checked here, once, for every state, into ``table``; a
    duration-dependent kernel is evaluated at every step.

    A segment of length ``dt`` moves a path's level and dividends by
    ``drift[:, state] * dt`` and its clock and duration by ``dt``.  ``k``
    gives the new state (``next_state``), the arrival flag (``arrives``), the
    factor that resets the duration at an arrival (``runs``; a masked store
    is slower on large walks) and, at ``k + (2p + 1) * state``, the arrival
    cost (``costs``).  ``lists`` holds the same tables as Python lists for
    the walks in Python floats: per state its fluid rate, dividend rate,
    cumulative row and row total (``None`` for a duration-dependent kernel)
    and row of costs, then per ``k`` the new state, arrival flag and
    duration factor; ``picks`` is ``step`` on Python numbers.  ``start`` and
    ``start_plus`` are the start laws of the walks, as cumulative
    distributions (:func:`_cdf`): ``model.alpha`` and ``model.alpha``
    restricted to the ascending states (``None`` when they have no mass).
    """

    def __init__(self, model: FluidModel):
        p = model.p
        self.kernel, self.gamma, self.p = model.kernel, model.gamma, p
        self.table = np.vstack(self.rows(np.arange(p), np.zeros(p))) if model.kernel.is_constant else None
        self.drift = np.array([model.rates, model.sigma])
        self.next_state = np.concatenate([np.arange(p), np.arange(p), [p - 1]])
        self.arrives = np.arange(2 * p + 1) >= p
        self.runs = np.where(self.arrives, 0.0, 1.0)
        self.costs = np.concatenate([np.zeros((p, p)), model.k_cost, model.k_cost[:, -1:]], axis=1).ravel()
        cum, totals = (None, None) if self.table is None else (self.table[:-1].T.tolist(), self.table[-1].tolist())
        self.lists = (
            self.drift[LEVEL].tolist(),
            self.drift[DIV].tolist(),
            cum,
            totals,
            self.costs.reshape(p, -1).tolist(),
            self.next_state.tolist(),
            self.arrives.tolist(),
            self.runs.tolist(),
        )
        self.start = _cdf(model.alpha)
        plus = np.zeros(p)
        plus[model.s_plus] = model.alpha[model.s_plus]
        self.start_plus = None
        if plus.sum() > 0.0:
            # Normalized before the cumulative sum, as Generator.choice takes a law.
            plus /= plus.sum()
            self.start_plus = _cdf(plus)

    def rows(self, states, u_args):
        """Each path's cumulative ``[Cbar | Dbar]`` row, as one column of a
        ``(2p, m)`` array, and the row totals.  The rows are gathered from
        :func:`~fluidrisk.model.uniformized_kernel`'s stacks at ``u_args``,
        which checks the uniformization bound of every state there; the row
        sums are checked here."""
        p, m = self.p, states.size
        Cbar, Dbar = uniformized_kernel(self.kernel, u_args)
        at = np.arange(m) * p + states  # each path's row of the (m * p, p) stacks
        probs = np.concatenate([Cbar.reshape(-1, p).take(at, axis=0), Dbar.reshape(-1, p).take(at, axis=0)], axis=1)
        totals = probs.sum(axis=1)
        err = np.abs(totals - 1.0)
        if np.count_nonzero(err > EPOCH_PROB_TOL):
            k = int(np.argmax(err))
            raise KernelConsistencyError(
                f"per-epoch transition probabilities sum to {totals[k]!r} "
                f"(state {int(states[k])}, duration {float(u_args[k])!r}); kernel is inconsistent"
            )
        return np.cumsum(probs.T, axis=0, out=np.empty((2 * p, m))), totals

    def step(self, states, u_args, uniforms):
        if self.table is None:
            cum, totals = self.rows(states, u_args)
        else:
            r = self.table.take(states, axis=1)
            cum, totals = r[:-1], r[-1]
        return np.add.reduce(cum < uniforms * totals, axis=0)

    def pick(self, state: int, u_arg: float, uniform: float) -> int:
        """``step`` for one path, on Python numbers.  A duration-free
        kernel's pick is read off ``lists``."""
        if self.table is None:
            return self.picks((state,), (u_arg,), (uniform,))[0]
        return sum(map((uniform * self.lists[3][state]).__gt__, self.lists[2][state]))

    def picks(self, states, u_args, uniforms) -> list:
        """``step`` for many paths, on sequences of Python numbers, as a list.
        A duration-dependent kernel makes one ``step`` for all of them."""
        if self.table is None:
            return self.step(np.array(states), np.array(u_args), np.array(uniforms)).tolist()
        return list(map(self.pick, states, u_args, uniforms))


def _cdf(alpha: np.ndarray) -> np.ndarray:
    """``alpha``'s cumulative distribution as ``Generator.choice`` builds it.

    Both walkers draw ``m`` start states as ``cdf.searchsorted(rng.random(m),
    side="right")`` (``_walk_one`` with one scalar draw), which is how
    ``Generator.choice`` draws ``m`` states with probabilities ``alpha``: the
    same states from the same draws, leaving the RNG in the same state.
    """
    cdf = alpha.cumsum()
    cdf /= cdf[-1]
    return cdf


class _Walk:
    """Paths walked in lockstep across the Poisson epochs, refilled from a queue of streams.

    The walker of the multi-path samplers in :mod:`fluidrisk.montecarlo`; a
    single path is walked by ``_walk_one``, and a first-passage walk's last
    paths by ``_finish_in_floats``.

    ``streams`` yields ``(offset, m, rng)``: ``m`` paths, numbered ``offset``
    to ``offset + m - 1``, whose random numbers all come from ``rng``.  The
    walk admits the next stream whenever ``refill()`` finds at most
    ``refill_at`` live paths, so the live set stays below ``refill_at`` plus
    one stream.  The live paths' arrays are ``idx`` (the path's number),
    ``state`` and the ``(5, n)`` float block ``x`` with rows ``LEVEL``,
    ``DIV``, ``TIME``, ``DUR`` and ``COST``; they are grouped by stream, in
    admission order.  An epoch is ``segment()``, which draws the holding
    times and leaves the block at the segment's end in ``x_end``, then
    ``jump()``; ``keep(mask)`` and ``drop(n)`` retire paths between the two
    or after the jump, and ``floats()`` retires every live path into Python
    floats after it.  A stream's start states are drawn from the cumulative
    distribution ``cdf`` (``_Epoch.start``, the law ``model.alpha``, when
    omitted) unless ``start_state`` pins one, and are written into
    ``starts`` at the paths' numbers when it is given.
    """

    def __init__(
        self,
        model: FluidModel,
        z: float,
        streams,
        start_state=None,
        cdf=None,
        refill_at: int = 0,
        starts=None,
    ):
        self._epoch = model._epoch
        self._scale = 1.0 / model.gamma
        self._z = float(z)
        self._start_state, self._starts, self._refill_at = start_state, starts, refill_at
        self._cdf = self._epoch.start if cdf is None else cdf
        self._pending = iter(streams)
        self._queued = next(self._pending, None)
        # Per live stream, in admission order: its RNG, live paths and the
        # clock reading at its admission (its epochs walked are clock - born).
        self._rngs, self._sizes, self._born = [], [], []
        self.clock = 0
        self.idx = np.empty(0, dtype=np.int64)
        self.state = np.empty(0, dtype=np.int64)
        self.x = self.x_end = np.empty((5, 0))

    def refill(self) -> bool:
        """Admit queued streams while the live set is at most ``refill_at``
        paths; return whether any path is live."""
        while self._queued is not None and self.idx.size <= self._refill_at:
            offset, m, rng = self._queued
            self._queued = next(self._pending, None)
            if self._start_state is None:
                states = self._cdf.searchsorted(rng.random(m), side="right")
            else:
                states = np.full(m, int(self._start_state), dtype=np.int64)
            if self._starts is not None:
                self._starts[offset:offset + m] = states
            x = np.zeros((5, m))
            x[DUR] = self._z
            self.idx = np.concatenate([self.idx, np.arange(offset, offset + m)])
            self.state = np.concatenate([self.state, states])
            self.x = self.x_end = np.concatenate([self.x, x], axis=1)
            self._rngs.append(rng)
            self._sizes.append(m)
            self._born.append(self.clock)
        return self.idx.size > 0

    def _draw(self, fill) -> np.ndarray:
        """``fill(rng, out)`` for each live stream, into its paths' slice of one array."""
        out, lo = np.empty(self.idx.size), 0
        for rng, k in zip(self._rngs, self._sizes):
            fill(rng, out[lo:lo + k])
            lo += k
        return out

    def segment(self) -> None:
        """Draw each live path's holding time and the block at its next epoch."""
        self.clock += 1
        # exponential(scale) is scale times a standard exponential draw.
        dt = self._draw(lambda rng, out: rng.standard_exponential(out=out))
        dt *= self._scale
        x, end = self.x, np.empty(self.x.shape)
        np.multiply(self._epoch.drift.take(self.state, axis=1), dt, out=end[:TIME])
        end[:TIME] += x[:TIME]
        np.add(x[TIME:COST], dt, out=end[TIME:COST])
        end[COST] = x[COST]
        self.x_end = end

    def jump(self) -> np.ndarray:
        """Resolve the epoch ending the segment; return each live path's pick
        ``k`` (:class:`_Epoch`; ``_Epoch.arrives[k]`` flags an arrival)."""
        if not self._sizes:
            return np.zeros(0, dtype=np.int64)
        e, x, state = self._epoch, self.x_end, self.state
        k = e.step(state, x[DUR], self._draw(lambda rng, out: rng.random(out=out)))
        x[COST] += e.costs.take(k + (2 * e.p + 1) * state)
        x[DUR] *= e.runs.take(k)
        self.state, self.x = e.next_state.take(k), x
        return k

    def path_epochs(self, mask: np.ndarray):
        """Epochs walked by the stream of each live path in ``mask`` (one
        number when one stream is live)."""
        if len(self._born) == 1:
            return self.clock - self._born[0]
        return np.array([self.clock - b for b in self._born]).repeat(self._sizes)[mask]

    def keep(self, mask: np.ndarray) -> None:
        """Retire the live paths outside ``mask``.

        Between ``segment()`` and ``jump()`` only the end block is kept: the
        start block is not read again, and ``x`` is the end block until
        ``jump()``.
        """
        sizes, lo = [], 0
        for size in self._sizes:
            sizes.append(int(np.count_nonzero(mask[lo:lo + size])))
            lo += size
        live = [s for s, size in enumerate(sizes) if size]
        self._rngs = [self._rngs[s] for s in live]
        self._sizes = [sizes[s] for s in live]
        self._born = [self._born[s] for s in live]
        at = np.flatnonzero(mask)
        self.idx, self.state = self.idx.take(at), self.state.take(at)
        self.x = self.x_end = self.x_end.take(at, axis=1)

    def uniforms(self, mask: np.ndarray) -> np.ndarray:
        """One uniform per live path in ``mask``: each stream draws
        ``random(k)`` for its ``k`` paths there (none when ``k`` is 0)."""
        parts, lo = [], 0
        for rng, size in zip(self._rngs, self._sizes):
            k = int(np.count_nonzero(mask[lo:lo + size]))
            if k:
                parts.append(rng.random(k))
            lo += size
        return np.concatenate(parts)

    def done(self, n_epochs: int) -> int:
        """Number of leading live paths whose streams have walked ``n_epochs`` epochs."""
        count = 0
        for size, born in zip(self._sizes, self._born):
            if self.clock - born < n_epochs:
                break
            count += size
        return count

    def in_tail(self) -> bool:
        """Whether no stream is queued and at most ``TAIL_PATHS`` paths are live."""
        return self._queued is None and self.idx.size <= TAIL_PATHS

    def floats(self) -> list:
        """Retire every live path into a walk in Python floats.

        Returns, per live stream in admission order, ``[rng, born, paths]``:
        its RNG, the clock reading at its admission and, per live path in
        order, ``[number, walker, end]``, where ``walker`` is the path's
        primed ``_path_floats`` coroutine and ``end`` its block at its last
        epoch, as ``_path_floats`` yields it.
        """
        e, paths = self._epoch, []
        for i, state, x in zip(self.idx.tolist(), self.state.tolist(), self.x.T.tolist()):
            walker = _path_floats(e, state, None, *x)
            next(walker)
            paths.append([i, walker, (state, None, *x)])
        streams, lo = [], 0
        for rng, born, size in zip(self._rngs, self._born, self._sizes):
            streams.append([rng, born, paths[lo:lo + size]])
            lo += size
        self.drop(self.idx.size)
        return streams

    def drop(self, count: int) -> None:
        """Retire the first ``count`` live paths, which make up whole streams."""
        if not count:
            return
        same = self.x_end is self.x
        self.idx, self.state, self.x = self.idx[count:], self.state[count:], self.x[:, count:]
        self.x_end = self.x if same else self.x_end[:, count:]
        while count:
            count -= self._sizes.pop(0)
            del self._rngs[0], self._born[0]


def _path_floats(e: _Epoch, state, arrived, level, div, time, dur, cost):
    """One path's epochs in Python floats, from its state and block at an epoch.

    A coroutine, primed by ``next``.  Sent the holding time ``dt`` of the
    path's next segment, it yields the segment's end ``(state, arrived,
    level, div, time, dur, cost)``: the state the segment is spent in,
    whether the epoch that began it was an arrival, and the level,
    dividends, clock, duration and costs at its end.  Sent then the pick
    ``k`` of the epoch ending the segment (``_Epoch.step``'s index), it
    resolves that epoch.  These are the float operations of
    ``_Walk.segment`` and ``_Walk.jump`` on one column of the block, so the
    path is the numpy walk's bit for bit.
    """
    rates, sigmas, _, _, costs, next_state, arrives, runs = e.lists
    while True:
        dt = yield
        level += rates[state] * dt
        div += sigmas[state] * dt
        time += dt
        dur += dt
        k = yield state, arrived, level, div, time, dur, cost
        cost += costs[state][k]
        dur *= runs[k]
        state, arrived = next_state[k], arrives[k]


def _walk_one(model: FluidModel, z: float, rng, cdf, start_state=None):
    """Walk one path across the Poisson epochs in Python floats.

    The path is the one ``_Walk`` would walk from a one-path stream on
    ``rng``, bit for bit: the same draws in the same order (the start state
    from ``cdf``, one of ``_Epoch``'s start laws, drawn as ``_Walk`` draws it,
    unless ``start_state`` pins it; then per epoch ``rng.exponential`` and
    ``rng.random``, whose scalar draws equal one-element ones) and the same
    float operations (``_path_floats``).  It yields ``_path_floats``'s
    segment ends, the first segment beginning at the conventional arrival
    ``S_0 = 0``.  Resuming resolves the epoch that ends the segment; a
    caller that stops there draws no uniform for it.
    """
    e = model._epoch
    state = int(cdf.searchsorted(rng.random(), side="right")) if start_state is None else int(start_state)
    path = _path_floats(e, state, True, 0.0, 0.0, 0.0, float(z), 0.0)
    next(path)
    exponential, random, pick, scale = rng.exponential, rng.random, e.pick, 1.0 / e.gamma
    while True:
        end = path.send(exponential(scale))
        yield end
        path.send(pick(end[0], end[5], random()))


def _check_start(model: FluidModel, z: float, start_state) -> None:
    """Reject a negative, infinite or NaN initial duration and a start state
    that is not a state index."""
    if not 0.0 <= z < np.inf:
        raise ValueError(f"initial duration must be nonnegative and finite, got {z!r}")
    if start_state is not None and not 0 <= operator.index(start_state) < model.p:
        raise ValueError(f"start state must lie in 0..{model.p - 1}, got {start_state!r}")


def _first_passage_alpha(
    model: FluidModel,
    z: float,
    theta1: float,
    theta2: float,
    max_epochs: int,
    start_state,
    barrier_offset: float = 0.0,
) -> np.ndarray:
    """Check a first-passage run's arguments; return the cumulative
    distribution of its start states as ``_Epoch`` holds it (for a first
    return, ``model.alpha`` restricted to the ascending states unless
    ``start_state`` pins an ascending one)."""
    _check_start(model, z, start_state)
    _check_transform(theta1, theta2)
    if operator.index(max_epochs) < 2:
        raise ValueError(f"max_epochs must be at least 2, got {max_epochs!r}")
    if not barrier_offset >= 0.0:
        raise ValueError(f"barrier offset must be nonnegative, got {barrier_offset!r}")
    if start_state is not None and barrier_offset == 0.0 and model.rates[int(start_state)] <= 0.0:
        raise ValueError(
            f"start state {start_state} has nonpositive fluid rate; first return is degenerate"
        )
    e = model._epoch
    if start_state is not None or barrier_offset > 0.0:
        return e.start
    if e.start_plus is None:
        raise ValueError("alpha has no mass on positive-rate states; specify start_state")
    return e.start_plus


class _Roulette:
    """Russian roulette on the transform weights of a first-passage walk.

    A live path's weight at the end of a segment is ``exp(log_weight(i,
    div, cost))``: ``exp(-theta1 * div - theta2 * cost)`` times the factor
    ``exp(lift[i])`` that the roulette has given path ``i`` so far.  Once it
    is below ``w_min``, ``play`` keeps the path with probability
    ``w / w_min``, adding ``log(w_min / w)`` to its lift so that it carries
    ``w_min``, and retires it otherwise: its weight is 0 and its ``n_epoch``
    the epoch it was retired at (``exit_state`` -1, ``crossing_time`` +inf).
    The weight's expectation is unchanged (Kahn & Harris, 1951).

    Both walkers of ``_walk_to_barrier`` compute ``log_weight`` with the same
    float operations, on arrays or on Python numbers, and decide through
    ``play`` (``math.exp`` and ``np.exp`` may differ by an ulp), so they
    keep and retire the same paths.
    """

    def __init__(self, theta1, theta2, w_min: float, n_epoch: np.ndarray):
        self.theta1, self.theta2, self._n_epoch = theta1, theta2, n_epoch
        self.log_w_min = float(np.log(w_min))
        self.lift = np.zeros(n_epoch.size)  # per path number

    def log_weight(self, i, div, cost):
        return -self.theta1 * div - self.theta2 * cost + self.lift[i]

    def play(self, i, n, log_w, uniforms) -> np.ndarray:
        """Play for paths ``i``, on the ``n``-th segment of their walk, at
        log weights ``log_w`` below ``log_w_min``, from one uniform each;
        return the mask of the survivors."""
        survive = uniforms < np.exp(log_w - self.log_w_min)
        self.lift[i[survive]] += self.log_w_min - log_w[survive]
        lost = ~survive
        self._n_epoch[i[lost]] = np.broadcast_to(n, i.shape)[lost]
        return survive


def _walk_to_barrier(walk: _Walk, rates, theta1, theta2, max_epochs, barrier_offset, out, w_min=0.0) -> None:
    """Walk every path to its first grid level at or below ``-barrier_offset``.

    ``out`` holds the ``ReturnSamples`` arrays ``n_epoch``, ``exit_state``,
    ``weight`` and ``crossing_time``, indexed by path number; a returning
    path's entries are written in place, a path censored at ``max_epochs``
    keeps the ones it has.  With ``w_min > 0`` the weights are played for by
    ``_Roulette`` after each segment: after the hits are recorded, each
    stream draws ``random(k)`` for its ``k`` paths below ``w_min``, before
    the streams censored at ``max_epochs`` are retired and the epoch's
    uniforms are drawn.  A hit's weight carries its roulette factor.  At
    ``w_min = 0`` no weight is played for and none carries a factor.  Once
    no stream is queued and at most ``TAIL_PATHS`` paths are live, the walk
    finishes in Python floats (``_finish_in_floats``).
    """
    n_epoch, exit_state, weight, t_cross = out
    roulette = _Roulette(theta1, theta2, w_min, n_epoch) if w_min > 0.0 else None

    def record(i, n, s, div, cost, time, level):
        """Write the outcomes of paths ``i`` that hit the barrier on the
        ``n``-th segment of their walk, spent in states ``s``: ``div`` and
        ``cost`` are at the segment's end, ``time`` and ``level`` at its
        start."""
        n_epoch[i] = n
        exit_state[i] = s
        w = np.exp(-theta1 * div - theta2 * cost)
        weight[i] = w if roulette is None else w * np.exp(roulette.lift[i])
        t_cross[i] = time + (-barrier_offset - level) / rates[s]

    while walk.refill():
        if walk.in_tail():
            _finish_in_floats(walk, record, max_epochs, barrier_offset, roulette)
            return
        walk.segment()
        hit = walk.x_end[LEVEL] <= -barrier_offset
        if np.count_nonzero(hit):
            at = np.flatnonzero(hit)
            # Rows read in place: a local bound to a block would hold it past its epoch.
            record(
                walk.idx.take(at), walk.path_epochs(hit), walk.state.take(at),
                walk.x_end[DIV].take(at), walk.x_end[COST].take(at),
                walk.x[TIME].take(at), walk.x[LEVEL].take(at),
            )
            walk.keep(~hit)
        if roulette is not None:
            log_w = roulette.log_weight(walk.idx, walk.x_end[DIV], walk.x_end[COST])
            low = log_w < roulette.log_w_min
            if np.count_nonzero(low):
                at = np.flatnonzero(low)
                survive = roulette.play(walk.idx.take(at), walk.path_epochs(low), log_w.take(at), walk.uniforms(low))
                low[at.compress(survive)] = False  # now the retired paths
                walk.keep(~low)
        walk.drop(walk.done(max_epochs))
        walk.jump()


def _finish_in_floats(walk: _Walk, record, max_epochs, barrier_offset, roulette=None) -> None:
    """Walk ``walk``'s live paths to the barrier in Python floats.

    The epochs are ``_walk_to_barrier``'s, with the same draws in the same
    order: each stream draws ``exponential(scale, size=k)`` for its ``k``
    live paths; after the hits are recorded, it draws ``random(j)`` for the
    roulette of its ``j`` paths below ``w_min`` (if ``roulette`` is given
    and ``j > 0``); after the streams censored at ``max_epochs`` are
    retired, it draws ``random(k')`` for its ``k'`` paths left, and one
    ``_Epoch.picks`` resolves the epoch of every stream's paths.  Hits go to
    ``record``, and the roulette of every stream's paths to one
    ``_Roulette.play``, as arrays, as the numpy epochs give them.
    """
    e, scale, clock = walk._epoch, walk._scale, walk.clock
    streams = walk.floats()
    while True:
        clock += 1
        hits = []
        for stream in streams:
            rng, born, paths = stream
            live = []
            for path, dt in zip(paths, rng.exponential(scale, size=len(paths)).tolist()):
                number, walker, start = path
                end = walker.send(dt)
                state, _, level, div, _, _, cost = end
                if level <= -barrier_offset:
                    hits.append((number, clock - born, state, div, cost, start[4], start[2]))
                else:
                    path[2] = end
                    live.append(path)
            stream[2] = live
        if hits:
            record(*map(np.array, zip(*hits)))
        if roulette is not None:
            _play_in_floats(roulette, streams, clock)
        streams = [stream for stream in streams if stream[2] and clock - stream[1] < max_epochs]
        if not streams:
            return
        paths = [path for _, _, live in streams for path in live]
        uniforms = [u for rng, _, live in streams for u in rng.random(len(live)).tolist()]
        ends = [path[2] for path in paths]
        ks = e.picks([end[0] for end in ends], [end[5] for end in ends], uniforms)
        for path, k in zip(paths, ks):
            path[1].send(k)


def _play_in_floats(roulette: _Roulette, streams, clock: int) -> None:
    """The roulette of ``_finish_in_floats``'s live paths at ``clock``: each
    stream draws one uniform per path below ``w_min``, and the losers leave
    its live list."""
    numbers, epochs, log_ws, uniforms = [], [], [], []
    for rng, born, paths in streams:
        low = 0
        for number, _, end in paths:
            log_w = roulette.log_weight(number, end[3], end[6])
            if log_w < roulette.log_w_min:
                numbers.append(number)
                log_ws.append(log_w)
                low += 1
        if low:
            epochs += [clock - born] * low
            uniforms.append(rng.random(low))
    if not numbers:
        return
    i = np.array(numbers)
    survive = roulette.play(i, np.array(epochs), np.array(log_ws), np.concatenate(uniforms))
    lost = set(i[~survive].tolist())
    for stream in streams:
        stream[2] = [path for path in stream[2] if path[0] not in lost]


def simulate_path(
    model: FluidModel,
    z: float,
    horizon: float,
    seed,
    start_state: int | None = None,
) -> PathRecord:
    """Simulate ``(J, N, U, F)`` on the Poisson grid up to a time horizon.

    The path is truncated at the last epoch strictly below ``horizon``; no
    partial segment is appended.

    Parameters
    ----------
    model : FluidModel
    z : float
        Initial duration (kernel argument offset before the first arrival).
    horizon : float
        Finite positive time horizon.
    seed : int or numpy seed-like
        Reproducibility key: identical arguments give bit-identical paths.
    start_state : int, optional
        Fixed initial state; drawn from ``model.alpha`` when omitted.
    """
    if not 0.0 < horizon < np.inf:
        raise ValueError(f"horizon must be finite and positive, got {horizon!r}")
    _check_start(model, z, start_state)
    # Per epoch: the clock, level, dividends and pre-epoch duration at it, and
    # the state it entered, its arrival flag and the costs after it (the
    # epoch that begins a segment; the conventional S_0 = 0 begins the first).
    times, levels, divs, durations = [0.0], [0.0], [0.0], [float(z)]
    states, arrived, costs = [], [], []
    for state, arrival, level, div, time, dur, cost in _walk_one(
        model, z, np.random.default_rng(seed), model._epoch.start, start_state
    ):
        states.append(state)
        arrived.append(arrival)
        costs.append(cost)
        if time >= horizon:
            break
        times.append(time)
        levels.append(level)
        divs.append(div)
        durations.append(dur)

    times = np.array(times)
    return PathRecord(
        poisson_epochs=times,
        states=np.array(states, dtype=int),
        arrival_epochs=times[np.array(arrived)],
        durations=np.array(durations),
        fluid=np.array(levels),
        dividend_integral=np.array(divs),
        jump_costs=np.array(costs),
        seed=seed,
    )


def simulate_until_return(
    model: FluidModel,
    z: float,
    theta1: float,
    theta2: float,
    max_epochs: int,
    seed,
    start_state: int | None = None,
) -> FirstReturnSample:
    """Run the grid until the fluid first drops to (or below) its initial level.

    Parameters
    ----------
    model : FluidModel
    z : float
        Initial duration.
    theta1, theta2 : float
        Transform arguments weighting accumulated dividends and arrival
        costs.
    max_epochs : int
        Censoring point; non-returned paths report ``weight = 0``.
    seed : int or numpy seed-like
    start_state : int, optional
        Must lie in the positive-rate class (a negative-rate start would
        return immediately and degenerately); drawn from ``model.alpha``
        restricted to that class when omitted.
    """
    cdf = _first_passage_alpha(model, z, theta1, theta2, max_epochs, start_state)
    # In float64, as the arrays of a walk would promote them.
    theta1, theta2 = float(theta1), float(theta2)
    walk = _walk_one(model, z, np.random.default_rng(seed), cdf, start_state)
    for n, (state, _, level, div, _, _, cost) in enumerate(walk, 1):
        if level <= 0.0:
            weight = float(np.exp(-theta1 * div - theta2 * cost))
            return FirstReturnSample(returned=True, exit_state=state, weight=weight, n_used=n)
        if n == max_epochs:
            return FirstReturnSample(returned=False, exit_state=-1, weight=0.0, n_used=max_epochs)
