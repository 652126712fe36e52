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

Every sampler here and in :mod:`fluidrisk.montecarlo` walks its paths with
one walker, ``_Walk``: a batch of paths moved in lockstep on one RNG stream,
one epoch at a time.  The walker draws the holding times, accumulates the
level, dividends and costs, resets durations at arrivals and retires the
paths a sampler is done with; each sampler only reads its event off the
walk.  The walker resolves every epoch on one stepper, built once per walk:
for a duration-free kernel it builds the cumulative ``[Cbar | Dbar]`` rows of
all states once and then only gathers rows by state; a duration-dependent
kernel is evaluated at every epoch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    EPOCH_PROB_TOL,
    FluidModel,
    FluidModelError,
    UniformizationBoundError,
    eval_kernel_batch,
)

__all__ = [
    "KernelConsistencyError",
    "PathRecord",
    "FirstReturnSample",
    "simulate_path",
    "simulate_until_return",
]


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


def _epoch_transition(model: FluidModel):
    """Build a run's one epoch resolver, ``step(states, u_args, rng)``.

    ``step`` moves a batch of paths in ``states`` at kernel arguments
    ``u_args`` across one epoch and returns the new states and an arrival
    indicator per path.  A duration-free kernel's rows are built and checked
    here, once, for every state.
    """
    p, gamma = model.p, model.gamma

    def rows(states, u_args):
        C, D = eval_kernel_batch(model.kernel, u_args)
        ar = np.arange(states.size)
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
        return np.cumsum(probs, axis=1), totals

    table = rows(np.arange(p), np.zeros(p)) if model.kernel.is_constant else None

    def step(states, u_args, rng):
        cum, totals = rows(states, u_args) if table is None else [t[states] for t in table]
        pick = rng.random(states.size) * totals
        idx = np.minimum((cum < pick[:, None]).sum(axis=1), 2 * p - 1)
        return idx % p, idx >= p

    return step


class _Walk:
    """``m`` paths walked in lockstep across the Poisson epochs on one RNG stream.

    The live paths' arrays are ``idx`` (the path's index in the walk),
    ``state``, ``dur`` (duration at the last epoch), ``level``, ``div``
    (dividend integral), ``cost`` (arrival costs) and ``t`` (time of the last
    epoch).  An epoch is ``segment()``, which draws the holding times, then
    ``jump()``; ``keep(mask)`` retires paths between the two or after the
    jump, never before the first ``segment()``.  The start states come from
    ``model.alpha`` unless ``start_state`` pins one; the random numbers are
    drawn in the order of these calls.
    """

    _ARRAYS = ("idx", "state", "dur", "level", "div", "cost", "t", "dt", "u_arg", "level_end", "div_end")

    def __init__(self, model: FluidModel, z: float, m: int, start_state, rng: np.random.Generator):
        self.model, self.rng = model, rng
        if start_state is not None:
            self.state = np.full(m, int(start_state), dtype=np.int64)
        else:
            self.state = rng.choice(model.p, size=m, p=model.alpha).astype(np.int64)
        self._step = _epoch_transition(model)
        self.idx = np.arange(m)
        self.dur = np.full(m, float(z))
        self.level, self.div, self.cost, self.t = (np.zeros(m) for _ in range(4))

    def segment(self) -> None:
        """Draw each live path's holding time and the segment up to its next epoch."""
        self.dt = self.rng.exponential(1.0 / self.model.gamma, size=self.idx.size)
        self.u_arg = self.dur + self.dt
        self.level_end = self.level + self.model.rates[self.state] * self.dt
        self.div_end = self.div + self.model.sigma[self.state] * self.dt

    def keep(self, mask: np.ndarray) -> None:
        """Retire the live paths outside ``mask``."""
        for name in self._ARRAYS:
            setattr(self, name, getattr(self, name)[mask])

    def jump(self) -> np.ndarray:
        """Resolve the epoch ending the segment; return the arrival mask."""
        new_state, arrived = self._step(self.state, self.u_arg, self.rng)
        self.cost = self.cost + np.where(arrived, self.model.k_cost[self.state, new_state], 0.0)
        self.dur = np.where(arrived, 0.0, self.u_arg)
        self.state, self.level, self.div = new_state, self.level_end, self.div_end
        self.t = self.t + self.dt
        return arrived


def _check_start(model: FluidModel, z: float, start_state) -> None:
    """Reject a negative initial duration and a start state outside the state space."""
    if z < 0.0:
        raise ValueError(f"initial duration must be nonnegative, got {z!r}")
    if start_state is not None and not 0 <= start_state < model.p:
        raise ValueError(f"start state must lie in 0..{model.p - 1}, got {start_state!r}")


def _first_passage_model(
    model: FluidModel,
    z: float,
    theta1: float,
    theta2: float,
    max_epochs: int,
    start_state,
    barrier_offset: float = 0.0,
) -> FluidModel:
    """Check a first-passage run's arguments; return the model whose ``alpha``
    draws its start states (for a first return, ``alpha`` restricted to the
    ascending states unless ``start_state`` pins an ascending one)."""
    _check_start(model, z, start_state)
    if theta1 < 0 or theta2 < 0:
        raise ValueError("transform arguments must be nonnegative")
    if max_epochs < 2:
        raise ValueError(f"max_epochs must be at least 2, got {max_epochs!r}")
    if barrier_offset < 0.0:
        raise ValueError(f"barrier offset must be nonnegative, got {barrier_offset!r}")
    if start_state is not None and barrier_offset == 0.0 and model.rates[int(start_state)] <= 0.0:
        raise ValueError(
            f"start state {start_state} has nonpositive fluid rate; first return is degenerate"
        )
    if start_state is not None or barrier_offset > 0.0:
        return model
    alpha_plus = np.zeros(model.p)
    alpha_plus[model.s_plus] = model.alpha[model.s_plus]
    if alpha_plus.sum() <= 0.0:
        raise ValueError("alpha has no mass on positive-rate states; specify start_state")
    return model.with_alpha(alpha_plus / alpha_plus.sum())


def _first_return_chunk(
    model: FluidModel,
    z: float,
    theta1: float,
    theta2: float,
    m: int,
    max_epochs: int,
    rng: np.random.Generator,
    start_state,
    barrier_offset: float,
):
    """Walk ``m`` paths to their first grid level at or below
    ``-barrier_offset``, returning the per-path arrays of ``ReturnSamples``."""
    walk = _Walk(model, z, m, start_state, rng)
    start = walk.state
    n_epoch = np.zeros(m, dtype=np.int64)
    exit_state = np.full(m, -1, dtype=np.int64)
    weight = np.zeros(m)
    t_cross = np.full(m, np.inf)

    for n in range(1, max_epochs + 1):
        walk.segment()
        hit = walk.level_end <= -barrier_offset
        if np.any(hit):
            idx, s = walk.idx[hit], walk.state[hit]
            n_epoch[idx] = n
            exit_state[idx] = s
            weight[idx] = np.exp(-theta1 * walk.div_end[hit] - theta2 * walk.cost[hit])
            t_cross[idx] = walk.t[hit] + (-barrier_offset - walk.level[hit]) / model.rates[s]
            walk.keep(~hit)
            if walk.idx.size == 0:
                break
        walk.jump()

    return n_epoch, exit_state, weight, t_cross, start


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
        Positive time horizon.
    seed : int or numpy seed-like
        Reproducibility key: identical arguments give bit-identical paths.
    start_state : int, optional
        Fixed initial state; drawn from ``model.alpha`` when omitted.
    """
    if horizon <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon!r}")
    _check_start(model, z, start_state)
    walk = _Walk(model, z, 1, start_state, np.random.default_rng(seed))
    # One row per epoch: time, state, pre-epoch duration, level, dividends,
    # costs and the arrival flag (the conventional S_0 = 0 is an arrival).
    rows = [(walk.t, walk.state, walk.dur, walk.level, walk.div, walk.cost, np.ones(1, bool))]
    while True:
        walk.segment()
        if walk.t[0] + walk.dt[0] >= horizon:
            break
        arrived = walk.jump()
        rows.append((walk.t, walk.state, walk.u_arg, walk.level, walk.div, walk.cost, arrived))

    times, states, durations, fluid, dividends, costs, arrived = map(np.concatenate, zip(*rows))
    return PathRecord(
        poisson_epochs=times,
        states=states.astype(int),
        arrival_epochs=times[arrived],
        durations=durations,
        fluid=fluid,
        dividend_integral=dividends,
        jump_costs=costs,
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
    base = _first_passage_model(model, z, theta1, theta2, max_epochs, start_state)
    n_epoch, exit_state, weight, _, _ = _first_return_chunk(
        base, z, theta1, theta2, 1, max_epochs, np.random.default_rng(seed), start_state, 0.0
    )
    n = int(n_epoch[0])
    return FirstReturnSample(
        returned=n > 0,
        exit_state=int(exit_state[0]),
        weight=float(weight[0]),
        n_used=n or max_epochs,
    )
