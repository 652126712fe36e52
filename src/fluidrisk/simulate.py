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

One stepper, built once per run, resolves every epoch of every path here and
in :mod:`fluidrisk.montecarlo`.  For a duration-free kernel it builds the
cumulative ``[Cbar | Dbar]`` rows of all states once and then only gathers
rows by state; a duration-dependent kernel is evaluated at every epoch.
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


def _start_states(model: FluidModel, rng: np.random.Generator, m: int, start_state) -> np.ndarray:
    if start_state is not None:
        return np.full(m, int(start_state), dtype=np.int64)
    return rng.choice(model.p, size=m, p=model.alpha).astype(np.int64)


def _check_start(model: FluidModel, z: float, start_state) -> None:
    """Reject a negative initial duration and a start state outside the state space."""
    if z < 0.0:
        raise ValueError(f"initial duration must be nonnegative, got {z!r}")
    if start_state is not None and not 0 <= start_state < model.p:
        raise ValueError(f"start state must lie in 0..{model.p - 1}, got {start_state!r}")


def _first_passage_model(
    model: FluidModel, z: float, max_epochs: int, start_state, barrier_offset: float = 0.0
) -> FluidModel:
    """Check a first-passage run's arguments; return the model whose ``alpha``
    draws its start states (for a first return, ``alpha`` restricted to the
    ascending states unless ``start_state`` pins an ascending one)."""
    _check_start(model, z, start_state)
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
    """Walk ``m`` paths in lockstep to their first grid level at or below
    ``-barrier_offset``, returning the per-path arrays of ``ReturnSamples``."""
    states0 = _start_states(model, rng, m, start_state)
    step = _epoch_transition(model)
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
            active, s, dt, u_arg, lvl_next, div_next = (
                x[keep] for x in (active, s, dt, u_arg, lvl_next, div_next)
            )
            if active.size == 0:
                break

        new_s, arrived = step(s, u_arg, rng)
        costs[active] += np.where(arrived, model.k_cost[s, new_s], 0.0)
        dur[active] = np.where(arrived, 0.0, u_arg)
        states[active] = new_s
        level[active] = lvl_next
        div_int[active] = div_next
        t_now[active] += dt

    return n_epoch, exit_state, weight, t_cross, states0


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
    rng = np.random.default_rng(seed)
    state = int(_start_states(model, rng, 1, start_state)[0])
    step = _epoch_transition(model)
    gamma = model.gamma
    rates = model.rates

    times = [0.0]
    states = [state]
    arrivals = [0.0]
    durations = [float(z)]
    fluid = [0.0]
    dividends = [0.0]
    costs = [0.0]

    t = 0.0
    cur_dur = float(z)
    while True:
        dt = rng.exponential(1.0 / gamma)
        t_next = t + dt
        if t_next >= horizon:
            break
        u_arg = cur_dur + dt
        (new_state,), (is_arrival,) = step(np.array([state]), np.array([u_arg]), rng)
        times.append(t_next)
        durations.append(u_arg)
        fluid.append(fluid[-1] + rates[state] * dt)
        dividends.append(dividends[-1] + model.sigma[state] * dt)
        costs.append(costs[-1] + (model.k_cost[state, new_state] if is_arrival else 0.0))
        if is_arrival:
            arrivals.append(t_next)
            cur_dur = 0.0
        else:
            cur_dur = u_arg
        state = new_state
        states.append(state)
        t = t_next

    return PathRecord(
        poisson_epochs=np.asarray(times),
        states=np.asarray(states, dtype=int),
        arrival_epochs=np.asarray(arrivals),
        durations=np.asarray(durations),
        fluid=np.asarray(fluid),
        dividend_integral=np.asarray(dividends),
        jump_costs=np.asarray(costs),
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
    base = _first_passage_model(model, z, max_epochs, start_state)
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
