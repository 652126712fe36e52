"""First-passage descriptors of the fluid level process.

Three quantities built on the bridge machinery:

* :func:`psi` — the first-return descriptor matrix
  ``Psi[i, j] = E[exp(-theta1 * dividends - theta2 * costs); return in j | start i]``
  where "return" is the first Poisson epoch at which the fluid sits at or
  below its starting level (the fluid crosses during the final descending
  segment, so the event and the crossing phase coincide with the continuous
  first passage).  Duration-free kernels solve its Riccati equation exactly
  by doubling (:func:`~fluidrisk.homogeneous.doubling_psi`), with no grid;
  general kernels sum bridge orders on a duration-level grid.
* :func:`finite_time_return` — the same event restricted to a calendar-time
  horizon, available for arrival-free models (``D = 0``), where the duration
  axis coincides with elapsed time and the horizon becomes an exact duration
  window.
* :func:`erlangize` / :func:`ruin_descriptor` — ruin from Erlang-randomized
  initial capital with mean ``u``.  Duration-free kernels take it from the
  original model's exact first-return matrix by the ladder formula
  ``Psi (I - (u/n) Khat)^-n``; duration-dependent kernels prepend an Erlang
  ramp of artificial ascending states, which converts the problem into a
  plain first return of an augmented model.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import pdtrc

from .bridge import LevelDurationGrid, bridge_recursion
from .homogeneous import LevelGrid, _rate_scaled_generator, doubling_psi
from .model import DurationKernel, FluidModel, StateSpace, StructureError, eval_kernel_batch

__all__ = [
    "FirstReturnDescriptor",
    "FiniteTimeReturn",
    "ErlangizedModel",
    "RuinDescriptor",
    "psi",
    "finite_time_return",
    "erlangize",
    "ruin_descriptor",
]

#: Largest |D(u)| accepted when a computation requires an arrival-free model.
ARRIVAL_FREE_TOL = 1e-12


def _embed(matrix: np.ndarray, model: FluidModel) -> np.ndarray:
    """Expand an ``(|S+|, |S-|)`` block to a full ``(p, p)`` matrix."""
    full = np.zeros((model.p, model.p))
    full[model.s_plus[:, None], model.s_minus[None, :]] = matrix
    return full


@dataclass(frozen=True)
class FirstReturnDescriptor:
    """First-return transform matrix with convergence metadata.

    ``matrix[i, j]`` is indexed by ascending start states ``s_plus[i]`` and
    descending crossing states ``s_minus[j]``.  ``n_used`` is the number of
    series terms (or doubling steps) taken and ``tail_estimate`` the
    magnitude of the last sup-norm increment (for doubling, floored at its
    rounding bound); ``converged`` reports whether it met the tolerance.
    ``info`` carries engine diagnostics (increment history, residual or
    window edge densities).
    """

    matrix: np.ndarray
    s_plus: np.ndarray
    s_minus: np.ndarray
    theta1: float
    theta2: float
    n_used: int
    tail_estimate: float
    converged: bool
    info: dict

    def full(self) -> np.ndarray:
        full = np.zeros((self.s_plus.size + self.s_minus.size,) * 2)
        full[self.s_plus[:, None], self.s_minus[None, :]] = self.matrix
        return full


def psi(
    model: FluidModel,
    theta1: float = 0.0,
    theta2: float = 0.0,
    *,
    z: float = 0.0,
    grid=None,
    eps: float = 1e-5,
    n_max: int = 64,
) -> FirstReturnDescriptor:
    """First-return descriptor matrix ``Psi^(z)(theta1, theta2)``.

    Duration-free kernels (where ``z`` is immaterial) solve the Riccati
    equation by doubling (:func:`~fluidrisk.homogeneous.doubling_psi`): the
    matrix is exact to rounding, with entries in ``[0, 1]`` and row sums at
    most one, and it is converged when the solver's last increment is below
    ``eps``.  Such kernels need no grid; a
    :class:`~fluidrisk.homogeneous.LevelGrid` passed as ``grid`` is accepted
    and ignored.  Duration-dependent kernels sum bridge orders at initial
    duration ``z`` on ``grid`` (a :class:`~fluidrisk.bridge.LevelDurationGrid`,
    defaulted per model) up to the first order whose sup-norm increment falls
    below ``eps``, capped at ``n_max`` with a warning; the duration window
    adds its own truncation (documented in ``info``).
    """
    if model.kernel.is_constant:
        if grid is not None and not isinstance(grid, LevelGrid):
            raise TypeError("duration-free kernels take no grid (a LevelGrid is ignored)")
        matrix, info = doubling_psi(model, theta1, theta2)
        tail = info["tail_estimate"]
        if tail >= eps:
            warnings.warn(
                f"doubling stopped after {info['steps']} steps with increment "
                f"{tail:.3e} above eps={eps:.3e}",
                stacklevel=2,
            )
        return FirstReturnDescriptor(
            matrix=matrix,
            s_plus=model.s_plus,
            s_minus=model.s_minus,
            theta1=theta1,
            theta2=theta2,
            n_used=info["steps"],
            tail_estimate=tail,
            converged=tail < eps,
            info=info,
        )

    dgrid = grid if grid is not None else LevelDurationGrid.for_model(model)
    if not isinstance(dgrid, LevelDurationGrid):
        raise TypeError("duration-dependent kernels take a LevelDurationGrid")
    tensor = bridge_recursion(model, dgrid, theta1, theta2, n_max=n_max)
    matrix = np.zeros((model.s_plus.size, model.s_minus.size))
    increments = []
    n_used, tail, converged = 0, np.inf, False
    for n in tensor.orders:
        inc = tensor.mass(n, None if z == 0.0 else z)
        matrix = matrix + inc
        increments.append(inc)
        n_used, tail = n, float(np.abs(inc).max())
        if tail < eps:
            converged = True
            break
    if not converged:
        warnings.warn(
            f"first-return series truncated at n_max={n_max} with increment "
            f"{tail:.3e} above eps={eps:.3e}",
            stacklevel=2,
        )
    info = dict(tensor.diagnostics)
    info.update(
        {
            "orders": tensor.orders[: len(increments)],
            "increments": increments,
            "grid": dgrid,
            "z": z,
        }
    )
    return FirstReturnDescriptor(
        matrix=matrix,
        s_plus=model.s_plus,
        s_minus=model.s_minus,
        theta1=theta1,
        theta2=theta2,
        n_used=n_used,
        tail_estimate=tail,
        converged=converged,
        info=info,
    )


# ---------------------------------------------------------------------------
# Finite-horizon return (arrival-free models)
# ---------------------------------------------------------------------------


def _require_arrival_free(model: FluidModel, u_max: float) -> None:
    probe = np.linspace(0.0, u_max, 257)
    probe = np.unique(np.concatenate([probe, np.asarray(model.kernel.breakpoints)]))
    probe = probe[probe <= u_max]
    _, D = eval_kernel_batch(model.kernel, probe)
    worst = float(np.abs(D).max())
    if worst > ARRIVAL_FREE_TOL:
        raise StructureError(
            "finite-horizon return needs an arrival-free model (D = 0), where "
            f"durations equal elapsed time; found |D| up to {worst!r}"
        )


@dataclass(frozen=True)
class FiniteTimeReturn:
    """Horizon-restricted first-return masses by bridge order.

    ``increments[k]`` is the ``(|S+|, |S-|)`` mass contributed by order
    ``orders[k]`` — the probability (or transform value) that the first epoch
    at or below the start level is epoch ``orders[k]`` and falls within the
    horizon.  ``value`` is their sum; ``tail_estimate`` is
    ``P(T_{n+1} <= t)`` for the top computed order ``n``, the probability that
    one more Poisson epoch fits into the horizon.  It bounds every omitted
    increment and never exceeds 1, also when ``m_max`` caps the series.
    """

    value: np.ndarray
    orders: np.ndarray
    increments: np.ndarray
    horizon: float
    z: float
    theta1: float
    theta2: float
    n_used: int
    tail_estimate: float
    info: dict

    @property
    def increment_totals(self) -> np.ndarray:
        return self.increments.sum(axis=(1, 2))


def finite_time_return(
    model: FluidModel,
    horizon: float,
    *,
    theta1: float = 0.0,
    theta2: float = 0.0,
    z: float = 0.0,
    m_max: int | None = None,
    eps: float = 1e-8,
    grid: LevelDurationGrid | None = None,
    du: float | None = None,
    memory_budget: int | None = None,
) -> FiniteTimeReturn:
    """Return-within-horizon masses for arrival-free models.

    With no arrivals the duration never resets, so the pre-epoch duration at
    epoch ``n`` equals ``z`` plus elapsed time and a calendar horizon ``t``
    is exactly the duration window ``u_max = z + t``: the grid truncates
    nothing beyond the horizon itself.

    The series stops at the smallest order ``n >= 2`` whose epoch-time tail
    ``P(T_{n+1} <= t) = P(Poisson(gamma t) > n) = pdtrc(n, gamma t)`` drops
    below ``eps`` — that bounds every omitted order — or at ``m_max`` with a
    warning when the cap bites first.  Each computed increment is checked
    against the Poisson bound ``P(T_m <= t)`` on the m-th epoch time, and
    ``tail_estimate`` is that bound at the first omitted order.
    """
    if horizon <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon!r}")
    if z < 0.0:
        raise ValueError(f"initial duration must be nonnegative, got {z!r}")
    u_max = z + horizon
    _require_arrival_free(model, u_max)
    if grid is None:
        if du is None:
            du = u_max / 64
        n_cells = max(int(round(u_max / du)), 2)
        du = u_max / n_cells
        r_max = float(np.max(np.abs(model.rates)))
        dl = du * r_max
        l_max = (n_cells + 1) * dl
        grid = LevelDurationGrid(u_max=u_max, du=du, l_max=l_max, dl=dl)
    elif abs(grid.u_max - u_max) > 1e-9 * max(u_max, 1.0):
        raise ValueError(
            f"grid window u_max={grid.u_max!r} must equal z + horizon = {u_max!r}: "
            "the duration window is what enforces the horizon"
        )

    gamma_t = model.gamma * horizon
    stop = 2
    while pdtrc(stop, gamma_t) >= eps:
        stop += 1
    capped = m_max is not None and m_max < stop
    n_top = m_max if capped else stop
    tail = float(pdtrc(n_top, gamma_t))
    if capped:
        warnings.warn(
            f"finite-horizon series capped at m_max={m_max} before the epoch-time "
            f"tail reached eps={eps:.3e} (next epoch-time bound: {tail:.3e})",
            stacklevel=2,
        )

    kwargs = {} if memory_budget is None else {"memory_budget": memory_budget}
    tensor = bridge_recursion(model, grid, theta1, theta2, n_max=n_top, **kwargs)
    orders = np.array(tensor.orders)
    increments = np.stack([tensor.mass(n, None if z == 0.0 else z) for n in orders])
    epoch_bounds = pdtrc(orders - 1, gamma_t)
    worst = float((increments.max(axis=(1, 2)) - epoch_bounds).max())
    if worst > 1e-9:
        warnings.warn(
            f"a horizon-restricted increment exceeds its Poisson epoch-time bound "
            f"by {worst:.3e}; the grid is too coarse to trust",
            stacklevel=2,
        )
    info = dict(tensor.diagnostics)
    info["grid"] = grid
    info["epoch_time_bounds"] = epoch_bounds
    return FiniteTimeReturn(
        value=increments.sum(axis=0),
        orders=orders,
        increments=increments,
        horizon=horizon,
        z=z,
        theta1=theta1,
        theta2=theta2,
        n_used=int(orders[-1]),
        tail_estimate=tail,
        info=info,
    )


# ---------------------------------------------------------------------------
# Erlangization: ruin from capital u as a first return
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErlangizedModel:
    """A fluid model prepended with an Erlang ramp of artificial states.

    The ramp consists of ``n_stages`` ascending unit-rate states with stage
    rate ``n_stages / u``; the process starts in stage one and climbs to a
    random height with mean ``u`` and variance ``u**2 / n_stages`` before the
    final stage fires an arrival into the entry state ``i0``.  Entering
    through the arrival branch resets the duration clock, so the original
    model starts at duration zero even when its kernel is duration-dependent.
    Ramp states pay no dividends and charge no costs, so descriptors of the
    augmented model weigh only the original dynamics.
    """

    model: FluidModel
    ramp_states: np.ndarray
    original_states: np.ndarray
    n_stages: int
    target_level: float
    stage_rate: float
    entry_state: int


def erlangize(model: FluidModel, u: float, n_stages: int, i0: int | None = None) -> ErlangizedModel:
    """Augment a model with an Erlang(n_stages, n_stages/u) entry ramp.

    The ramp occupies states ``0..n_stages-1``; original state ``i`` becomes
    ``n_stages + i``.  Stage advances are silent (C-type) transitions along
    the superdiagonal of the ramp block; the final stage completes with an
    arrival (D-type) into the ascending entry state ``i0``, so the original
    dynamics start at duration zero.  ``i0`` may be omitted when the model's
    initial distribution pins a single ascending state.
    """
    if u <= 0.0:
        raise ValueError(f"target level must be positive, got {u!r}")
    if n_stages < 1:
        raise ValueError(f"n_stages must be at least 1, got {n_stages!r}")
    if i0 is None:
        support = np.flatnonzero(model.alpha > 0.0)
        if support.size != 1:
            raise ValueError(
                "i0 is required when the initial distribution does not pin a "
                f"single state (support {support.tolist()})"
            )
        i0 = int(support[0])
    i0 = int(i0)
    if not 0 <= i0 < model.p:
        raise ValueError(f"entry state must lie in 0..{model.p - 1}, got {i0!r}")
    if model.rates[i0] <= 0.0:
        raise ValueError(f"entry state {i0} must have positive fluid rate")

    k, p = int(n_stages), model.p
    rate = k / float(u)
    n_tot = k + p
    gamma = max(model.gamma, rate)

    ramp_C = np.zeros((k, n_tot))
    ramp_D = np.zeros((k, n_tot))
    for s in range(k):
        ramp_C[s, s] = -rate
        if s + 1 < k:
            ramp_C[s, s + 1] = rate
    ramp_D[k - 1, k + i0] = rate

    base = model.kernel

    def lift(v):
        C0, D0 = base.fun(v)
        C = np.zeros(np.shape(v) + (n_tot, n_tot))
        D = np.zeros_like(C)
        C[..., :k, :], D[..., :k, :] = ramp_C, ramp_D
        C[..., k:, k:], D[..., k:, k:] = C0, D0
        return C, D

    constant = tuple(x[0] for x in lift(np.zeros(1))) if base.is_constant else None
    kernel = DurationKernel(gamma=gamma, p=n_tot, fun=lift, breakpoints=base.breakpoints, constant=constant)

    rates = np.concatenate([np.ones(k), model.rates])
    sigma = np.concatenate([np.zeros(k), model.sigma])
    k_cost = np.zeros((n_tot, n_tot))
    k_cost[k:, k:] = model.k_cost
    alpha = np.zeros(n_tot)
    alpha[0] = 1.0

    augmented = FluidModel(
        space=StateSpace(rates=rates),
        kernel=kernel,
        alpha=alpha,
        sigma=sigma,
        k_cost=k_cost,
    )
    return ErlangizedModel(
        model=augmented,
        ramp_states=np.arange(k),
        original_states=np.arange(k, n_tot),
        n_stages=k,
        target_level=float(u),
        stage_rate=rate,
        entry_state=i0,
    )


@dataclass(frozen=True)
class RuinDescriptor:
    """Ruin transform from Erlang-randomized capital, with its ramp model.

    ``value`` is the transform of the ruin event from capital
    ``Erlang(n_stages, n_stages/u)`` entering in state ``i0``, summed over
    crossing states; ``by_state`` keeps the split over the descending states
    of the original model.  ``erlangized`` labels those states and is the
    model that Monte Carlo samples for the same quantity.
    """

    value: float
    by_state: np.ndarray
    erlangized: ErlangizedModel
    theta1: float
    theta2: float
    converged: bool
    info: dict


def ruin_descriptor(
    model: FluidModel,
    u: float,
    n_stages: int,
    theta1: float = 0.0,
    theta2: float = 0.0,
    *,
    i0: int | None = None,
    grid: LevelDurationGrid | None = None,
    eps: float = 1e-9,
) -> RuinDescriptor:
    """Ruin transform from Erlang(``n_stages``, ``n_stages/u``) capital.

    As ``n_stages`` grows the capital concentrates at ``u`` and the value
    approaches the exact ruin quantity at ``O(1/n_stages)``.

    Duration-free kernels use the ladder formula: row ``i0`` of
    ``Psi (I - (u/n_stages) Khat)^-n_stages`` with ``Khat = T-- + T-+ Psi``
    and ``T = Q_theta / |r|``, where ``Psi`` is the original model's exact
    first-return matrix from one doubling solve.  The value is exact to
    rounding for every ``n_stages``, its cost depends on neither ``u`` nor
    ``n_stages``, and ``grid`` does not apply.  ``info`` is the solver's,
    with ``tail_estimate`` its error figure for ``Psi``.

    Duration-dependent kernels sum the duration-level bridge series of the
    erlangized model from its first ramp state on ``grid``; the default
    duration window covers the ramp transit time (mean ``u``) on top of the
    inter-arrival scale.  ``info['tail_estimate']`` is the series tail.
    """
    erl = erlangize(model, u, n_stages, i0)
    if not model.kernel.is_constant:
        if grid is None:
            r_max = float(np.abs(model.rates).max())
            excursion = 512.0 * r_max / model.gamma
            kappa = theta1 * float(model.sigma[model.s_plus].min()) / r_max
            if kappa > 0.0:
                excursion = min(excursion, 24.0 / kappa)
            l_max = u * (1.0 + 24.0 / n_stages) + excursion
            u_max = 3.0 * u + 8.0 / model.gamma
            du = u_max / 256.0
            dl = du * max(r_max, 1.0)
            grid = LevelDurationGrid(
                u_max=u_max, du=du, l_max=math.ceil(l_max / dl) * dl, dl=dl
            )
        psi_aug = psi(erl.model, theta1, theta2, grid=grid, eps=eps, n_max=max(64, 4 * n_stages))
        # Ramp stage one is the augmented model's first ascending state.
        by_state, converged = psi_aug.matrix[0], psi_aug.converged
        info = dict(psi_aug.info, tail_estimate=psi_aug.tail_estimate)
    else:
        ip, im = model.s_plus, model.s_minus
        res = psi(model, theta1, theta2, eps=eps)
        T = _rate_scaled_generator(model, theta1, theta2)
        khat = T[np.ix_(im, im)] + T[np.ix_(im, ip)] @ res.matrix
        step = np.linalg.inv(np.eye(im.size) - (u / n_stages) * khat)
        row = int(np.flatnonzero(ip == erl.entry_state)[0])
        by_state = res.matrix[row] @ np.linalg.matrix_power(step, n_stages)
        converged, info = res.converged, res.info
    return RuinDescriptor(
        value=float(by_state.sum()),
        by_state=by_state,
        erlangized=erl,
        theta1=theta1,
        theta2=theta2,
        converged=converged,
        info=info,
    )
