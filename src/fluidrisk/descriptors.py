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
  initial capital with mean ``u``, by one ladder formula on a duration-free
  model: the model itself, or the duration lift of a duration-dependent one.
  The lift stands in a phase-type clock on duration cells of width
  ``h = 1/(4 gamma)`` for the duration; it is solved at ``h`` and ``h/2`` and
  extrapolated, with ``|fine - coarse|`` as the discretization error.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import pdtrc

from .bridge import BridgeMemoryError, LevelDurationGrid, bridge_recursion
from .homogeneous import LevelGrid, _rate_scaled_generator, _substochastic, doubling_psi
from .model import DurationKernel, FluidModel, StateSpace, StructureError, constant_kernel, eval_kernel_batch

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


def _check_eps(eps: float) -> None:
    # A zero tolerance is never met once a tail underflows, and a NaN one never compares.
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps!r}")


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
    if not 0.0 <= z < np.inf:
        raise ValueError(f"initial duration must be nonnegative and finite, got {z!r}")
    _check_eps(eps)
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
        inc = tensor.mass(n, z)
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


def finite_time_return(
    model: FluidModel,
    horizon: float,
    *,
    theta1: float = 0.0,
    theta2: float = 0.0,
    z: float = 0.0,
    m_max: int | None = None,
    eps: float = 1e-8,
    du: float | None = None,
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
    if not 0.0 < horizon < np.inf:
        raise ValueError(f"horizon must be finite and positive, got {horizon!r}")
    if not 0.0 <= z < np.inf:
        raise ValueError(f"initial duration must be nonnegative and finite, got {z!r}")
    _check_eps(eps)
    u_max = z + horizon
    _require_arrival_free(model, u_max)
    if du is None:
        du = u_max / 64
    n_cells = max(int(round(u_max / du)), 2)
    du = u_max / n_cells
    dl = du * float(np.max(np.abs(model.rates)))
    grid = LevelDurationGrid(u_max=u_max, du=du, l_max=(n_cells + 1) * dl, dl=dl)

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

    tensor = bridge_recursion(model, grid, theta1, theta2, n_max=n_top)
    orders = np.array(tensor.orders)
    increments = np.stack([tensor.mass(n, z) for n in orders])
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
    if not u > 0.0:
        raise ValueError(f"target level must be positive, got {u!r}")
    if operator.index(n_stages) < 1:
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


# ---------------------------------------------------------------------------
# Ruin by the ladder formula, on the model or on its duration lift
# ---------------------------------------------------------------------------

#: Most phases a duration lift may have: doubling on it is dense and cubic.
_MAX_LIFT_PHASES = 1024


def _duration_lift(model: FluidModel, h: float) -> FluidModel:
    """Duration-free model on ``p K`` phases whose clock stands in for the duration.

    Phase ``(i, k)``, at index ``i K + k``, is state ``i`` with its duration
    in cell ``k``, ``[e_k, e_{k+1})``.  Cells have width at most ``h`` on
    ``[0, max(8/gamma, last breakpoint)]``, with every breakpoint an edge;
    beyond, widths grow by a factor ``1 + gamma h`` until an edge passes
    ``4096/gamma``, and the last cell ``[e_{K-1}, inf)`` absorbs.  A C-type
    clock moves ``(i, k)`` to ``(i, k+1)`` at rate ``1/(e_{k+1} - e_k)``;
    ``C(u_k)`` acts within cell ``k`` and ``D(u_k)`` jumps to ``(j, 0)`` with
    cost ``k(i, j)``, where ``u_k`` is the cell midpoint (``e_{K-1}`` in the
    last cell).  Rates, dividend rates and the start law repeat in every
    cell, with the start in cell 0.  A lift of more than
    :data:`_MAX_LIFT_PHASES` phases raises
    :class:`~fluidrisk.bridge.BridgeMemoryError` before it is built.
    """
    gamma, p = model.gamma, model.p
    breaks = model.kernel.breakpoints
    anchors = np.unique([0.0, *breaks, max((8.0 / gamma, *breaks))])
    counts = np.maximum(np.ceil(np.diff(anchors) / h - 1e-9), 1.0)
    tail, edge, width = [], anchors[-1], h
    while edge <= 4096.0 / gamma:
        width *= 1.0 + gamma * h
        edge += width
        tail.append(edge)
    n_phases = p * (counts.sum() + 1 + len(tail))
    if n_phases > _MAX_LIFT_PHASES:
        raise BridgeMemoryError(
            f"the duration lift at cell width {h:.3g} needs {n_phases:.0f} phases, "
            f"above the cap of {_MAX_LIFT_PHASES}"
        )
    cells = [np.linspace(a, b, int(n), endpoint=False) for a, b, n in zip(anchors, anchors[1:], counts)]
    edges = np.concatenate([*cells, anchors[-1:], tail])
    K = edges.size
    rate = 1.0 / np.diff(edges)
    C, D = eval_kernel_batch(model.kernel, np.append(edges[:-1] + 0.5 / rate, edges[-1]))

    # In phase order (i, k) a Kronecker product acts on the state, then the cell.
    clock = np.diag(rate, 1) - np.diag(np.append(rate, 0.0))
    C_cells = np.einsum("kij,km->ikjm", C, np.eye(K)).reshape(p * K, -1)
    cell0 = np.eye(K)[0]
    return FluidModel(
        space=StateSpace(rates=np.repeat(model.rates, K)),
        kernel=constant_kernel(
            C_cells + np.kron(np.eye(p), clock),
            np.einsum("kij,m->ikjm", D, cell0).reshape(p * K, -1),
        ),
        alpha=np.kron(model.alpha, cell0),
        sigma=np.repeat(model.sigma, K),
        k_cost=np.kron(model.k_cost, np.ones((K, K))),
    )


def _ladder(model: FluidModel, solved: FluidModel, i0: int, u: float, n_stages: int, theta1, theta2, eps):
    """``(by_state, res)``: the ladder formula on ``solved``, the model itself
    or its lift on ``K`` cells, from phase ``(i0, 0)`` and summed over each
    descending state's cells; ``res`` is the :func:`psi` solve behind it."""
    K = solved.p // model.p
    ip, im = solved.s_plus, solved.s_minus
    res = psi(solved, theta1, theta2, eps=eps)
    T = _rate_scaled_generator(solved, theta1, theta2)
    khat = T[np.ix_(im, im)] + T[np.ix_(im, ip)] @ res.matrix
    step = np.linalg.inv(np.eye(im.size) - (u / n_stages) * khat)
    row = int(np.flatnonzero(ip == i0 * K)[0])
    by_state = res.matrix[row] @ np.linalg.matrix_power(step, n_stages)
    return by_state.reshape(-1, K).sum(axis=1), res


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
    eps: float = 1e-9,
) -> RuinDescriptor:
    """Ruin transform from Erlang(``n_stages``, ``n_stages/u``) capital.

    As ``n_stages`` grows the capital concentrates at ``u`` and the value
    approaches the exact ruin quantity at ``O(1/n_stages)``.  The value is
    row ``i0`` of the ladder formula ``Psi (I - (u/n_stages) Khat)^-n_stages``
    with ``Khat = T-- + T-+ Psi`` and ``T = Q_theta / |r|``, where ``Psi`` is
    the first-return matrix of a duration-free model by doubling, so the cost
    depends on neither ``u`` nor ``n_stages``.

    A duration-free kernel takes the formula on the model itself, exact to
    rounding; ``info`` is the solver's, with ``tail_estimate`` its error
    figure.  A duration-dependent kernel takes it on the duration lift
    (:func:`_duration_lift`) at cell widths ``h = 1/(4 gamma)`` and ``h/2``:
    cells of that width up to ``max(8/gamma, last breakpoint)``, with the
    breakpoints as edges, then growing by ``1 + gamma h`` up to
    ``4096/gamma``.  ``Psi`` and ``Khat`` run over ``|S+| K`` and ``|S-| K``
    phases, the entry is phase ``(i0, 0)`` and ``by_state`` sums each
    descending state's cells.  The error is first order in the cell width,
    so the value is ``2 fine - coarse``; ``info['discretization']`` is
    ``|fine - coarse|`` and ``info['tail_estimate']`` adds the solvers' error
    figure to it.  Either way ``by_state`` is clipped at zero and scaled back
    to a total of at most one.
    """
    erl = erlangize(model, u, n_stages, i0)
    if model.kernel.is_constant:
        by_state, res = _ladder(model, model, erl.entry_state, u, n_stages, theta1, theta2, eps)
        converged, info = res.converged, res.info
    else:
        h = 0.25 / model.gamma
        # Building the finer, larger lift first checks the cap before any solve.
        lifts = [_duration_lift(model, width) for width in (h / 2.0, h)]
        (fine, res), (coarse, res_coarse) = (
            _ladder(model, lift, erl.entry_state, u, n_stages, theta1, theta2, eps) for lift in lifts
        )
        by_state = 2.0 * fine - coarse
        discretization = abs(float(fine.sum() - coarse.sum()))
        converged = res.converged and res_coarse.converged
        info = dict(
            res.info,
            cells=[lift.p // model.p for lift in lifts],
            cell_width=h,
            discretization=discretization,
            tail_estimate=discretization + max(res.tail_estimate, res_coarse.tail_estimate),
        )
    # Rounding, or the extrapolation, can step just outside [0, 1].
    by_state = _substochastic(by_state[None])[0]
    return RuinDescriptor(
        value=float(by_state.sum()),
        by_state=by_state,
        erlangized=erl,
        theta1=theta1,
        theta2=theta2,
        converged=converged,
        info=info,
    )
