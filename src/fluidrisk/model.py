"""Model objects for duration-modulated arrival kernels and fluid risk processes.

A model couples a finite state space with signed fluid rates, a pair of
duration-dependent intensity kernels ``C(u)`` (state changes without an
arrival) and ``D(u)`` (state changes with an arrival), a uniformization rate
``gamma`` dominating the total jump intensity, an initial distribution, and
the economic data (dividend rates and jump costs) used by the transform
descriptors.

Conventions
-----------
* ``C(u)`` has nonnegative off-diagonal entries and nonpositive diagonal;
  ``D(u)`` is entrywise nonnegative; every row of ``C(u) + D(u)`` sums to
  zero (conservative total intensity).
* The duration argument ``u`` is the elapsed time since the last arrival;
  kernels are evaluated right-continuously at breakpoints.
* States with positive fluid rate form ``s_plus``, states with negative rate
  form ``s_minus``; zero rates are rejected.
* Dividends accrue only in ``s_plus`` states: ``sigma`` must vanish on
  ``s_minus``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "CONSERVATION_TOL",
    "ALPHA_TOL",
    "FluidModelError",
    "StructureError",
    "KernelDomainError",
    "UniformizationBoundError",
    "ConfigError",
    "StateSpace",
    "DurationKernel",
    "BlockView",
    "FluidModel",
    "ValidationReport",
    "constant_kernel",
    "piecewise_constant_kernel",
    "pareto_renewal_kernel",
    "kernel_from_callables",
    "eval_kernel",
    "eval_kernel_batch",
    "uniformized_kernel",
    "cost_weights",
    "validate_model",
    "default_duration_samples",
    "load_model_config",
    "model_config_from_dict",
    "config_hash",
]

#: Tolerance for each row of C(u) + D(u) summing to zero.
CONSERVATION_TOL = 1e-10

#: Tolerance for the initial distribution summing to one.
ALPHA_TOL = 1e-12

#: Tolerance for per-epoch transition probabilities summing to one.
EPOCH_PROB_TOL = 1e-9


class FluidModelError(Exception):
    """Base class for model construction and evaluation errors."""


class StructureError(FluidModelError):
    """Structural defect: dimension mismatch, empty rate class, bad data."""


class KernelDomainError(FluidModelError):
    """Kernel evaluated outside its domain (negative duration)."""


class UniformizationBoundError(FluidModelError):
    """The uniformization rate fails to dominate the jump intensity."""

    def __init__(self, u: float, state: int, total_rate: float, gamma: float):
        self.u = u
        self.state = state
        self.total_rate = total_rate
        self.gamma = gamma
        super().__init__(
            f"uniformization rate gamma={gamma!r} is below the total jump "
            f"rate {total_rate!r} of state {state} at duration u={u!r}"
        )


class ConfigError(FluidModelError):
    """Malformed model configuration (unknown field, bad shape, bad value)."""


def _as_matrix(value, p: int, name: str) -> np.ndarray:
    mat = np.asarray(value, dtype=float)
    if mat.shape != (p, p):
        raise StructureError(f"{name} must have shape ({p}, {p}), got {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise StructureError(f"{name} contains non-finite entries")
    return mat


@dataclass(frozen=True)
class StateSpace:
    """Finite state space with signed fluid rates.

    Parameters
    ----------
    rates : array_like
        Fluid rate ``r(i)`` per state.  Every rate must be nonzero; the
        states with positive rate form ``s_plus`` and the states with
        negative rate form ``s_minus``.
    """

    rates: np.ndarray
    p: int = field(init=False)
    s_plus: np.ndarray = field(init=False)
    s_minus: np.ndarray = field(init=False)

    def __post_init__(self):
        rates = np.asarray(self.rates, dtype=float)
        if rates.ndim != 1 or rates.size == 0:
            raise StructureError("rates must be a nonempty 1-D array")
        if not np.all(np.isfinite(rates)):
            raise StructureError("rates contain non-finite entries")
        if np.any(rates == 0.0):
            bad = int(np.flatnonzero(rates == 0.0)[0])
            raise StructureError(f"state {bad} has zero fluid rate; rates must be nonzero")
        rates = rates.copy()
        rates.setflags(write=False)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "p", rates.size)
        s_plus = np.flatnonzero(rates > 0.0)
        s_minus = np.flatnonzero(rates < 0.0)
        s_plus.setflags(write=False)
        s_minus.setflags(write=False)
        object.__setattr__(self, "s_plus", s_plus)
        object.__setattr__(self, "s_minus", s_minus)


@dataclass(frozen=True)
class DurationKernel:
    """Duration-dependent jump kernels ``C(u)``, ``D(u)`` with a uniform rate.

    Parameters
    ----------
    gamma : float
        Uniformization rate; must dominate ``max_i -C_ii(u)`` for every
        duration ``u`` at which the kernel is evaluated.
    p : int
        State-space dimension.
    fun : callable
        The one evaluator ``fun(u) -> (C, D)``.  It takes a 1-D array of
        ``m`` durations and returns two ``(m, p, p)`` stacks; the library
        never calls it with a scalar.  It is right-continuous: at a
        breakpoint the right piece applies.
    breakpoints : tuple of float
        Discontinuity locations of piecewise kernels; integrators align
        their meshes on these, and the grid engines apply their jump rule
        there.
    constant : tuple of ndarray or None
        For duration-free kernels, the pair ``(C, D)``.  Its presence selects
        the doubling solver of ``psi`` and ``ruin_descriptor``, the split
        bridge engine and the samplers' epoch table.
    """

    gamma: float
    p: int
    fun: Callable
    breakpoints: tuple = ()
    constant: tuple | None = None

    def __post_init__(self):
        if not np.isfinite(self.gamma) or self.gamma <= 0.0:
            raise StructureError(f"gamma must be positive and finite, got {self.gamma!r}")
        if self.p < 1:
            raise StructureError("kernel dimension must be at least 1")

    @property
    def is_constant(self) -> bool:
        return self.constant is not None


def constant_kernel(C, D, gamma: float | None = None) -> DurationKernel:
    """Duration-free kernel pair with an optional explicit uniform rate.

    When ``gamma`` is omitted it defaults to ``max_i -C_ii`` (the smallest
    valid uniformization rate).
    """
    C = np.asarray(C, dtype=float)
    p = C.shape[0]
    C = _as_matrix(C, p, "C")
    D = _as_matrix(D, p, "D")
    if gamma is None:
        gamma = float(np.max(-np.diag(C)))
    frozen = (C.copy(), D.copy())
    frozen[0].setflags(write=False)
    frozen[1].setflags(write=False)

    def fun(u):
        shape = np.shape(u) + (p, p)
        return np.broadcast_to(frozen[0], shape), np.broadcast_to(frozen[1], shape)

    return DurationKernel(gamma=float(gamma), p=p, fun=fun, constant=frozen)


def piecewise_constant_kernel(
    breakpoints: Sequence[float], C_pieces, D_pieces, gamma: float | None = None
) -> DurationKernel:
    """Piecewise-constant kernels, right-continuous at the breakpoints.

    Piece ``k`` applies on ``[b_{k-1}, b_k)`` with ``b_0 = 0`` and the last
    piece extending to infinity, so ``len(C_pieces) == len(breakpoints) + 1``.
    """
    breaks = np.asarray(breakpoints, dtype=float)
    if breaks.ndim != 1:
        raise StructureError("breakpoints must be 1-D")
    if breaks.size and (np.any(np.diff(breaks) <= 0) or breaks[0] <= 0):
        raise StructureError("breakpoints must be strictly increasing and positive")
    C_list = [np.asarray(Ck, dtype=float) for Ck in C_pieces]
    D_list = [np.asarray(Dk, dtype=float) for Dk in D_pieces]
    if len(C_list) != breaks.size + 1 or len(D_list) != breaks.size + 1:
        raise StructureError(
            "piecewise kernel needs len(breakpoints) + 1 pieces, got "
            f"{len(C_list)} C pieces and {len(D_list)} D pieces for "
            f"{breaks.size} breakpoints"
        )
    p = C_list[0].shape[0]
    C_arr = np.stack([_as_matrix(Ck, p, "C piece") for Ck in C_list])
    D_arr = np.stack([_as_matrix(Dk, p, "D piece") for Dk in D_list])
    C_arr.setflags(write=False)
    D_arr.setflags(write=False)
    if gamma is None:
        gamma = float(np.max(-C_arr[:, np.arange(p), np.arange(p)]))

    def fun(u):
        idx = np.searchsorted(breaks, u, side="right")
        return C_arr[idx], D_arr[idx]

    return DurationKernel(
        gamma=float(gamma), p=p, fun=fun, breakpoints=tuple(float(b) for b in breaks)
    )


def pareto_renewal_kernel(a, b, routing, gamma: float | None = None) -> DurationKernel:
    """Markov-renewal kernel with Pareto-type hazards ``h_i(u) = a_i/(b_i+u)``.

    Each state ``i`` holds for a heavy-tailed sojourn with hazard
    ``h_i(u)``; at the sojourn's end an arrival occurs and the next state is
    drawn from row ``i`` of the stochastic ``routing`` matrix.  The hazards
    decrease in ``u``, so ``gamma = max_i a_i/b_i`` is a valid uniform rate.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise StructureError("a and b must be 1-D arrays of equal length")
    if np.any(a <= 0) or np.any(b <= 0):
        raise StructureError("Pareto hazard parameters must be positive")
    p = a.size
    P_route = _as_matrix(routing, p, "routing")
    if np.any(P_route < 0) or np.any(np.abs(P_route.sum(axis=1) - 1.0) > 1e-12):
        raise StructureError("routing must be row-stochastic")
    if gamma is None:
        gamma = float(np.max(a / b))

    def fun(u):
        h = a / (b + np.asarray(u, dtype=float)[..., None])
        C = np.zeros(h.shape + (p,))
        C.reshape(h.shape[:-1] + (p * p,))[..., :: p + 1] = -h  # the diagonal
        return C, h[..., None] * P_route

    return DurationKernel(gamma=float(gamma), p=p, fun=fun)


def kernel_from_callables(
    c_fun: Callable[[float], np.ndarray],
    d_fun: Callable[[float], np.ndarray],
    gamma: float,
    p: int,
    breakpoints: Sequence[float] = (),
) -> DurationKernel:
    """Wrap per-point kernel callables; the caller vouches for the bound.

    ``c_fun`` and ``d_fun`` map one duration to a ``(p, p)`` matrix; the
    wrapped evaluator calls them in a Python loop over its array argument.
    """

    def fun(u):
        pairs = [(c_fun(v), d_fun(v)) for v in np.asarray(u, dtype=float).tolist()]
        if not pairs:
            return np.empty((0, p, p)), np.empty((0, p, p))
        return np.stack([C for C, _ in pairs]), np.stack([D for _, D in pairs])

    return DurationKernel(
        gamma=float(gamma), p=int(p), fun=fun, breakpoints=tuple(float(x) for x in breakpoints)
    )


def _evaluate(kernel: DurationKernel, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Call ``kernel.fun`` on a 1-D float array, checking the duration
    domain, the returned shapes and their finiteness."""
    lowest = float(u.min()) if u.size else 0.0
    if lowest < 0.0:
        raise KernelDomainError(f"duration must be nonnegative, got {lowest!r}")
    C, D = (np.asarray(x, dtype=float) for x in kernel.fun(u))
    shape = (u.size, kernel.p, kernel.p)
    if C.shape != shape or D.shape != shape:
        raise StructureError(f"kernel evaluator returned shapes {C.shape}/{D.shape}, expected {shape}")
    # One reduction per matrix, over one copy of a stack broadcast from a
    # single matrix; the entries are inspected only when it fails.
    C1, D1 = (x[:1] if x.strides[0] == 0 else x for x in (C, D))
    if not (math.isfinite(C1.sum()) and math.isfinite(D1.sum())):
        bad = ~(np.isfinite(C) & np.isfinite(D))
        if bad.any():
            raise FluidModelError(f"kernel returned non-finite values at u={float(u[np.argwhere(bad)[0][0]])!r}")
    return C, D


def eval_kernel(kernel: DurationKernel, u: float) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate ``(C(u), D(u))`` at a single duration.

    The one-row view of :func:`eval_kernel_batch`: evaluation is
    right-continuous, so at a discontinuity the stored right-limit value
    applies.

    Raises
    ------
    KernelDomainError
        If ``u`` is negative.
    """
    C, D = _evaluate(kernel, np.array([float(u)]))
    return C[0], D[0]


def eval_kernel_batch(kernel: DurationKernel, u) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate ``(C, D)`` at every duration of a 1-D array, as ``(m, p, p)`` stacks.

    One call of the kernel's evaluator, with domain, shape and finiteness
    checks.
    """
    return _evaluate(kernel, np.asarray(u, dtype=float).ravel())


def uniformized_kernel(kernel: DurationKernel, u) -> tuple[np.ndarray, np.ndarray]:
    """Per-epoch transition matrices ``Cbar(u) = I + C(u)/gamma``, ``Dbar(u) = D(u)/gamma``.

    ``u`` is one duration, giving ``(p, p)`` matrices, or a 1-D array of
    durations, giving ``(m, p, p)`` stacks.  A stack broadcast from one
    matrix, as a duration-free kernel's evaluator returns it, is uniformized
    on that matrix and returned as a read-only broadcast view.

    Raises
    ------
    UniformizationBoundError
        If some state's total jump rate exceeds ``gamma`` at some duration,
        naming the offending duration and state.
    """
    u = np.asarray(u, dtype=float)
    C, D = eval_kernel_batch(kernel, u)
    gamma = kernel.gamma
    C1, D1 = (x[:1] if x.strides[0] == 0 else x for x in (C, D))
    diag = C1.diagonal(0, -2, -1)
    if np.count_nonzero(diag < -gamma * (1.0 + 1e-12)):
        k, i = np.unravel_index(np.argmin(diag), diag.shape)
        raise UniformizationBoundError(u=float(u.ravel()[k]), state=int(i), total_rate=float(-diag[k, i]), gamma=gamma)
    Cbar, Dbar = C1 / gamma, D1 / gamma
    Cbar += np.eye(kernel.p)
    if C1 is not C:
        Cbar = np.broadcast_to(Cbar, C.shape)
    if D1 is not D:
        Dbar = np.broadcast_to(Dbar, D.shape)
    return (Cbar[0], Dbar[0]) if u.ndim == 0 else (Cbar, Dbar)


@dataclass(frozen=True)
class BlockView:
    """The four rate-class blocks of a ``p x p`` matrix.

    Attributes ``pp``, ``pm``, ``mp``, ``mm`` are the sub-matrices indexed by
    (``s_plus``, ``s_minus``) row/column classes.
    """

    pp: np.ndarray
    pm: np.ndarray
    mp: np.ndarray
    mm: np.ndarray
    s_plus: np.ndarray
    s_minus: np.ndarray

    @classmethod
    def split(cls, matrix: np.ndarray, space: StateSpace) -> "BlockView":
        matrix = _as_matrix(matrix, space.p, "matrix")
        ip, im = space.s_plus, space.s_minus
        return cls(
            pp=matrix[np.ix_(ip, ip)],
            pm=matrix[np.ix_(ip, im)],
            mp=matrix[np.ix_(im, ip)],
            mm=matrix[np.ix_(im, im)],
            s_plus=ip,
            s_minus=im,
        )


@dataclass(frozen=True)
class FluidModel:
    """Validated, immutable fluid risk model.

    Parameters
    ----------
    space : StateSpace
    kernel : DurationKernel
    alpha : array_like
        Initial distribution of the modulating state.
    sigma : array_like
        Dividend rates; nonnegative, and zero on ``s_minus`` states.
    k_cost : array_like
        Nonnegative per-arrival costs ``k(i, j)`` charged when an arrival
        moves the state from ``i`` to ``j``.
    """

    space: StateSpace
    kernel: DurationKernel
    alpha: np.ndarray
    sigma: np.ndarray
    k_cost: np.ndarray

    def __post_init__(self):
        p = self.space.p
        if self.kernel.p != p:
            raise StructureError(
                f"kernel dimension {self.kernel.p} does not match state space dimension {p}"
            )
        if self.space.s_plus.size == 0:
            raise StructureError("state space has no positive-rate states")
        if self.space.s_minus.size == 0:
            raise StructureError("state space has no negative-rate states")
        alpha = np.asarray(self.alpha, dtype=float)
        if alpha.shape != (p,):
            raise StructureError(f"alpha must have shape ({p},), got {alpha.shape}")
        if np.any(alpha < 0) or abs(alpha.sum() - 1.0) > ALPHA_TOL:
            raise StructureError("alpha must be a probability vector summing to 1")
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.shape != (p,):
            raise StructureError(f"sigma must have shape ({p},), got {sigma.shape}")
        if np.any(sigma < 0):
            raise StructureError("dividend rates must be nonnegative")
        if np.any(sigma[self.space.s_minus] != 0.0):
            raise StructureError("dividend rates must vanish on negative-rate states")
        k_cost = _as_matrix(self.k_cost, p, "k_cost")
        if np.any(k_cost < 0):
            raise StructureError("jump costs must be nonnegative")
        for name, arr in (("alpha", alpha), ("sigma", sigma), ("k_cost", k_cost)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def p(self) -> int:
        return self.space.p

    @property
    def rates(self) -> np.ndarray:
        return self.space.rates

    @property
    def s_plus(self) -> np.ndarray:
        return self.space.s_plus

    @property
    def s_minus(self) -> np.ndarray:
        return self.space.s_minus

    @property
    def gamma(self) -> float:
        return self.kernel.gamma

    @cached_property
    def _epoch(self):
        """The epoch stepper and tables of :mod:`fluidrisk.simulate`, built once per model."""
        from .simulate import _Epoch

        return _Epoch(self)

    def with_alpha(self, alpha) -> "FluidModel":
        """Copy of the model with a different initial distribution."""
        return FluidModel(
            space=self.space,
            kernel=self.kernel,
            alpha=np.asarray(alpha, dtype=float),
            sigma=self.sigma,
            k_cost=self.k_cost,
        )


def _check_transform(*theta: float) -> None:
    """Reject a transform argument that is negative, infinite or NaN."""
    if not all(0.0 <= t < math.inf for t in theta):
        raise ValueError(f"transform arguments must be nonnegative and finite, got {theta!r}")


def cost_weights(model: FluidModel, theta2: float) -> BlockView:
    """Entrywise arrival-cost weights ``exp(-theta2 * k(i, j))`` in ``(0, 1]``."""
    _check_transform(theta2)
    return BlockView.split(np.exp(-theta2 * model.k_cost), model.space)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of pointwise kernel validation over sampled durations.

    ``worst`` is ``(check, u, i, j, value)`` for the largest violation found
    (``j`` is ``-1`` for per-row checks), or ``None`` when everything passed.
    """

    ok: bool
    n_samples: int
    worst: tuple | None
    messages: tuple


def default_duration_samples(kernel: DurationKernel, n: int = 33) -> np.ndarray:
    """Durations used for validation: a uniform sweep plus breakpoint edges."""
    u_hi = 8.0 / kernel.gamma
    base = np.linspace(0.0, u_hi, n)
    extra = []
    for b in kernel.breakpoints:
        extra.extend([b, np.nextafter(b, -np.inf), b + 1e-9])
    u = np.unique(np.concatenate([base, np.asarray(extra, dtype=float)])) if extra else base
    return u[u >= 0.0]


def validate_model(model: FluidModel, u_samples=None) -> ValidationReport:
    """Check the kernel sign, conservation, and uniformization conditions.

    At every sampled duration the kernels must satisfy: nonnegative
    off-diagonal ``C``, nonpositive diagonal ``C``, nonnegative ``D``, rows
    of ``C + D`` summing to zero within ``CONSERVATION_TOL``, and total jump
    rates dominated by ``gamma``.

    Returns
    -------
    ValidationReport
        ``ok`` is True when no violation was found; otherwise ``worst``
        identifies the largest violation as ``(check, u, i, j, value)``.
    """
    if u_samples is None:
        u_samples = default_duration_samples(model.kernel)
    u_samples = np.atleast_1d(np.asarray(u_samples, dtype=float))
    violations = []
    messages = []
    off_mask = ~np.eye(model.p, dtype=bool)
    for u, C, D in zip(u_samples.tolist(), *eval_kernel_batch(model.kernel, u_samples)):
        off = C.copy()
        off[~off_mask] = 0.0
        if np.any(off < 0):
            i, j = np.unravel_index(np.argmin(off), off.shape)
            violations.append(("c_offdiagonal_negative", u, int(i), int(j), float(off[i, j])))
        diag = np.diag(C)
        if np.any(diag > 0):
            i = int(np.argmax(diag))
            violations.append(("c_diagonal_positive", u, i, i, float(diag[i])))
        if np.any(D < 0):
            i, j = np.unravel_index(np.argmin(D), D.shape)
            violations.append(("d_negative", u, int(i), int(j), float(D[i, j])))
        rowsum = (C + D).sum(axis=1)
        if np.any(np.abs(rowsum) > CONSERVATION_TOL):
            i = int(np.argmax(np.abs(rowsum)))
            violations.append(("row_not_conservative", u, i, -1, float(rowsum[i])))
        total = -diag
        if np.any(total > model.gamma * (1.0 + 1e-12)):
            i = int(np.argmax(total))
            violations.append(("gamma_bound_violated", u, i, -1, float(total[i])))
    worst = max(violations, key=lambda v: abs(v[4])) if violations else None
    if violations:
        messages.append(f"{len(violations)} kernel violations over {u_samples.size} sampled durations")
    return ValidationReport(
        ok=not violations,
        n_samples=int(u_samples.size),
        worst=worst,
        messages=tuple(messages),
    )


# ---------------------------------------------------------------------------
# JSON model configuration
# ---------------------------------------------------------------------------

_TOP_FIELDS = {"rates", "sigma", "cost_matrix", "alpha", "kernel"}
_KERNEL_FIELDS = {
    "constant": {"type", "C", "D", "gamma"},
    "piecewise_constant": {"type", "breakpoints", "C_pieces", "D_pieces", "gamma"},
    "pareto_renewal": {"type", "a", "b", "routing", "gamma"},
}


def _reject_unknown(given: dict, allowed: set, where: str) -> None:
    unknown = set(given) - allowed
    if unknown:
        raise ConfigError(f"unknown field(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}")


def _require(given: dict, fields: set, where: str) -> None:
    missing = fields - set(given)
    if missing:
        raise ConfigError(f"missing field(s) {sorted(missing)} in {where}")


def model_config_from_dict(config: dict) -> FluidModel:
    """Build a validated model from a configuration mapping.

    The mapping must contain exactly the fields ``rates``, ``sigma``,
    ``cost_matrix``, ``alpha`` and a tagged ``kernel`` object; unknown fields
    anywhere are rejected.
    """
    if not isinstance(config, dict):
        raise ConfigError(f"config must be a mapping, got {type(config).__name__}")
    _reject_unknown(config, _TOP_FIELDS, "model config")
    _require(config, _TOP_FIELDS, "model config")
    kconf = config["kernel"]
    if not isinstance(kconf, dict) or "type" not in kconf:
        raise ConfigError("kernel must be a mapping with a 'type' tag")
    ktype = kconf["type"]
    if ktype not in _KERNEL_FIELDS:
        raise ConfigError(f"unknown kernel type {ktype!r}; allowed: {sorted(_KERNEL_FIELDS)}")
    _reject_unknown(kconf, _KERNEL_FIELDS[ktype], f"kernel config ({ktype})")
    gamma = kconf.get("gamma")
    try:
        if ktype == "constant":
            _require(kconf, {"C", "D"}, "constant kernel")
            kernel = constant_kernel(kconf["C"], kconf["D"], gamma=gamma)
        elif ktype == "piecewise_constant":
            _require(kconf, {"breakpoints", "C_pieces", "D_pieces"}, "piecewise kernel")
            kernel = piecewise_constant_kernel(
                kconf["breakpoints"], kconf["C_pieces"], kconf["D_pieces"], gamma=gamma
            )
        else:
            _require(kconf, {"a", "b", "routing"}, "pareto kernel")
            kernel = pareto_renewal_kernel(kconf["a"], kconf["b"], kconf["routing"], gamma=gamma)
        model = FluidModel(
            space=StateSpace(rates=np.asarray(config["rates"], dtype=float)),
            kernel=kernel,
            alpha=np.asarray(config["alpha"], dtype=float),
            sigma=np.asarray(config["sigma"], dtype=float),
            k_cost=np.asarray(config["cost_matrix"], dtype=float),
        )
    except (StructureError, ValueError, TypeError) as exc:
        raise ConfigError(f"invalid model config: {exc}") from exc
    report = validate_model(model)
    if not report.ok:
        raise ConfigError(f"model config fails kernel validation: worst violation {report.worst}")
    return model


def load_model_config(path) -> FluidModel:
    """Load and validate a JSON model configuration file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        config = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return model_config_from_dict(config)


def config_hash(path) -> str:
    """SHA-256 of the raw config bytes (stable across platforms)."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
