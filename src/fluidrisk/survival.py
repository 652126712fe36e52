"""Survival matrices, interarrival densities, and marginal laws.

The survival matrix ``G(s, t)`` has entries
``P(no arrival in (s, t], J(t) = j | no arrival in (0, s], J(s) = i)`` for a
chain that jumps with the no-arrival kernel ``C(u)`` while the duration clock
runs.  It is the product integral of ``C`` over ``(s, t]`` and solves the
linear system ``dG(s, x)/dx = G(s, x) C(x)`` with ``G(s, s) = I``.  One
fixed-step classical 4th-order sweep integrates that system for
:func:`survival_matrix`, :func:`survival_profile` and :func:`renewal_operator`.
Its mesh is aligned on kernel breakpoints.  On a linear system an RK4 step of
width ``h`` is a right factor, ``G <- G P_k``, with

    A2 = (I + h/2 C(x)) C(x + h/2),   A3 = C(x + h/2) + h/2 A2 C(x + h/2),
    A4 = C(x + h) + h A3 C(x + h),    P_k = I + h/6 (C(x) + 2 A2 + 2 A3 + A4),

so the sweep builds the step matrices of a block of steps as batched matrix
products from one batched kernel evaluation, and takes ``G`` at every step of
the block from a prefix-product scan over them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import DurationKernel, FluidModel, eval_kernel, eval_kernel_batch

__all__ = [
    "SurvivalMatrix",
    "RenewalOperatorResult",
    "IphMarginal",
    "TruncationWarning",
    "survival_matrix",
    "survival_profile",
    "interarrival_density",
    "renewal_operator",
    "iph_marginal",
]

#: Default upper bound used when truncating duration integrals.
RENEWAL_TAIL_TOL = 1e-8

#: Hard ceiling (in multiples of 1/gamma) for the truncation doubling search.
RENEWAL_UMAX_CEILING = 4096.0


class TruncationWarning(UserWarning):
    """A duration-integral truncation did not reach the requested tail mass."""


@dataclass(frozen=True)
class SurvivalMatrix:
    """Product-integral survival matrix over an interval ``(s, t]``.

    Attributes
    ----------
    s, t : float
        Interval endpoints.
    matrix : ndarray
        The ``p x p`` survival matrix; entrywise nonnegative with row sums
        at most one (mass leaks to "an arrival occurred").
    error_estimate : float
        A-posteriori bound on the sup-norm error of ``matrix``: twice its
        sup-norm gap to the half-step result, which bounds the error as soon
        as halving the step halves it, plus a rounding term of a few ulps of
        ``||G||`` per step.
    step : float
        Width of the widest RK4 step taken (0 on an empty interval).
    """

    s: float
    t: float
    matrix: np.ndarray
    error_estimate: float
    step: float


#: RK4 steps per block: one batch evaluation covers the block's kernel nodes,
#: and one prefix scan over its step matrices replaces the step loop.  Bounds
#: the memory of a sweep whatever its length.
_STEP_CHUNK = 1024


def _sweep(kernel: DurationKernel, G: np.ndarray, nodes, steps) -> tuple[np.ndarray, np.ndarray]:
    """Carry ``G`` through increasing ``nodes`` by RK4.

    Returns ``G`` at each of ``nodes[1:]`` and the widths of the RK4 steps
    taken.  Gap ``i`` is split at the kernel breakpoints inside it, and each
    piece ``[a, b)`` is crossed in equal steps no wider than ``steps[i]``, its
    RK4 nodes clamped below ``b`` so that a right-continuous jump at ``b``
    does not bleed into it.
    """
    nodes = np.asarray(nodes, dtype=float)
    cuts = np.asarray(kernel.breakpoints, dtype=float)
    cuts = cuts[(cuts > nodes[0]) & (cuts < nodes[-1]) & ~np.isin(cuts, nodes)]
    points = np.insert(nodes, np.searchsorted(nodes, cuts), cuts)
    a, b = points[:-1], points[1:]
    gap = np.cumsum(~np.isin(a, cuts)) - 1
    length = b - a
    n = np.ceil(length / np.asarray(steps)[gap] - 1e-12)
    n = np.where(length > 0.0, np.maximum(n, 1.0), 0.0).astype(np.int64)
    piece = np.repeat(np.arange(a.size), n)
    x = a[piece]
    width = (length / np.maximum(n, 1))[piece]
    clamp = np.nextafter(b, a)[piece]
    first = np.cumsum(n) - n
    # Step starts accumulate sequentially within a piece, x_{k+1} = x_k + h.
    for j in np.flatnonzero(n > 1):
        x[first[j] : first[j] + n[j]] = np.add.accumulate(np.r_[a[j], width[first[j] + 1 : first[j] + n[j]]])
    # Steps taken before G is read at each of nodes[1:].
    gap_ends = np.cumsum(n)[~np.isin(b, cuts)]
    p = kernel.p
    out = np.empty((nodes.size - 1, p, p))
    out[gap_ends == 0] = G
    for lo in range(0, x.size, _STEP_CHUNK):
        c = slice(lo, lo + _STEP_CHUNK)
        xc, wc = x[c], width[c]
        at = np.minimum(np.concatenate([xc, xc + 0.5 * wc, xc + wc]), np.tile(clamp[c], 3))
        C0, Ch, C1 = eval_kernel_batch(kernel, at)[0].reshape(3, xc.size, p, p)
        # RK4 on G' = G C(x) is one step matrix per step, G <- G (I + E_k).
        h = wc[:, None, None]
        A2 = Ch + (0.5 * h) * (C0 @ Ch)
        A3 = Ch + (0.5 * h) * (A2 @ Ch)
        A4 = C1 + h * (A3 @ C1)
        E = (h / 6.0) * (C0 + 2.0 * A2 + 2.0 * A3 + A4)
        # Inclusive prefix products (I + E_1) ... (I + E_k) within the block
        # by a Hillis-Steele scan, kept as I + E: (I + E)(I + F) = I + (E + F
        # + EF).  Rounding then scales with E rather than with I, so a run of
        # equal steps does not repeat one rounding of I + E_k.
        d = 1
        while d < E.shape[0]:
            E[d:] = E[:-d] + E[d:] + E[:-d] @ E[d:]
            d *= 2
        hit = (gap_ends > lo) & (gap_ends <= lo + E.shape[0])
        out[hit] = G + G @ E[gap_ends[hit] - lo - 1]
        G = G + G @ E[-1]
    return out, width


def _check_step(step: float | None) -> None:
    if step is not None and not 0.0 < step < np.inf:
        raise ValueError(f"step must be finite and positive, got {step!r}")


def _default_step(kernel: DurationKernel, span: float) -> float:
    return float(min(span / 32.0, 1.0 / (128.0 * kernel.gamma)))


def survival_matrix(
    kernel: DurationKernel,
    s: float,
    t: float,
    step: float | None = None,
) -> SurvivalMatrix:
    """Survival matrix ``G(s, t)`` by 4th-order product-integral integration.

    Parameters
    ----------
    kernel : DurationKernel
    s, t : float
        Interval with ``0 <= s <= t``.
    step : float, optional
        Widest RK4 step: each piece of ``(s, t]`` between kernel breakpoints
        is crossed in equal steps no wider than this.  Defaults to a width
        resolving both the interval and the uniformization scale.

    Returns
    -------
    SurvivalMatrix
    """
    if not np.isfinite(s) or not np.isfinite(t):
        raise ValueError(f"s and t must be finite, got s={s!r}, t={t!r}")
    if s < 0.0 or t < s:
        raise ValueError(f"need 0 <= s <= t, got s={s!r}, t={t!r}")
    _check_step(step)
    if t == s:
        return SurvivalMatrix(s=s, t=t, matrix=np.eye(kernel.p), error_estimate=0.0, step=0.0)
    h = step if step is not None else _default_step(kernel, t - s)
    (G,), width = _sweep(kernel, np.eye(kernel.p), (s, t), (h,))
    (G_half,), _ = _sweep(kernel, np.eye(kernel.p), (s, t), (h / 2.0,))
    # If halving the step at least halves the error e_h (4th order divides it
    # by 16), e_h <= |G_h - G_{h/2}| + e_h / 2, so e_h <= 2 |G_h - G_{h/2}|.
    # A step rounds at about one ulp of ||G||; the n steps of G_h and the 2n
    # of G_{h/2} blur the gap, and G_h's own rounding adds to its error:
    # 2 (n + 2n) + n = 7n ulps.
    ulp = np.finfo(float).eps * np.max(np.abs(G).sum(axis=1))
    err = float(2.0 * np.max(np.abs(G - G_half)) + 7.0 * width.size * ulp)
    return SurvivalMatrix(s=float(s), t=float(t), matrix=G, error_estimate=err, step=float(width.max()))


def survival_profile(kernel: DurationKernel, t_grid, step: float | None = None) -> np.ndarray:
    """Survival matrices ``G(0, t_k)`` for an increasing grid, in one sweep.

    Returns an array of shape ``(len(t_grid), p, p)``.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a nonempty 1-D array")
    if not np.all(np.isfinite(t_grid)):
        raise ValueError("t_grid must be finite")
    if t_grid[0] < 0.0 or np.any(np.diff(t_grid) < 0.0):
        raise ValueError("t_grid must be nonnegative and nondecreasing")
    _check_step(step)
    h = step if step is not None else _default_step(kernel, max(float(t_grid[-1]), 1e-12))
    return _sweep(kernel, np.eye(kernel.p), np.r_[0.0, t_grid], np.full(t_grid.size, h))[0]


def interarrival_density(model: FluidModel, y_list, step: float | None = None) -> float:
    """Joint density of the first ``n`` interarrival times at ``(y_1, ..., y_n)``.

    The duration clock restarts at each arrival, so the density is the
    initial law contracted against alternating survival and arrival factors:
    ``alpha G(y_1) D(y_1) ... G(y_n) D(y_n) 1``.
    """
    y_arr = np.atleast_1d(np.asarray(y_list, dtype=float))
    if np.any(y_arr < 0.0):
        raise ValueError("interarrival durations must be nonnegative")
    vec = model.alpha.copy()
    for y, D in zip(y_arr, eval_kernel_batch(model.kernel, y_arr)[1]):
        G = survival_profile(model.kernel, [y], step)[0]
        vec = vec @ G @ D
    return float(vec.sum())


@dataclass(frozen=True)
class RenewalOperatorResult:
    """Truncated duration integral ``N = int_0^{u_max} G(0, s) D(s) ds``.

    ``tail_bound`` is the sup row sum of ``G(0, u_max)``, an upper bound on
    the omitted arrival mass; ``converged`` records whether the doubling
    search brought it below the requested tolerance.
    """

    matrix: np.ndarray
    tail_bound: float
    u_max: float
    converged: bool


def _renewal_grid(kernel: DurationKernel, u_max: float, step: float) -> np.ndarray:
    """Quadrature nodes: uniform head, then spacing growing geometrically.

    The spacing starts at the head width, grows by 5% per interval, and is
    capped at half the uniformization time scale, so the trapezoid error per
    interval stays balanced against the decay of the integrand.
    """
    head_end = min(u_max, 32.0 / kernel.gamma)
    head = np.linspace(0.0, head_end, max(3, int(np.ceil(head_end / step)) + 1))
    nodes = [head]
    if u_max > head_end * (1.0 + 1e-12):
        cap = 0.5 / kernel.gamma
        tail = []
        u, h = head_end, min(step * 1.05, cap)
        while u < u_max:
            u = min(u + h, u_max)
            tail.append(u)
            h = min(h * 1.05, cap)
        nodes.append(np.asarray(tail))
    grid = np.concatenate(nodes)
    cuts = [b for b in kernel.breakpoints if 0.0 < b < u_max]
    if cuts:
        grid = np.unique(np.concatenate([grid, np.asarray(cuts, dtype=float)]))
    return grid


def renewal_operator(
    model: FluidModel,
    u_max: float | None = None,
    step: float | None = None,
    tail_tol: float = RENEWAL_TAIL_TOL,
) -> RenewalOperatorResult:
    """Arrival operator ``N``: survival-weighted arrival kernel over all durations.

    Computes the Simpson quadrature of ``G(0, s) D(s)`` over ``[0, u_max]``.
    With ``u_max`` omitted, the truncation point doubles from ``8/gamma``
    until the survival tail is below ``tail_tol`` or a hard ceiling is hit;
    the result then carries ``converged=False`` and a warning (heavy-tailed
    kernels may legitimately leave mass at any finite horizon).
    """
    kernel = model.kernel
    gamma = kernel.gamma
    _check_step(step)
    if u_max is not None:
        # An infinite window would never be reached by the quadrature nodes.
        if not 0.0 < u_max < np.inf:
            raise ValueError(f"u_max must be finite and positive, got {u_max!r}")
        targets = [float(u_max)]
    else:
        targets = []
        u = 8.0 / gamma
        while u <= RENEWAL_UMAX_CEILING / gamma:
            targets.append(u)
            u *= 2.0
    grid = _renewal_grid(kernel, targets[-1], step if step is not None else 0.5 * _default_step(kernel, targets[-1]))
    span = np.diff(grid)
    nodes = np.empty(2 * grid.size - 1)
    nodes[0::2], nodes[1::2] = grid, grid[:-1] + 0.5 * span
    rk4_steps = np.repeat(np.maximum(np.minimum(span, 0.5 / gamma), 1e-12), 2)
    jump = np.isin(grid[1:], kernel.breakpoints)
    left = np.nextafter(grid[1:], grid[:-1])
    # Grid index at which each target is passed; the sweep advances one
    # target window at a time and stops at the first converged window.
    window_ends = np.searchsorted(grid, np.asarray(targets) * (1.0 - 1e-12))
    # Simpson quadrature per interval: the growing tail spacing would leave a
    # second-order trapezoid bias above 1e-6, while the fourth-order rule
    # matches the accuracy of the RK4 survival sweep.  Grid nodes sit on every
    # kernel jump, so interval interiors are smooth; at a jump node the
    # interval is closed with the left limit of D (the value in force on it)
    # and the right-continuous value opens the next interval.  Each window's
    # intervals are summed in one contraction of the G D products at their
    # starts, midpoints and ends.
    G = np.eye(model.p)
    N = np.zeros((model.p, model.p))
    lo = 0
    for hi in window_ends.tolist():
        G_at, _ = _sweep(kernel, G, nodes[2 * lo : 2 * hi + 1], rk4_steps[2 * lo : 2 * hi])
        G_at = np.concatenate([G[None], G_at])
        D = eval_kernel_batch(kernel, np.r_[nodes[2 * lo : 2 * hi + 1], left[lo:hi][jump[lo:hi]]])[1]
        GD = G_at @ D[: 2 * (hi - lo) + 1]
        end = GD[2::2].copy()
        end[jump[lo:hi]] = G_at[2::2][jump[lo:hi]] @ D[2 * (hi - lo) + 1 :]
        N += np.tensordot(span[lo:hi] / 6.0, GD[0:-1:2] + 4.0 * GD[1::2] + end, axes=1)
        G = G_at[-1]
        lo = hi
        tail = float(np.max(G.sum(axis=1)))
        if tail < tail_tol:
            break
    result = RenewalOperatorResult(matrix=N, tail_bound=tail, u_max=float(grid[lo]), converged=tail < tail_tol)
    if not result.converged:
        warnings.warn(
            f"arrival-operator truncation at u_max={result.u_max} leaves survival "
            f"mass {result.tail_bound:.3e} above tolerance {tail_tol:.1e}; retry "
            "with a larger u_max or accept the reported bound",
            TruncationWarning,
            stacklevel=2,
        )
    return result


@dataclass(frozen=True)
class IphMarginal:
    """Marginal interarrival density value with defectiveness diagnostics.

    ``initial_mass`` is the total mass of the initial vector
    ``alpha N^{n-1}``; a value below one signals that the n-th arrival may
    never happen.
    """

    density: float
    initial_mass: float
    tail_bound: float
    converged: bool


def iph_marginal(
    model: FluidModel,
    n: int,
    y: float,
    u_max: float | None = None,
    step: float | None = None,
) -> IphMarginal:
    """Density of the ``n``-th interarrival time ``S_n - S_{n-1}`` at ``y``.

    The gap follows an inhomogeneous phase-type law with initial vector
    ``alpha N^{n-1}`` and survival driven by ``C(u)``; the density at ``y``
    is ``alpha N^{n-1} G(0, y) (-C(y)) 1``.
    """
    if n < 1:
        raise ValueError(f"arrival index must be at least 1, got {n!r}")
    if y < 0.0:
        raise ValueError(f"duration must be nonnegative, got {y!r}")
    if n == 1:
        init = model.alpha.copy()
        tail_bound, converged = 0.0, True
    else:
        ren = renewal_operator(model, u_max=u_max, step=step)
        init = model.alpha @ np.linalg.matrix_power(ren.matrix, n - 1)
        tail_bound, converged = ren.tail_bound, ren.converged
    G = survival_profile(model.kernel, [y], step)[0]
    C = eval_kernel(model.kernel, float(y))[0]
    density = float(init @ G @ (-C.sum(axis=1)))
    return IphMarginal(
        density=density,
        initial_mass=float(init.sum()),
        tail_bound=tail_bound,
        converged=converged,
    )
