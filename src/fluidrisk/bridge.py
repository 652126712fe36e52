"""Fixed-epoch bridge densities on duration-level grids.

The n-bridge density ``Lambda^(n,z)[i,j](s, l)`` is the joint density, over
paths started in ``i`` (positive rate) with initial duration ``z``, of the
event that at the n-th Poisson epoch the pre-epoch state is ``j`` (negative
rate), the pre-epoch duration is ``s``, the net fluid displacement is ``l``,
and every intermediate epoch level stays at or above ``max(0, l)`` (the path
is a bridge over both endpoints).  Paths are weighted by
``exp(-theta1 * dividends - theta2 * arrival costs)`` accumulated before the
final epoch.

``n = 2`` has a closed form (one middle jump, either branch of the kernel
pair).  Larger ``n`` decompose by the location ``w`` of the minimal
intermediate level into three contribution classes:

* ``w = 1`` — the first epoch is the argmin; the remaining path is an
  ``(n-1)``-bridge above it,
* ``1 < w < n-1`` — two bridges glued at a negative-to-positive switch,
* ``w = n-1`` — an ``(n-1)``-bridge followed by one descending segment.

The recursion is evaluated on uniform grids; this module holds the grid and
tensor containers, the closed-form base case, the generic (duration-kernel)
contribution operators with an explicit initial-duration axis, and the
dispatcher that selects a fast path (see :mod:`.homogeneous`) when the model
allows one.  The base case takes every initial duration in one call: its
z-free factors are built once, and the kernel is evaluated once per distinct
argument and gathered onto the ``(z, s, l)`` lattice.  The ``w = 1`` and
``w = n-1`` classes integrate over one holding time, along which the level
moves linearly: a shear of the (duration, level) plane, so each is a few
matrix products in sheared level coordinates (:func:`_sheared_quadrature`)
rather than one level shift per holding-time node.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .model import (
    FluidModel,
    FluidModelError,
    cost_weights,
    uniformized_kernel,
)

__all__ = [
    "LevelDurationGrid",
    "BridgeTensor",
    "BridgeMemoryError",
    "bridge2_slice",
    "gamma_first",
    "gamma_middle",
    "gamma_last",
    "bridge_recursion",
    "integrate_bridge",
]

#: Entries more negative than this trigger the contamination flag.
NEGATIVE_FLAG_TOL = -1e-10

#: Memory budget for tensor builds (bytes).
DEFAULT_MEMORY_BUDGET = 2 << 30


class BridgeMemoryError(FluidModelError):
    """A requested tensor build would exceed the memory budget."""


@dataclass(frozen=True)
class LevelDurationGrid:
    """Uniform duration and level grids carrying the bridge discretization.

    Durations run over ``0, du, ..., u_max``; levels over
    ``-l_max, ..., -dl, 0, dl, ..., +l_max`` (zero always on-grid).  Initial
    durations ``z`` are restricted to duration-grid points so that shifted
    arguments stay on-grid.
    """

    u_max: float
    du: float
    l_max: float
    dl: float
    durations: np.ndarray = field(init=False)
    levels: np.ndarray = field(init=False)
    zero_index: int = field(init=False)

    def __post_init__(self):
        if self.du <= 0 or self.dl <= 0 or self.u_max <= 0 or self.l_max <= 0:
            raise ValueError("grid spacings and extents must be positive")
        n_u = int(round(self.u_max / self.du))
        n_l = int(round(self.l_max / self.dl))
        if n_u < 2 or n_l < 1:
            raise ValueError("grid must contain at least a few cells per axis")
        if abs(n_u * self.du - self.u_max) > 1e-9 * self.u_max:
            raise ValueError("u_max must be an integer multiple of du")
        if abs(n_l * self.dl - self.l_max) > 1e-9 * self.l_max:
            raise ValueError("l_max must be an integer multiple of dl")
        durations = self.du * np.arange(n_u + 1)
        levels = self.dl * np.arange(-n_l, n_l + 1)
        durations.setflags(write=False)
        levels.setflags(write=False)
        object.__setattr__(self, "durations", durations)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "zero_index", n_l)

    @classmethod
    def for_model(
        cls,
        model: FluidModel,
        u_max: float | None = None,
        du: float | None = None,
        l_max: float | None = None,
        dl: float | None = None,
    ) -> "LevelDurationGrid":
        """Default grid: ``u_max = 8/gamma`` split into 64 duration cells and
        a level window of twice the fastest rate times ``u_max``, with the
        level spacing matched to ``du`` times the largest |rate| so that
        per-epoch level shifts land on-grid."""
        r_max = float(np.max(np.abs(model.rates)))
        if u_max is None:
            u_max = 8.0 / model.gamma
        if du is None:
            du = u_max / 64.0
        if l_max is None:
            l_max = 2.0 * r_max * u_max
        if dl is None:
            dl = du * r_max
            l_max = dl * round(l_max / dl)
        return cls(u_max=float(u_max), du=float(du), l_max=float(l_max), dl=float(dl))

    @property
    def n_durations(self) -> int:
        return self.durations.size

    @property
    def n_levels(self) -> int:
        return self.levels.size

    def z_index(self, z: float) -> int:
        q = int(round(z / self.du))
        if q < 0 or q >= self.n_durations or abs(q * self.du - z) > 1e-9 * max(1.0, abs(z)):
            raise ValueError(
                f"initial duration {z!r} must be a duration-grid point in [0, {self.u_max!r}]"
            )
        return q

    def level_cells(self, rate: float) -> float:
        """Level cells swept per duration cell at a given fluid rate."""
        return rate * self.du / self.dl


def _add_shifted(out: np.ndarray, scale, field_arr: np.ndarray, cells: float) -> None:
    """Accumulate ``out[..., k + cells] += scale * field[..., k]`` in place.

    A fractional ``cells`` splits each value between its two neighboring
    cells (linear interpolation), and whatever falls outside ``out`` is
    dropped: the one level-shift rule of the grid engines.  ``field`` may be
    shorter than ``out``; a level half (:func:`_level_halves`) is placed by
    its offset, the ``l >= 0`` half at ``zero_index + cells``.  ``scale`` is a
    scalar or broadcasts against ``out``.
    """
    base = math.floor(cells)
    frac = cells - base
    n_out, n_in = out.shape[-1], field_arr.shape[-1]
    for shift, weight in ((base, 1.0 - frac), (base + 1, frac)):
        lo, hi = max(0, -shift), min(n_in, n_out - shift)
        if weight == 0.0 or lo >= hi:
            continue
        out[..., lo + shift : hi + shift] += (scale * weight) * field_arr[..., lo:hi]


def _sweep_level(out: np.ndarray, field_arr: np.ndarray, offset: float, cells: float, weights):
    """Sweep ``field`` from ``offset`` along a line of ``cells`` level cells
    per duration cell.

    Accumulates ``weights[k] * field`` placed at ``offset + k * cells`` (by
    :func:`_add_shifted`) into ``out[..., k, :]``: ``out``'s second to last
    axis is the duration of the line.
    """
    for k, w in enumerate(weights):
        _add_shifted(out[..., k, :], w, field_arr, offset + k * cells)


def _level_halves(field_arr: np.ndarray, zero_index: int) -> np.ndarray:
    """The ``l >= 0`` and ``l <= 0`` halves of a field, stacked on a new first axis.

    The split engine's and :func:`gamma_middle`'s restriction of a sub-bridge
    to one side of level zero.  Both halves are ``m0 + 1`` long with the
    trapezoid half-weight at level zero; index ``k`` is level ``k dl`` in the
    first and ``(k - m0) dl`` in the second, so they shift onto the lattice at
    offsets ``m0`` and ``0``.  The linear convolution of one half with the other is
    ``L`` long with index ``m`` at level ``(m - m0) dl``: level transforms of
    length ``next_fast_len(L, real=True)`` never wrap.
    """
    m0 = zero_index
    halves = np.stack([field_arr[..., m0:], field_arr[..., : m0 + 1]])
    halves[0, ..., 0] *= 0.5
    halves[1, ..., -1] *= 0.5
    return halves


def _trapezoid_weights(n: int) -> np.ndarray:
    w = np.ones(n)
    if n > 1:
        w[0] = 0.5
        w[-1] = 0.5
    return w


def _level_edge_max(fields) -> float:
    """Largest density magnitude on either end of the level window."""
    return max(float(np.abs(f[..., [0, -1]]).max()) for f in fields)


def _uniformized_nodes(model: FluidModel, u) -> tuple[np.ndarray, np.ndarray]:
    """Uniformized kernels ``(Cbar, Dbar)`` as ``(m, p, p)`` stacks on quadrature nodes.

    This is the grid engines' jump rule: a node within
    ``1e-12 * max(1, |b|)`` of a kernel breakpoint ``b`` gets the mean of the
    two one-sided values at ``b``, which keeps quadrature through the jump
    second-order accurate when a node lands on it, whichever way the node's
    own arithmetic rounded.  Every other node gets the kernel's
    right-continuous value.
    """
    u = np.asarray(u, dtype=float).ravel()
    hit = np.zeros(u.shape, dtype=bool)
    for b in model.kernel.breakpoints:
        near = np.abs(u - b) <= 1e-12 * max(1.0, abs(b))
        u = np.where(near, b, u)
        hit |= near
    Cbar, Dbar = uniformized_kernel(model.kernel, u)
    if hit.any():
        C_left, D_left = uniformized_kernel(model.kernel, np.nextafter(u[hit], -np.inf))
        Cbar[hit] = 0.5 * (Cbar[hit] + C_left)
        Dbar[hit] = 0.5 * (Dbar[hit] + D_left)
    return Cbar, Dbar


# ---------------------------------------------------------------------------
# Closed-form base case (n = 2)
# ---------------------------------------------------------------------------


def bridge2_slice(
    model: FluidModel,
    grid: LevelDurationGrid,
    z,
    theta1: float = 0.0,
    theta2: float = 0.0,
    edge_weights: bool = False,
) -> np.ndarray:
    """Closed-form 2-bridge density at one or more initial durations.

    ``z`` is a duration-grid point, giving an array of shape
    ``(|S+|, |S-|, n_durations, n_levels)``, or a 1-D array of them, giving
    ``(len(z), |S+|, |S-|, n_durations, n_levels)``.  The no-arrival branch
    pins the middle jump by the final duration ``s = z + h1 + h2``; the
    arrival branch resets the duration, so the final segment length equals
    ``s`` outright and values for ``s < z`` can be nonzero.

    With ``edge_weights`` the nodes lying exactly on a support boundary carry
    half the one-sided limit (the recursion engines use this internally: it
    keeps quadrature and convolution against the jump second-order accurate).
    Without it boundary nodes carry the full closed-region limit.
    """
    no_arrival, arrival = _bridge2_branches(model, grid, z, theta1, theta2, edge_weights)
    no_arrival += arrival
    return no_arrival


def _bridge2_branches(model, grid, z, theta1, theta2, edge_weights):
    """The two kernel branches of :func:`bridge2_slice`, as ``(no_arrival, arrival)``.

    Each branch is a z-free factor times one kernel entry per node.  The
    no-arrival factor depends on ``z`` only through the lag ``s - z`` and the
    arrival factor not at all, so both are built once, on (lag, level) and
    on (s, level).  The kernel arguments ``z + h1`` and ``z + t1`` are
    ``(l + o) / c`` with ``o = r_i z - r_j s`` and ``c`` one of
    ``r_i - r_j``, ``r_i``: the kernel is evaluated on a table of the
    distinct offsets by the level axis (:func:`_kernel_tables`).  Both are
    gathered onto the ``(z, s, l)`` lattice a block of ``z`` values at a time.
    """
    gamma = model.gamma
    ip, im = model.s_plus, model.s_minus
    q = np.array([grid.z_index(float(v)) for v in np.ravel(z)])
    ns, L = grid.n_durations, grid.n_levels
    s = grid.durations[:, None]
    lvl = grid.levels[None, :]
    kappa = np.exp(-theta2 * model.k_cost)
    tol = 1e-9 * grid.du if edge_weights else 0.0
    no_arrival = np.empty((q.size, ip.size, im.size, ns, L))
    arrival = np.empty_like(no_arrival)
    # Lag k - q of each final duration behind the initial one; a negative
    # lag reads row ns of the no-arrival factor, which stays zero.
    k = np.arange(ns)
    lag = np.where(k >= q[:, None], k - q[:, None], ns)
    block = _z_block(no_arrival[0, 0, 0])

    def _edge(h):
        if not edge_weights:
            return 1.0
        return np.where(np.abs(h) <= tol, 0.5, 1.0)

    for a, i in enumerate(ip):
        ri = model.rates[i]
        si = model.sigma[i]
        for b, j in enumerate(im):
            rj = model.rates[j]
            # No-arrival middle jump: time h1 ascending at rate ri, then
            # h2 descending at rate rj, with s - z = h1 + h2.  Its factor
            # is built on the lags s - z >= 0, which are the grid's durations.
            span = s
            h1 = (lvl - rj * span) / (ri - rj)
            h2 = (ri * span - lvl) / (ri - rj)
            sup_c = (h1 >= -tol) & (h2 >= -tol)
            fac_c = np.zeros((ns + 1, L))
            fac_c[:ns] = np.where(
                sup_c,
                gamma**2
                * np.exp(-gamma * span)
                * np.exp(-theta1 * si * np.maximum(h1, 0.0))
                * _edge(h1)
                * _edge(h2)
                / (ri - rj),
                0.0,
            )
            # Arrival middle jump: duration resets, so the final segment
            # length is s and the first segment is t1 = (l - rj s)/ri.
            t1 = (lvl - rj * s) / ri
            sup_d = t1 >= -tol
            fac_d = np.where(
                sup_d,
                gamma**2
                * np.exp(-gamma * (np.maximum(t1, 0.0) + s))
                * np.exp(-theta1 * si * np.maximum(t1, 0.0))
                * kappa[i, j]
                * _edge(t1)
                / ri,
                0.0,
            )
            # Offsets in duration cells, so that equal offsets compare equal.
            offsets, row = np.unique(ri * q[:, None] - rj * k, return_inverse=True)
            row = row.reshape(q.size, ns)
            cbar_ij, dbar_ij = _kernel_tables(model, grid, offsets * grid.du, ri, rj, i, j)
            for z0 in range(0, q.size, block):
                zs = slice(z0, z0 + block)
                np.multiply(fac_c[lag[zs]], cbar_ij[row[zs]], out=no_arrival[zs, a, b])
                np.multiply(fac_d, dbar_ij[row[zs]], out=arrival[zs, a, b])
    if np.ndim(z) == 0:
        return no_arrival[0], arrival[0]
    return no_arrival, arrival


def _kernel_tables(model, grid, offsets, ri, rj, i, j):
    """Entry ``(i, j)`` of ``Cbar`` at ``(l + o)/(ri - rj)`` and of ``Dbar`` at
    ``(l + o)/ri``, as two ``(offsets, levels)`` tables.

    Arguments below zero lie off the support and are evaluated at zero; none
    exceeds the largest arrival argument on the lattice.  The table is
    evaluated in chunks of offsets of about ``n_durations * n_levels``
    arguments, the size of one initial duration's lattice.
    """
    c = np.array([ri - rj, ri])[:, None, None]
    args = np.maximum((grid.levels + offsets[:, None]) / c, 0.0)
    tables = np.empty_like(args)
    rows = max(1, grid.n_durations // 2)
    for r0 in range(0, offsets.size, rows):
        chunk = args[:, r0 : r0 + rows]
        Cbar, Dbar = _uniformized_nodes(model, chunk)
        half = chunk[0].size
        tables[0, r0 : r0 + rows] = Cbar[:half, i, j].reshape(chunk[0].shape)
        tables[1, r0 : r0 + rows] = Dbar[half:, i, j].reshape(chunk[1].shape)
    return tables[0], tables[1]


# ---------------------------------------------------------------------------
# Generic contribution operators (explicit initial-duration axis)
# ---------------------------------------------------------------------------
#
# Generic tensors have shape (nz, |S+|, |S-|, n_durations, n_levels) with the
# initial duration z on the duration grid (nz = n_durations).  These operators
# are direct quadratures of the decomposition.  Each sub-bridge is restricted
# to one side of level zero, a level half with the trapezoid half-weight at
# level zero: gamma_first works on the l <= 0 half, gamma_last on the l >= 0
# half, and gamma_middle pairs one with the other (_level_halves).  A level
# shift is linear and blind to the state it carries, so gamma_first and
# gamma_last contract the kernel's state axis on a view of the half, halve
# level zero of the contraction and then shift it onto the full lattice.
# Their holding-time quadratures, out[q] += sum_p W[q, p] shift(field[p],
# offset + (q - p) cells), run through _sheared_quadrature: in level
# coordinates sheared by floor(p cells) per row, every shift of _add_shifted's
# two-tap rule lands on one of a few fixed offsets, so the quadrature is one
# matrix product per block of passive columns (gamma_first integrates over
# the initial duration z + u, gamma_last over the final duration s - u), with
# each tap weight the number _add_shifted would use.
# gamma_last's arrival branch stays one line sweep (_sweep_level) per
# descending state.  The order-2 base (bridge2_slice) fills its tensor in
# blocks of z values (_z_block).  gamma_middle sums every interior split of
# an order on the halves' level spectra, frequency first, so a split is one
# batched matrix product (_MiddleFactors), and inverts that sum once.  The z
# recursion holds the lowest orders' spectra while they take no more memory
# than the tensors (_hold_cap); others are transformed once per call.  Each
# operator still costs O(nz * ns) slabs per order, so the operators serve
# duration-dependent kernels at moderate n (the dispatcher uses the split
# engine of :mod:`.homogeneous` whenever the kernel is duration-free).


def _z_block(row: np.ndarray) -> int:
    """Initial durations per block of the base's gather, for slabs of ``row``'s size.

    Blocks of about 2**16 values keep a gathered slab, its factor and its
    target in a core's cache; a whole-grid slab runs through memory.
    """
    return max(1, (1 << 16) // row.size)


#: Passive values per block of the sheared products, about 2 MiB of float64.
_STEP_CHUNK = 1 << 18


def _lags(n: int) -> np.ndarray:
    """``p - q`` on an ``(n, n)`` grid of output rows ``q`` and input rows ``p``."""
    k = np.arange(n)
    return k[None, :] - k[:, None]


def _columns(arr: np.ndarray) -> np.ndarray:
    """``arr`` as ``(rows, columns, levels)``, a view so that writes reach ``arr``."""
    return np.reshape(arr, (arr.shape[0], -1, arr.shape[-1]), copy=False)


def _sheared_quadrature(out, field_arr, weights, offset, cells) -> None:
    """Accumulate ``out[q] += sum_p weights[q, p] * field[p]`` shifted by
    ``offset + (q - p) * cells`` level cells, by :func:`_add_shifted`'s rule.

    ``out`` is ``(n, columns, L_out)``, ``field`` ``(n, columns, L_in)`` and
    ``weights`` ``(n, n)``.  The shift is a shear of the (row, level) plane:
    with ``A_q = floor(offset + q cells)`` and ``B_p = floor(p cells)``, field
    level ``k`` lands at ``A_q + (k - B_p) + t`` for a tap ``t`` taking few
    values (one for integer ``cells``, at most three in exact arithmetic).
    So the field is copied once per tap into sheared coordinates
    ``y = k - B_p + t``, the quadrature is one matrix product over (tap, p)
    for every column and sheared level, and row ``q`` of the product is added
    back at ``A_q + y``.  Each tap weight is ``weights[q, p]`` times the split
    of ``_add_shifted``; only the summation order differs from shifting one
    row at a time.  Columns go in blocks of about :data:`_STEP_CHUNK` values
    of the product.
    """
    n, n_cols, n_out = out.shape
    n_in = field_arr.shape[-1]
    pos = offset + -_lags(n) * cells
    base = np.floor(pos)
    frac = pos - base
    row_q = np.floor(offset + np.arange(n) * cells).astype(int)
    row_p = np.floor(np.arange(n) * cells).astype(int)
    lower = base.astype(int) - row_q[:, None] + row_p
    tap = np.stack([lower, lower + 1])
    tap_w = np.stack([weights * (1.0 - frac), weights * frac])
    live = np.nonzero(tap_w)
    taps = np.unique(tap[live])
    U = np.zeros((n, taps.size, n))
    U[live[1], np.searchsorted(taps, tap[live]), live[2]] = tap_w[live]
    # Sheared levels that some field row reaches inside some output row.
    y_lo = int(max(-row_q.max(), taps[0] - row_p.max()))
    width = int(min(n_out - row_q.min(), n_in + taps[-1] - row_p.min())) - y_lo
    # (tap, p, sheared range, field level) of each copy that meets a nonzero
    # weight, and (q, lattice range, sheared index) of each row that receives.
    row_q, row_p = row_q.tolist(), row_p.tolist()
    copies = []
    for t_i, t in enumerate(taps.tolist()):
        for p in np.flatnonzero(U[:, t_i].any(axis=0)).tolist():
            start = y_lo - t + row_p[p]
            k0, k1 = max(0, start), min(n_in, start + width)
            if k0 < k1:
                copies.append((t_i, p, k0 - start, k1 - start, k0))
    rows = []
    for q in np.flatnonzero(U.any(axis=(1, 2))).tolist():
        start = row_q[q] + y_lo
        x0, x1 = max(0, start), min(n_out, start + width)
        if x0 < x1:
            rows.append((q, x0, x1, x0 - start))
    block = max(1, min(n_cols, _STEP_CHUNK // (n * width)))
    sheared = np.zeros((taps.size, n, block, width))
    product = np.empty(n * block * width)
    U = U.reshape(n, -1)
    for c0 in range(0, n_cols, block):
        c1 = min(c0 + block, n_cols)
        x = sheared[:, :, : c1 - c0]
        for t_i, p, y0, y1, k0 in copies:
            x[t_i, p, :, y0:y1] = field_arr[p, c0:c1, k0 : k0 + y1 - y0]
        y = product[: n * (c1 - c0) * width].reshape(n, -1)
        np.matmul(U, x.reshape(taps.size * n, -1), out=y)
        y = y.reshape(n, c1 - c0, width)
        for q, x0, x1, y0 in rows:
            out[q, c0:c1, x0:x1] += y[q, :, y0 : y0 + x1 - x0]


def gamma_first(
    model: FluidModel,
    grid: LevelDurationGrid,
    bridge_prev: np.ndarray,
    theta1: float = 0.0,
    theta2: float = 0.0,
) -> np.ndarray:
    """Contribution of paths whose first epoch is the minimal intermediate.

    Quadrature over the first holding time ``u`` of
    ``gamma e^{-(gamma + theta1 sigma_i) u}`` times a same-class kernel factor
    evaluated at duration ``z+u`` times the ``(n-1)``-bridge from the new
    state, displaced by ``r_i u`` and restricted to sub-bridge displacements
    ``<= 0`` (the argmin condition).  No-arrival factors continue at initial
    duration ``z+u``; arrival factors restart at ``0``.

    Both factors are summed over the new state into one continuation field
    per duration ``p = z+u``.  For each ascending state the quadrature over
    ``u`` is one sheared product (:func:`_sheared_quadrature`) with
    ``W[z, p] = decay(p - z)`` and shift ``(p - z) r_i du/dl``; the
    trapezoid halves at ``u = 0`` and at ``p = ns - 1`` are entries of ``W``.
    """
    gamma = model.gamma
    ip = model.s_plus
    ns = bridge_prev.shape[-2]
    du = grid.du
    kappa = cost_weights(model, theta2).pp
    Cbar, Dbar = _uniformized_nodes(model, grid.durations)
    Cpp = Cbar[:, ip][:, :, ip]
    kDpp = kappa * Dbar[:, ip][:, :, ip]

    below = bridge_prev[..., : grid.zero_index + 1]
    # cont[i, p] = sum_k Cpp[p, i, k] below[p, k] + kappa Dpp[p, i, k] below[0, k]:
    # the l <= 0 half of the (n-1)-bridge entered at duration p = z + u, read
    # as a view; the trapezoid half at level zero is applied to the result.
    cont = np.einsum("pik,pkjsl->ipjsl", Cpp, below)
    cont += np.einsum("pik,kjsl->ipjsl", kDpp, below[0])
    cont[..., -1] *= 0.5
    out = np.zeros_like(bridge_prev)
    tilt = gamma + theta1 * model.sigma[ip]
    decay = gamma * np.exp(-np.outer(grid.durations, tilt)) * du  # (a, i)
    # Holding time a = p - z cells.  Trapezoid in u over [0, (ns - 1 - z) du]:
    # half weight at u = 0 and at the last node z + u = ns - 1, never both.
    a = _lags(ns)
    w_z = np.where((a == 0) | (np.arange(ns) == ns - 1), 0.5, 1.0)
    for ai, i in enumerate(ip):
        weights = np.where(a >= 0, decay[np.maximum(a, 0), ai] * w_z, 0.0)
        # A shift of (p - z) cells is (q - p) times -cells.
        cells = -grid.level_cells(model.rates[i])
        _sheared_quadrature(_columns(out[:, ai]), _columns(cont[ai]), weights, 0, cells)
    return out


def gamma_middle(
    model: FluidModel,
    grid: LevelDurationGrid,
    bridges,
    n: int,
    theta2: float = 0.0,
    factors=None,
) -> np.ndarray:
    """Contribution of bridges glued at an interior minimal epoch, for order ``n``.

    Double quadrature over the switch duration ``u`` and switch level ``v``
    (from ``max(0, l)`` upward) of the ``w``-bridge ending at ``(u, v)``, a
    negative-to-positive kernel factor at duration ``u``, and the remaining
    ``(n-w)``-bridge from the switch, displaced by ``v``.  No-arrival switches
    continue at initial duration ``u``; arrival switches restart at ``0``.

    ``bridges`` maps each order ``2..n-2`` to its density tensor of shape
    ``(nz, |S+|, |S-|, ns, L)`` (the ``slices`` of a ``"z"``-mode
    :class:`BridgeTensor`).  Sums every split ``w = 2..n-2``.  The
    ``v``-integral is a level correlation: per level frequency, a split is one
    matrix product ``G_w R_{n-w}`` of level spectra (``factors``, which may
    hold orders across calls), summed in place and inverted once.
    """
    from scipy.fft import irfft

    if n < 4:
        raise ValueError(f"interior splits need order n >= 4, got {n!r}")
    factors = _MiddleFactors(model, grid, bridges, theta2) if factors is None else factors
    nz, P, M, ns, L = bridges[2].shape
    total = np.zeros((factors.nfft // 2 + 1, nz * P, M * ns), dtype=complex)
    tmp = np.empty_like(total)
    for w in range(2, n // 2 + 1):
        ours = factors[w]
        theirs = ours if 2 * w == n else factors[n - w]
        total += np.matmul(ours[0], theirs[1], out=tmp)
        if 2 * w != n:
            total += np.matmul(theirs[0], ours[1], out=tmp)
        del ours, theirs  # before the next pair is transformed
    out = irfft(np.moveaxis(total, 0, -1), n=factors.nfft, axis=-1)[..., :L] * grid.dl
    return out.reshape(nz, P, M, ns, L)


class _MiddleFactors(dict):
    """:func:`gamma_middle`'s factors ``(G_w, R_w)`` of ``bridges`` by order, built
    at each lookup unless held; the switch kernel's weights are built once."""

    def __init__(self, model, grid, bridges, theta2):
        from scipy.fft import next_fast_len

        ip, im = model.s_plus, model.s_minus
        Cbar, Dbar = _uniformized_nodes(model, grid.durations)
        w_u = _trapezoid_weights(grid.n_durations)[:, None, None] * grid.du
        self.cw = Cbar[:, im][:, :, ip] * w_u
        self.dw = cost_weights(model, theta2).mp * Dbar[:, im][:, :, ip] * w_u
        self.nfft = next_fast_len(grid.n_levels, real=True)
        self.bridges, self.zero_index = bridges, grid.zero_index

    def hold(self, w: int) -> None:
        self[w] = self[w]

    def __missing__(self, w):
        """Both level halves (:func:`_level_halves`) in one zero-padded buffer,
        transformed in one call, frequency first.  ``G``, the ``l >= 0`` half,
        is ``(F, nz |S+|, |S-| ns)`` over ``(z, i)`` and the switch ``(j', u)``;
        ``R``, ``(F, |S-| ns, |S-| ns)`` over ``(j', u)`` and ``(j, s)``, is the
        ``l <= 0`` half at ``(u, i')`` weighted by ``cw`` at ``(u, j', i')``
        (no-arrival switches) plus at ``(0, i')`` weighted by ``dw``."""
        from scipy.fft import rfft

        field_arr, m0 = self.bridges[w], self.zero_index
        nz, P, M, ns, _ = field_arr.shape
        n_left, k = nz * P * M * ns, M * ns
        buf = np.zeros((n_left + k * k, self.nfft))
        above = buf[:n_left].reshape(nz, P, M, ns, -1)[..., : m0 + 1]
        above[...] = field_arr[..., m0:]
        above[..., 0] *= 0.5
        below = field_arr[..., : m0 + 1]
        glued = buf[n_left:].reshape(M, ns, M, ns, -1)[..., : m0 + 1]
        np.einsum("uxk,ukjsl->xujsl", self.cw, below, out=glued)
        glued += np.einsum("uxk,kjsl->xujsl", self.dw, below[0])
        glued[..., m0] *= 0.5
        spec = np.ascontiguousarray(rfft(buf, axis=-1).T)
        return spec[:, :n_left].reshape(-1, nz * P, k), spec[:, n_left:].reshape(-1, k, k)


def gamma_last(
    model: FluidModel,
    grid: LevelDurationGrid,
    bridge_prev: np.ndarray,
    theta2: float = 0.0,
) -> np.ndarray:
    """Contribution of paths whose last intermediate epoch is the minimum.

    One descending segment of length ``u`` closes the bridge.  The no-arrival
    branch evaluates the kernel at the pre-switch duration ``s - u`` and
    shifts the ``(n-1)``-bridge by ``r_j u``; the arrival branch pins the
    final segment length to ``s``, integrating the ``(n-1)``-bridge over its
    final duration.  Sub-bridge displacements are restricted to ``>= 0``.

    Both branches contract the pre-switch state first.  For each descending
    state the no-arrival quadrature is one sheared product
    (:func:`_sheared_quadrature`) over the sub-bridge's final duration
    ``s' = s - u``, with ``W[s, s'] = decay(s - s')`` for ``s >= 1`` (row
    ``s = 0`` is zero) and shift ``m0 + (s - s') r_j du/dl``; the trapezoid
    half at ``u = s`` is the halved sub-bridge row ``s' = 0``.  The arrival
    branch is one line sweep per descending state.
    """
    gamma = model.gamma
    im = model.s_minus
    ns = bridge_prev.shape[-2]
    du = grid.du
    kappa = cost_weights(model, theta2).mm
    Cbar, Dbar = _uniformized_nodes(model, grid.durations)
    Cmm = Cbar[:, im][:, :, im]
    kDmm = kappa * Dbar[:, im][:, :, im]

    m0 = grid.zero_index
    # The l >= 0 half of the sub-bridge, read as a view: index k is level
    # k dl, lattice index m0 + k.  The trapezoid half at level zero is applied
    # to each contraction.
    above = bridge_prev[..., m0:]
    # Arrival closing segment: final duration = s exactly; integrate the half
    # over its own final duration with the arrival kernel, before the level
    # shift (the boundary node carries the midpoint value).
    w_u = _trapezoid_weights(ns) * du
    arrival = np.einsum("zixsl,sxj,s->zijl", above, kDmm, w_u)
    arrival[..., 0] *= 0.5
    # No-arrival closing segment: the sub-bridge at final duration s - u,
    # weighted by the kernel at that pre-switch duration.  Trapezoid in u:
    # half weight at u = 0 by the node weight and at u = s by halving the
    # contracted row s = 0.
    reduced = np.einsum("zixsl,sxj->zijsl", above, Cmm)
    reduced[..., 0, :] *= 0.5
    reduced[..., 0] *= 0.5

    out = np.zeros_like(bridge_prev)
    closing = gamma * np.exp(-gamma * grid.durations)
    decay = closing * du
    decay[0] *= 0.5  # trapezoid half weight at u = 0
    # Segment length a = s - s' cells; a zero-length segment adds nothing at s = 0.
    a = -_lags(ns)
    weights = np.where((a >= 0) & (np.arange(ns)[:, None] >= 1), decay[np.maximum(a, 0)], 0.0)
    for bj, j in enumerate(im):
        cells = grid.level_cells(model.rates[j])
        _sheared_quadrature(
            _columns(np.moveaxis(out[:, :, bj], 2, 0)),
            _columns(np.moveaxis(reduced[:, :, bj], 2, 0)),
            weights,
            m0,
            cells,
        )
        _sweep_level(out[:, :, bj], arrival[:, :, bj], m0, cells, closing)
    return out


# ---------------------------------------------------------------------------
# Tensor container and dispatch
# ---------------------------------------------------------------------------


@dataclass
class BridgeTensor:
    """Bridge densities for ``n = 2..n_max`` with assembly metadata.

    Storage modes:

    * ``"z"`` — full tensors ``(nz, |S+|, |S-|, ns, L)`` per ``n`` (generic
      duration-dependent kernels),
    * ``"split"`` — arrival-free part ``A`` (a function of ``s - z``) and
      arrival part ``B`` (independent of ``z``), each ``(|S+|, |S-|, ns, L)``
      per ``n`` (duration-free kernels, built by
      :func:`~fluidrisk.homogeneous.run_split_recursion`).

    ``masses[n]`` holds the grid integral over ``s`` and ``l <= 0`` at
    ``z = 0`` (the first-return contribution of the n-th epoch).
    """

    model: FluidModel
    grid: LevelDurationGrid
    theta1: float
    theta2: float
    n_max: int
    mode: str
    slices: dict
    masses: dict
    diagnostics: dict

    def value(self, n: int, z: float) -> np.ndarray:
        """Density array ``(|S+|, |S-|, ns, L)`` for order ``n`` at duration ``z``."""
        if n not in self.slices:
            raise KeyError(f"bridge order {n} not computed (have 2..{self.n_max})")
        q = self.grid.z_index(z)
        entry = self.slices[n]
        if self.mode == "z":
            return entry[q]
        A, B = entry
        return _shift_duration(A, q) + B

    def mass(self, n: int, z: float | None = None) -> np.ndarray:
        """Integrated first-return mass of order ``n``.

        With ``z`` omitted, returns the mass at initial duration zero
        integrated over the full window; for other on-grid ``z`` it
        integrates the assembled density view.
        """
        if z is None or (z == 0.0 and n in self.masses):
            return self.masses[n]
        return integrate_bridge(self, n, z)

    @property
    def orders(self) -> list[int]:
        return sorted(self.slices)


def _shift_duration(field_arr: np.ndarray, q: int) -> np.ndarray:
    """Evaluate a ``s - z`` field at ``z = q`` duration cells (zero fill)."""
    if q == 0:
        return field_arr
    out = np.zeros_like(field_arr)
    out[..., q:, :] = field_arr[..., : field_arr.shape[-2] - q, :]
    return out


def integrate_bridge(tensor: BridgeTensor, n: int, z: float = 0.0, l_hi: float = 0.0) -> np.ndarray:
    """Trapezoid mass of order ``n`` over durations and levels up to ``l_hi``.

    Returns the ``(|S+|, |S-|)`` matrix of integrals over
    ``s in [0, u_max], l in [-l_max, l_hi]``.
    """
    vals = tensor.value(n, z)
    grid = tensor.grid
    m_hi = grid.zero_index + int(round(l_hi / grid.dl))
    if not 0 <= m_hi < grid.n_levels:
        raise ValueError(f"level bound {l_hi!r} outside the grid window")
    return _integrate_field(vals, grid, m_hi)


def _integrate_field(field_arr: np.ndarray, grid: LevelDurationGrid, m_hi: int) -> np.ndarray:
    w_s = _trapezoid_weights(grid.n_durations) * grid.du
    w_l = _trapezoid_weights(m_hi + 1) * grid.dl
    return np.einsum("...sl,s,l->...", field_arr[..., : m_hi + 1], w_s, w_l)


def _estimate_bytes(grid: LevelDurationGrid, model: FluidModel, n_max: int, mode: str) -> int:
    """Bytes a build takes, counted before any allocation (``"z"``: :func:`_z_sizes`)."""
    tensors, order, working, n_held = _z_sizes(grid, model, n_max)
    if mode == "z":
        return tensors + working + n_held * order
    # A and B fields (no initial-duration axis) plus spectra of like footprint.
    return 5 * tensors // grid.n_durations


def _z_sizes(grid, model, n_max):
    """Bytes of the z recursion's tensors, of one order's :func:`gamma_middle`
    factors and of its working set (two orders' factors, a build's transient,
    the sum, a product, the inverse), and how many lowest orders it holds."""
    from scipy.fft import next_fast_len

    ns, L = grid.n_durations, grid.n_levels
    P, M = model.s_plus.size, model.s_minus.size
    tensors = max(n_max - 1, 1) * ns * P * M * ns * L * 8
    n_freq = next_fast_len(L, real=True) // 2 + 1
    product = n_freq * ns * P * M * ns * 16
    order = product + n_freq * (M * ns) ** 2 * 16
    working = 4 * order + 3 * product if n_max >= 4 else 0
    n_held = max(0, min(n_max - 3, _hold_cap(tensors, working) // order))
    return tensors, order, working, n_held


def _hold_cap(tensors: int, working: int) -> int:
    """Factor bytes the z recursion may hold: its tensors' bytes, within the budget."""
    return min(tensors, DEFAULT_MEMORY_BUDGET - tensors - working)


def _clamp_and_flag(arr: np.ndarray, diagnostics: dict) -> np.ndarray:
    min_val = float(arr.min()) if arr.size else 0.0
    if min_val < diagnostics.get("negative_min", 0.0):
        diagnostics["negative_min"] = min_val
    if min_val < NEGATIVE_FLAG_TOL:
        diagnostics["negative_flagged"] = True
    np.maximum(arr, 0.0, out=arr)
    return arr


def bridge_recursion(
    model: FluidModel,
    grid: LevelDurationGrid,
    theta1: float = 0.0,
    theta2: float = 0.0,
    n_max: int = 8,
    method: str = "auto",
) -> BridgeTensor:
    """Build bridge densities for all orders ``2..n_max``.

    ``method`` selects the engine: ``"split"`` (duration-free kernels,
    arrival-free/arrival decomposition — valid at every initial duration),
    ``"z"`` (generic, explicit initial-duration axis), or ``"auto"``.  A
    sizing check against :data:`DEFAULT_MEMORY_BUDGET` runs before any
    allocation.  Both engines build one order at a time; the whole-series
    first-return matrix of a duration-free kernel comes from
    :func:`~fluidrisk.homogeneous.doubling_psi`, which solves its Riccati
    equation exactly, with no window to truncate.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max!r}")
    if not (theta1 >= 0.0 and theta2 >= 0.0):
        raise ValueError("transform arguments must be nonnegative")
    if method == "auto":
        method = "split" if model.kernel.is_constant else "z"
    if method not in ("split", "z"):
        raise ValueError(f"unknown bridge method {method!r}")
    needed = _estimate_bytes(grid, model, n_max, method)
    if needed > DEFAULT_MEMORY_BUDGET:
        raise BridgeMemoryError(
            f"bridge build needs ~{needed / 1e9:.2f} GB "
            f"({method} storage, n_max={n_max}, grid {grid.n_durations}x{grid.n_levels}) "
            f"exceeding the budget {DEFAULT_MEMORY_BUDGET / 1e9:.2f} GB; shrink the grid "
            "or lower n_max"
        )

    diagnostics = {"engine": method, "negative_min": 0.0, "negative_flagged": False}
    if method == "split":
        from .homogeneous import run_split_recursion

        slices, masses = run_split_recursion(model, grid, theta1, theta2, n_max, diagnostics)
    else:
        slices, masses = _run_z_recursion(model, grid, theta1, theta2, n_max, diagnostics)

    return BridgeTensor(
        model=model,
        grid=grid,
        theta1=theta1,
        theta2=theta2,
        n_max=n_max,
        mode=method,
        slices=slices,
        masses=masses,
        diagnostics=diagnostics,
    )


def _run_z_recursion(model, grid, theta1, theta2, n_max, diagnostics):
    base = bridge2_slice(model, grid, grid.durations, theta1, theta2, edge_weights=True)
    _clamp_and_flag(base, diagnostics)
    slices = {2: base}
    factors = _MiddleFactors(model, grid, slices, theta2)
    held = range(2, 2 + _z_sizes(grid, model, n_max)[3])
    m_hi = grid.zero_index
    masses = {2: _integrate_field(base[0], grid, m_hi)}
    for n in range(3, n_max + 1):
        if n - 1 in held:  # transformed once, right after it was clamped
            factors.hold(n - 1)
        total = gamma_first(model, grid, slices[n - 1], theta1, theta2)
        total += gamma_last(model, grid, slices[n - 1], theta2)
        if n >= 4:
            total += gamma_middle(model, grid, slices, n, theta2, factors)
        _clamp_and_flag(total, diagnostics)
        slices[n] = total
        masses[n] = _integrate_field(total[0], grid, m_hi)
    level_edge = _level_edge_max(slices.values())
    duration_edge = max(float(np.abs(s[..., -1, :]).max()) for s in slices.values())
    diagnostics["level_edge_max_density"] = level_edge
    diagnostics["duration_edge_max_density"] = duration_edge
    if level_edge > 1e-6:
        warnings.warn(
            f"bridge density at the level-window edge is {level_edge:.2e}; "
            "the level window may be saturated — consider a larger l_max",
            stacklevel=2,
        )
    return slices, masses
