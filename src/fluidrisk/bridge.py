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
argument and gathered onto the ``(z, s, l)`` lattice.
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

    The one rule by which the grid engines restrict a sub-bridge to one side
    of level zero.  Both halves are ``m0 + 1`` long with the trapezoid
    half-weight at level zero; index ``k`` is level ``k dl`` in the first and
    ``(k - m0) dl`` in the second, so they shift onto the lattice at offsets
    ``m0`` and ``0``.  The linear convolution of one half with the other is
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
# to one side of level zero, and every operator takes that side as a level
# half (_level_halves): gamma_first works on the l <= 0 half, gamma_last on
# the l >= 0 half, and gamma_middle pairs one with the other.  A level shift
# is linear and blind to the state it carries, so gamma_first and gamma_last
# contract the kernel's state axis on the half before they shift it onto the
# full lattice (_add_shifted): gamma_first makes one shift per (holding-time
# node, ascending state) and gamma_last one per (holding-time node,
# descending state), plus one line sweep for its arrival branch.  Each shift
# covers a block of z values (_z_block), small enough that its slab stays in
# cache; the order-2 base (bridge2_slice) fills its tensor in the same blocks.
# gamma_middle sums every interior split of an order on the halves' level
# spectra and inverts that sum once; it transforms each lower order once per
# call rather than keeping the spectra of every order, which would take twice
# the memory of the tensors.  The shifts still cost O(nz * ns)
# slabs per order, so the operators serve duration-dependent kernels at
# moderate n (the dispatcher uses the split engine of :mod:`.homogeneous`
# whenever the kernel is duration-free).


def _z_block(row: np.ndarray) -> int:
    """Initial durations per block of the shift loops, for slabs of ``row``'s size.

    Blocks of about 2**16 values keep a shifted slab, its scaled copy and its
    target in a core's cache; a whole-grid slab runs through memory.
    """
    return max(1, (1 << 16) // row.size)


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
    per duration ``z+u``.  Each holding-time node then shifts that field once
    per ascending state and block of ``z`` values.
    """
    gamma = model.gamma
    ip = model.s_plus
    ns = bridge_prev.shape[-2]
    du = grid.du
    kappa = cost_weights(model, theta2).pp
    Cbar, Dbar = _uniformized_nodes(model, grid.durations)
    Cpp = Cbar[:, ip][:, :, ip]
    kDpp = kappa * Dbar[:, ip][:, :, ip]

    below = _level_halves(bridge_prev, grid.zero_index)[1]
    # cont[p, i] = sum_k Cpp[p, i, k] below[p, k] + kappa Dpp[p, i, k] below[0, k]:
    # the l <= 0 half of the (n-1)-bridge entered at duration p = z + u.
    cont = np.einsum("pik,pkjsl->pijsl", Cpp, below)
    cont += np.einsum("pik,kjsl->pijsl", kDpp, below[0])
    del below
    out = np.zeros_like(bridge_prev)
    tilt = gamma + theta1 * model.sigma[ip]
    decay = gamma * np.exp(-np.outer(grid.durations, tilt)) * du  # (a, i)
    block = _z_block(cont[0, 0])
    for q0 in range(0, ns, block):
        for a in range(ns - q0):
            q1 = min(q0 + block, ns - a)
            # Trapezoid in u over [0, (ns - 1 - z) du]: half weight at u = 0
            # and at the last node z + u = ns - 1, never both.
            w_z = np.full(q1 - q0, 0.5 if a == 0 else 1.0)
            if q1 == ns - a:
                w_z[-1] = 0.5
            for ai, i in enumerate(ip):
                _add_shifted(
                    out[q0:q1, ai],
                    (decay[a, ai] * w_z)[:, None, None, None],
                    cont[q0 + a : q1 + a, ai],
                    a * grid.level_cells(model.rates[i]),
                )
    return out


def gamma_middle(
    model: FluidModel,
    grid: LevelDurationGrid,
    bridges,
    n: int,
    theta2: float = 0.0,
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
    ``v``-integral is a level correlation: a product of the factors'
    half-length level spectra (:func:`_level_halves`).  Each order is
    transformed once, together with its partner ``n - w``, so only two
    orders' spectra are held at a time; the products are summed over the
    splits and inverted once.
    """
    from scipy.fft import irfft, next_fast_len, rfft

    if n < 4:
        raise ValueError(f"interior splits need order n >= 4, got {n!r}")
    ip, im = model.s_plus, model.s_minus
    ns, L = grid.n_durations, grid.n_levels
    nfft = next_fast_len(L, real=True)
    kappa = cost_weights(model, theta2).mp
    Cbar, Dbar = _uniformized_nodes(model, grid.durations)
    w_u = _trapezoid_weights(ns) * grid.du
    cw = Cbar[:, im][:, :, ip] * w_u[:, None, None]
    dw = kappa * Dbar[:, im][:, :, ip] * w_u[:, None, None]

    def spectra(w):  # (left, right) of order w
        return rfft(_level_halves(bridges[w], grid.zero_index), n=nfft, axis=-1)

    def split(left, right):
        # Both branches weight the left factor's final duration u and state j'
        # by the switch kernel (u, j', i').  No-arrival switches meet the
        # right factor started at u; arrival switches restart it at 0, so
        # their weight, summed over u, joins the u = 0 slot.
        glue = np.einsum("zixaf,axk->ziakf", left, cw)
        glue[:, :, 0] += np.einsum("zixaf,axk->zikf", left, dw)
        return np.einsum("ziakf,akjsf->zijsf", glue, right, optimize=True)

    total = np.zeros((ns, ip.size, im.size, ns, nfft // 2 + 1), dtype=complex)
    for w in range(2, n // 2 + 1):
        spec_w = spectra(w)
        spec_r = spec_w if 2 * w == n else spectra(n - w)
        total += split(spec_w[0], spec_r[1])
        if 2 * w != n:
            total += split(spec_r[0], spec_w[1])
        del spec_w, spec_r  # before the next pair is transformed
    out = irfft(total, n=nfft, axis=-1)[..., :L] * grid.dl
    return np.ascontiguousarray(out)


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

    Both branches contract the pre-switch state first.  Each holding-time
    node then shifts the reduced no-arrival field once per descending state
    and block of ``z`` values, and the arrival branch is one line sweep per
    descending state.
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
    above = _level_halves(bridge_prev, m0)[0]
    # Arrival closing segment: final duration = s exactly; integrate the
    # l >= 0 half of the sub-bridge over its own final duration with the
    # arrival kernel, before the level shift (the boundary node carries the
    # midpoint value).  Index k of the half is level k dl, lattice index m0 + k.
    w_u = _trapezoid_weights(ns) * du
    arrival = np.einsum("zixsl,sxj,s->zijl", above, kDmm, w_u)
    # No-arrival closing segment: the sub-bridge at final duration s - u,
    # weighted by the kernel at that pre-switch duration.  Trapezoid in u:
    # half weight at u = 0 by the node weight and at u = s by halving the
    # sub-bridge row s = 0.
    above[..., 0, :] *= 0.5
    reduced = np.einsum("zixsl,sxj->zijsl", above, Cmm)
    del above

    out = np.zeros_like(bridge_prev)
    closing = gamma * np.exp(-gamma * grid.durations)
    decay = closing * du
    decay[0] *= 0.5  # trapezoid half weight at u = 0
    block = _z_block(reduced[0, :, 0])
    for bj, j in enumerate(im):
        cells = grid.level_cells(model.rates[j])
        for z0 in range(0, reduced.shape[0], block):
            target = out[z0 : z0 + block, :, bj]
            field_j = reduced[z0 : z0 + block, :, bj]
            for a in range(ns):
                lo = max(a, 1)  # a zero-length segment adds nothing at s = 0
                sub = field_j[..., lo - a : ns - a, :]
                _add_shifted(target[..., lo:, :], decay[a], sub, m0 + a * cells)
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
    ns, L = grid.n_durations, grid.n_levels
    pairs = model.s_plus.size * model.s_minus.size
    per_field = pairs * ns * L * 8
    n_slots = max(n_max - 1, 1)
    if mode == "z":
        # One tensor per order, plus gamma_middle's working set: the left and
        # right half-length level spectra (complex) of two orders, the running
        # sum over splits and one split's product.
        from scipy.fft import next_fast_len

        n_freq = next_fast_len(L, real=True) // 2 + 1
        spectra = 6 * pairs * ns * n_freq * 16 if n_max >= 4 else 0
        return ns * (n_slots * per_field + spectra)
    # A and B fields plus cached spectra of comparable footprint.
    return n_slots * per_field * 5


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
    if theta1 < 0 or theta2 < 0:
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
    m_hi = grid.zero_index
    masses = {2: _integrate_field(base[0], grid, m_hi)}
    for n in range(3, n_max + 1):
        total = gamma_first(model, grid, slices[n - 1], theta1, theta2)
        total += gamma_last(model, grid, slices[n - 1], theta2)
        if n >= 4:
            total += gamma_middle(model, grid, slices, n, theta2)
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
