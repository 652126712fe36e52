"""Fast bridge recursions for duration-free kernels.

When the kernel pair does not depend on the duration, the bridge splits
exactly into an arrival-free part ``A`` — a function of the elapsed time
``s - z`` because the duration never resets — and an arrival part ``B`` that
is independent of the initial duration ``z`` because the final duration
restarts at the last arrival.  The split recursion closes on the pair
``(A, B)`` with no initial-duration axis at all and builds the bridge
densities order by order.

Every recursion term is a convolution along the elapsed-time and level axes
with either another field or a line-supported kernel (a holding-time density
swept along its fluid displacement), so the engine runs on FFTs.  Its fields
and kernels share one centered level lattice (:class:`_Plans`).

First-return masses need only the densities integrated over the final
duration.  The level engine, :func:`level_fixed_point`, integrates that axis
out analytically and sums the whole bridge series at once.  Integrated over
the final duration, ``A + B`` closes on itself with the summed blocks
``Cbar + exp(-theta2 k) Dbar``: the series sum ``S`` is the minimal solution of

``S = S_2 + first(S) + middle(S, S) + last(S)``

and monotone iteration from the two-epoch field converges to it from below.
It is the only level engine; per-order masses come from the split recursion.
Each of its level products pairs a factor on ``l >= 0`` with one on
``l <= 0``, so a sweep transforms the two half-support halves of ``S``, of
length ``m0 + 1``, and needs no origin offset (:class:`_LevelConstants`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, irfft2, next_fast_len, rfft, rfft2

from .model import BlockView, FluidModel, StructureError, uniformized_kernel
from .bridge import (
    LevelDurationGrid,
    _bridge2_branches,
    _clamp_and_flag,
    _integrate_field,
    _level_edge_max,
    _mask_level_nonneg,
    _mask_level_nonpos,
    _sweep_level,
    _trapezoid_weights,
)

__all__ = [
    "LevelGrid",
    "run_split_recursion",
    "level_fixed_point",
]


# ---------------------------------------------------------------------------
# FFT workspace
# ---------------------------------------------------------------------------


class _Plans:
    """Zero-padded FFT shapes with a common level origin, for the split engine.

    All level data — fields and line kernels alike — live on the centered
    level lattice (index ``m0`` is level zero), so every spectral product is
    sliced at the same window ``[0:ns, m0:m0+L)``.  The level engine does not
    use it: its factors are half-supported (:class:`_LevelConstants`).
    """

    def __init__(self, ns: int, L: int, m0: int):
        self.ns, self.L, self.m0 = ns, L, m0
        self.shape2 = (next_fast_len(2 * ns - 1), next_fast_len(2 * L - 1))
        self.pad1 = next_fast_len(2 * L - 1)

    def f2(self, field: np.ndarray) -> np.ndarray:
        return rfft2(field, s=self.shape2)

    def i2(self, spec: np.ndarray) -> np.ndarray:
        full = irfft2(spec, s=self.shape2)
        return full[..., : self.ns, self.m0 : self.m0 + self.L]

    def f1(self, arr: np.ndarray) -> np.ndarray:
        return rfft(arr, n=self.pad1, axis=-1)

    def i1(self, spec: np.ndarray) -> np.ndarray:
        full = irfft(spec, n=self.pad1, axis=-1)
        return full[..., self.m0 : self.m0 + self.L]


def _halve_first_row(field: np.ndarray) -> np.ndarray:
    out = field.copy()
    out[..., 0, :] *= 0.5
    return out


def _rate_class_blocks(model: FluidModel, theta2: float):
    """Rate-class blocks of the uniformized kernel ``Cbar`` and of the
    cost-tilted arrival kernel ``exp(-theta2 k) * Dbar`` of a duration-free model."""
    if not model.kernel.is_constant:
        raise StructureError(
            "the duration-free engines require a duration-free kernel; "
            "duration-dependent kernels need the generic duration-level recursion"
        )
    Cbar, Dbar = uniformized_kernel(model.kernel, 0.0)
    kD = np.exp(-theta2 * model.k_cost) * Dbar
    return BlockView.split(Cbar, model.space), BlockView.split(kD, model.space)


# ---------------------------------------------------------------------------
# Duration-free kernels: arrival-free / arrival split
# ---------------------------------------------------------------------------


class _SplitConstants:
    """Uniformized blocks and kernel spectra (duration-free)."""

    def __init__(self, model: FluidModel, grid: LevelDurationGrid, theta1: float, theta2: float):
        self.C, self.D = _rate_class_blocks(model, theta2)
        self.grid = grid
        ip, im = model.s_plus, model.s_minus
        gamma = model.gamma

        ns, L, m0 = grid.n_durations, grid.n_levels, grid.zero_index
        self.plans = _Plans(ns, L, m0)
        du = grid.du
        t = grid.durations
        w_tr = _trapezoid_weights(ns)
        self.w_s = w_tr * du
        self.kernel_loss = 0.0
        impulse = np.zeros(L)
        impulse[m0] = 1.0

        def line(weights, rate):
            # Holding-time line: the level-zero impulse swept at slope `rate`;
            # whatever weight leaves the level window is recorded as lost.
            K = _sweep_level(impulse, grid.level_cells(rate), weights)
            self.kernel_loss = max(self.kernel_loss, float(weights.sum() - K.sum()))
            return K

        # First-epoch holding-time lines per ascending state (slope r_i).
        self.K1_hat, self.K1L_hat = [], []
        for i in ip:
            g = gamma * np.exp(-(gamma + theta1 * model.sigma[i]) * t) * du * w_tr
            K = line(g, model.rates[i])
            self.K1_hat.append(self.plans.f2(K))
            self.K1L_hat.append(self.plans.f1(K.sum(axis=0)))

        # Closing-segment lines per descending state (slope r_j).
        g3 = gamma * np.exp(-gamma * t) * du * w_tr
        self.K3_hat = [self.plans.f2(line(g3, model.rates[j])) for j in im]

        self.exp_s = gamma * np.exp(-gamma * t)  # closing-arrival prefactor
        self.delta_minus = [grid.level_cells(model.rates[j]) for j in im]


class _SplitLevel:
    """Masked variants, reductions, and spectra of one order's ``(A, B)`` pair."""

    __slots__ = ("SL_A", "SL_B", "SRt_A", "ab_hat", "SR1", "chat")

    def __init__(self, A: np.ndarray, B: np.ndarray, c: _SplitConstants):
        p, m0 = c.plans, c.grid.zero_index
        ML_A = _mask_level_nonneg(A, m0)
        ML_B = _mask_level_nonneg(B, m0)
        MR_A = _mask_level_nonpos(A, m0)
        MR_B = _mask_level_nonpos(B, m0)
        self.SL_A = p.f2(_halve_first_row(ML_A))
        self.SL_B = p.f2(_halve_first_row(ML_B))
        self.SRt_A = p.f2(np.einsum("xk,kjtl->xjtl", c.C.mp, _halve_first_row(MR_A)))
        ahat = np.einsum("ixtl,t->ixl", ML_A, c.w_s)
        bhat = np.einsum("ixtl,t->ixl", ML_B, c.w_s)
        self.ab_hat = p.f1(ahat + bhat)
        self.SR1 = p.f1(
            np.einsum("xk,kjtl->xjtl", c.C.mp, MR_B)
            + np.einsum("xk,kjtl->xjtl", c.D.mp, MR_A + MR_B)
        )
        self.chat = np.einsum("ixtl,t->ixl", _mask_level_nonneg(A + B, m0), c.w_s)


def _split_step(prev_level: _SplitLevel, pair_sums, c: _SplitConstants, prev_fields):
    """Assemble one order's ``(A, B)`` from the previous order's fields and
    the accumulated interior-split spectra ``pair_sums``."""
    p, m0 = c.plans, c.grid.zero_index
    A_prev, B_prev = prev_fields
    MR_A = _mask_level_nonpos(A_prev, m0)
    MR_B = _mask_level_nonpos(B_prev, m0)
    ML_A = _mask_level_nonneg(A_prev, m0)
    ML_B = _mask_level_nonneg(B_prev, m0)

    K1 = np.stack(c.K1_hat)  # (p+, ft, fl)
    K3 = np.stack(c.K3_hat)  # (p-, ft, fl)

    # Arrival-free target: first-epoch line, interior split, closing line.
    freq_A = K1[:, None] * p.f2(np.einsum("ik,kjtl->ijtl", c.C.pp, _halve_first_row(MR_A)))
    freq_A += K3[None, :] * p.f2(np.einsum("ixtl,xj->ijtl", _halve_first_row(ML_A), c.C.mm))
    if pair_sums is not None:
        freq_A += pair_sums[0]
    A_new = p.i2(freq_A)

    # Arrival target, 2-D pieces: interior splits whose right factor is
    # arrival-free, and the no-arrival closing line over the arrival part.
    freq_B2 = K3[None, :] * p.f2(np.einsum("ixtl,xj->ijtl", _halve_first_row(ML_B), c.C.mm))
    if pair_sums is not None:
        freq_B2 += pair_sums[1]
    B_new = p.i2(freq_B2)

    # Arrival target, level-only pieces: first epoch over a later-arrival
    # bridge (no-arrival step continues on B; arrival step restarts on A+B),
    # plus interior splits whose right factor carries the arrival.
    YB = np.einsum("ik,kjtl->ijtl", c.C.pp, MR_B) + np.einsum(
        "ik,kjtl->ijtl", c.D.pp, MR_A + MR_B
    )
    K1L = np.stack(c.K1L_hat)  # (p+, fl)
    freq_B1 = K1L[:, None, None, :] * p.f1(YB)
    if pair_sums is not None:
        freq_B1 += pair_sums[2]
    B_new += p.i1(freq_B1)

    # Closing arrival: pointwise in the final duration, looking up the
    # duration-integrated sub-bridge at the switch level (masked before the
    # shift; the boundary node carries the midpoint value).
    cc = np.einsum("ixl,xj->ijl", prev_level.chat, c.D.mm)
    for b_j, cells in enumerate(c.delta_minus):
        B_new[:, b_j] += _sweep_level(cc[:, b_j], cells, c.exp_s)
    return A_new, B_new


def _pair_spectra(levels: dict, n: int, du: float, dl: float):
    """Interior-split spectra summed over split points for order ``n``.

    The 2-D terms integrate over both the switch time and the switch level
    (``du * dl``); the level-only terms already carry the duration weight in
    their reductions (``dl`` only).
    """
    if n < 4:
        return None
    acc = None
    for w in range(2, n - 1):
        lw, rm = levels[w], levels[n - w]
        term = (
            np.einsum("ixab,xjab->ijab", lw.SL_A, rm.SRt_A),
            np.einsum("ixab,xjab->ijab", lw.SL_B, rm.SRt_A),
            np.einsum("ixf,xjsf->ijsf", lw.ab_hat, rm.SR1),
        )
        acc = term if acc is None else tuple(a + t for a, t in zip(acc, term))
    return (acc[0] * du * dl, acc[1] * du * dl, acc[2] * dl)


def run_split_recursion(model, grid, theta1, theta2, n_max, diagnostics):
    """Per-order bridge fields for duration-free kernels.

    The order-2 pair is the closed form of :func:`~fluidrisk.bridge.bridge2_slice`
    at ``z = 0``: its no-arrival branch is ``A`` and its arrival branch ``B``.
    """
    c = _SplitConstants(model, grid, theta1, theta2)
    A, B = _bridge2_branches(model, grid, 0.0, theta1, theta2, edge_weights=True)
    _clamp_and_flag(A, diagnostics)
    _clamp_and_flag(B, diagnostics)
    slices = {2: (A, B)}
    levels = {2: _SplitLevel(A, B, c)}
    m0 = grid.zero_index
    masses = {2: _integrate_field(A + B, grid, m0)}
    for n in range(3, n_max + 1):
        pair = _pair_spectra(levels, n, grid.du, grid.dl)
        A_n, B_n = _split_step(levels[n - 1], pair, c, slices[n - 1])
        _clamp_and_flag(A_n, diagnostics)
        _clamp_and_flag(B_n, diagnostics)
        slices[n] = (A_n, B_n)
        levels[n] = _SplitLevel(A_n, B_n, c)
        masses[n] = _integrate_field(A_n + B_n, grid, m0)
    fields = [f for pair in slices.values() for f in pair]
    diagnostics["level_edge_max_density"] = _level_edge_max(fields)
    diagnostics["duration_edge_max_density"] = max(
        float(np.abs(f[..., -1, :]).max()) for f in fields
    )
    diagnostics["holding_tail_bound"] = float(np.exp(-model.gamma * grid.u_max))
    diagnostics["kernel_window_loss"] = c.kernel_loss
    return slices, masses


# ---------------------------------------------------------------------------
# Duration-free kernels: level-only (duration-integrated) engine
# ---------------------------------------------------------------------------
#
# First-return descriptors integrate the bridge density over the final
# duration, and for duration-free kernels every recursion operator commutes
# with that integral: holding-time factors turn into closed-form exponential
# kernels along the fluid displacement, and the recursion closes on fields of
# the level alone.  This removes the duration axis — and with it the
# duration-window truncation, which dominates the error near criticality
# where first-return times are heavy-tailed.


@dataclass(frozen=True)
class LevelGrid:
    """Centered uniform level lattice ``[-l_max, l_max]`` with spacing ``dl``."""

    l_max: float
    dl: float

    def __post_init__(self):
        if self.l_max <= 0 or self.dl <= 0:
            raise ValueError("l_max and dl must be positive")
        cells = self.l_max / self.dl
        if abs(cells - round(cells)) > 1e-9:
            raise ValueError(
                f"l_max={self.l_max!r} must be an integer multiple of dl={self.dl!r}"
            )

    @property
    def zero_index(self) -> int:
        return int(round(self.l_max / self.dl))

    @property
    def n_levels(self) -> int:
        return 2 * self.zero_index + 1

    @property
    def levels(self) -> np.ndarray:
        return (np.arange(self.n_levels) - self.zero_index) * self.dl

    @classmethod
    def for_model(cls, model: FluidModel, l_max: float | None = None, dl: float | None = None):
        """Default lattice: resolve the shortest holding-time level scale
        ``r_min / gamma`` with sixteen cells and extend the window to
        ``512 r_max / gamma``, far enough that near-critical excursion heights
        are negligible at its edge."""
        rates = np.abs(model.rates[model.rates != 0.0])
        r_min, r_max = float(rates.min()), float(rates.max())
        if dl is None:
            dl = r_min / (16.0 * model.gamma)
        if l_max is None:
            l_max = 512.0 * r_max / model.gamma
        l_max = round(l_max / dl) * dl
        return cls(l_max=float(l_max), dl=float(dl))


def _level_kernels(model: FluidModel, grid: LevelGrid, theta1: float):
    """Closed-form displacement kernels of single uniformized segments.

    Ascending state ``i``: holding time ``Exp(gamma)`` tilted by the dividend
    weight gives density ``(gamma/r_i) exp(-(gamma + theta1 sigma_i) l / r_i)``
    on ``l >= 0``.  Descending state ``j``: ``(gamma/|r_j|) exp(-gamma l/r_j)``
    on ``l <= 0``.  The jump node at zero carries the midpoint value.
    """
    lev = grid.levels
    m0 = grid.zero_index
    gamma = model.gamma
    K1 = np.zeros((model.s_plus.size, grid.n_levels))
    for a_i, i in enumerate(model.s_plus):
        r = model.rates[i]
        rate = (gamma + theta1 * model.sigma[i]) / r
        K1[a_i, m0:] = (gamma / r) * np.exp(-rate * lev[m0:])
        K1[a_i, m0] *= 0.5
    K3 = np.zeros((model.s_minus.size, grid.n_levels))
    for b_j, j in enumerate(model.s_minus):
        r = model.rates[j]
        K3[b_j, : m0 + 1] = (gamma / -r) * np.exp(-(gamma / r) * lev[: m0 + 1])
        K3[b_j, m0] *= 0.5
    return K1, K3


class _LevelConstants:
    """Rate-class blocks of the branch sum ``Cbar + exp(-theta2 k) Dbar`` and
    half-support kernel spectra for the duration-integrated recursion.

    Every level product pairs a factor on ``l >= 0`` with one on ``l <= 0``,
    so each factor is kept as its ``m0 + 1`` long half: the nonnegative half
    from level zero up, the nonpositive half from ``-l_max`` up to zero.
    Their linear convolution is ``L`` long and its index ``n`` is level
    ``(n - m0) dl``: the whole window with no origin offset, so transforms of
    length ``next_fast_len(L)`` never wrap.
    """

    def __init__(self, model: FluidModel, grid: LevelGrid, theta1: float, theta2: float):
        C, D = _rate_class_blocks(model, theta2)
        self.pp, self.mp, self.mm = C.pp + D.pp, C.mp + D.mp, C.mm + D.mm
        self.pm = (C.pm + D.pm)[..., None]
        self.m0 = m0 = grid.zero_index
        self.L, self.dl = grid.n_levels, grid.dl
        self.nfft = next_fast_len(self.L, real=True)
        K1, K3 = _level_kernels(model, grid, theta1)
        self.F1 = rfft(K1[:, m0:], n=self.nfft, axis=-1)  # (|S+|, freq)
        self.F3 = rfft(K3[:, : m0 + 1], n=self.nfft, axis=-1)  # (|S-|, freq)
        self.kernel_tail = float(max(K1[:, -1].max(initial=0.0), K3[:, 0].max(initial=0.0)))
        self.w_mass = _trapezoid_weights(m0 + 1) * grid.dl

    def fields(self, spec: np.ndarray) -> np.ndarray:
        """Level fields of product spectra, times the level step."""
        return irfft(spec, n=self.nfft, axis=-1)[..., : self.L] * self.dl

    def base(self) -> np.ndarray:
        """Duration-integrated two-epoch field: one ascending and one
        descending segment glued by the summed kernel."""
        conv = self.fields(self.F1[:, None, :] * self.F3[None, :, :])  # (|S+|, |S-|, L)
        return conv * self.pm

    def mass(self, field: np.ndarray) -> np.ndarray:
        """Integral over nonpositive displacements, per state pair."""
        return np.einsum("ijl,l->ij", field[..., : self.m0 + 1], self.w_mass)


def _real_blocks(subscripts: str, blocks: np.ndarray, spec: np.ndarray) -> np.ndarray:
    """Real state blocks applied to complex spectra through their float view."""
    return np.einsum(subscripts, blocks, spec.view(np.float64)).view(np.complex128)


def _level_sweep(field: np.ndarray, c: _LevelConstants) -> np.ndarray:
    """One fixed-point sweep without the two-epoch field: the first and last
    operators on the field and the middle operator gluing it to itself.

    The two masked halves are transformed once; the state-block products
    commute with the transform and act on their spectra.
    """
    m0 = c.m0
    halves = np.stack([field[..., m0:], field[..., : m0 + 1]])
    halves[0, ..., 0] *= 0.5  # trapezoid half-weight at the closed edge, level zero
    halves[1, ..., -1] *= 0.5
    left, right = rfft(halves, n=c.nfft, axis=-1)  # on l >= 0 and on l <= 0
    first = _real_blocks("ik,kjf->ijf", c.pp, right)
    last = _real_blocks("xj,ixf->ijf", c.mm, left)
    middle = np.einsum("ixf,xjf->ijf", left, _real_blocks("xk,kjf->xjf", c.mp, right))
    return c.fields(c.F1[:, None] * first + c.F3 * last + middle)


def level_fixed_point(
    model: FluidModel,
    grid: LevelGrid,
    theta1: float = 0.0,
    theta2: float = 0.0,
    eps: float = 1e-9,
    max_iter: int = 2000,
    diagnostics: dict | None = None,
):
    """Whole-series duration-integrated bridge sum (first-return field).

    Iterates the series fixed-point equation from the two-epoch field.  The
    iteration is monotone from below, so the stopping rule watches the total
    mass increment.  Returns ``(field, mass, info)``: the series sum on the
    level lattice and its first-return mass per state pair.
    """
    if theta1 < 0 or theta2 < 0:
        raise ValueError("transform arguments must be nonnegative")
    diagnostics = {} if diagnostics is None else diagnostics
    c = _LevelConstants(model, grid, theta1, theta2)
    base = field = c.base()
    history = [c.mass(field)]
    converged = False
    for _ in range(max_iter):
        field = _clamp_and_flag(_level_sweep(field, c) + base, diagnostics)
        history.append(c.mass(field))
        if float(np.max(np.abs(history[-1] - history[-2]))) < eps:
            converged = True
            break
    info = {
        "iterations": len(history) - 1,
        "converged": converged,
        "mass_history": np.array(history),
        "level_edge_max_density": _level_edge_max([field]),
        "kernel_window_tail": c.kernel_tail,
    }
    info.update(diagnostics)
    return field, history[-1], info
