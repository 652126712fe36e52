"""Duration-free kernels: the exact first-return matrix and per-order bridges.

When the kernel pair does not depend on the duration, the fluid model is a
Markov-modulated fluid queue with generator ``Q_theta = C + exp(-theta2 K) o D
- theta1 diag(sigma)``.  Its first-return matrix ``Psi`` is the minimal
nonnegative solution of the Riccati equation

``T++ Psi + Psi T-- + T+- + Psi T-+ Psi = 0``,  ``T = Q_theta / |r|``

(Ramaswami 1999; Bean, O'Reilly & Taylor 2005).  :func:`doubling_psi` solves
it by the structure-preserving doubling algorithm (Guo, Lin & Xu 2006), which
converges quadratically.  At zero mean drift that rate degrades to linear;
when no tilt acts, a shift of Guo, Iannazzo & Meini (2007) along a null
vector restores it and keeps ``Psi`` the shifted equation's solution.

Per-order bridge densities come from the split recursion.  The bridge splits
exactly into an arrival-free part ``A`` — a function of the elapsed time
``s - z`` because the duration never resets — and an arrival part ``B`` that
is independent of the initial duration ``z`` because the final duration
restarts at the last arrival.  The recursion closes on the pair ``(A, B)``
with no initial-duration axis at all and builds the bridge densities order by
order.  Every recursion term is a convolution along the elapsed-time and
level axes with either another field or a line-supported kernel (a
holding-time density swept along its fluid displacement), so the engine runs
on FFTs.  Every level product pairs an ``l >= 0`` half with an ``l <= 0``
half (:func:`~fluidrisk.bridge._level_halves`), each holding-time line lives
on the half it sweeps, and the products land on the grid's own level indices
(:class:`_Plans`).  The holding-time lines and the closing-arrival sweep
shift levels by the generic engine's one rule,
:func:`~fluidrisk.bridge._sheared_quadrature`, with one field row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, irfft2, next_fast_len, rfft, rfft2

from .model import BlockView, FluidModel, StructureError, _check_transform, uniformized_kernel
from .bridge import (
    LevelDurationGrid,
    _bridge2_branches,
    _clamp_and_flag,
    _level_halves,
    _sheared_quadrature,
    _trapezoid_weights,
)

__all__ = [
    "LevelGrid",
    "run_split_recursion",
    "doubling_psi",
]

#: Floor of the doubling solver's error figure: 32 units of roundoff.  Against
#: 50-digit Newton solutions, the doubling Psi of the gallery's duration-free
#: models at theta in {(0, 0), (0.1, 0.2), (0.3, 0.2), (1, 0.2)} is off by at
#: most 3 units.
DOUBLING_ROUNDING = 32.0 * float(np.finfo(float).eps)

#: Doubling steps before the solver gives up.  A quadratic run takes 4-9; a
#: linear one (drift just above zero) halves its error per step.
_MAX_DOUBLING_STEPS = 64


# ---------------------------------------------------------------------------
# Duration-free kernels: the first-return matrix by doubling
# ---------------------------------------------------------------------------


def _require_duration_free(model: FluidModel) -> None:
    if not model.kernel.is_constant:
        raise StructureError(
            "the duration-free engines require a duration-free kernel; "
            "duration-dependent kernels need the generic duration-level recursion"
        )


def _rate_scaled_generator(model: FluidModel, theta1: float, theta2: float) -> np.ndarray:
    """``T = Q_theta / |r|``: the tilted generator per unit of fluid level."""
    _require_duration_free(model)
    C, D = model.kernel.constant
    Q = C + np.exp(-theta2 * model.k_cost) * D - theta1 * np.diag(model.sigma)
    return Q / np.abs(model.rates)[:, None]


def _null_shift(model: FluidModel, T: np.ndarray):
    """``(side, pi)``: the null vector the doubling shift runs along, and the
    stationary law.  ``(None, None)`` when a tilt acts (``T 1 != 0``);
    ``"right"`` when the mean drift ``pi . r`` is at most zero up to rounding
    (``Psi 1 = 1``), ``"left"`` when it is positive."""
    if np.abs(T.sum(axis=1)).max() > 1e-12 * np.abs(T).max():
        return None, None
    Q = T * np.abs(model.rates)[:, None]
    lhs = np.vstack([Q.T, np.ones(model.p)])
    pi = np.linalg.lstsq(lhs, np.eye(model.p + 1)[-1], rcond=None)[0]
    certain = float(pi @ model.rates) <= 1e-12 * float(pi @ np.abs(model.rates))
    return ("right" if certain else "left"), pi


def _substochastic(X: np.ndarray) -> np.ndarray:
    """Clip at zero and scale back any row that rounding lifts above one."""
    X = np.maximum(X, 0.0)
    sums = X.sum(axis=1, keepdims=True)
    while (sums > 1.0).any():
        # The quotient can round back above one; step it an ulp down.
        X = np.where(sums > 1.0, np.nextafter(X / sums, 0.0), X)
        sums = X.sum(axis=1, keepdims=True)
    return X


def _right_solve(X: np.ndarray, M: np.ndarray) -> np.ndarray:
    """``X M^-1``."""
    return np.linalg.solve(M.T, X.T).T


def doubling_psi(model: FluidModel, theta1: float = 0.0, theta2: float = 0.0):
    """First-return matrix of a duration-free model by doubling.

    In the M-matrix form ``X C X - X D - A X + B = 0`` of Guo, Lin & Xu, with
    ``X = Psi``, ``A = -T++``, ``B = T+-``, ``C = T-+`` and ``D = -T--``, the
    doubling iterates ``H_k`` converge to ``Psi``, the error roughly squaring
    at each step.  ``M = [[D, -C], [B, -A]]`` (``(S-, S+)`` order) has the
    invariant subspace ``[I; Psi]`` and, when no tilt acts, a zero eigenvalue
    that slows doubling near zero drift.  With ``eta = max diag(A, D)`` the
    shift of Guo, Iannazzo & Meini moves it away and leaves ``Psi`` a
    solution: when return is certain, the right null vector ``1`` lies in
    ``[I; Psi]`` and ``M + (eta/p) 1 1^T`` moves it to ``eta``; at positive
    drift, the left null vector ``v = -(pi o r)`` is orthogonal to
    ``[I; Psi]`` and ``M - (eta/|v|^2) v v^T`` moves it to ``-eta``.  The
    solver stops when the sup-norm increment of ``H_k`` drops to
    :data:`DOUBLING_ROUNDING`.

    Returns ``(matrix, info)``.  ``matrix`` is clipped to ``[0, 1]`` with row
    sums at most one.  ``info`` holds the step count, the increment history,
    the shift that applied (``"right"``, ``"left"`` or ``None``), the
    Riccati residual of ``matrix`` and ``tail_estimate``: the last
    increment, floored at :data:`DOUBLING_ROUNDING`.
    """
    _check_transform(theta1, theta2)
    T = _rate_scaled_generator(model, theta1, theta2)
    ip, im = model.s_plus, model.s_minus
    Tpp, Tpm = T[np.ix_(ip, ip)], T[np.ix_(ip, im)]
    Tmp, Tmm = T[np.ix_(im, ip)], T[np.ix_(im, im)]
    A, B, C, D = -Tpp, Tpm, Tmp, -Tmm
    shifted, pi = _null_shift(model, T)
    eta = max(np.diag(A).max(), np.diag(D).max())
    if shifted == "right":
        # (eta/p) 1 1^T is the same constant in every block of M.
        k = eta / model.p
        A, B, C, D = A - k, B + k, C - k, D + k
    elif shifted == "left":
        v = -(pi * model.rates)
        k = eta / float(v @ v)
        vp, vm = v[ip], v[im]
        A, B = A + k * np.outer(vp, vp), B - k * np.outer(vp, vm)
        C, D = C + k * np.outer(vm, vp), D - k * np.outer(vm, vm)

    m, n = ip.size, im.size
    gamma = max(np.diag(A).max(), np.diag(D).max())
    A_g, D_g = A + gamma * np.eye(m), D + gamma * np.eye(n)
    DC = np.linalg.solve(D_g, C)
    W = A_g - B @ DC
    V = D_g - C @ np.linalg.solve(A_g, B)
    E = np.eye(n) - 2.0 * gamma * np.linalg.inv(V)
    F = np.eye(m) - 2.0 * gamma * np.linalg.inv(W)
    G = 2.0 * gamma * _right_solve(DC, W)
    H = 2.0 * gamma * _right_solve(np.linalg.solve(W, B), D_g)
    increments = []
    for _ in range(_MAX_DOUBLING_STEPS):
        EI = _right_solve(E, np.eye(n) - G @ H)
        FI = _right_solve(F, np.eye(m) - H @ G)
        H_next = H + FI @ H @ E
        G = G + EI @ G @ F
        E, F = EI @ E, FI @ F
        increments.append(float(np.abs(H_next - H).max(initial=0.0)))
        H = H_next
        if increments[-1] <= DOUBLING_ROUNDING:
            break

    X = _substochastic(H)
    residual = Tpp @ X + X @ Tmm + Tpm + X @ Tmp @ X
    info = {
        "engine": "doubling",
        "steps": len(increments),
        "increments": np.array(increments),
        "shifted": shifted,
        "residual": float(np.abs(residual).max(initial=0.0)),
        "tail_estimate": max(increments[-1], DOUBLING_ROUNDING),
    }
    return X, info


# ---------------------------------------------------------------------------
# Duration-free kernels: per-order split recursion
# ---------------------------------------------------------------------------


class _Plans:
    """Zero-padded FFT shapes of the split engine.

    Each level product convolves two ``m0 + 1`` long halves, so it is ``L``
    long and its index ``m`` is lattice index ``m``: level transforms of
    length ``next_fast_len(L, real=True)`` never wrap and need no origin
    slicing.  The elapsed-time axis is padded to ``2 ns - 1``.
    """

    def __init__(self, ns: int, L: int):
        self.ns, self.L = ns, L
        self.shape2 = (next_fast_len(2 * ns - 1), next_fast_len(L, real=True))

    def f2(self, field: np.ndarray) -> np.ndarray:
        return rfft2(field, s=self.shape2)

    def i2(self, spec: np.ndarray) -> np.ndarray:
        return irfft2(spec, s=self.shape2)[..., : self.ns, : self.L]

    def f1(self, arr: np.ndarray) -> np.ndarray:
        return rfft(arr, n=self.shape2[1], axis=-1)

    def i1(self, spec: np.ndarray) -> np.ndarray:
        return irfft(spec, n=self.shape2[1], axis=-1)[..., : self.L]


def _halve_first_row(field: np.ndarray) -> np.ndarray:
    out = field.copy()
    out[..., 0, :] *= 0.5
    return out


def _rate_class_blocks(model: FluidModel, theta2: float):
    """Rate-class blocks of the uniformized kernel ``Cbar`` and of the
    cost-tilted arrival kernel ``exp(-theta2 k) * Dbar`` of a duration-free model."""
    _require_duration_free(model)
    Cbar, Dbar = uniformized_kernel(model.kernel, 0.0)
    kD = np.exp(-theta2 * model.k_cost) * Dbar
    return BlockView.split(Cbar, model.space), BlockView.split(kD, model.space)


class _SplitConstants:
    """Uniformized blocks and kernel spectra (duration-free)."""

    def __init__(self, model: FluidModel, grid: LevelDurationGrid, theta1: float, theta2: float):
        self.C, self.D = _rate_class_blocks(model, theta2)
        self.grid = grid
        ip, im = model.s_plus, model.s_minus
        gamma = model.gamma

        ns, m0 = grid.n_durations, grid.zero_index
        self.plans = _Plans(ns, grid.n_levels)
        du = grid.du
        t = grid.durations
        w_tr = _trapezoid_weights(ns)
        self.w_s = w_tr * du
        self.kernel_loss = 0.0

        def line(weights, rate, origin):
            # Holding-time line on one level half: a unit impulse at level
            # zero (index `origin`) swept at slope `rate`; whatever weight
            # leaves the half is recorded as lost.
            K = np.zeros((ns, m0 + 1))
            _sheared_quadrature(K[:, None], np.ones((1, 1, 1)), weights[:, None], origin, grid.level_cells(rate))
            self.kernel_loss = max(self.kernel_loss, float(weights.sum() - K.sum()))
            return K

        # First-epoch holding-time lines per ascending state (slope r_i),
        # on the l >= 0 half: spectra (p+, ft, fl) and level spectra (p+, fl).
        K1 = []
        for i in ip:
            g = gamma * np.exp(-(gamma + theta1 * model.sigma[i]) * t) * du * w_tr
            K1.append(line(g, model.rates[i], 0))
        self.K1_hat = np.stack([self.plans.f2(K) for K in K1])
        self.K1L_hat = np.stack([self.plans.f1(K.sum(axis=0)) for K in K1])

        # Closing-segment lines per descending state (slope r_j), on the
        # l <= 0 half: spectra (p-, ft, fl).
        g3 = gamma * np.exp(-gamma * t) * du * w_tr
        self.K3_hat = np.stack([self.plans.f2(line(g3, model.rates[j], m0)) for j in im])

        self.exp_s = gamma * np.exp(-gamma * t)  # closing-arrival prefactor
        self.delta_minus = [grid.level_cells(model.rates[j]) for j in im]


class _SplitLevel:
    """Level halves, reductions and spectra of one order's ``(A, B)`` pair.

    ``halves`` holds the ``l >= 0`` and ``l <= 0`` halves of ``A`` and of
    ``B``: every level product of the next order pairs one with the other.
    """

    __slots__ = ("halves", "SL_A", "SL_B", "SRt_A", "ab_hat", "SR1", "chat")

    def __init__(self, A: np.ndarray, B: np.ndarray, c: _SplitConstants):
        p, m0 = c.plans, c.grid.zero_index
        self.halves = (*_level_halves(A, m0), *_level_halves(B, m0))
        up_A, dn_A, up_B, dn_B = self.halves
        self.SL_A = p.f2(_halve_first_row(up_A))
        self.SL_B = p.f2(_halve_first_row(up_B))
        self.SRt_A = p.f2(np.einsum("xk,kjtl->xjtl", c.C.mp, _halve_first_row(dn_A)))
        self.chat = np.einsum("ixtl,t->ixl", up_A + up_B, c.w_s)
        self.ab_hat = p.f1(self.chat)
        self.SR1 = p.f1(
            np.einsum("xk,kjtl->xjtl", c.C.mp, dn_B)
            + np.einsum("xk,kjtl->xjtl", c.D.mp, dn_A + dn_B)
        )


def _split_step(prev: _SplitLevel, pair_sums, c: _SplitConstants):
    """Assemble one order's ``(A, B)`` from the previous order's halves and
    the accumulated interior-split spectra ``pair_sums``."""
    p, m0 = c.plans, c.grid.zero_index
    up_A, dn_A, up_B, dn_B = prev.halves

    # Arrival-free target: first-epoch line, interior split, closing line.
    freq_A = c.K1_hat[:, None] * p.f2(np.einsum("ik,kjtl->ijtl", c.C.pp, _halve_first_row(dn_A)))
    freq_A += c.K3_hat[None, :] * p.f2(np.einsum("ixtl,xj->ijtl", _halve_first_row(up_A), c.C.mm))
    if pair_sums is not None:
        freq_A += pair_sums[0]
    A_new = p.i2(freq_A)

    # Arrival target, 2-D pieces: interior splits whose right factor is
    # arrival-free, and the no-arrival closing line over the arrival part.
    freq_B2 = c.K3_hat[None, :] * p.f2(np.einsum("ixtl,xj->ijtl", _halve_first_row(up_B), c.C.mm))
    if pair_sums is not None:
        freq_B2 += pair_sums[1]
    B_new = p.i2(freq_B2)

    # Arrival target, level-only pieces: first epoch over a later-arrival
    # bridge (no-arrival step continues on B; arrival step restarts on A+B),
    # plus interior splits whose right factor carries the arrival.
    YB = np.einsum("ik,kjtl->ijtl", c.C.pp, dn_B) + np.einsum(
        "ik,kjtl->ijtl", c.D.pp, dn_A + dn_B
    )
    freq_B1 = c.K1L_hat[:, None, None, :] * p.f1(YB)
    if pair_sums is not None:
        freq_B1 += pair_sums[2]
    B_new += p.i1(freq_B1)

    # Closing arrival: pointwise in the final duration, looking up the
    # duration-integrated l >= 0 half at the switch level (restricted before
    # the shift; the boundary node carries the midpoint value).
    cc = np.einsum("ixl,xj->ijl", prev.chat, c.D.mm)
    for b_j, cells in enumerate(c.delta_minus):
        _sheared_quadrature(np.moveaxis(B_new[:, b_j], 1, 0), cc[None, :, b_j], c.exp_s[:, None], m0, cells)
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
    """Per-order ``(A, B)`` bridge fields for duration-free kernels, clamped.

    The order-2 pair is the closed form of :func:`~fluidrisk.bridge.bridge2_slice`
    at ``z = 0``: its no-arrival branch is ``A`` and its arrival branch ``B``.
    Returns ``{n: (A_n, B_n)}``; the clamp record and ``kernel_window_loss``,
    the weight the holding-time lines lose off their level halves, go into
    ``diagnostics``.  The window diagnostics common to both engines come from
    :func:`~fluidrisk.bridge.bridge_recursion`.
    """
    c = _SplitConstants(model, grid, theta1, theta2)
    A, B = _bridge2_branches(model, grid, 0.0, theta1, theta2)
    _clamp_and_flag(A, diagnostics)
    _clamp_and_flag(B, diagnostics)
    slices = {2: (A, B)}
    levels = {2: _SplitLevel(A, B, c)}
    for n in range(3, n_max + 1):
        pair = _pair_spectra(levels, n, grid.du, grid.dl)
        A_n, B_n = _split_step(levels[n - 1], pair, c)
        _clamp_and_flag(A_n, diagnostics)
        _clamp_and_flag(B_n, diagnostics)
        slices[n] = (A_n, B_n)
        levels[n] = _SplitLevel(A_n, B_n, c)
    diagnostics["kernel_window_loss"] = c.kernel_loss
    return slices


# ---------------------------------------------------------------------------
# Level lattice (kept for callers; no engine reads it)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelGrid:
    """Centered uniform level lattice ``[-l_max, l_max]`` with spacing ``dl``.

    No engine uses it since the first-return matrix is solved exactly:
    :func:`~fluidrisk.descriptors.psi` accepts one on a duration-free kernel
    and ignores it, so that callers which still build one keep working.
    """

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
