"""Duration-free kernels: the exact first-return matrix and per-order bridges.

When the kernel pair does not depend on the duration, the fluid model is a
Markov-modulated fluid queue with generator ``Q_theta = C + exp(-theta2 K) o D
- theta1 diag(sigma)``.  Its first-return matrix ``Psi`` is the minimal
nonnegative solution of the Riccati equation

``T++ Psi + Psi T-- + T+- + Psi T-+ Psi = 0``,  ``T = Q_theta / |r|``

(Ramaswami 1999; Bean, O'Reilly & Taylor 2005).  :func:`doubling_psi` solves
it by the structure-preserving doubling algorithm (Guo, Lin & Xu 2006), which
converges quadratically.  At zero mean drift that rate degrades to linear,
and the shift of Guo, Iannazzo & Meini (2007) along the null vector ``1``
restores it; the shift applies whenever return is certain (no tilt acting
and mean drift ``<= 0``), because only then does ``Psi 1 = 1`` keep the
shifted equation's solution unchanged.

Per-order bridge densities come from the split recursion.  The bridge splits
exactly into an arrival-free part ``A`` — a function of the elapsed time
``s - z`` because the duration never resets — and an arrival part ``B`` that
is independent of the initial duration ``z`` because the final duration
restarts at the last arrival.  The recursion closes on the pair ``(A, B)``
with no initial-duration axis at all and builds the bridge densities order by
order.  Every recursion term is a convolution along the elapsed-time and
level axes with either another field or a line-supported kernel (a
holding-time density swept along its fluid displacement), so the engine runs
on FFTs.  Its fields and kernels share one centered level lattice
(:class:`_Plans`).
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


def _return_is_certain(model: FluidModel, T: np.ndarray) -> bool:
    """Whether ``Psi 1 = 1``: no tilt acts (``T 1 = 0``) and the mean drift
    ``pi . r`` of the stationary law is at most zero, up to rounding."""
    if np.abs(T.sum(axis=1)).max() > 1e-12 * np.abs(T).max():
        return False
    Q = T * np.abs(model.rates)[:, None]
    lhs = np.vstack([Q.T, np.ones(model.p)])
    pi = np.linalg.lstsq(lhs, np.eye(model.p + 1)[-1], rcond=None)[0]
    return float(pi @ model.rates) <= 1e-12 * float(pi @ np.abs(model.rates))


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
    at each step.  When return is certain, the matrix ``[[D, -C], [B, -A]]``
    has the null vector ``1`` inside its invariant subspace ``[I; Psi]``;
    adding ``(eta/p) 1 1^T`` moves that zero eigenvalue to ``eta`` and leaves
    ``Psi`` a solution (Guo, Iannazzo & Meini).  The solver stops when the
    sup-norm increment of ``H_k`` drops to :data:`DOUBLING_ROUNDING`.

    Returns ``(matrix, info)``.  ``matrix`` is clipped to ``[0, 1]`` with row
    sums at most one.  ``info`` holds the step count, the increment history,
    whether the shift applied, the Riccati residual of ``matrix`` and
    ``tail_estimate``: the last increment, floored at
    :data:`DOUBLING_ROUNDING`.
    """
    if theta1 < 0 or theta2 < 0:
        raise ValueError("transform arguments must be nonnegative")
    T = _rate_scaled_generator(model, theta1, theta2)
    ip, im = model.s_plus, model.s_minus
    Tpp, Tpm = T[np.ix_(ip, ip)], T[np.ix_(ip, im)]
    Tmp, Tmm = T[np.ix_(im, ip)], T[np.ix_(im, im)]
    A, B, C, D = -Tpp, Tpm, Tmp, -Tmm
    shifted = _return_is_certain(model, T)
    if shifted:
        # (eta/p) 1 1^T is the same constant in every block of the matrix.
        eta = max(np.diag(A).max(), np.diag(D).max()) / model.p
        A, B, C, D = A - eta, B + eta, C - eta, D + eta

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
    """Zero-padded FFT shapes with a common level origin, for the split engine.

    All level data — fields and line kernels alike — live on the centered
    level lattice (index ``m0`` is level zero), so every spectral product is
    sliced at the same window ``[0:ns, m0:m0+L)``.
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
