"""Duration-free engines: per-order split recursion and whole-series level fixed point."""

import numpy as np
import pytest

from fluidrisk import (
    LevelDurationGrid,
    LevelGrid,
    StructureError,
    bridge_recursion,
    level_fixed_point,
    uniformized_kernel,
)
from fluidrisk.gallery import (
    cross_arrival_model,
    mmpp_model,
    pareto_renewal_model,
    two_state_model,
)

from _oracles import (
    TWO_STATE_BRIDGE2_MASS,
    TWO_STATE_PSI_03_02,
    two_state_psi_scalar,
)


def _level_grid(l_max=48.0, dl=1.0 / 32):
    return LevelGrid(l_max=l_max, dl=dl)


# ---------------------------------------------------------------------------
# LevelGrid construction
# ---------------------------------------------------------------------------


def test_level_grid_lattice_is_centered_and_uniform():
    g = LevelGrid(l_max=2.0, dl=0.5)
    assert g.zero_index == 4
    assert g.n_levels == 9
    np.testing.assert_allclose(g.levels, np.arange(-4, 5) * 0.5)
    assert g.levels[g.zero_index] == 0.0


def test_level_grid_rejects_bad_spacing():
    with pytest.raises(ValueError):
        LevelGrid(l_max=1.0, dl=0.3)
    with pytest.raises(ValueError):
        LevelGrid(l_max=-1.0, dl=0.1)
    with pytest.raises(ValueError):
        LevelGrid(l_max=1.0, dl=0.0)


def test_level_grid_model_defaults_resolve_holding_scale():
    g = LevelGrid.for_model(two_state_model())
    assert g.dl == pytest.approx(1.0 / 16)
    assert g.l_max == pytest.approx(512.0)
    g2 = LevelGrid.for_model(two_state_model(), l_max=10.0, dl=0.25)
    assert (g2.l_max, g2.dl) == (10.0, 0.25)


# ---------------------------------------------------------------------------
# Level fixed point diagnostics and per-order split masses
# ---------------------------------------------------------------------------


def test_level_masses_match_hand_values():
    # The fixed point starts from the two-epoch fields, so its first recorded
    # mass is the order-2 first-return mass.
    info = level_fixed_point(two_state_model(), _level_grid(), max_iter=1)[2]
    assert info["mass_history"][0].shape == (1, 1)
    assert info["mass_history"][0][0, 0] == pytest.approx(TWO_STATE_BRIDGE2_MASS, abs=5e-4)


def test_level_window_edges_stay_negligible():
    info = level_fixed_point(two_state_model(), _level_grid())[2]
    assert info["converged"]
    assert info["level_edge_max_density"] < 1e-12
    assert info["kernel_window_tail"] < 1e-15


def test_arrival_cost_weight_skips_the_arrival_free_order():
    # The two-state second-order bridge contains no arrival, so its mass
    # ignores the arrival-cost weight exactly.  The third order carries
    # exactly one self-arrival: the 0.0225 component routes through state 0
    # (cost 0.5) and the 0.045 component through state 1 (cost 0.4), so the
    # damped mass is the explicit blend.
    model = two_state_model()
    grid = LevelDurationGrid(u_max=10.0, du=1.0 / 16, l_max=20.0, dl=1.0 / 16)
    plain = bridge_recursion(model, grid, n_max=3, method="split")
    tilted = bridge_recursion(model, grid, theta2=5.0, n_max=3, method="split")
    np.testing.assert_array_equal(plain.mass(2), tilted.mass(2))
    blend = 0.0225 * np.exp(-5.0 * 0.5) + 0.045 * np.exp(-5.0 * 0.4)
    assert tilted.mass(3)[0, 0] == pytest.approx(blend, abs=5e-5)


def _direct_first_sweep(model, grid, theta1, theta2):
    """The two-epoch fields and one fixed-point sweep, by ``np.convolve`` on
    the whole centered lattice, with no transform and no half layout."""
    m0, L, dl, lev = grid.zero_index, grid.n_levels, grid.dl, grid.levels
    ip, im, gamma, r = model.s_plus, model.s_minus, model.gamma, model.rates
    Cbar, Dbar = uniformized_kernel(model.kernel, 0.0)
    kD = np.exp(-theta2 * model.k_cost) * Dbar
    classes = {"p": ip, "m": im}
    C, D = (
        {a + b: M[np.ix_(classes[a], classes[b])] for a in "pm" for b in "pm"} for M in (Cbar, kD)
    )
    up, down = lev >= 0, lev <= 0
    tilt = gamma + theta1 * model.sigma
    K1 = [np.where(up, gamma / r[i] * np.exp(-tilt[i] * lev / r[i]), 0) for i in ip]
    K3 = [np.where(down, gamma / -r[j] * np.exp(-gamma * lev / r[j]), 0) for j in im]
    for k in K1 + K3:
        k[m0] *= 0.5

    def conv(x, y):
        return np.convolve(x, y)[m0 : m0 + L] * dl

    def masked(f, keep):
        out = np.where(keep, f, 0.0)
        out[..., m0] *= 0.5
        return out

    def block_times(M, f):  # per level
        return np.einsum("xk,kjl->xjl", M, f)

    def times_block(f, M):
        return np.einsum("ixl,xj->ijl", f, M)

    P, Q = ip.size, im.size
    a0 = np.array([[conv(K1[i], K3[j]) * C["pm"][i, j] for j in range(Q)] for i in range(P)])
    b0 = np.array([[conv(K1[i], K3[j]) * D["pm"][i, j] for j in range(Q)] for i in range(P)])
    LA, LB, RA, RB = masked(a0, up), masked(b0, up), masked(a0, down), masked(b0, down)
    first_a = block_times(C["pp"], RA)
    first_b = block_times(C["pp"], RB) + block_times(D["pp"], RA + RB)
    last_a = times_block(LA, C["mm"])
    last_b = times_block(LB, C["mm"]) + times_block(LA + LB, D["mm"])
    right_a = block_times(C["mp"], RA)
    right_b = block_times(C["mp"], RB) + block_times(D["mp"], RA + RB)
    a1, b1 = a0.copy(), b0.copy()
    for i in range(P):
        for j in range(Q):
            a1[i, j] += conv(K1[i], first_a[i, j]) + conv(last_a[i, j], K3[j])
            b1[i, j] += conv(K1[i], first_b[i, j]) + conv(last_b[i, j], K3[j])
            for x in range(Q):
                a1[i, j] += conv(LA[i, x], right_a[x, j])
                b1[i, j] += conv(LB[i, x], right_a[x, j]) + conv(LA[i, x] + LB[i, x], right_b[x, j])
    return np.maximum(a1, 0.0), np.maximum(b1, 0.0)


@pytest.mark.parametrize("make_model", [two_state_model, mmpp_model, cross_arrival_model])
def test_half_length_sweep_matches_direct_convolution_at_every_level(make_model):
    # A window of a few holding scales keeps the fields far from zero at both
    # edges, so a circular wrap or a shifted origin in the half-support
    # layout would show at the first or last index.
    model = make_model()
    grid = LevelGrid(l_max=2.0, dl=0.125)
    field, _, info = level_fixed_point(model, grid, 0.3, 0.2, max_iter=1)
    assert info["iterations"] == 1
    # The reference keeps the arrival-free and arrival parts apart, so this
    # also checks that their sum closes on itself with the summed blocks.
    a_ref, b_ref = _direct_first_sweep(model, grid, 0.3, 0.2)
    assert field.shape == a_ref.shape == (model.s_plus.size, model.s_minus.size, grid.n_levels)
    assert min(a_ref[..., 0].min(), a_ref[..., -1].min()) > 1e-6
    np.testing.assert_allclose(field, a_ref + b_ref, rtol=0.0, atol=1e-13)


# ---------------------------------------------------------------------------
# Whole-series fixed points
# ---------------------------------------------------------------------------


def test_level_series_reaches_certain_return():
    # Mean drift is negative, so the first-return mass is exactly one; the
    # lattice value lands within discretization error and the error is
    # second order in the spacing.
    _, mass, info = level_fixed_point(two_state_model(), _level_grid())
    assert info["converged"] and info["iterations"] > 10
    gap = abs(1.0 - mass[0, 0])
    assert gap < 5e-2
    hist = info["mass_history"][:, 0, 0]
    assert np.all(np.diff(hist) >= -1e-12)
    _, fine, _ = level_fixed_point(two_state_model(), _level_grid(dl=1.0 / 64))
    assert abs(1.0 - fine[0, 0]) < 0.6 * gap


def test_transform_arguments_damp_the_series_mass():
    model = two_state_model()
    grid = _level_grid()
    masses = {}
    for th in [(0.0, 0.0), (0.3, 0.2), (1.0, 1.0)]:
        masses[th] = level_fixed_point(model, grid, theta1=th[0], theta2=th[1])[1][0, 0]
    assert masses[(0.3, 0.2)] == pytest.approx(TWO_STATE_PSI_03_02, abs=2e-3)
    assert masses[(1.0, 1.0)] == pytest.approx(two_state_psi_scalar(1.0, 1.0), abs=2e-3)
    assert masses[(1.0, 1.0)] < masses[(0.3, 0.2)] < masses[(0.0, 0.0)]


def test_costless_model_ignores_transform_arguments():
    # With no dividend rates and no arrival costs both weights are
    # identically one, so the computation is bit-for-bit unchanged.
    model = two_state_model(sigma=(0.0, 0.0), k_cost=((0.0, 0.0), (0.0, 0.0)))
    grid = _level_grid()
    field0, _, _ = level_fixed_point(model, grid)
    field1, _, _ = level_fixed_point(model, grid, theta1=0.7, theta2=1.3)
    np.testing.assert_array_equal(field0, field1)


def test_level_engine_outruns_the_duration_window_near_criticality():
    # Near-critical first-return times are heavy tailed, so any finite
    # duration window loses visible series mass; integrating the duration
    # out analytically removes that truncation entirely.
    model = two_state_model()
    level_mass = level_fixed_point(model, LevelGrid(l_max=32.0, dl=1.0 / 16))[1][0, 0]
    assert abs(1.0 - level_mass) < 1e-2


def test_duration_free_engines_reject_duration_dependent_kernels():
    model = pareto_renewal_model()
    with pytest.raises(StructureError):
        level_fixed_point(model, LevelGrid(l_max=4.0, dl=1.0 / 8))
    with pytest.raises(StructureError):
        bridge_recursion(
            model,
            LevelDurationGrid(u_max=4.0, du=1.0 / 8, l_max=4.0, dl=1.0 / 8),
            n_max=2,
            method="split",
        )
