"""Duration-level bridge densities: closed form, recursion, integration."""

import numpy as np
import pytest

from fluidrisk import (
    BridgeMemoryError,
    FluidModel,
    LevelDurationGrid,
    StateSpace,
    StructureError,
    bridge_recursion,
    bridge2_slice,
    constant_kernel,
    integrate_bridge,
)
from fluidrisk import erlangize, uniformized_kernel
from fluidrisk.bridge import _uniformized_nodes, gamma_first
from fluidrisk.gallery import (
    calendar_switch_model,
    cross_arrival_model,
    pareto_renewal_model,
    two_state_model,
)

from _oracles import (
    TWO_STATE_BRIDGE2_FULLPLANE,
    TWO_STATE_BRIDGE2_MASS,
    TWO_STATE_BRIDGE3_MASS,
)


def _grid(u_max=8.0, cells=128, r_max=1.0):
    du = u_max / cells
    dl = du * r_max
    return LevelDurationGrid(u_max=u_max, du=du, l_max=dl * round(2 * u_max * r_max / dl), dl=dl)


def _full_plane_mass(tensor, n, z=0.0):
    grid = tensor.grid
    vals = tensor.value(n, z)
    w_s = np.ones(grid.n_durations)
    w_s[[0, -1]] = 0.5
    w_l = np.ones(grid.n_levels)
    w_l[[0, -1]] = 0.5
    return np.einsum("ijsl,s,l->ij", vals, w_s * grid.du, w_l * grid.dl)


# ---------------------------------------------------------------------------
# Grid container
# ---------------------------------------------------------------------------


def test_grid_axes_and_zero_index():
    grid = LevelDurationGrid(u_max=2.0, du=0.5, l_max=1.0, dl=0.5)
    np.testing.assert_allclose(grid.durations, [0.0, 0.5, 1.0, 1.5, 2.0])
    np.testing.assert_allclose(grid.levels, [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert grid.zero_index == 2
    assert grid.levels[grid.zero_index] == 0.0
    assert grid.z_index(1.5) == 3


def test_grid_rejects_misaligned_windows():
    with pytest.raises(ValueError):
        LevelDurationGrid(u_max=1.0, du=0.3, l_max=1.0, dl=0.5)
    with pytest.raises(ValueError):
        LevelDurationGrid(u_max=1.0, du=-0.1, l_max=1.0, dl=0.5)
    grid = LevelDurationGrid(u_max=1.0, du=0.25, l_max=1.0, dl=0.25)
    with pytest.raises(ValueError, match="duration-grid point"):
        grid.z_index(0.37)


# ---------------------------------------------------------------------------
# Two-epoch closed form
# ---------------------------------------------------------------------------


def test_two_epoch_density_vanishes_below_initial_duration_without_arrivals():
    # With no arrivals the final duration is z plus both holding times.
    model = calendar_switch_model()
    grid = _grid(u_max=4.0, cells=64)
    z = 0.5
    vals = bridge2_slice(model, grid, z=z)
    below = grid.durations < z - 1e-12
    assert np.all(vals[:, :, below, :] == 0.0)
    assert vals[:, :, ~below, :].max() > 0.0


def test_two_epoch_support_respects_the_ascent_bound():
    # The level after one ascending segment of duration <= s is at most r_i s.
    model = two_state_model()
    grid = _grid(u_max=6.0, cells=96)
    vals = bridge2_slice(model, grid, z=0.0)
    s = grid.durations[:, None]
    lvl = grid.levels[None, :]
    beyond = lvl > s * 1.0 + grid.dl / 2 + 1e-12
    assert np.all(vals[0, 0][beyond] == 0.0)
    assert vals.min() >= 0.0


def test_two_epoch_mass_matches_hand_value():
    model = two_state_model()
    tensor = bridge_recursion(model, _grid(u_max=10.0, cells=320), n_max=2)
    mass = tensor.mass(2)
    assert mass.shape == (1, 1)
    assert mass[0, 0] == pytest.approx(TWO_STATE_BRIDGE2_MASS, abs=1e-3)


def test_two_epoch_full_plane_mass_matches_switch_probability():
    model = two_state_model()
    tensor = bridge_recursion(model, _grid(u_max=12.0, cells=384), n_max=2)
    full = _full_plane_mass(tensor, 2)
    assert full[0, 0] == pytest.approx(TWO_STATE_BRIDGE2_FULLPLANE, abs=2e-3)


# ---------------------------------------------------------------------------
# Recursion
# ---------------------------------------------------------------------------


def test_generic_engine_base_order_matches_closed_form():
    model = pareto_renewal_model()
    grid = _grid(u_max=4.0, cells=64)
    tensor = bridge_recursion(model, grid, n_max=3, method="z")
    z = grid.durations[16]
    np.testing.assert_allclose(
        tensor.value(2, float(z)),
        bridge2_slice(model, grid, float(z), edge_weights=True),
        atol=1e-12,
    )


def test_third_order_mass_matches_hand_value():
    model = two_state_model()
    tensor = bridge_recursion(model, _grid(u_max=10.0, cells=320), n_max=3)
    assert tensor.mass(3)[0, 0] == pytest.approx(TWO_STATE_BRIDGE3_MASS, abs=1e-3)


def test_partial_return_masses_are_monotone_and_bounded():
    model = two_state_model()
    tensor = bridge_recursion(model, _grid(u_max=8.0, cells=128), n_max=8)
    masses = np.array([tensor.mass(n)[0, 0] for n in tensor.orders])
    assert np.all(masses >= 0.0)
    total = np.cumsum(masses)
    assert np.all(np.diff(total) >= 0.0)
    assert total[-1] <= 1.0 + 1e-9


def test_split_and_generic_engines_agree():
    # Both engines discretize the same densities; at orders >= 3 they
    # represent the vanishing-final-duration boundary row differently
    # (closed-form point value vs grid-cell limit), a gap that is first
    # order in the duration step and confined to that single row.  So:
    # exact agreement at order 2, tight interior and mass agreement at the
    # working resolution, and gap shrinkage when the grid is refined.
    model = cross_arrival_model()

    def gaps(cells):
        grid = _grid(u_max=6.0, cells=cells)
        split = bridge_recursion(model, grid, n_max=4, method="split")
        generic = bridge_recursion(model, grid, n_max=4, method="z")
        assert split.mode == "split" and generic.mode == "z"
        np.testing.assert_allclose(split.value(2, 0.0), generic.value(2, 0.0), atol=1e-10)
        np.testing.assert_allclose(split.mass(2), generic.mass(2), atol=1e-12)
        out = {}
        for n in (3, 4):
            sv, gv = split.value(n, 0.0), generic.value(n, 0.0)
            out[n] = (
                float(np.max(np.abs(sv[:, :, 0] - gv[:, :, 0]))),
                float(np.max(np.abs(sv[:, :, 1:] - gv[:, :, 1:]))),
                float(np.max(np.abs(split.mass(n) - generic.mass(n)))),
            )
        return grid, split, generic, out

    grid, split, generic, fine = gaps(96)
    _, _, _, coarse = gaps(48)
    assert fine[3][1] < 1e-6 and fine[4][1] < 5e-3
    assert fine[3][2] < 5e-5 and fine[4][2] < 5e-4
    for n in (3, 4):
        assert fine[n][0] < 0.75 * coarse[n][0] + 1e-12, f"boundary row gap stalled, n={n}"
        assert fine[n][2] < 0.50 * coarse[n][2] + 1e-12, f"mass gap stalled, n={n}"
    # the split storage assembles any on-grid initial duration consistently;
    # skip the two convention-sensitive rows (absolute edge s=0 and the
    # arrival-free edge s=z)
    z = float(grid.durations[8])
    q = grid.z_index(z)
    rows = np.ones(grid.n_durations, dtype=bool)
    rows[0] = rows[q] = False
    sv, gv = split.value(3, z), generic.value(3, z)
    np.testing.assert_allclose(sv[:, :, rows], gv[:, :, rows], atol=5e-3)


def test_engine_dispatch_follows_kernel_structure():
    grid = _grid(u_max=4.0, cells=32)
    assert bridge_recursion(two_state_model(), grid, n_max=2).mode == "split"
    assert bridge_recursion(pareto_renewal_model(), grid, n_max=2).mode == "z"
    with pytest.raises(StructureError):
        bridge_recursion(pareto_renewal_model(), grid, n_max=2, method="split")


def test_transform_weights_shrink_masses():
    model = two_state_model()
    grid = _grid(u_max=8.0, cells=128)
    plain = bridge_recursion(model, grid, n_max=4)
    tilted = bridge_recursion(model, grid, theta1=0.3, theta2=0.2, n_max=4)
    for n in (2, 3, 4):
        assert np.all(tilted.mass(n) <= plain.mass(n) + 1e-12)
    # Strong dividend weighting: only vanishing holding times survive, so the
    # mass collapses toward gamma / (gamma + theta1 sigma) of its base value.
    heavy = bridge_recursion(model, grid, theta1=40.0, n_max=2)
    assert heavy.mass(2)[0, 0] < 0.1 * plain.mass(2)[0, 0]


def test_arrival_cost_weighting_only_touches_arrival_transitions():
    # The two-state second-order bridge contains no arrival (one C-type switch),
    # so its mass ignores theta2; the third order rides on self-arrivals with
    # costs 0.5 and 0.4 and is crushed as theta2 grows.
    model = two_state_model()
    grid = _grid(u_max=10.0, cells=160)
    plain = bridge_recursion(model, grid, n_max=3)
    costly = bridge_recursion(model, grid, theta2=50.0, n_max=3)
    np.testing.assert_allclose(costly.mass(2), plain.mass(2), atol=1e-12)
    assert plain.mass(3)[0, 0] == pytest.approx(TWO_STATE_BRIDGE3_MASS, abs=2e-3)
    assert costly.mass(3)[0, 0] < 1e-9


def test_first_contribution_needs_ascending_continuation():
    # If neither phase changes nor arrivals can hold the path in the ascending
    # class, no bridge can place its minimum at the first epoch.
    model = FluidModel(
        space=StateSpace(rates=np.array([1.0, -1.0])),
        kernel=constant_kernel([[-2.0, 2.0], [0.5, -0.5]], np.zeros((2, 2)), gamma=2.0),
        alpha=np.array([1.0, 0.0]),
        sigma=np.zeros(2),
        k_cost=np.zeros((2, 2)),
    )
    grid = _grid(u_max=4.0, cells=32)
    prev = np.ones((grid.n_durations, 1, 1, grid.n_durations, grid.n_levels))
    out = gamma_first(model, grid, prev)
    np.testing.assert_array_equal(out, np.zeros_like(out))


def test_negative_densities_only_within_clamp_tolerance():
    model = cross_arrival_model()
    tensor = bridge_recursion(model, _grid(u_max=6.0, cells=96), n_max=6)
    assert tensor.diagnostics["negative_min"] >= -1e-10
    assert not tensor.diagnostics["negative_flagged"]


# ---------------------------------------------------------------------------
# Integration and refinement
# ---------------------------------------------------------------------------


def test_integrated_mass_matches_stored_masses():
    model = two_state_model()
    tensor = bridge_recursion(model, _grid(u_max=8.0, cells=128), n_max=3)
    for n in (2, 3):
        assert integrate_bridge(tensor, n, z=0.0) == pytest.approx(tensor.mass(n), abs=1e-12)


def test_integration_bound_must_stay_on_grid():
    model = two_state_model()
    tensor = bridge_recursion(model, _grid(u_max=4.0, cells=32), n_max=2)
    with pytest.raises(ValueError, match="outside the grid"):
        integrate_bridge(tensor, 2, l_hi=tensor.grid.l_max + 1.0)


def test_mass_refines_at_second_order():
    model = two_state_model()
    vals = []
    for cells in (40, 80, 160):
        tensor = bridge_recursion(model, _grid(u_max=10.0, cells=cells), n_max=2)
        vals.append(tensor.mass(2)[0, 0])
    err_coarse = abs(vals[0] - vals[1])
    err_fine = abs(vals[1] - vals[2])
    assert err_coarse / err_fine >= 3.0  # second-order: halving gains ~4x


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------


def test_memory_budget_blocks_oversized_builds():
    model = pareto_renewal_model()
    grid = LevelDurationGrid(u_max=64.0, du=1 / 128, l_max=64.0, dl=1 / 128)
    with pytest.raises(BridgeMemoryError, match="budget"):
        bridge_recursion(model, grid, n_max=8)


def test_recursion_argument_validation():
    model = two_state_model()
    grid = _grid(u_max=2.0, cells=16)
    with pytest.raises(ValueError, match="n_max"):
        bridge_recursion(model, grid, n_max=1)
    with pytest.raises(ValueError, match="nonnegative"):
        bridge_recursion(model, grid, theta1=-0.5)
    with pytest.raises(ValueError, match="method"):
        bridge_recursion(model, grid, method="magic")


def test_uncomputed_order_raises():
    tensor = bridge_recursion(two_state_model(), _grid(u_max=2.0, cells=16), n_max=2)
    with pytest.raises(KeyError):
        tensor.value(5, 0.0)


def test_grid_nodes_on_a_jump_take_the_mean_of_both_sides():
    # The kernel is right-continuous; the grid quadrature helper averages the
    # two one-sided values where a node lands exactly on a breakpoint, also
    # for the original block of an Erlang-lifted kernel.
    cal = calendar_switch_model()
    lifted = erlangize(cal, 1.0, 2, i0=0).model
    for model, first in ((cal, 0), (lifted, 2)):
        gamma = model.gamma
        Cbar, Dbar = _uniformized_nodes(model, [0.5, 1.0, 2.0])
        assert Cbar[1][first, first] == pytest.approx(1.0 + 0.5 * (-0.8 - 1.5) / gamma)
        left = uniformized_kernel(model.kernel, np.nextafter(1.0, 0.0))
        right = uniformized_kernel(model.kernel, 1.0)
        np.testing.assert_allclose(Cbar[1], 0.5 * (left[0] + right[0]), rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(Dbar[1], 0.5 * (left[1] + right[1]), rtol=0.0, atol=1e-15)
        off = uniformized_kernel(model.kernel, [0.5, 2.0])
        np.testing.assert_array_equal(Cbar[[0, 2]], off[0])
        np.testing.assert_array_equal(Dbar[[0, 2]], off[1])


def test_z_engine_reports_both_level_window_edges():
    grid = LevelDurationGrid(u_max=4.0, du=1 / 8, l_max=2.0, dl=1 / 8)
    with pytest.warns(UserWarning, match="level-window edge"):
        tensor = bridge_recursion(pareto_renewal_model(), grid, n_max=4, method="z")
    lower = max(float(np.abs(s[..., 0]).max()) for s in tensor.slices.values())
    assert lower >= 0.0147
    assert tensor.diagnostics["level_edge_max_density"] >= lower
