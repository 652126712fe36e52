"""Duration-level bridge densities: closed form, recursion, integration."""

import tracemalloc
from collections import Counter

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
from fluidrisk import bridge, cost_weights, erlangize, uniformized_kernel
from fluidrisk.bridge import _uniformized_nodes, gamma_first
from fluidrisk.gallery import (
    calendar_switch_model,
    cross_arrival_model,
    mmpp_model,
    pareto_renewal_model,
    renewal_ph_model,
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
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="grid spacings and extents must be positive and finite"):
            LevelDurationGrid(u_max=bad, du=0.25, l_max=1.0, dl=0.25)
        with pytest.raises(ValueError, match="grid spacings and extents must be positive and finite"):
            LevelDurationGrid.for_model(two_state_model(), du=bad)
    grid = LevelDurationGrid(u_max=1.0, du=0.25, l_max=1.0, dl=0.25)
    with pytest.raises(ValueError, match="duration-grid point"):
        grid.z_index(0.37)


def test_defaulted_extents_fit_a_given_spacing():
    # two_state: gamma = 1, |rate| <= 1, so the default window is u_max = 8
    # and l_max = 16; neither is a whole number of 0.3 cells.
    model = two_state_model()
    grid = LevelDurationGrid.for_model(model, du=0.3)
    assert (grid.u_max, grid.n_durations) == (pytest.approx(8.1), 28)
    assert (grid.dl, grid.l_max) == (0.3, pytest.approx(16.2))
    grid = LevelDurationGrid.for_model(model, dl=0.3)
    assert (grid.u_max, grid.du, grid.dl) == (8.0, 0.125, 0.3)
    assert (grid.l_max, grid.n_levels) == (pytest.approx(15.9), 107)
    # A given extent is not rounded: one that disagrees with its spacing is refused.
    with pytest.raises(ValueError, match="u_max must be an integer multiple of du"):
        LevelDurationGrid.for_model(model, u_max=8.0, du=0.3)
    with pytest.raises(ValueError, match="l_max must be an integer multiple of dl"):
        LevelDurationGrid.for_model(model, l_max=16.0, dl=0.3)


@pytest.mark.parametrize(
    "make_model", [two_state_model, mmpp_model, pareto_renewal_model, calendar_switch_model]
)
def test_defaulted_extents_that_fit_are_kept_bit_for_bit(make_model):
    model = make_model()
    default = LevelDurationGrid.for_model(model)
    u_max, r_max = 8.0 / model.gamma, float(np.max(np.abs(model.rates)))
    assert (default.u_max, default.du) == (u_max, u_max / 64.0)
    for du in (u_max / 32.0, u_max / 64.0):
        grid = LevelDurationGrid.for_model(model, du=du)
        dl = du * r_max
        assert (grid.u_max, grid.du, grid.dl, grid.l_max) == (u_max, du, dl, dl * round(2.0 * r_max * u_max / dl))
    grid = LevelDurationGrid.for_model(model, dl=default.dl)
    assert (grid.u_max, grid.du, grid.l_max, grid.dl) == (default.u_max, default.du, 2.0 * r_max * u_max, default.dl)


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
        bridge2_slice(model, grid, float(z)),
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
# Reference loops: each operator as a direct per-node quadrature
# ---------------------------------------------------------------------------
#
# The engine contracts state axes before it shifts and sums interior splits
# on cached half-length spectra.  These loops shift every state pair at every
# holding-time node and glue each split pair at full padding, so a
# contraction taken across the wrong state class shows up on models with
# several ascending states.


def _ref_shift(field, cells):
    """``field[..., m - cells]``, linearly interpolated, zero outside the window."""
    L = field.shape[-1]
    pos = np.arange(L) - cells
    lo = np.floor(pos).astype(int)
    frac = pos - lo
    out = np.zeros_like(field)
    for idx, weight in ((lo, 1.0 - frac), (lo + 1, frac)):
        inside = (idx >= 0) & (idx < L)
        out[..., inside] += weight[inside] * field[..., idx[inside]]
    return out


@pytest.mark.parametrize(
    "offset, cells",
    [(0, 1.25), (0, -1.75), (4, 2.5), (4, -3.25), (4, -0.5), (0, 0.0), (4, 5.5), (0, -5.0)],
    ids=["up", "off_left_edge", "off_right_edge", "down", "half_cell", "in_place", "all_right", "all_left"],
)
def test_a_level_half_shifts_like_its_zero_padded_field(offset, cells):
    # A half of m0 + 1 levels placed at `offset` on a 2 m0 + 1 lattice, as
    # one row of a sheared quadrature with one weight.
    m0 = 4
    rng = np.random.default_rng(3)
    half = rng.random((2, 3, m0 + 1))
    padded = np.zeros((2, 3, 2 * m0 + 1))
    padded[..., offset : offset + m0 + 1] = half
    out = rng.random(padded.shape)
    expected = out + 0.7 * _ref_shift(padded, cells)
    rows = bridge._columns(out[None]), bridge._columns(half[None])
    bridge._sheared_quadrature(*rows, np.full((1, 1), 0.7), offset + cells, cells)
    np.testing.assert_allclose(out, expected, rtol=0.0, atol=1e-15)


def test_one_field_row_swept_along_a_line_shifts_row_by_row():
    # n_in = 1 < n_out: output row q takes the half shifted by q cells, at a
    # negative slope that walks the last rows off the lattice's left edge.
    m0, offset, cells = 4, 4, -1.25
    rng = np.random.default_rng(5)
    half = rng.random((1, 3, m0 + 1))
    padded = np.zeros((3, 2 * m0 + 1))
    padded[:, offset : offset + m0 + 1] = half[0]
    weights = rng.random((6, 1))
    out = rng.random((6, 3, 2 * m0 + 1))
    expected = out + weights[:, :, None] * np.stack([_ref_shift(padded, q * cells) for q in range(6)])
    bridge._sheared_quadrature(out, half, weights, offset, cells)
    np.testing.assert_allclose(out, expected, rtol=0.0, atol=1e-15)


def _ref_nonneg(field, m0):
    out = field.copy()
    out[..., :m0] = 0.0
    out[..., m0] *= 0.5
    return out


def _ref_nonpos(field, m0):
    out = field.copy()
    out[..., m0 + 1 :] = 0.0
    out[..., m0] *= 0.5
    return out


def _ref_trapezoid(n):
    w = np.ones(n)
    w[[0, -1]] = 0.5
    return w


def _ref_first(model, grid, prev, theta1, theta2):
    gamma, ip = model.gamma, model.s_plus
    nz, n_p, _, ns, _ = prev.shape
    kappa = cost_weights(model, theta2).pp
    Cbar, Dbar = _uniformized_nodes(model, grid.durations)
    Cpp, Dpp = Cbar[:, ip][:, :, ip], Dbar[:, ip][:, :, ip]
    masked = _ref_nonpos(prev, grid.zero_index)
    out = np.zeros_like(prev)
    w = _ref_trapezoid(ns)
    for q in range(nz):
        a_cap = ns - 1 - q
        for a in range(a_cap + 1):
            weight = w[a] if a < a_cap else 0.5
            tilt = gamma + theta1 * model.sigma[ip]
            decay = gamma * np.exp(-tilt * a * grid.du) * grid.du * weight
            for i in range(n_p):
                cells = a * grid.level_cells(model.rates[ip[i]])
                for k in range(n_p):
                    out[q, i] += decay[i] * Cpp[q + a, i, k] * _ref_shift(masked[q + a, k], cells)
                    out[q, i] += (
                        decay[i] * kappa[i, k] * Dpp[q + a, i, k] * _ref_shift(masked[0, k], cells)
                    )
    return out


def _ref_last(model, grid, prev, theta2):
    gamma, im = model.gamma, model.s_minus
    ns, du = prev.shape[-2], grid.du
    kappa = cost_weights(model, theta2).mm
    Cbar, Dbar = _uniformized_nodes(model, grid.durations)
    Cmm, Dmm = Cbar[:, im][:, :, im], Dbar[:, im][:, :, im]
    masked = _ref_nonneg(prev, grid.zero_index)
    masked_c = masked.copy()
    masked_c[..., 0, :] *= 0.5
    out = np.zeros_like(prev)
    for a in range(ns):
        decay = gamma * np.exp(-gamma * a * du) * du * (0.5 if a == 0 else 1.0)
        sub = masked_c[:, :, :, : ns - a, :]
        for j in range(im.size):
            shifted = _ref_shift(sub, a * grid.level_cells(model.rates[im[j]]))
            contrib = np.einsum("zixsl,sx->zisl", shifted, Cmm[: ns - a, :, j])
            lo = max(a, 1)
            out[:, :, j, lo:, :] += decay * contrib[:, :, lo - a :, :]
    w_u = _ref_trapezoid(ns) * du
    closing = gamma * np.exp(-gamma * np.arange(ns) * du)
    for j in range(im.size):
        reduced = np.einsum("zixsl,sx,s->zil", masked, kappa[:, j] * Dmm[:, :, j], w_u)
        cells = grid.level_cells(model.rates[im[j]])
        for s in range(ns):
            out[:, :, j, s] += closing[s] * _ref_shift(reduced, s * cells)
    return out


def _ref_middle(model, grid, bridge_w, bridge_rest, theta2):
    ip, im = model.s_plus, model.s_minus
    ns, L = bridge_w.shape[-2:]
    m0 = grid.zero_index
    kappa = cost_weights(model, theta2).mp
    Cbar, Dbar = _uniformized_nodes(model, grid.durations)
    w_u = _ref_trapezoid(ns) * grid.du
    cw = Cbar[:, im][:, :, ip] * w_u[:, None, None]
    dw = kappa * Dbar[:, im][:, :, ip] * w_u[:, None, None]
    pad = 2 * L - 1
    f_left = np.fft.rfft(_ref_nonneg(bridge_w, m0), n=pad, axis=-1)
    f_right = np.fft.rfft(_ref_nonpos(bridge_rest, m0), n=pad, axis=-1)
    out_f = np.einsum("zixaf,axk,akjsf->zijsf", f_left, cw, f_right)
    out_f += np.einsum("zixaf,axk,kjsf->zijsf", f_left, dw, f_right[0])
    return np.fft.irfft(out_f, n=pad, axis=-1)[..., m0 : m0 + L] * grid.dl


def _ref_bridge2(model, grid, z, theta1, theta2):
    """The edge-weighted 2-bridge at one initial duration, with the kernel
    evaluated at every (s, l) node's own argument."""
    gamma, tol = model.gamma, 1e-9 * grid.du
    s, lvl = grid.durations[:, None], grid.levels[None, :]
    kappa = np.exp(-theta2 * model.k_cost)
    out = np.zeros((model.s_plus.size, model.s_minus.size, grid.n_durations, grid.n_levels))

    def edge(h):
        return np.where(np.abs(h) <= tol, 0.5, 1.0)

    def kernel(on, u, which, i, j):
        u = np.where(on, u, 0.0)
        return _uniformized_nodes(model, u)[which][:, i, j].reshape(u.shape)

    for a, i in enumerate(model.s_plus):
        ri, si = model.rates[i], model.sigma[i]
        for b, j in enumerate(model.s_minus):
            rj = model.rates[j]
            span = s - z
            h1 = (lvl - rj * span) / (ri - rj)
            h2 = (ri * span - lvl) / (ri - rj)
            on = (h1 >= -tol) & (h2 >= -tol) & (span >= -tol)
            h1 = np.maximum(h1, 0.0)
            val = gamma**2 * np.exp(-gamma * np.maximum(span, 0.0) - theta1 * si * h1)
            val *= kernel(on, z + h1, 0, i, j) * edge(h1) * edge(h2) / (ri - rj)
            out[a, b] += np.where(on, val, 0.0)
            t1 = (lvl - rj * s) / ri
            on = t1 >= -tol
            t1 = np.maximum(t1, 0.0)
            val = gamma**2 * np.exp(-(gamma + theta1 * si) * t1 - gamma * s) * kappa[i, j]
            val *= kernel(on, z + t1, 1, i, j) * edge(t1) / ri
            out[a, b] += np.where(on, val, 0.0)
    return out


def _ref_z_recursion(model, grid, theta1, theta2, n_max):
    base = np.stack([_ref_bridge2(model, grid, z, theta1, theta2) for z in grid.durations])
    slices = {2: np.maximum(base, 0.0)}
    for n in range(3, n_max + 1):
        total = _ref_first(model, grid, slices[n - 1], theta1, theta2)
        total += _ref_last(model, grid, slices[n - 1], theta2)
        for w in range(2, n - 1):
            total += _ref_middle(model, grid, slices[w], slices[n - w], theta2)
        slices[n] = np.maximum(total, 0.0)
    return slices


def _dense_four_state_model(rates=(1.0, 0.5, -1.0, -0.5)):
    """Two ascending and two descending states with every kernel block dense."""
    C = np.array(
        [[-3.0, 0.5, 0.7, 0.3], [0.4, -2.5, 0.6, 0.5], [0.5, 0.4, -2.6, 0.6], [0.3, 0.6, 0.5, -2.4]]
    )
    D = np.array(
        [[0.5, 0.4, 0.3, 0.3], [0.2, 0.3, 0.3, 0.2], [0.3, 0.2, 0.4, 0.2], [0.25, 0.25, 0.25, 0.25]]
    )
    return FluidModel(
        space=StateSpace(rates=np.array(rates)),
        kernel=constant_kernel(C, D, gamma=3.0),
        alpha=np.array([0.5, 0.5, 0.0, 0.0]),
        sigma=np.array([1.0, 0.5, 0.0, 0.0]),
        k_cost=np.arange(16.0).reshape(4, 4) / 10.0,
    )


def _fractional_rate_model():
    return _dense_four_state_model(rates=(1.0, 0.3, -1.0, -0.7))


_REFERENCE_GRID = (3.0, 1 / 8, 4.0, 1 / 8)


@pytest.mark.filterwarnings("ignore:bridge density at the level-window edge")
@pytest.mark.parametrize(
    "make_model, grid_args",
    # mmpp: two ascending states and half-cell shifts; calendar_switch: grid
    # nodes on kernel breakpoints; pareto_renewal: a duration-dependent
    # arrival kernel; dense: no state block is diagonal or 1x1, so a
    # transposed block or a contraction over the wrong class shows.  On the
    # narrow windows (l_max = 1) most shifts leave the level window; the
    # fractional rates shift by 0.3 and 0.7 cells, and by 4/3, 0.4 and 14/15
    # cells at dl = 3/32, neither integer nor half.
    [
        (mmpp_model, _REFERENCE_GRID),
        (calendar_switch_model, _REFERENCE_GRID),
        (pareto_renewal_model, _REFERENCE_GRID),
        (_dense_four_state_model, _REFERENCE_GRID),
        (pareto_renewal_model, (3.0, 1 / 8, 1.0, 1 / 8)),
        (_dense_four_state_model, (3.0, 1 / 8, 1.0, 1 / 8)),
        (_fractional_rate_model, _REFERENCE_GRID),
        (_fractional_rate_model, (3.0, 1 / 8, 4.5, 3 / 32)),
    ],
    ids=[
        "mmpp",
        "calendar_switch",
        "pareto_renewal",
        "dense",
        "pareto_renewal_narrow",
        "dense_narrow",
        "fractional_rates",
        "fractional_cells",
    ],
)
def test_z_engine_matches_the_reference_loops(make_model, grid_args, monkeypatch):
    model = make_model()
    grid = LevelDurationGrid(*grid_args)
    reference = _ref_z_recursion(model, grid, 0.3, 0.2, 6)
    assert max(float(np.abs(s).max()) for s in reference.values()) > 0.5
    # These grids fit in one block of initial durations and one block of
    # sheared columns.  Small blocks (3 initial durations; 3 to 6 columns of
    # the sheared products) also cover the ragged last block of each loop.
    # The default hold cap keeps gamma_middle's factors of orders 2 and 3 and
    # builds order 4's per call; a cap of 0 builds every order per call.
    ns = grid.n_durations
    assert 0 < bridge._z_sizes(grid, model, 6)[3] < 3
    for small in (False, True):
        if small:
            monkeypatch.setattr(bridge, "_z_block", lambda row: 3)
            monkeypatch.setattr(bridge, "_STEP_CHUNK", 3 * ns * (grid.n_levels + ns))
            monkeypatch.setattr(bridge, "_hold_cap", lambda tensors, working: 0)
        tensor = bridge_recursion(model, grid, 0.3, 0.2, n_max=6, method="z")
        assert tensor.orders == sorted(reference)
        for n, expected in reference.items():
            np.testing.assert_allclose(
                tensor.slices[n], expected, rtol=0.0, atol=1e-14, err_msg=f"n={n} small={small}"
            )


_BASE_MODELS = {
    "two_state": two_state_model,
    "mmpp": mmpp_model,
    "renewal_ph": renewal_ph_model,
    "pareto_renewal": pareto_renewal_model,
    "calendar_switch": calendar_switch_model,
    "cross_arrival": cross_arrival_model,
    "dense": _dense_four_state_model,
}


@pytest.mark.parametrize("theta", [(0.0, 0.0), (0.3, 0.2)], ids=["theta0", "theta"])
@pytest.mark.parametrize("dyadic", [False, True], ids=["default_grid", "du_eighth"])
@pytest.mark.parametrize("name", list(_BASE_MODELS))
def test_batched_base_equals_the_one_duration_calls(name, dyadic, theta):
    # Default grids have du = 1/8, 1/24, 1/16, 1/20, 1/12, 1/20 and 1/24: most
    # kernel arguments round differently from the per-node reference, and
    # calendar_switch's land within rounding of its breakpoints.
    model = _BASE_MODELS[name]()
    grid = LevelDurationGrid(3.0, 1 / 8, 4.0, 1 / 8) if dyadic else LevelDurationGrid.for_model(model)
    base = bridge2_slice(model, grid, grid.durations, *theta)
    ns = grid.n_durations
    assert base.shape == (ns, model.s_plus.size, model.s_minus.size, ns, grid.n_levels)
    stacked = np.stack(
        [bridge2_slice(model, grid, float(z), *theta) for z in grid.durations]
    )
    np.testing.assert_allclose(base, stacked, rtol=0.0, atol=1e-14)
    for q in (0, 1, ns // 2, ns - 1):
        expected = _ref_bridge2(model, grid, grid.durations[q], *theta)
        np.testing.assert_allclose(base[q], expected, rtol=0.0, atol=1e-14, err_msg=f"q={q}")


@pytest.mark.filterwarnings("ignore:bridge density at the level-window edge")
def test_z_recursion_builds_its_base_in_one_call(monkeypatch):
    calls = []
    batched = bridge.bridge2_slice

    def counted(model, grid, z, *args, **kwargs):
        calls.append(np.shape(z))
        return batched(model, grid, z, *args, **kwargs)

    monkeypatch.setattr(bridge, "bridge2_slice", counted)
    grid = LevelDurationGrid(3.0, 1 / 8, 4.0, 1 / 8)
    bridge_recursion(pareto_renewal_model(), grid, n_max=4, method="z")
    assert calls == [(grid.n_durations,)]


def test_base_rejects_initial_durations_off_the_grid():
    grid = LevelDurationGrid(3.0, 1 / 8, 4.0, 1 / 8)
    with pytest.raises(ValueError, match="duration-grid point"):
        bridge2_slice(two_state_model(), grid, [0.0, 0.3])


def _base_kernel_points(model, monkeypatch):
    from fluidrisk import model as model_module

    points = []
    evaluate = model_module._evaluate

    def counted(kernel, u):
        points.append(u.size)
        return evaluate(kernel, u)

    monkeypatch.setattr(model_module, "_evaluate", counted)
    grid = LevelDurationGrid.for_model(model)
    bridge2_slice(model, grid, grid.durations, 0.3, 0.2)
    pairs = model.s_plus.size * model.s_minus.size
    # Each branch once per (z, s, l) node and state pair: one kernel per node.
    lattice = 2 * pairs * grid.n_durations**2 * grid.n_levels
    return sum(points), lattice


def test_base_evaluates_the_kernel_on_distinct_arguments_only(monkeypatch):
    points, lattice = _base_kernel_points(pareto_renewal_model(), monkeypatch)
    assert lattice == 2_171_650
    assert points < lattice / 10


def test_base_kernel_points_never_exceed_the_lattice(monkeypatch):
    # Rates 1, 0.5, -1 and -0.5 give each state pair its own offset table.
    points, lattice = _base_kernel_points(_dense_four_state_model(), monkeypatch)
    assert points <= lattice


def _record_middle_factors(monkeypatch):
    built = []
    build = bridge._MiddleFactors.__missing__

    def recorded(self, w):
        factors = build(self, w)
        built.append((w, sum(f.nbytes for f in factors)))
        return factors

    monkeypatch.setattr(bridge._MiddleFactors, "__missing__", recorded)
    return built


@pytest.mark.filterwarnings("ignore:bridge density at the level-window edge")
def test_z_memory_estimate_counts_slices_and_held_spectra(monkeypatch):
    model = mmpp_model()
    grid = LevelDurationGrid(3.0, 1 / 8, 4.0, 1 / 8)
    n_max = 10
    tensors, order, working, n_held = bridge._z_sizes(grid, model, n_max)
    held = range(2, 2 + n_held)
    # Within the cap, orders 2..6 are held and orders 7 and 8 built per call.
    assert list(held) == [2, 3, 4, 5, 6]
    assert n_held * order <= bridge._hold_cap(tensors, working)
    built = _record_middle_factors(monkeypatch)
    tracemalloc.start()
    try:
        tensor = bridge_recursion(model, grid, n_max=n_max, method="z")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(s.nbytes for s in tensor.slices.values()) == tensors
    # Every build takes one order's factor bytes.  A held order is built once;
    # any other once per order n = w + 2..n_max whose splits use it.
    assert {size for _, size in built} == {order}
    counts = Counter(w for w, _ in built)
    assert counts == {w: 1 if w in held else n_max - w - 1 for w in range(2, n_max - 1)}
    # The estimate bounds everything the build allocated at once.
    assert bridge._estimate_bytes(grid, model, n_max, "z") >= peak


@pytest.mark.filterwarnings("ignore:bridge density at the level-window edge")
def test_z_build_whose_factors_all_fit_transforms_each_order_once(monkeypatch):
    import scipy.fft

    calls = []
    rfft = scipy.fft.rfft

    def counted(x, *args, **kwargs):
        calls.append(x.shape)
        return rfft(x, *args, **kwargs)

    monkeypatch.setattr(scipy.fft, "rfft", counted)
    monkeypatch.setattr(bridge, "_hold_cap", lambda tensors, working: tensors * 10)
    built = _record_middle_factors(monkeypatch)
    model = pareto_renewal_model()
    grid = LevelDurationGrid(3.0, 1 / 8, 4.0, 1 / 8)
    reference = bridge_recursion(model, grid, 0.3, 0.2, n_max=8, method="z")
    assert [w for w, _ in built] == [2, 3, 4, 5, 6]
    assert len(calls) == 5
    # Holding changes no value beyond rounding: the same build with every
    # order's factors built per call.
    monkeypatch.setattr(bridge, "_hold_cap", lambda tensors, working: 0)
    tensor = bridge_recursion(model, grid, 0.3, 0.2, n_max=8, method="z")
    for n in reference.orders:
        np.testing.assert_allclose(tensor.slices[n], reference.slices[n], rtol=0.0, atol=1e-15)
    # Called on its own, gamma_middle builds its factors per call.
    held = bridge._MiddleFactors(model, grid, reference.slices, 0.2)
    for w in range(2, 7):
        held.hold(w)
    alone = bridge.gamma_middle(model, grid, reference.slices, 8, 0.2)
    np.testing.assert_allclose(
        alone, bridge.gamma_middle(model, grid, reference.slices, 8, 0.2, held), rtol=0.0, atol=1e-15
    )


def test_default_z_build_with_two_state_pairs_fits_the_budget(monkeypatch):
    # The sizing check alone: mmpp has |S+| |S-| = 2, and the default grid
    # (65 x 257) with the default n_max = 64 must pass it, as it did before
    # gamma_middle held level spectra.  A one-order stand-in replaces the build.
    model = mmpp_model()
    monkeypatch.setattr(bridge, "_run_z_recursion", lambda *args: {2: np.zeros((1, 1, 1, 2, 2))})
    grid = LevelDurationGrid.for_model(model)
    assert (grid.n_durations, grid.n_levels) == (65, 257)
    bridge_recursion(model, grid, n_max=64, method="z")
    assert bridge._estimate_bytes(grid, model, 64, "z") <= bridge.DEFAULT_MEMORY_BUDGET


# ---------------------------------------------------------------------------
# Integration and refinement
# ---------------------------------------------------------------------------


def test_integrated_mass_matches_stored_masses():
    model = two_state_model()
    grid = _grid(u_max=8.0, cells=128)
    tensor = bridge_recursion(model, grid, n_max=3)
    m0 = grid.zero_index
    for n in (2, 3):
        # Masses are read off the slices: the trapezoid rule over every
        # duration and the levels l <= 0.
        below = tensor.value(n, 0.0)[..., : m0 + 1]
        want = np.trapezoid(np.trapezoid(below, dx=grid.dl, axis=-1), dx=grid.du, axis=-1)
        np.testing.assert_allclose(tensor.mass(n), want, rtol=1e-12, atol=1e-15)
        np.testing.assert_array_equal(integrate_bridge(tensor, n, z=0.0), tensor.mass(n))


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


def test_mass_refines_at_second_order_through_kernel_jumps():
    # calendar_switch jumps at durations 1 and 3; with du = 1/6, 1/12 and
    # 1/24 the grid nodes meet them only up to rounding.
    model = calendar_switch_model()
    vals = []
    for cells in (32, 64, 128):
        tensor = bridge_recursion(model, _grid(u_max=8.0 / model.gamma, cells=cells), n_max=2)
        vals.append(tensor.mass(2)[0, 0])
    err_coarse = abs(vals[0] - vals[1])
    err_fine = abs(vals[1] - vals[2])
    assert err_coarse / err_fine >= 3.0


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
    # two one-sided values where a node lands on a breakpoint, or within
    # rounding of it on either side, also for the original block of an
    # Erlang-lifted kernel.
    cal = calendar_switch_model()
    lifted = erlangize(cal, 1.0, 2, i0=0).model
    for model, first in ((cal, 0), (lifted, 2)):
        gamma = model.gamma
        nodes = [0.5, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 2.0]
        Cbar, Dbar = _uniformized_nodes(model, nodes)
        left = uniformized_kernel(model.kernel, np.nextafter(1.0, 0.0))
        right = uniformized_kernel(model.kernel, 1.0)
        for k in (1, 2, 3):
            assert Cbar[k][first, first] == pytest.approx(1.0 + 0.5 * (-0.8 - 1.5) / gamma)
            np.testing.assert_allclose(Cbar[k], 0.5 * (left[0] + right[0]), rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(Dbar[k], 0.5 * (left[1] + right[1]), rtol=0.0, atol=1e-15)
        off = uniformized_kernel(model.kernel, [0.5, 2.0])
        np.testing.assert_array_equal(Cbar[[0, 4]], off[0])
        np.testing.assert_array_equal(Dbar[[0, 4]], off[1])


@pytest.mark.parametrize("method", ["split", "z"])
def test_both_engines_report_the_window_diagnostics(method):
    # Both engines read an edge density of 1.30e-3 on this small window.
    model = mmpp_model()
    grid = LevelDurationGrid(u_max=2.0, du=0.25, l_max=2.0, dl=0.25)
    with pytest.warns(UserWarning, match="level-window edge"):
        tensor = bridge_recursion(model, grid, n_max=5, method=method)
    assert tensor.diagnostics["level_edge_max_density"] >= 1.3e-3
    assert tensor.diagnostics["holding_tail_bound"] == np.exp(-model.gamma * grid.u_max)


def test_z_engine_reports_both_level_window_edges():
    grid = LevelDurationGrid(u_max=4.0, du=1 / 8, l_max=2.0, dl=1 / 8)
    with pytest.warns(UserWarning, match="level-window edge"):
        tensor = bridge_recursion(pareto_renewal_model(), grid, n_max=4, method="z")
    lower = max(float(np.abs(s[..., 0]).max()) for s in tensor.slices.values())
    assert lower >= 0.0147
    assert tensor.diagnostics["level_edge_max_density"] >= lower
