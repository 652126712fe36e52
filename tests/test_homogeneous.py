"""Duration-free engines: the doubling solver for Psi and the per-order split recursion."""

import dataclasses

import numpy as np
import pytest

from fluidrisk import (
    FluidModel,
    LevelDurationGrid,
    LevelGrid,
    StateSpace,
    StructureError,
    bridge_recursion,
    constant_kernel,
    doubling_psi,
)
from fluidrisk.gallery import (
    gallery_models,
    mmpp_model,
    pareto_renewal_model,
    two_state_model,
)

from _oracles import riccati_descriptor, two_state_psi_scalar


def _zero_drift_model(c=0.8):
    """Rates (+1, -1), C = [[-1, 0.8], [c, -1]], D = diag(0.2, 1 - c).

    Q = C + D has stationary law (c, 0.8) / (0.8 + c), so the mean drift is
    (c - 0.8) / (0.8 + c): zero at c = 0.8.  The Riccati equation is the
    quadratic c Psi^2 - (0.8 + c) Psi + 0.8 = 0, with roots 1 and
    T01 / T10 = 0.8 / c, so Psi = min(1, 0.8 / c).
    """
    kernel = constant_kernel(C=[[-1.0, 0.8], [c, -1.0]], D=[[0.2, 0.0], [0.0, 1.0 - c]], gamma=1.0)
    return FluidModel(
        space=StateSpace(rates=np.array([1.0, -1.0])),
        kernel=kernel,
        alpha=np.array([1.0, 0.0]),
        sigma=np.zeros(2),
        k_cost=np.zeros((2, 2)),
    )


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
# The doubling solver
# ---------------------------------------------------------------------------


def test_level_masses_match_hand_values():
    # two_state's Riccati equation is a scalar quadratic, solved by hand in
    # the oracle module.
    for theta in [(0.0, 0.0), (0.1, 0.2), (0.3, 0.2), (1.0, 1.0)]:
        matrix, info = doubling_psi(two_state_model(), *theta)
        assert matrix[0, 0] == pytest.approx(two_state_psi_scalar(*theta), abs=1e-14)
        assert info["engine"] == "doubling"
        assert info["residual"] < 1e-15


def test_level_series_reaches_certain_return():
    # Mean drift -1/17: return is certain and the shift applies.
    matrix, info = doubling_psi(two_state_model())
    assert info["shifted"]
    assert 1.0 - 1e-14 <= matrix[0, 0] <= 1.0
    assert info["increments"][-1] <= info["tail_estimate"]
    assert info["tail_estimate"] > 0.0


def test_zero_drift_psi_is_one():
    matrix, info = doubling_psi(_zero_drift_model())
    assert info["shifted"]
    assert abs(matrix[0, 0] - 1.0) < 1e-12


@pytest.mark.parametrize(
    "c, shifted",
    [(0.8 - 1e-6, "right"), (0.8 + 1e-6, "left")],
    ids=["drift_below_zero", "drift_above_zero"],
)
def test_near_critical_psi_matches_the_closed_form(c, shifted):
    # Drift about -6e-7 (certain return, shifted along 1) and +6e-7 (shifted
    # along the left null vector pi o r).
    matrix, info = doubling_psi(_zero_drift_model(c))
    assert info["shifted"] == shifted
    assert abs(matrix[0, 0] - min(1.0, 0.8 / c)) < 1e-12


def test_positive_drift_shifts_along_the_left_null_vector():
    # mmpp drifts upward at theta = 0: return is not certain, so the shift
    # runs along the left null vector, which leaves the rows of Psi free to
    # sum to less than one.
    model = mmpp_model()
    matrix, info = doubling_psi(model)
    assert info["shifted"] == "left"
    np.testing.assert_allclose(matrix, riccati_descriptor(model), rtol=0.0, atol=1e-10)
    assert matrix.sum(axis=1).max() < 0.99


@pytest.mark.parametrize("name", ["two_state", "mmpp", "renewal_ph", "cross_arrival"])
def test_probabilities_never_exceed_one(name):
    matrix, _ = doubling_psi(gallery_models()[name])
    assert matrix.min() >= 0.0
    assert matrix.max() <= 1.0
    assert matrix.sum(axis=1).max() <= 1.0


def test_transform_arguments_damp_the_series_mass():
    model = two_state_model()
    masses = {th: doubling_psi(model, *th)[0][0, 0] for th in [(0.0, 0.0), (0.3, 0.2), (1.0, 1.0)]}
    assert masses[(1.0, 1.0)] < masses[(0.3, 0.2)] < masses[(0.0, 0.0)]


def test_costless_model_ignores_transform_arguments():
    # With no dividend rates and no arrival costs both weights are
    # identically one, so the computation is bit-for-bit unchanged.
    model = dataclasses.replace(two_state_model(), sigma=np.zeros(2), k_cost=np.zeros((2, 2)))
    np.testing.assert_array_equal(doubling_psi(model)[0], doubling_psi(model, 0.7, 1.3)[0])


def test_doubling_outruns_the_duration_window_near_criticality():
    # Near-critical first-return times are heavy tailed, so a finite duration
    # window loses visible series mass; the Riccati solve has no window.
    model = two_state_model()
    grid = LevelDurationGrid(u_max=16.0, du=1.0 / 8, l_max=16.0, dl=1.0 / 8)
    tensor = bridge_recursion(model, grid, n_max=16, method="split")
    series = sum(tensor.mass(n)[0, 0] for n in tensor.orders)
    assert series < 0.95
    assert abs(1.0 - doubling_psi(model)[0][0, 0]) < 1e-14


# ---------------------------------------------------------------------------
# The split recursion
# ---------------------------------------------------------------------------


def test_level_window_edges_stay_negligible():
    model = two_state_model()
    tensor = bridge_recursion(model, LevelDurationGrid.for_model(model), n_max=6, method="split")
    assert tensor.diagnostics["level_edge_max_density"] < 1e-12
    assert tensor.diagnostics["kernel_window_loss"] < 1e-12


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


def test_split_engine_level_transforms_span_one_grid_length(monkeypatch):
    # Every level product pairs two level halves, so its convolution is one
    # grid long and needs no zero padding beyond the fast length.
    import fluidrisk.homogeneous as homogeneous
    from scipy.fft import next_fast_len

    lengths = []
    rfft, rfft2 = homogeneous.rfft, homogeneous.rfft2

    def rfft_recorded(x, n=None, **kwargs):
        lengths.append(n)
        return rfft(x, n=n, **kwargs)

    def rfft2_recorded(x, s=None, **kwargs):
        lengths.append(s[-1])
        return rfft2(x, s=s, **kwargs)

    monkeypatch.setattr(homogeneous, "rfft", rfft_recorded)
    monkeypatch.setattr(homogeneous, "rfft2", rfft2_recorded)
    grid = LevelDurationGrid(u_max=2.0, du=0.25, l_max=2.0, dl=0.25)
    # A window this small saturates.
    with pytest.warns(UserWarning, match="level-window edge"):
        bridge_recursion(mmpp_model(), grid, n_max=5, method="split")
    assert len(lengths) > 0
    assert set(lengths) == {next_fast_len(grid.n_levels, real=True)}


def test_duration_free_engines_reject_duration_dependent_kernels():
    model = pareto_renewal_model()
    with pytest.raises(StructureError):
        doubling_psi(model)
    with pytest.raises(StructureError):
        bridge_recursion(
            model,
            LevelDurationGrid(u_max=4.0, du=1.0 / 8, l_max=4.0, dl=1.0 / 8),
            n_max=2,
            method="split",
        )
