"""Path simulation on the uniformized Poisson grid."""

import dataclasses

import numpy as np
import pytest

from fluidrisk import (
    FluidModel,
    KernelConsistencyError,
    StateSpace,
    UniformizationBoundError,
    constant_kernel,
    kernel_from_callables,
    simulate_path,
    simulate_until_return,
)
from fluidrisk.gallery import (
    calendar_switch_model,
    mmpp_model,
    pareto_renewal_model,
    renewal_ph_model,
    two_state_model,
)
from fluidrisk.montecarlo import arrival_time_samples, first_return_samples

from _oracles import TWO_STATE_PSI_03_02, ks_critical, ks_statistic, ph_cdf


def _frozen_model():
    """Two-state model with no jumps at all: the start state holds forever."""
    return FluidModel(
        space=StateSpace(rates=np.array([1.0, -1.0])),
        kernel=constant_kernel(np.zeros((2, 2)), np.zeros((2, 2)), gamma=1.0),
        alpha=np.array([1.0, 0.0]),
        sigma=np.array([0.5, 0.0]),
        k_cost=np.zeros((2, 2)),
    )


# ---------------------------------------------------------------------------
# Path structure
# ---------------------------------------------------------------------------


def test_same_seed_reproduces_path_bitwise():
    model = two_state_model()
    a = simulate_path(model, z=0.0, horizon=25.0, seed=123)
    b = simulate_path(model, z=0.0, horizon=25.0, seed=123)
    for field in ("poisson_epochs", "states", "arrival_epochs", "durations", "fluid"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
    c = simulate_path(model, z=0.0, horizon=25.0, seed=124)
    assert not np.array_equal(a.poisson_epochs, c.poisson_epochs)


def test_epochs_stay_below_horizon_and_start_at_zero():
    path = simulate_path(mmpp_model(), z=0.0, horizon=7.5, seed=5)
    assert path.poisson_epochs[0] == 0.0
    assert np.all(np.diff(path.poisson_epochs) > 0)
    assert path.poisson_epochs[-1] < 7.5


def test_fluid_is_piecewise_linear_in_the_rates():
    model = mmpp_model()
    path = simulate_path(model, z=0.0, horizon=12.0, seed=42)
    dt = np.diff(path.poisson_epochs)
    seg_rates = model.rates[path.states[:-1]]
    np.testing.assert_allclose(np.diff(path.fluid), seg_rates * dt, atol=1e-12)
    assert path.fluid[0] == 0.0


def test_dividend_integral_accumulates_sigma():
    model = mmpp_model()
    path = simulate_path(model, z=0.0, horizon=12.0, seed=7)
    dt = np.diff(path.poisson_epochs)
    seg_sigma = model.sigma[path.states[:-1]]
    np.testing.assert_allclose(np.diff(path.dividend_integral), seg_sigma * dt, atol=1e-12)


def test_jump_costs_charged_at_arrivals_only():
    model = two_state_model()
    path = simulate_path(model, z=0.0, horizon=40.0, seed=11)
    inc = np.diff(path.jump_costs)
    arrivals = set(path.arrival_epochs[1:].tolist())  # drop the conventional time-0 entry
    for k in range(1, path.poisson_epochs.size):
        t = path.poisson_epochs[k]
        if t in arrivals:
            expected = model.k_cost[path.states[k - 1], path.states[k]]
            assert inc[k - 1] == pytest.approx(expected)
        else:
            assert inc[k - 1] == 0.0
    assert len(arrivals) > 0  # the two-state model does produce arrivals


def test_arrival_free_model_never_arrives():
    model = calendar_switch_model()
    path = simulate_path(model, z=0.0, horizon=20.0, seed=3)
    np.testing.assert_array_equal(path.arrival_epochs, [0.0])
    np.testing.assert_array_equal(path.jump_costs, np.zeros_like(path.jump_costs))
    # with no resets the duration argument is the initial offset plus time
    np.testing.assert_allclose(path.durations, path.poisson_epochs, atol=1e-12)


def test_initial_duration_offsets_the_clock_until_first_arrival():
    model = calendar_switch_model()
    path = simulate_path(model, z=2.0, horizon=10.0, seed=9)
    np.testing.assert_allclose(path.durations, 2.0 + path.poisson_epochs, atol=1e-12)


def test_duration_resets_at_each_arrival():
    model = two_state_model()
    path = simulate_path(model, z=1.5, horizon=50.0, seed=21)
    real_arrivals = path.arrival_epochs[1:]
    for k, t in enumerate(path.poisson_epochs):
        prior = real_arrivals[real_arrivals < t]
        expected = t - prior[-1] if prior.size else 1.5 + t
        assert path.durations[k] == pytest.approx(expected, abs=1e-12)


def test_start_state_follows_alpha_or_override():
    model = mmpp_model()  # alpha = e_0
    for seed in range(5):
        assert simulate_path(model, 0.0, 1.0, seed=seed).states[0] == 0
    forced = simulate_path(model, 0.0, 1.0, seed=0, start_state=2)
    assert forced.states[0] == 2


def test_inconsistent_kernel_raises():
    leaking = np.array([[-1.0, 0.5], [0.5, -1.0]])  # leaks probability mass
    kernels = [
        kernel_from_callables(lambda u: leaking, lambda u: np.zeros((2, 2)), gamma=1.0, p=2),
        constant_kernel(leaking, np.zeros((2, 2)), gamma=1.0),
    ]
    for kernel in kernels:
        model = FluidModel(
            space=StateSpace(rates=np.array([1.0, -1.0])),
            kernel=kernel,
            alpha=np.array([1.0, 0.0]),
            sigma=np.zeros(2),
            k_cost=np.zeros((2, 2)),
        )
        with pytest.raises(KernelConsistencyError):
            simulate_path(model, 0.0, 50.0, seed=1)
        with pytest.raises(KernelConsistencyError):
            first_return_samples(model, 0.0, 0.0, 0.0, 100, 1000, seed=1)
        with pytest.raises(KernelConsistencyError):
            simulate_until_return(model, 0.0, 0.0, 0.0, 1000, seed=1)


def test_an_epoch_checks_the_bound_of_every_state_at_its_duration():
    # At gamma = 1 only state 0's hazard 2.5/(1 + u) is too fast, for u < 1.5.
    # A path in state 1 at duration 0.5 is refused all the same: the epoch's
    # rows come from uniformized_kernel, which checks every state there.
    base = pareto_renewal_model()
    tight = dataclasses.replace(base, kernel=dataclasses.replace(base.kernel, gamma=1.0))
    with pytest.raises(UniformizationBoundError) as err:
        tight._epoch.rows(np.array([1]), np.array([0.5]))
    assert (err.value.state, err.value.u, err.value.total_rate) == (0, 0.5, 2.5 / 1.5)


# ---------------------------------------------------------------------------
# Epoch statistics
# ---------------------------------------------------------------------------


def test_epoch_count_matches_uniformization_rate():
    # Epochs form a Poisson process of rate gamma regardless of the state.
    model = mmpp_model()
    horizon, n = 25.0, 1200
    counts = np.array(
        [simulate_path(model, 0.0, horizon, seed=s).poisson_epochs.size - 1 for s in range(n)]
    )
    mean_expected = model.gamma * horizon
    se = np.sqrt(mean_expected / n)  # Poisson variance equals its mean
    assert abs(counts.mean() - mean_expected) <= 3.0 * se


def test_first_interarrival_matches_phase_type_law():
    model = renewal_ph_model()
    pi = np.array([0.6, 0.4])
    T = np.array([[-2.0, 1.0], [0.5, -1.5]])
    s1 = arrival_time_samples(model, z=0.0, n_arrivals=1, n_paths=20_000, seed=314)[:, 0]
    assert not np.any(np.isnan(s1))
    stat = ks_statistic(s1, lambda x: ph_cdf(pi, T, x))
    assert stat < ks_critical(s1.size)


def test_renewal_gaps_are_identically_distributed():
    # Each arrival restarts the phase from pi, so S2 - S1 has the same law as S1.
    model = renewal_ph_model()
    pi = np.array([0.6, 0.4])
    T = np.array([[-2.0, 1.0], [0.5, -1.5]])
    times = arrival_time_samples(model, z=0.0, n_arrivals=2, n_paths=20_000, seed=217)
    gaps = times[:, 1] - times[:, 0]
    stat = ks_statistic(gaps, lambda x: ph_cdf(pi, T, x))
    assert stat < ks_critical(gaps.size)


# ---------------------------------------------------------------------------
# First-return runs
# ---------------------------------------------------------------------------


def test_return_weight_is_binary_without_transforms():
    model = two_state_model()
    for seed in range(30):
        out = simulate_until_return(model, z=0.0, theta1=0.0, theta2=0.0, max_epochs=4000, seed=seed)
        assert out.weight in (0.0, 1.0)
        if out.returned:
            assert out.weight == 1.0
            assert out.exit_state in model.s_minus
            assert 2 <= out.n_used <= 4000
        else:
            assert out.weight == 0.0


def test_return_weights_discount_dividends_and_costs():
    model = two_state_model()
    got_positive = False
    for seed in range(20):
        out = simulate_until_return(model, z=0.0, theta1=0.4, theta2=0.3, max_epochs=4000, seed=seed)
        assert 0.0 <= out.weight <= 1.0
        if out.returned and out.weight > 0.0:
            got_positive = True
    assert got_positive


def test_mean_return_weight_matches_the_closed_form():
    model = two_state_model()
    w = np.array(
        [simulate_until_return(model, 0.0, 0.3, 0.2, 10_000, seed=s).weight for s in range(500)]
    )
    se = w.std(ddof=1) / np.sqrt(w.size)
    assert abs(w.mean() - TWO_STATE_PSI_03_02) <= 3.0 * se


def test_descending_start_state_is_rejected():
    with pytest.raises(ValueError, match="nonpositive fluid rate"):
        simulate_until_return(
            two_state_model(), z=0.0, theta1=0.0, theta2=0.0, max_epochs=100, seed=1, start_state=1
        )


def test_path_that_cannot_descend_is_censored():
    out = simulate_until_return(
        _frozen_model(), z=0.0, theta1=0.0, theta2=0.0, max_epochs=500, seed=8
    )
    assert not out.returned
    assert out.weight == 0.0
    assert out.n_used == 500
