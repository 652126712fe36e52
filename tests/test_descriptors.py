"""First-return and ruin descriptors against the Riccati and Erlang oracles."""

import dataclasses
import warnings

import numpy as np
import pytest

import fluidrisk.descriptors as descriptors
from fluidrisk import (
    LevelDurationGrid,
    LevelGrid,
    bridge_recursion,
    cost_weights,
    doubling_psi,
    erlangize,
    eval_kernel_batch,
    finite_time_return,
    piecewise_constant_kernel,
    psi,
    ruin_descriptor,
)
from fluidrisk.descriptors import _duration_lift, _ladder
from fluidrisk.gallery import (
    calendar_switch_model,
    cross_arrival_model,
    gallery_models,
    mmpp_model,
    pareto_renewal_model,
    renewal_ph_model,
    two_state_model,
)

from _oracles import (
    ERLANG_RUIN_MC,
    TWO_STATE_ERLANG_RUIN_U1,
    TWO_STATE_PSI_03_02,
    erlang_ruin_exact,
    riccati_descriptor,
    ruin_exact,
)

NAN = float("nan")
THETAS = [(0.0, 0.0), (0.1, 0.2), (0.3, 0.2), (1.0, 0.2)]


def test_psi_on_the_default_level_grid_matches_the_riccati_value():
    # A LevelGrid is accepted on a duration-free kernel and ignored.
    model = two_state_model()
    res = psi(model, 0.3, 0.2, grid=LevelGrid.for_model(model))
    assert res.info["engine"] == "doubling"
    assert res.converged and res.n_used == res.info["steps"]
    assert res.info["residual"] < 1e-15
    assert res.matrix[0, 0] == pytest.approx(TWO_STATE_PSI_03_02, abs=1e-14)
    np.testing.assert_array_equal(res.matrix, psi(model, 0.3, 0.2).matrix)


@pytest.mark.parametrize("thetas", [(-0.5, 0.0), (0.0, -0.5)])
def test_psi_rejects_negative_transform_arguments(thetas):
    with pytest.raises(ValueError, match="nonnegative"):
        psi(two_state_model(), *thetas)


@pytest.mark.parametrize("make_model", [two_state_model, calendar_switch_model])
@pytest.mark.parametrize("thetas", [(NAN, 0.0), (0.0, NAN)], ids=["theta1", "theta2"])
def test_analytic_engines_reject_nan_transform_arguments(make_model, thetas):
    # Every comparison with NaN is false, so a `theta < 0` test lets it through.
    model = make_model()
    with pytest.raises(ValueError, match="transform arguments must be nonnegative"):
        psi(model, *thetas)
    with pytest.raises(ValueError, match="transform arguments must be nonnegative"):
        bridge_recursion(model, LevelDurationGrid.for_model(model), *thetas, n_max=3)
    with pytest.raises(ValueError, match="transform arguments must be nonnegative"):
        cost_weights(model, NAN)


@pytest.mark.parametrize("make_model", [two_state_model, calendar_switch_model])
@pytest.mark.parametrize("thetas", [(np.inf, 0.2), (0.3, np.inf)], ids=["theta1", "theta2"])
def test_analytic_engines_reject_infinite_transform_arguments(make_model, thetas):
    # An infinite theta1 sends the Riccati solver's LAPACK calls NaN scales.
    model = make_model()
    message = "transform arguments must be nonnegative and finite"
    with pytest.raises(ValueError, match=message):
        psi(model, *thetas)
    with pytest.raises(ValueError, match=message):
        bridge_recursion(model, LevelDurationGrid.for_model(model), *thetas, n_max=3)
    with pytest.raises(ValueError, match=message):
        ruin_descriptor(model, 1.0, 4, *thetas, i0=0)
    with pytest.raises(ValueError, match=message):
        cost_weights(model, np.inf)


@pytest.mark.parametrize("eps", [0.0, -1e-5, NAN], ids=["zero", "negative", "nan"])
def test_descriptors_reject_a_nonpositive_or_nan_eps(eps):
    # A zero tolerance is never met once the tail underflows to zero, and a
    # NaN one compares false: the series would never stop, or stop at once.
    for call in (
        lambda: psi(two_state_model(), eps=eps),
        lambda: psi(pareto_renewal_model(), eps=eps),
        lambda: ruin_descriptor(two_state_model(), 1.0, 4, i0=0, eps=eps),
        lambda: finite_time_return(calendar_switch_model(), 2.0, m_max=5, eps=eps),
    ):
        with pytest.raises(ValueError, match="eps must be positive"):
            call()


@pytest.mark.parametrize(
    "make_model", [two_state_model, mmpp_model, renewal_ph_model, cross_arrival_model]
)
def test_psi_matches_the_riccati_descriptor(make_model):
    model = make_model()
    for theta in THETAS:
        res = psi(model, *theta)
        assert res.converged
        np.testing.assert_allclose(res.matrix, riccati_descriptor(model, *theta), rtol=0.0, atol=1e-10)


@pytest.mark.parametrize(
    "make_model", [two_state_model, mmpp_model, renewal_ph_model, cross_arrival_model]
)
@pytest.mark.parametrize("n_stages", [1, 4, 16])
def test_ladder_ruin_matches_the_erlang_oracle(make_model, n_stages):
    model = make_model()
    i0 = int(model.s_plus[0])
    for theta in THETAS:
        res = ruin_descriptor(model, 1.0, n_stages, *theta, i0=i0)
        assert res.converged and res.info["engine"] == "doubling"
        exact = erlang_ruin_exact(model, 1.0, n_stages, *theta)[0]
        np.testing.assert_allclose(res.by_state, exact, rtol=0.0, atol=1e-10)


def test_ladder_ruin_matches_the_first_return_of_the_erlangized_model():
    # The paper's construction, solved independently of the ladder formula:
    # ruin is the first return of the ramp-augmented model from ramp stage
    # one, here by doubling on that model.
    aug = erlangize(two_state_model(), 1.0, 1, 0).model
    construction = psi(aug, 0.3, 0.2, eps=1e-9).matrix[0].sum()
    res = ruin_descriptor(two_state_model(), 1.0, 1, 0.3, 0.2, i0=0)
    assert res.info["engine"] == "doubling"
    assert abs(res.value - construction) < 1e-12


def test_ladder_ruin_matches_the_erlang_oracle_on_cross_arrival():
    model = cross_arrival_model()
    exact = erlang_ruin_exact(model, 1.0, 4, 0.3, 0.2)[0].sum()
    res = ruin_descriptor(model, 1.0, 4, 0.3, 0.2, i0=0)
    assert res.converged
    assert abs(res.value - exact) < 1e-10


def test_ladder_ruin_sweeps_do_not_depend_on_the_stage_count():
    runs = [ruin_descriptor(two_state_model(), 1.0, n, 0.3, 0.2, i0=0) for n in (1, 16)]
    assert runs[0].info["steps"] == runs[1].info["steps"]
    assert runs[1].converged
    assert abs(runs[1].value - TWO_STATE_ERLANG_RUIN_U1[16]) < 1e-12


@pytest.mark.parametrize("make_model", [two_state_model, cross_arrival_model])
def test_erlang_ruin_approaches_fixed_capital_ruin_like_one_over_n(make_model):
    # Erlang(n, n/u) capital has variance u**2 / n, so ruin from it tends to
    # ruin from the fixed capital u with a gap of order 1/n.
    model = make_model()
    exact = ruin_exact(model, 1.0, 0.3, 0.2)[0].sum()
    gaps = [
        abs(ruin_descriptor(model, 1.0, n, 0.3, 0.2, i0=0).value - exact) for n in (4, 16, 64)
    ]
    for coarse, fine in zip(gaps, gaps[1:]):
        assert coarse >= 3.5 * fine


def _in_equal_pieces(model, breakpoint):
    """The model with its constant kernel written as two equal pieces."""
    C, D = model.kernel.constant
    kernel = piecewise_constant_kernel([breakpoint], [C, C], [D, D], gamma=model.gamma)
    return dataclasses.replace(model, kernel=kernel)


@pytest.mark.parametrize(
    "make_model", [two_state_model, mmpp_model, renewal_ph_model, cross_arrival_model]
)
def test_the_lift_of_a_duration_free_model_keeps_its_first_return_matrix(make_model):
    # With no duration dependence the clock carries no information: from cell
    # 0, and summed over each descending state's cells, the lift's Psi is the
    # model's own at any cell width.
    model = make_model()
    for h in (0.25 / model.gamma, 0.7):
        lift = _duration_lift(model, h)
        K = lift.p // model.p
        for theta in THETAS:
            from_cell0 = doubling_psi(lift, *theta)[0][::K]
            summed = from_cell0.reshape(model.s_plus.size, model.s_minus.size, K).sum(axis=2)
            np.testing.assert_allclose(summed, doubling_psi(model, *theta)[0], rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("make_model", [two_state_model, cross_arrival_model])
@pytest.mark.parametrize("n_stages", [1, 16])
def test_a_constant_kernel_in_equal_pieces_takes_the_lift_to_the_same_ruin(make_model, n_stages):
    model = make_model()
    pieces = _in_equal_pieces(model, 2.0)
    for theta in THETAS:
        lifted = ruin_descriptor(pieces, 1.0, n_stages, *theta, i0=0)
        assert lifted.converged and lifted.info["discretization"] < 1e-14
        exact = ruin_descriptor(model, 1.0, n_stages, *theta, i0=0).by_state
        np.testing.assert_allclose(lifted.by_state, exact, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("name, n_stages", sorted(ERLANG_RUIN_MC))
def test_lifted_ruin_agrees_with_monte_carlo_on_the_erlangized_model(name, n_stages):
    value, std_error, _ = ERLANG_RUIN_MC[name, n_stages]
    res = ruin_descriptor(gallery_models()[name], 1.0, n_stages, 0.3, 0.2, i0=0)
    assert res.converged
    assert res.info["tail_estimate"] >= res.info["discretization"] > 0.0
    assert abs(res.value - value) <= res.info["discretization"] + 3.0 * std_error


@pytest.mark.parametrize("n_stages", [4, 16])
def test_certain_lifted_ruin_stays_a_probability(n_stages):
    # pareto_renewal drifts down, so ruin is certain at theta = 0; the
    # Richardson step must not carry it past one.
    res = ruin_descriptor(pareto_renewal_model(), 1.0, n_stages, 0.0, 0.0, i0=0)
    assert res.value <= 1.0
    assert abs(res.value - 1.0) <= 1e-12


def test_the_discretization_term_covers_the_error_against_an_eighth_of_the_cell_width(
    monkeypatch,
):
    model = calendar_switch_model()
    res = ruin_descriptor(model, 1.0, 4, 0.3, 0.2, i0=0)
    # The finer lift is just past the cap, which guards the default solves.
    monkeypatch.setattr(descriptors, "_MAX_LIFT_PHASES", 2048)
    lift = _duration_lift(model, res.info["cell_width"] / 8.0)
    by_state, _ = _ladder(model, lift, 0, 1.0, 4, 0.3, 0.2, 1e-9)
    assert abs(res.value - by_state.sum()) <= res.info["discretization"]


@pytest.mark.parametrize("i0", [-1, 3])
def test_erlangize_rejects_an_entry_state_outside_the_state_space(i0):
    # mmpp's last state ascends, so a wrapped -1 would otherwise be accepted.
    with pytest.raises(ValueError, match="entry state"):
        erlangize(mmpp_model(), 1.0, 2, i0)


@pytest.mark.parametrize("u", [NAN, 0.0, -1.0], ids=["nan", "zero", "negative"])
def test_erlangize_rejects_a_nonpositive_or_nan_capital(u):
    with pytest.raises(ValueError, match="target level must be positive"):
        erlangize(two_state_model(), u, 4, 0)


# A fractional count would be truncated by the ramp and fail late in the
# ladder's matrix power; it is refused up front, as an epoch cap is.
@pytest.mark.parametrize("build", [erlangize, ruin_descriptor], ids=["erlangize", "ruin_descriptor"])
def test_a_fractional_stage_count_is_refused_up_front(build):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        build(two_state_model(), 1.0, 2.5, i0=0)
    with pytest.raises(ValueError, match="n_stages must be at least 1"):
        build(two_state_model(), 1.0, 0, i0=0)


# A duration-free kernel ignores z, so only the check rejects it there; on
# pareto_renewal a NaN or infinite z would otherwise reach the duration grid.
@pytest.mark.parametrize("make", [two_state_model, pareto_renewal_model], ids=["two_state", "pareto_renewal"])
@pytest.mark.parametrize("z", [NAN, -1.0, np.inf], ids=["nan_z", "negative_z", "infinite_z"])
def test_psi_rejects_a_negative_or_nan_initial_duration(make, z):
    with pytest.raises(ValueError, match="initial duration must be nonnegative"):
        psi(make(), z=z)


def test_erlang_lift_calls_the_base_evaluator_once_per_array():
    model = pareto_renewal_model()
    calls = []

    def counted(u):
        calls.append(np.shape(u))
        return model.kernel.fun(u)

    base = dataclasses.replace(model, kernel=dataclasses.replace(model.kernel, fun=counted))
    lifted = erlangize(base, 1.0, 2, i0=0).model.kernel
    calls.clear()
    C, D = eval_kernel_batch(lifted, np.linspace(0.0, 4.0, 50))
    assert calls == [(50,)]
    assert C.shape == D.shape == (50, 4, 4)


@pytest.fixture(scope="module")
def capped_finite_time():
    # Three horizons with the series capped at order 3: cheap, and the cap
    # bites, so the reported tail must come from the epoch-time bound.
    runs = {}
    for horizon in (0.5, 1.0, 2.0):
        with pytest.warns(UserWarning, match="capped"):
            runs[horizon] = finite_time_return(calendar_switch_model(), horizon, m_max=3)
    return runs


def test_capped_finite_time_tail_is_a_probability(capped_finite_time):
    for res in capped_finite_time.values():
        assert list(res.orders) == [2, 3]
        assert 0.0 <= res.tail_estimate <= 1.0
        # P(T_4 <= t) lies below the bound P(T_3 <= t) of the last order.
        assert res.tail_estimate <= res.info["epoch_time_bounds"][-1]


def test_finite_time_increments_respect_their_epoch_time_bounds(capped_finite_time):
    for res in capped_finite_time.values():
        bounds = res.info["epoch_time_bounds"]
        assert np.all(res.increments.max(axis=(1, 2)) <= bounds)


def test_uncapped_finite_time_stops_at_the_first_epoch_tail_below_eps():
    # gamma t = 3: P(T_18 <= 2) = 3.6e-9 is the first epoch-time tail below
    # the default eps = 1e-8 (P(T_17 <= 2) = 2.2e-8), so order 17 is the top.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = finite_time_return(calendar_switch_model(), 2.0, du=1.0 / 8.0)
    assert res.n_used == 17
    assert list(res.orders) == list(range(2, 18))
    assert res.tail_estimate < 1e-8


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"horizon": 0.0}, "horizon must be finite and positive"),
        ({"horizon": NAN}, "horizon must be finite and positive"),
        ({"horizon": np.inf}, "horizon must be finite and positive"),
        ({"horizon": 2.0, "z": NAN}, "initial duration must be nonnegative"),
        ({"horizon": 2.0, "z": -0.5}, "initial duration must be nonnegative"),
        ({"horizon": 2.0, "z": np.inf}, "initial duration must be nonnegative and finite"),
        ({"horizon": 2.0, "theta1": NAN}, "transform arguments must be nonnegative"),
    ],
    ids=["zero_horizon", "nan_horizon", "infinite_horizon", "nan_z", "negative_z", "infinite_z", "nan_theta1"],
)
def test_finite_time_rejects_invalid_arguments_by_name(kwargs, message):
    with pytest.raises(ValueError, match=message):
        finite_time_return(calendar_switch_model(), **kwargs)


def test_finite_time_value_grows_with_the_horizon(capped_finite_time):
    values = [capped_finite_time[h].value for h in sorted(capped_finite_time)]
    for shorter, longer in zip(values, values[1:]):
        assert np.all(longer >= shorter)
