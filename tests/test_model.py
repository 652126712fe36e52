"""Model construction, kernel evaluation, uniformization, and config parsing."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluidrisk import (
    ConfigError,
    FluidModel,
    FluidModelError,
    KernelDomainError,
    StateSpace,
    StructureError,
    UniformizationBoundError,
    config_hash,
    constant_kernel,
    cost_weights,
    erlangize,
    eval_kernel,
    eval_kernel_batch,
    first_return_samples,
    kernel_from_callables,
    model_config_from_dict,
    pareto_renewal_kernel,
    piecewise_constant_kernel,
    uniformized_kernel,
    validate_model,
)
from fluidrisk.gallery import (
    calendar_switch_model,
    gallery_configs,
    gallery_models,
    pareto_renewal_model,
)


def _simple_model(C, D, rates, gamma=None, alpha=None):
    p = len(rates)
    return FluidModel(
        space=StateSpace(rates=np.asarray(rates, dtype=float)),
        kernel=constant_kernel(C, D, gamma=gamma),
        alpha=np.full(p, 1.0 / p) if alpha is None else np.asarray(alpha, dtype=float),
        sigma=np.where(np.asarray(rates, dtype=float) > 0, 0.1, 0.0),
        k_cost=np.zeros((p, p)),
    )


# ---------------------------------------------------------------------------
# State space and model structure
# ---------------------------------------------------------------------------


def test_state_space_partitions_by_rate_sign():
    space = StateSpace(rates=np.array([1.0, -1.0, 0.5, -2.0]))
    assert space.p == 4
    assert space.s_plus.tolist() == [0, 2]
    assert space.s_minus.tolist() == [1, 3]


def test_zero_rate_rejected():
    with pytest.raises(StructureError, match="zero fluid rate"):
        StateSpace(rates=np.array([1.0, 0.0]))


def test_model_requires_both_rate_classes():
    with pytest.raises(StructureError, match="negative-rate"):
        _simple_model([[-1.0, 1.0], [1.0, -1.0]], np.zeros((2, 2)), rates=[1.0, 2.0])


def test_alpha_must_be_probability_vector():
    with pytest.raises(StructureError, match="alpha"):
        _simple_model(
            [[-1.0, 1.0], [1.0, -1.0]], np.zeros((2, 2)), rates=[1.0, -1.0], alpha=[0.5, 0.4]
        )


def test_dividends_must_vanish_on_descending_states():
    with pytest.raises(StructureError, match="negative-rate"):
        FluidModel(
            space=StateSpace(rates=np.array([1.0, -1.0])),
            kernel=constant_kernel([[-1.0, 1.0], [1.0, -1.0]], np.zeros((2, 2))),
            alpha=np.array([1.0, 0.0]),
            sigma=np.array([0.0, 0.3]),
            k_cost=np.zeros((2, 2)),
        )


def test_negative_jump_cost_rejected():
    with pytest.raises(StructureError, match="nonnegative"):
        FluidModel(
            space=StateSpace(rates=np.array([1.0, -1.0])),
            kernel=constant_kernel([[-1.0, 1.0], [1.0, -1.0]], np.zeros((2, 2))),
            alpha=np.array([1.0, 0.0]),
            sigma=np.zeros(2),
            k_cost=np.array([[0.0, -0.1], [0.0, 0.0]]),
        )


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_markov_modulated_construction_validates():
    # Phase generator plus diagonal arrival intensities, dominated by gamma.
    lam = np.array([[-1.0, 1.0], [1.0, -1.0]])
    v = np.array([0.5, 0.2])
    model = _simple_model(lam - np.diag(v), np.diag(v), rates=[1.0, -1.0], gamma=1.5)
    report = validate_model(model)
    assert report.ok
    assert report.worst is None
    assert report.n_samples > 0


def test_zero_kernel_validates():
    model = _simple_model(np.zeros((2, 2)), np.zeros((2, 2)), rates=[1.0, -1.0], gamma=1.0)
    assert validate_model(model).ok


def test_conservation_violation_names_the_row():
    def c_fun(u):
        return np.array([[-1.0, 1.0], [0.5, -1.0]])  # row 1 leaks 0.5

    def d_fun(u):
        return np.zeros((2, 2))

    kernel = kernel_from_callables(c_fun, d_fun, gamma=1.0, p=2)
    model = FluidModel(
        space=StateSpace(rates=np.array([1.0, -1.0])),
        kernel=kernel,
        alpha=np.array([1.0, 0.0]),
        sigma=np.zeros(2),
        k_cost=np.zeros((2, 2)),
    )
    report = validate_model(model)
    assert not report.ok
    check, _u, i, j, value = report.worst
    assert check == "row_not_conservative"
    assert i == 1 and j == -1
    assert value == pytest.approx(-0.5)


def test_gamma_bound_violation_detected():
    model = _simple_model(
        [[-3.0, 3.0], [1.0, -1.0]], np.zeros((2, 2)), rates=[1.0, -1.0], gamma=2.0
    )
    report = validate_model(model)
    assert not report.ok
    assert report.worst[0] == "gamma_bound_violated"
    with pytest.raises(UniformizationBoundError):
        uniformized_kernel(model.kernel, 0.0)


def test_gallery_models_validate():
    for name, model in gallery_models().items():
        assert validate_model(model).ok, name


# ---------------------------------------------------------------------------
# Kernel evaluation
# ---------------------------------------------------------------------------


def test_constant_kernel_evaluation_is_duration_free():
    C = np.array([[-1.0, 0.9], [0.8, -1.0]])
    D = np.diag([0.1, 0.2])
    kernel = constant_kernel(C, D, gamma=1.0)
    assert kernel.is_constant
    for u in (0.0, 0.7, 13.0):
        Cu, Du = eval_kernel(kernel, u)
        np.testing.assert_array_equal(Cu, C)
        np.testing.assert_array_equal(Du, D)


def test_negative_duration_rejected():
    kernel = constant_kernel([[-1.0, 1.0], [1.0, -1.0]], np.zeros((2, 2)))
    with pytest.raises(KernelDomainError):
        eval_kernel(kernel, -0.1)


def test_piecewise_kernel_right_continuous_at_breakpoints():
    kernel = calendar_switch_model().kernel
    C_at, _ = eval_kernel(kernel, 1.0)
    C_before, _ = eval_kernel(kernel, np.nextafter(1.0, 0.0))
    assert C_at[0, 0] == pytest.approx(-1.5)  # second regime applies at the breakpoint
    assert C_before[0, 0] == pytest.approx(-0.8)  # first regime just below it
    assert kernel.breakpoints == (1.0, 3.0)


def test_pareto_kernel_hazard_at_zero():
    a = np.array([2.5, 1.8])
    b = np.array([1.0, 2.0])
    routing = np.array([[0.3, 0.7], [0.6, 0.4]])
    kernel = pareto_renewal_kernel(a, b, routing)
    C0, D0 = eval_kernel(kernel, 0.0)
    np.testing.assert_allclose(np.diag(C0), -a / b, atol=1e-14)
    np.testing.assert_allclose(D0, (a / b)[:, None] * routing, atol=1e-14)
    # hazard decays in the duration
    C5, _ = eval_kernel(kernel, 5.0)
    assert np.all(np.diag(C5) > np.diag(C0))


def _callables_kernel():
    def c_fun(u):
        h = 1.0 / (1.0 + u)
        return np.array([[-h, h], [0.5, -0.5]]) if u < 2.0 else np.array([[-0.2, 0.2], [0.5, -0.5]])

    def d_fun(u):
        return np.zeros((2, 2))

    return kernel_from_callables(c_fun, d_fun, gamma=1.0, p=2, breakpoints=[2.0])


def _kernels_under_test():
    kernels = {name: model.kernel for name, model in gallery_models().items()}
    kernels["erlang_pareto"] = erlangize(pareto_renewal_model(), 1.0, 2, i0=0).model.kernel
    kernels["erlang_calendar"] = erlangize(calendar_switch_model(), 1.0, 2, i0=0).model.kernel
    kernels["callables"] = _callables_kernel()
    return kernels


@pytest.mark.parametrize("name", sorted(_kernels_under_test()))
def test_batch_evaluation_matches_scalar(name):
    # One evaluator, one semantics: batch values equal scalar values bit for
    # bit, also on a breakpoint and just below it.
    kernel = _kernels_under_test()[name]
    breaks = np.asarray(kernel.breakpoints, dtype=float)
    u = np.unique(np.concatenate([[0.0, 0.3, 1.7, 9.0], breaks, np.nextafter(breaks, 0.0)]))
    Cb, Db = eval_kernel_batch(kernel, u)
    assert Cb.shape == Db.shape == (u.size, kernel.p, kernel.p)
    for k, uk in enumerate(u):
        Ck, Dk = eval_kernel(kernel, float(uk))
        np.testing.assert_array_equal(Cb[k], Ck)
        np.testing.assert_array_equal(Db[k], Dk)


def test_batch_evaluation_is_right_continuous_at_jumps():
    # Scalar and batch evaluation both take the right piece at a jump; the
    # grid engines' midpoint rule lives in the bridge quadrature helper.
    kernel = calendar_switch_model().kernel
    Cb, _ = eval_kernel_batch(kernel, np.array([0.5, 1.0, 2.0]))
    assert Cb[1][0, 0] == pytest.approx(-1.5)
    C_scalar, _ = eval_kernel(kernel, 1.0)
    assert C_scalar[0, 0] == pytest.approx(-1.5)


def _nan_beyond_two(model):
    base = model.kernel

    def fun(u):
        C, D = base.fun(u)
        return np.where(np.asarray(u)[..., None, None] > 2.0, np.nan, C), D

    return dataclasses.replace(model, kernel=dataclasses.replace(base, fun=fun))


def test_batch_evaluation_rejects_non_finite_values():
    model = _nan_beyond_two(pareto_renewal_model())
    Cb, _ = eval_kernel_batch(model.kernel, [0.5, 1.5])
    assert np.all(np.isfinite(Cb))
    with pytest.raises(FluidModelError, match="u=2.5"):
        eval_kernel_batch(model.kernel, [0.5, 2.5, 3.0])
    with pytest.raises(FluidModelError, match="u=2.5"):
        eval_kernel(model.kernel, 2.5)
    # The sampler stops at the first non-finite kernel row instead of
    # running on with NaN transition probabilities.
    with pytest.raises(FluidModelError):
        first_return_samples(model, 0.0, 0.0, 0.0, 200, 2000, 1)


# ---------------------------------------------------------------------------
# Uniformization
# ---------------------------------------------------------------------------


def test_uniformized_kernel_matches_hand_example():
    # gamma = 2: Cbar = I + C / 2 has rows (0.5, 0.5) and (0.25, 0.75).
    kernel = constant_kernel([[-1.0, 1.0], [0.5, -0.5]], np.zeros((2, 2)), gamma=2.0)
    Cbar, Dbar = uniformized_kernel(kernel, 0.0)
    np.testing.assert_allclose(Cbar, [[0.5, 0.5], [0.25, 0.75]], atol=1e-15)
    np.testing.assert_array_equal(Dbar, np.zeros((2, 2)))


def test_uniformized_zero_kernel_is_identity():
    kernel = constant_kernel(np.zeros((2, 2)), np.zeros((2, 2)), gamma=1.0)
    Cbar, Dbar = uniformized_kernel(kernel, 3.0)
    np.testing.assert_array_equal(Cbar, np.eye(2))
    np.testing.assert_array_equal(Dbar, np.zeros((2, 2)))


def test_uniformized_rows_sum_to_one_across_gallery():
    for name, model in gallery_models().items():
        for u in (0.0, 0.5, 1.0, 2.5, 7.0):
            Cbar, Dbar = uniformized_kernel(model.kernel, u)
            np.testing.assert_allclose(
                (Cbar + Dbar).sum(axis=1), np.ones(model.p), atol=1e-12, err_msg=f"{name} u={u}"
            )
            assert np.all(Cbar >= -1e-15), name
            assert np.all(Dbar >= -1e-15), name


def test_uniformized_kernel_accepts_an_array_of_durations():
    kernel = calendar_switch_model().kernel
    u = np.array([0.0, 1.0, 3.5])
    Cbar, Dbar = uniformized_kernel(kernel, u)
    for k, uk in enumerate(u):
        Ck, Dk = uniformized_kernel(kernel, float(uk))
        np.testing.assert_array_equal(Cbar[k], Ck)
        np.testing.assert_array_equal(Dbar[k], Dk)
    base = pareto_renewal_model().kernel
    tight = dataclasses.replace(base, gamma=0.5 * base.gamma)
    fastest = int(np.argmax(-np.diag(eval_kernel(base, 0.0)[0])))
    with pytest.raises(UniformizationBoundError) as err:
        uniformized_kernel(tight, [50.0, 0.0])
    assert err.value.u == 0.0
    assert err.value.state == fastest


# ---------------------------------------------------------------------------
# Arrival-cost weights
# ---------------------------------------------------------------------------


def test_cost_weights_unit_when_transform_is_off():
    model = gallery_models()["mmpp"]
    w = cost_weights(model, 0.0)
    for block in (w.pp, w.pm, w.mp, w.mm):
        np.testing.assert_array_equal(block, np.ones_like(block))


def test_cost_weights_unit_when_costs_vanish():
    model = gallery_models()["renewal_ph"]  # zero cost matrix
    w = cost_weights(model, 3.7)
    for block in (w.pp, w.pm, w.mp, w.mm):
        np.testing.assert_array_equal(block, np.ones_like(block))


def test_cost_weight_halves_at_log_two():
    model = _simple_model([[-1.0, 1.0], [1.0, -1.0]], np.zeros((2, 2)), rates=[1.0, -1.0])
    model = FluidModel(
        space=model.space,
        kernel=model.kernel,
        alpha=model.alpha,
        sigma=model.sigma,
        k_cost=np.full((2, 2), np.log(2.0)),
    )
    w = cost_weights(model, 1.0)
    np.testing.assert_allclose(w.pm, [[0.5]], rtol=1e-15)


def test_cost_weight_blocks_reassemble_exactly():
    model = gallery_models()["cross_arrival"]
    theta2 = 0.8
    w = cost_weights(model, theta2)
    full = np.empty((model.p, model.p))
    full[np.ix_(model.s_plus, model.s_plus)] = w.pp
    full[np.ix_(model.s_plus, model.s_minus)] = w.pm
    full[np.ix_(model.s_minus, model.s_plus)] = w.mp
    full[np.ix_(model.s_minus, model.s_minus)] = w.mm
    np.testing.assert_array_equal(full, np.exp(-theta2 * model.k_cost))


def test_cost_weights_decrease_in_theta2():
    model = gallery_models()["two_state"]
    w1 = cost_weights(model, 0.5)
    w2 = cost_weights(model, 1.5)
    assert np.all(w2.pp <= w1.pp)
    assert np.all(w2.mm <= w1.mm)
    assert np.all(w1.pp <= 1.0) and np.all(w1.pp > 0.0)


def test_cost_weights_reject_negative_argument():
    with pytest.raises(ValueError):
        cost_weights(gallery_models()["two_state"], -0.1)


# ---------------------------------------------------------------------------
# Configuration parsing
# ---------------------------------------------------------------------------


def test_gallery_models_have_their_documented_structure():
    models = gallery_models()
    durations = (0.0, 0.4, 1.0, 2.0, 3.0, 6.5)

    two_state = models["two_state"]
    C, D = eval_kernel(two_state.kernel, 0.0)
    stationary = np.array([8.0, 9.0]) / 17.0
    np.testing.assert_allclose(stationary @ (C + D), 0.0, atol=1e-15)
    assert stationary @ two_state.rates == pytest.approx(-1.0 / 17.0, abs=1e-15)

    C, D = eval_kernel(models["mmpp"].kernel, 0.0)
    q_phase = [[-1.0, 0.7, 0.3], [0.4, -1.2, 0.8], [0.5, 0.5, -1.0]]
    np.testing.assert_array_equal(D, np.diag([2.0, 0.5, 1.0]))
    np.testing.assert_allclose(C + D, q_phase, rtol=0.0, atol=1e-15)

    C, D = eval_kernel(models["renewal_ph"].kernel, 0.0)
    np.testing.assert_allclose(D, np.outer(-C.sum(axis=1), [0.6, 0.4]), rtol=0.0, atol=1e-15)

    calendar = models["calendar_switch"]
    assert calendar.kernel.breakpoints == (1.0, 3.0)
    for u in durations + (np.nextafter(1.0, 0.0), np.nextafter(3.0, 0.0)):
        np.testing.assert_array_equal(eval_kernel(calendar.kernel, u)[1], 0.0)

    a, b = np.array([2.5, 1.8]), np.array([1.0, 2.0])
    for u in durations:
        C, D = eval_kernel(models["pareto_renewal"].kernel, u)
        np.testing.assert_allclose(-np.diag(C), a / (b + u), rtol=1e-15)
        np.testing.assert_allclose(D.sum(axis=1), a / (b + u), rtol=1e-15)


def test_config_rejects_unknown_field():
    conf = gallery_configs()["two_state"]
    conf["extra"] = 1
    with pytest.raises(ConfigError, match="unknown field"):
        model_config_from_dict(conf)


def test_config_rejects_missing_field():
    conf = gallery_configs()["two_state"]
    del conf["alpha"]
    with pytest.raises(ConfigError, match="missing field"):
        model_config_from_dict(conf)


def test_config_rejects_unknown_kernel_type():
    conf = gallery_configs()["two_state"]
    conf["kernel"]["type"] = "mystery"
    with pytest.raises(ConfigError, match="unknown kernel type"):
        model_config_from_dict(conf)


def test_config_rejects_non_mapping():
    with pytest.raises(ConfigError, match="mapping"):
        model_config_from_dict([1, 2, 3])


def test_config_wraps_structural_errors():
    conf = gallery_configs()["two_state"]
    conf["alpha"] = [0.5, 0.4]
    with pytest.raises(ConfigError, match="invalid model config"):
        model_config_from_dict(conf)


def test_config_rejects_nonconservative_kernel():
    conf = gallery_configs()["two_state"]
    conf["kernel"]["C"] = [[-1.0, 0.5], [0.8, -1.0]]  # row 0 leaks mass
    with pytest.raises(ConfigError, match="validation"):
        model_config_from_dict(conf)


def test_config_hash_is_stable_and_content_sensitive(tmp_path):
    path = tmp_path / "m.json"
    path.write_bytes(b'{"rates": [1, -1]}')
    h1 = config_hash(path)
    assert h1 == config_hash(path)
    assert len(h1) == 64
    path.write_bytes(b'{"rates": [1, -2]}')
    assert config_hash(path) != h1


# ---------------------------------------------------------------------------
# Randomized structural properties
# ---------------------------------------------------------------------------


@st.composite
def random_conservative_models(draw):
    p = draw(st.integers(min_value=2, max_value=4))
    n_plus = draw(st.integers(min_value=1, max_value=p - 1))
    rates = np.array(
        [draw(st.floats(0.25, 3.0)) for _ in range(n_plus)]
        + [-draw(st.floats(0.25, 3.0)) for _ in range(p - n_plus)]
    )
    raw = np.array(
        [[draw(st.floats(0.0, 2.0)) for _ in range(2 * p)] for _ in range(p)]
    )
    C_off = raw[:, :p] * (1.0 - np.eye(p))
    D = raw[:, p:]
    C = C_off - np.diag(C_off.sum(axis=1) + D.sum(axis=1))
    gamma = max(float((C_off.sum(axis=1) + D.sum(axis=1)).max()), 1.0)
    alpha = np.zeros(p)
    alpha[0] = 1.0
    return FluidModel(
        space=StateSpace(rates=rates),
        kernel=constant_kernel(C, D, gamma=gamma),
        alpha=alpha,
        sigma=np.where(rates > 0, 0.2, 0.0),
        k_cost=np.zeros((p, p)),
    )


@settings(max_examples=40, deadline=None)
@given(random_conservative_models())
def test_random_conservative_models_validate(model):
    assert validate_model(model).ok
    Cbar, Dbar = uniformized_kernel(model.kernel, 0.0)
    np.testing.assert_allclose((Cbar + Dbar).sum(axis=1), np.ones(model.p), atol=1e-10)
    assert np.all(Cbar >= -1e-15) and np.all(Dbar >= -1e-15)
