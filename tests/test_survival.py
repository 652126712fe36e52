"""Product-integral survival, interarrival densities, and the arrival operator."""

import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm

from fluidrisk import (
    FluidModel,
    StateSpace,
    TruncationWarning,
    constant_kernel,
    eval_kernel,
    interarrival_density,
    iph_marginal,
    piecewise_constant_kernel,
    renewal_operator,
    survival_matrix,
    survival_profile,
    uniformized_kernel,
    validate_model,
)
from fluidrisk.gallery import (
    calendar_switch_model,
    pareto_renewal_model,
    renewal_ph_model,
    two_state_model,
)
from fluidrisk.montecarlo import arrival_time_samples

from _oracles import TWO_STATE_RENEWAL, pareto_survival


# ---------------------------------------------------------------------------
# Survival matrices
# ---------------------------------------------------------------------------


def test_constant_kernel_survival_is_matrix_exponential():
    model = two_state_model()
    C = np.array([[-1.0, 0.9], [0.8, -1.0]])
    for x in (0.5, 1.0, 2.0, 5.0):
        got = survival_matrix(model.kernel, 0.0, x)
        np.testing.assert_allclose(got.matrix, expm(C * x), atol=1e-8)
        assert got.error_estimate < 1e-8


def test_zero_generator_survival_is_identity():
    kernel = constant_kernel(np.zeros((2, 2)), np.zeros((2, 2)), gamma=1.0)
    got = survival_matrix(kernel, 0.0, 4.0)
    np.testing.assert_allclose(got.matrix, np.eye(2), atol=1e-12)


def test_degenerate_interval_is_identity():
    got = survival_matrix(two_state_model().kernel, 1.3, 1.3)
    np.testing.assert_array_equal(got.matrix, np.eye(2))
    assert got.error_estimate == 0.0


def test_pareto_survival_matches_closed_form():
    # The no-arrival generator is diagonal, so survival factorizes per state:
    # G(0, x) = diag((b_i / (b_i + x)) ** a_i).
    kernel = pareto_renewal_model().kernel
    a = np.array([2.5, 1.8])
    b = np.array([1.0, 2.0])
    for x in (0.5, 1.0, 2.0, 8.0):
        got = survival_matrix(kernel, 0.0, x).matrix
        expected = np.array([pareto_survival(a[i], b[i], np.array([x]))[0] for i in range(2)])
        np.testing.assert_allclose(np.diag(got), expected, atol=1e-10)
        np.testing.assert_allclose(got - np.diag(np.diag(got)), np.zeros((2, 2)), atol=1e-12)


def test_survival_cocycle_through_kernel_jumps():
    kernel = calendar_switch_model().kernel
    rng = np.random.default_rng(5)
    for _ in range(6):
        s, mid, t = np.sort(rng.uniform(0.0, 5.0, size=3))
        full = survival_matrix(kernel, s, t, step=1 / 256).matrix
        glued = (
            survival_matrix(kernel, s, mid, step=1 / 256).matrix
            @ survival_matrix(kernel, mid, t, step=1 / 256).matrix
        )
        np.testing.assert_allclose(full, glued, atol=1e-9)


def test_survival_rows_substochastic():
    for model in (two_state_model(), pareto_renewal_model(), calendar_switch_model()):
        G = survival_matrix(model.kernel, 0.0, 3.0).matrix
        assert np.all(G >= -1e-12)
        assert np.all(G.sum(axis=1) <= 1.0 + 1e-10)


def test_arrival_free_survival_is_stochastic():
    # With no arrivals the generator is conservative: rows keep total mass 1.
    G = survival_matrix(calendar_switch_model().kernel, 0.0, 6.0).matrix
    np.testing.assert_allclose(G.sum(axis=1), np.ones(2), atol=1e-10)


def test_error_estimate_shrinks_at_fourth_order():
    kernel = pareto_renewal_model().kernel
    coarse = survival_matrix(kernel, 0.0, 2.0, step=0.05)
    fine = survival_matrix(kernel, 0.0, 2.0, step=0.025)
    ratio = coarse.error_estimate / fine.error_estimate
    assert 12.0 <= ratio <= 20.0  # fourth-order integrator: halving gains ~16x


def test_survival_profile_matches_pointwise_calls():
    kernel = two_state_model().kernel
    t_grid = np.array([0.0, 0.5, 1.25, 3.0])
    prof = survival_profile(kernel, t_grid, step=1 / 128)
    for k, t in enumerate(t_grid):
        ref = survival_matrix(kernel, 0.0, float(t), step=1 / 128).matrix
        np.testing.assert_allclose(prof[k], ref, atol=1e-10)


def test_invalid_intervals_rejected():
    kernel = two_state_model().kernel
    with pytest.raises(ValueError):
        survival_matrix(kernel, -0.1, 1.0)
    with pytest.raises(ValueError):
        survival_matrix(kernel, 2.0, 1.0)
    with pytest.raises(ValueError):
        survival_matrix(kernel, 0.0, 1.0, step=-0.5)


# ---------------------------------------------------------------------------
# Interarrival densities
# ---------------------------------------------------------------------------


def test_joint_density_matches_matrix_exponential_formula():
    model = two_state_model()
    C = np.array([[-1.0, 0.9], [0.8, -1.0]])
    D = np.diag([0.1, 0.2])
    for y in ([0.7], [0.7, 1.4], [0.2, 3.0, 0.9]):
        expected = model.alpha.copy()
        for yk in y:
            expected = expected @ expm(C * yk) @ D
        assert interarrival_density(model, y) == pytest.approx(expected.sum(), abs=1e-8)


def test_renewal_density_factorizes_over_gaps():
    model = renewal_ph_model()
    y1, y2 = 0.8, 1.7
    joint = interarrival_density(model, [y1, y2])
    f1 = interarrival_density(model, [y1])
    f2 = interarrival_density(model, [y2])
    assert joint == pytest.approx(f1 * f2, abs=1e-8)


def test_density_vanishes_without_arrivals():
    assert interarrival_density(calendar_switch_model(), [1.0]) == 0.0
    assert interarrival_density(calendar_switch_model(), [0.5, 2.0]) == 0.0


def test_negative_gap_rejected():
    with pytest.raises(ValueError):
        interarrival_density(two_state_model(), [-1.0])


def test_first_gap_density_integrates_to_arrival_frequency():
    model = two_state_model()
    t_hi, n_nodes = 50.0, 2001
    y = np.linspace(0.0, t_hi, n_nodes)
    G = survival_profile(model.kernel, y, step=1 / 64)
    D = eval_kernel(model.kernel, 0.0)[1]
    f1 = np.einsum("i,kij,jl->k", model.alpha, G, D)
    mass = float(np.trapezoid(f1, y))
    s1 = arrival_time_samples(model, z=0.0, n_arrivals=1, n_paths=30_000, seed=99)[:, 0]
    freq = float(np.mean(s1 <= t_hi))
    assert abs(mass - freq) < 1.5e-3


# ---------------------------------------------------------------------------
# Arrival operator
# ---------------------------------------------------------------------------


def test_arrival_operator_matches_closed_form():
    got = renewal_operator(two_state_model())
    np.testing.assert_allclose(got.matrix, TWO_STATE_RENEWAL, atol=1e-6)
    assert got.converged
    assert got.tail_bound < 1e-8
    np.testing.assert_allclose(got.matrix.sum(axis=1), np.ones(2), atol=1e-6)


def test_arrival_operator_rank_one_for_renewal_kernels():
    # D(u) = exit_rates(u) x pi, so the duration integral keeps rank one.
    got = renewal_operator(renewal_ph_model())
    s = np.linalg.svd(got.matrix, compute_uv=False)
    assert s[0] > 0.5
    assert s[1] < 1e-8
    rows = got.matrix / got.matrix.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(rows, np.tile([0.6, 0.4], (2, 1)), atol=1e-6)


def test_arrival_operator_zero_when_arrivals_vanish():
    with pytest.warns(TruncationWarning):
        got = renewal_operator(calendar_switch_model())
    np.testing.assert_array_equal(got.matrix, np.zeros((2, 2)))
    assert not got.converged
    assert got.tail_bound == pytest.approx(1.0, abs=1e-9)


def test_arrival_operator_reports_heavy_tails_honestly():
    with pytest.warns(TruncationWarning, match="truncation"):
        got = renewal_operator(pareto_renewal_model())
    assert not got.converged
    assert got.tail_bound > 1e-8  # polynomial tail cannot meet the bound
    # rows approach the routing matrix as the window grows
    np.testing.assert_allclose(
        got.matrix, np.array([[0.3, 0.7], [0.6, 0.4]]), atol=2e-2
    )


# Arrivals on both sides of a jump at u = 1, with different rates and routing.
_JUMP_C = (np.array([[-2.0, 0.5], [0.3, -1.5]]), np.array([[-4.0, 1.0], [1.0, -3.0]]))
_JUMP_D = (np.array([[1.0, 0.5], [0.2, 1.0]]), np.array([[0.5, 2.5], [1.5, 0.5]]))


def _jump_model():
    return FluidModel(
        space=StateSpace(rates=np.array([1.0, -1.0])),
        kernel=piecewise_constant_kernel([1.0], _JUMP_C, _JUMP_D),
        alpha=np.array([1.0, 0.0]),
        sigma=np.zeros(2),
        k_cost=np.zeros((2, 2)),
    )


def test_arrival_operator_closes_intervals_with_the_left_limit_at_a_jump():
    # N = C0^{-1}(e^{C0} - I) D0 + e^{C0} C1^{-1}(e^{C1 (U-1)} - I) D1 on [0, U].
    (C0, C1), (D0, D1), U = _JUMP_C, _JUMP_D, 6.0
    G1 = expm(C0)
    head = np.linalg.solve(C0, G1 - np.eye(2)) @ D0
    tail = G1 @ np.linalg.solve(C1, expm(C1 * (U - 1.0)) - np.eye(2)) @ D1
    with pytest.warns(TruncationWarning):
        got = renewal_operator(_jump_model(), u_max=U)
    np.testing.assert_allclose(got.matrix, head + tail, rtol=0.0, atol=1e-9)
    assert got.tail_bound == pytest.approx(np.max((G1 @ expm(C1 * (U - 1.0))).sum(axis=1)), rel=1e-8)


def _array_only(model):
    """The model with an evaluator that refuses a scalar duration."""
    base = model.kernel

    def fun(u):
        if np.ndim(u) == 0:
            raise AssertionError(f"kernel evaluated at the scalar duration {u!r}")
        return base.fun(u)

    return dataclasses.replace(model, kernel=dataclasses.replace(base, fun=fun))


def test_library_evaluates_kernels_only_on_arrays():
    model = _jump_model()
    strict = _array_only(model)

    def run(m):
        k = m.kernel
        with pytest.warns(TruncationWarning):
            ren = renewal_operator(m, u_max=2.0)
            marginal = iph_marginal(m, 2, 0.7, u_max=2.0)
        return [
            *eval_kernel(k, 0.5),
            *uniformized_kernel(k, 0.3),
            validate_model(m).ok,
            survival_matrix(k, 0.0, 2.0).matrix,
            survival_profile(k, [0.5, 1.0, 2.0]),
            ren.matrix,
            interarrival_density(m, [0.4, 1.2]),
            marginal.density,
        ]

    for got, want in zip(run(strict), run(model)):
        np.testing.assert_array_equal(got, want)


def test_arrival_operator_rejects_bad_window():
    with pytest.raises(ValueError):
        renewal_operator(two_state_model(), u_max=-1.0)


# ---------------------------------------------------------------------------
# Marginal gap laws
# ---------------------------------------------------------------------------


def test_first_marginal_carries_full_initial_mass():
    got = iph_marginal(two_state_model(), n=1, y=0.9)
    assert got.initial_mass == pytest.approx(1.0)
    assert got.converged
    assert got.density == pytest.approx(interarrival_density(two_state_model(), [0.9]), abs=1e-9)


def test_later_marginals_contract_through_the_arrival_operator():
    model = two_state_model()
    C = np.array([[-1.0, 0.9], [0.8, -1.0]])
    y = 1.1
    got = iph_marginal(model, n=2, y=y)
    init = model.alpha @ TWO_STATE_RENEWAL
    expected = init @ expm(C * y) @ (-C) @ np.ones(2)
    assert got.density == pytest.approx(expected, abs=1e-6)
    assert got.initial_mass == pytest.approx(1.0, abs=1e-6)


def test_marginals_vanish_without_arrivals():
    with pytest.warns(TruncationWarning):
        got = iph_marginal(calendar_switch_model(), n=2, y=1.0)
    assert got.density == 0.0
    assert got.initial_mass == 0.0


def test_marginal_argument_validation():
    with pytest.raises(ValueError):
        iph_marginal(two_state_model(), n=0, y=1.0)
    with pytest.raises(ValueError):
        iph_marginal(two_state_model(), n=1, y=-1.0)
