"""Product-integral survival, interarrival densities, and the arrival operator."""

import dataclasses
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from fluidrisk import (
    FluidModel,
    StateSpace,
    TruncationWarning,
    constant_kernel,
    erlangize,
    eval_kernel,
    eval_kernel_batch,
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
    gallery_models,
    mmpp_model,
    pareto_renewal_model,
    renewal_ph_model,
    two_state_model,
)
from fluidrisk.montecarlo import arrival_time_samples
from fluidrisk.survival import RENEWAL_UMAX_CEILING, _default_step, _renewal_grid

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


_EXACT_SURVIVAL = {
    "two_state": lambda t: expm(np.array([[-1.0, 0.9], [0.8, -1.0]]) * t),
    "mmpp": lambda t: expm(eval_kernel(mmpp_model().kernel, 0.0)[0] * t),
    "pareto_renewal": lambda t: np.diag(pareto_survival(np.array([2.5, 1.8]), np.array([1.0, 2.0]), t)),
}


@pytest.mark.parametrize("name", sorted(_EXACT_SURVIVAL))
def test_error_estimate_bounds_the_actual_error(name):
    kernel = gallery_models()[name].kernel
    for t in (0.1, 0.5, 2.0, 5.0, 20.0, 50.0):
        for step in (None, 0.05, 0.01):
            got = survival_matrix(kernel, 0.0, t, step=step)
            err = np.max(np.abs(got.matrix - _EXACT_SURVIVAL[name](t)))
            assert err <= got.error_estimate, (t, step, err, got.error_estimate)


def test_step_reports_the_widest_step_taken():
    assert survival_matrix(two_state_model().kernel, 0.0, 1.0, step=0.3).step == 0.25
    # Pieces (0, 1], (1, 3], (3, 4] between the jumps at 1 and 3 take 4, 7
    # and 4 steps.
    got = survival_matrix(calendar_switch_model().kernel, 0.0, 4.0, step=0.3)
    assert got.step == pytest.approx(2.0 / 7.0, rel=1e-15)
    assert survival_matrix(two_state_model().kernel, 1.3, 1.3, step=0.3).step == 0.0


def test_survival_profile_matches_pointwise_calls():
    kernel = two_state_model().kernel
    t_grid = np.array([0.0, 0.5, 1.25, 3.0])
    prof = survival_profile(kernel, t_grid, step=1 / 128)
    for k, t in enumerate(t_grid):
        ref = survival_matrix(kernel, 0.0, float(t), step=1 / 128).matrix
        np.testing.assert_allclose(prof[k], ref, atol=1e-10)


def _reference_sweep(kernel, nodes, steps):
    """``G(nodes[0], x)`` at each of ``nodes[1:]``, one RK4 step at a time.

    Each gap is split at the kernel jumps inside it and each piece crossed in
    equal steps no wider than the gap's step, its RK4 nodes kept below the
    piece's right end.
    """
    pieces, reads = [], []
    for a0, b0, h in zip(nodes[:-1], nodes[1:], steps):
        ends = [c for c in kernel.breakpoints if a0 < c < b0] + [b0]
        for a, b in zip([a0] + ends[:-1], ends):
            n = max(1, int(np.ceil((b - a) / h - 1e-12))) if b > a else 0
            x, w = a, (b - a) / max(n, 1)
            for _ in range(n):
                pieces.append((x, w, np.nextafter(b, a)))
                x += w
        reads.append(len(pieces))
    x, w, clamp = np.array(pieces).reshape(-1, 3).T
    at = np.minimum(np.concatenate([x, x + 0.5 * w, x + w]), np.tile(clamp, 3))
    C0, Ch, C1 = eval_kernel_batch(kernel, at)[0].reshape(3, x.size, kernel.p, kernel.p)
    G, out, k = np.eye(kernel.p), [], 0
    for end in reads:
        while k < end:
            h = w[k]
            k1 = G @ C0[k]
            k2 = (G + 0.5 * h * k1) @ Ch[k]
            k3 = (G + 0.5 * h * k2) @ Ch[k]
            k4 = (G + h * k3) @ C1[k]
            G = G + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            k += 1
        out.append(G)
    return np.array(out)


def _reference_renewal(model, u_max, top):
    """Per-interval Simpson sums of ``G(0, s) D(s)`` on the renewal grid up to ``u_max``.

    ``top`` is the largest truncation point tried, which sets the grid.
    """
    kernel = model.kernel
    grid = _renewal_grid(kernel, top, 0.5 * _default_step(kernel, top))
    grid = grid[grid <= u_max]
    span = np.diff(grid)
    nodes = np.empty(2 * grid.size - 1)
    nodes[0::2], nodes[1::2] = grid, grid[:-1] + 0.5 * span
    steps = np.repeat(np.maximum(np.minimum(span, 0.5 / kernel.gamma), 1e-12), 2)
    G = np.concatenate([np.eye(model.p)[None], _reference_sweep(kernel, nodes, steps)])
    D = eval_kernel_batch(kernel, nodes)[1]
    D_left = eval_kernel_batch(kernel, np.nextafter(grid[1:], grid[:-1]))[1]
    N = np.zeros((model.p, model.p))
    for i, h in enumerate(span):
        D_end = D_left[i] if grid[i + 1] in kernel.breakpoints else D[2 * i + 2]
        N += (h / 6.0) * (G[2 * i] @ D[2 * i] + 4.0 * (G[2 * i + 1] @ D[2 * i + 1]) + G[2 * i + 2] @ D_end)
    return N, float(np.max(G[-1].sum(axis=1)))


_SWEEP_MODELS = {
    **gallery_models(),
    "erlang_pareto": erlangize(pareto_renewal_model(), 1.0, 4, 0).model,
    "erlang_calendar": erlangize(calendar_switch_model(), 1.0, 4, 0).model,
}


@pytest.mark.parametrize("name", list(_SWEEP_MODELS))
def test_survival_profile_matches_the_sequential_sweep(name):
    kernel = _SWEEP_MODELS[name].kernel
    # Starts at 0 and repeats nodes.
    t_grid = np.array([0.0, 0.0, 0.3, 0.3, 1.0, 1.7, 2.5, 2.5, 3.0, 4.0])
    ref = _reference_sweep(kernel, np.r_[0.0, t_grid], np.full(t_grid.size, _default_step(kernel, 4.0)))
    np.testing.assert_allclose(survival_profile(kernel, t_grid), ref, rtol=0.0, atol=1e-13)
    # Crosses calendar_switch's jumps at 1 and 3 and stops on one.
    t_grid = np.array([0.5, 2.0, 3.0, 3.5, 5.0])
    ref = _reference_sweep(kernel, np.r_[0.0, t_grid], np.full(t_grid.size, 0.3))
    np.testing.assert_allclose(survival_profile(kernel, t_grid, step=0.3), ref, rtol=0.0, atol=1e-13)
    got = survival_matrix(kernel, 0.5, 5.0, step=0.3).matrix
    np.testing.assert_allclose(got, _reference_sweep(kernel, [0.5, 5.0], [0.3])[0], rtol=0.0, atol=1e-13)
    # Sweeps of 1023, 1024 and 1025 steps, read on both sides of the block end.
    h = 1.0 / 256.0
    for total in (1023, 1024, 1025):
        t_grid = h * np.array([k for k in (1, 1022, 1023, 1024, 1025) if k <= total])
        ref = _reference_sweep(kernel, np.r_[0.0, t_grid], np.full(t_grid.size, h))
        np.testing.assert_allclose(survival_profile(kernel, t_grid, step=h), ref, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("name", list(_SWEEP_MODELS))
def test_arrival_operator_matches_the_sequential_sweep(name):
    model = _SWEEP_MODELS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        windowed = renewal_operator(model, u_max=4.0)
        default = renewal_operator(model)
    for got, top in ((windowed, 4.0), (default, RENEWAL_UMAX_CEILING / model.kernel.gamma)):
        N, tail = _reference_renewal(model, got.u_max, top)
        np.testing.assert_allclose(got.matrix, N, rtol=0.0, atol=1e-13)
        assert got.tail_bound == pytest.approx(tail, rel=0.0, abs=1e-13)


def test_invalid_intervals_rejected():
    kernel = two_state_model().kernel
    with pytest.raises(ValueError):
        survival_matrix(kernel, -0.1, 1.0)
    with pytest.raises(ValueError):
        survival_matrix(kernel, 2.0, 1.0)
    with pytest.raises(ValueError):
        survival_matrix(kernel, 0.0, 1.0, step=-0.5)


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda k: survival_matrix(k, 0.0, INF), "s and t must be finite"),
        (lambda k: survival_matrix(k, 0.0, NAN), "s and t must be finite"),
        (lambda k: survival_matrix(k, NAN, 1.0), "s and t must be finite"),
        (lambda k: survival_matrix(k, 0.0, 1.0, step=NAN), "step must be finite and positive"),
        (lambda k: survival_matrix(k, 0.0, 1.0, step=INF), "step must be finite and positive"),
        (lambda k: survival_profile(k, [NAN, 1.0]), "t_grid must be finite"),
        (lambda k: survival_profile(k, [0.5, INF]), "t_grid must be finite"),
        (lambda k: survival_profile(k, [0.5, 1.0], step=NAN), "step must be finite and positive"),
    ],
    ids=[
        "matrix_infinite_t",
        "matrix_nan_t",
        "matrix_nan_s",
        "matrix_nan_step",
        "matrix_infinite_step",
        "profile_nan_point",
        "profile_infinite_point",
        "profile_nan_step",
    ],
)
def test_survival_operators_reject_non_finite_arguments(call, message):
    # A NaN point compared false with every check: G(0, 1) read as the identity.
    with pytest.raises(ValueError, match=message):
        call(pareto_renewal_model().kernel)


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
    # An infinite window is never reached by the quadrature nodes.
    with pytest.raises(ValueError, match="u_max must be finite and positive"):
        renewal_operator(two_state_model(), u_max=float("inf"))
    with pytest.raises(ValueError, match="step must be finite and positive"):
        renewal_operator(two_state_model(), step=float("nan"))


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
