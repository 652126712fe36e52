"""Monte Carlo samplers: argument validation, closed forms and reproducibility."""

import dataclasses
import itertools

import numpy as np
import pytest

from fluidrisk import montecarlo, simulate, simulate_path, simulate_until_return
from fluidrisk.gallery import gallery_models, two_state_model
from fluidrisk.montecarlo import (
    arrival_time_samples,
    first_return_samples,
    mc_bridge_histogram,
    mc_first_return,
    mc_ruin,
)

from _oracles import TWO_STATE_PSI_03_02, TWO_STATE_RUIN_EXACT_U1


@pytest.mark.parametrize(
    "sample",
    [
        lambda m, **kw: arrival_time_samples(m, 0.0, 1, seed=1, **kw),
        lambda m, **kw: first_return_samples(m, 0.0, 0.0, 0.0, max_epochs=10, seed=1, **kw),
        lambda m, **kw: mc_bridge_histogram(m, 0.0, 2, [0.0, 1.0], [-1.0, 1.0], seed=1, **kw),
    ],
    ids=["arrival_time", "first_return", "bridge_histogram"],
)
@pytest.mark.parametrize(
    "sizes, message",
    [
        ({"n_paths": -3}, "n_paths"),
        ({"n_paths": 0}, "n_paths"),
    ],
)
def test_samplers_reject_nonpositive_sizes(sample, sizes, message):
    # Checked before the walk: numpy would fail on a negative size itself.
    with pytest.raises(ValueError, match=message):
        sample(two_state_model(), **sizes)


def test_samplers_against_the_two_state_closed_forms():
    model = two_state_model()
    est = mc_first_return(model, 0.0, 0.3, 0.2, 20_000, 10_000, seed=11)
    assert abs(est.value - TWO_STATE_PSI_03_02) <= 3.0 * est.std_error
    est = mc_ruin(model, 1.0, 0.0, 20_000, 10_000, seed=12, start_state=0, theta1=0.3, theta2=0.2)
    assert abs(est.value - TWO_STATE_RUIN_EXACT_U1) <= 3.0 * est.std_error


@pytest.mark.parametrize(
    "estimate",
    [
        lambda m, k: mc_first_return(m, 0.0, 0.3, 0.2, 100, 10, seed=1, n_threads=k),
        lambda m, k: mc_ruin(m, 1.0, 0.0, 100, 10, seed=1, n_threads=k),
    ],
    ids=["mc_first_return", "mc_ruin"],
)
@pytest.mark.parametrize("n_threads", [0, 2])
def test_estimators_walk_on_the_calling_thread_only(estimate, n_threads):
    with pytest.raises(ValueError, match="n_threads must be 1"):
        estimate(two_state_model(), n_threads)


@pytest.mark.parametrize(
    "sample",
    [
        lambda m, z: simulate_path(m, z, 1.0, seed=1),
        lambda m, z: simulate_until_return(m, z, 0.0, 0.0, 10, seed=1),
        lambda m, z: first_return_samples(m, z, 0.0, 0.0, 10, 10, seed=1),
        lambda m, z: mc_bridge_histogram(m, z, 2, [0.0, 1.0], [-1.0, 1.0], 10, seed=1),
        lambda m, z: arrival_time_samples(m, z, 1, 10, seed=1),
    ],
    ids=["simulate_path", "simulate_until_return", "first_return", "bridge_histogram", "arrival_time"],
)
def test_samplers_reject_a_negative_initial_duration(sample):
    with pytest.raises(ValueError, match="initial duration"):
        sample(two_state_model(), -1e-9)


#: Every sampler that takes a pinned start state.
PINNED_SAMPLERS = pytest.mark.parametrize(
    "sample",
    [
        lambda m, i: simulate_path(m, 0.0, 1.0, seed=1, start_state=i),
        lambda m, i: simulate_until_return(m, 0.0, 0.0, 0.0, 10, seed=1, start_state=i),
        lambda m, i: first_return_samples(m, 0.0, 0.0, 0.0, 10, 10, seed=1, start_state=i),
        lambda m, i: mc_first_return(m, 0.0, 0.0, 0.0, 100, 10, seed=1, start_state=i),
        lambda m, i: mc_ruin(m, 1.0, 0.0, 100, 10, seed=1, start_state=i),
        lambda m, i: mc_bridge_histogram(m, 0.0, 2, [0.0, 1.0], [-1.0, 1.0], 10, seed=1, start_state=i),
        lambda m, i: arrival_time_samples(m, 0.0, 1, 10, seed=1, start_state=i),
    ],
    ids=[
        "simulate_path",
        "simulate_until_return",
        "first_return",
        "mc_first_return",
        "mc_ruin",
        "bridge_histogram",
        "arrival_time",
    ],
)


@PINNED_SAMPLERS
@pytest.mark.parametrize("start_state", [-1, 2])
def test_samplers_reject_a_start_state_outside_the_state_space(sample, start_state):
    with pytest.raises(ValueError, match="start state must lie in 0..1"):
        sample(two_state_model(), start_state)


@PINNED_SAMPLERS
def test_samplers_reject_a_fractional_start_state(sample):
    # A float is not truncated to state 0: it is not an index at all.
    with pytest.raises(TypeError):
        sample(two_state_model(), 0.5)


@PINNED_SAMPLERS
def test_a_numpy_integer_start_state_gives_the_same_samples(sample):
    def fields(result):
        return vars(result) if dataclasses.is_dataclass(result) else {"samples": result}

    plain, numpy_int = (fields(sample(two_state_model(), i)) for i in (0, np.int64(0)))
    for name, value in plain.items():
        np.testing.assert_array_equal(value, numpy_int[name])


@pytest.mark.parametrize(
    "sample",
    [
        lambda m, t1, t2: simulate_until_return(m, 0.0, t1, t2, 10, seed=1),
        lambda m, t1, t2: first_return_samples(m, 0.0, t1, t2, 10, 10, seed=1),
        lambda m, t1, t2: mc_first_return(m, 0.0, t1, t2, 100, 10, seed=1),
        lambda m, t1, t2: mc_ruin(m, 1.0, 0.0, 100, 10, seed=1, theta1=t1, theta2=t2),
    ],
    ids=["simulate_until_return", "first_return", "mc_first_return", "mc_ruin"],
)
@pytest.mark.parametrize(
    "theta",
    [(-0.5, 0.0), (0.0, -0.5), (float("inf"), 0.0), (0.0, float("inf"))],
    ids=["theta1", "theta2", "theta1_inf", "theta2_inf"],
)
def test_samplers_reject_negative_transform_arguments(sample, theta):
    # A negative theta1 makes each path weight exp(-theta1 * dividends) grow
    # without bound; the samplers refuse it, and an infinite one, as the
    # analytic engines do.
    with pytest.raises(ValueError, match="transform arguments must be nonnegative"):
        sample(two_state_model(), *theta)


@pytest.mark.parametrize(
    "sample, message",
    [
        (lambda m: arrival_time_samples(m, 0.0, 1, 10, 1, max_epochs=0), "max_epochs must be at least 1"),
        (lambda m: arrival_time_samples(m, 0.0, 1, 10, 1, max_epochs=-5), "max_epochs must be at least 1"),
        (lambda m: first_return_samples(m, 0.0, 0.0, 0.0, 10, 1, 1), "max_epochs must be at least 2"),
        (lambda m: mc_ruin(m, 1.0, 0.0, 1000, 1000, 1, horizon=-1.0), "horizon must be positive"),
        (lambda m: mc_ruin(m, 1.0, 0.0, 1000, 1000, 1, horizon=0.0), "horizon must be positive"),
        (lambda m: mc_ruin(m, 1.0, 0.0, 1000, 1000, 1, horizon=float("nan")), "horizon must be positive"),
    ],
    ids=["arrival_time_zero", "arrival_time_negative", "first_return_one", "ruin_negative", "ruin_zero", "ruin_nan"],
)
def test_samplers_reject_runs_too_short_to_sample(sample, message):
    with pytest.raises(ValueError, match=message):
        sample(two_state_model())


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize(
    "sample, message",
    [
        (lambda m: simulate_path(m, NAN, 1.0, seed=1), "initial duration"),
        (lambda m: simulate_path(m, INF, 1.0, seed=1), "initial duration must be nonnegative and finite"),
        (lambda m: simulate_path(m, 0.0, NAN, seed=1), "horizon must be finite and positive"),
        (lambda m: simulate_path(m, 0.0, float("inf"), seed=1), "horizon must be finite and positive"),
        (lambda m: simulate_until_return(m, NAN, 0.0, 0.0, 10, seed=1), "initial duration"),
        (lambda m: first_return_samples(m, NAN, 0.0, 0.0, 10, 10, seed=1), "initial duration"),
        (lambda m: mc_bridge_histogram(m, NAN, 2, [0.0, 1.0], [-1.0, 1.0], 10, seed=1), "initial duration"),
        (lambda m: mc_bridge_histogram(m, INF, 2, [0.0, 1.0], [-1.0, 1.0], 10, seed=1), "initial duration"),
        (lambda m: first_return_samples(m, INF, 0.0, 0.0, 10, 10, seed=1), "initial duration"),
        (lambda m: arrival_time_samples(m, NAN, 1, 10, seed=1), "initial duration"),
        (lambda m: first_return_samples(m, 0.0, 0.0, 0.0, 10, 10, seed=1, barrier_offset=NAN), "barrier offset"),
        (lambda m: mc_ruin(m, NAN, 0.0, 100, 10, seed=1, start_state=0), "initial capital"),
        (lambda m: simulate_until_return(m, 0.0, NAN, 0.0, 10, seed=1), "transform arguments"),
        (lambda m: first_return_samples(m, 0.0, 0.0, NAN, 10, 10, seed=1), "transform arguments"),
        (lambda m: mc_first_return(m, 0.0, NAN, 0.0, 100, 10, seed=1), "transform arguments"),
        (lambda m: mc_ruin(m, 1.0, 0.0, 100, 10, seed=1, theta2=NAN), "transform arguments"),
    ],
    ids=[
        "simulate_path_z",
        "simulate_path_infinite_z",
        "simulate_path_horizon",
        "simulate_path_infinite_horizon",
        "simulate_until_return_z",
        "first_return_z",
        "bridge_histogram_z",
        "bridge_histogram_infinite_z",
        "first_return_infinite_z",
        "arrival_time_z",
        "first_return_barrier",
        "mc_ruin_capital",
        "simulate_until_return_theta1",
        "first_return_theta2",
        "mc_first_return_theta1",
        "mc_ruin_theta2",
    ],
)
def test_samplers_reject_nan_arguments(sample, message):
    # A NaN compares false both ways: a NaN capital or barrier is never
    # reached, so every path would be censored and the estimate read 0 ± 0.
    # An infinite initial duration would walk paths whose durations read inf
    # and then NaN.
    with pytest.raises(ValueError, match=message):
        sample(two_state_model())


@pytest.mark.parametrize(
    "sample",
    [
        lambda m, k: first_return_samples(m, 0.0, 0.0, 0.0, 10, k, seed=1),
        lambda m, k: simulate_until_return(m, 0.0, 0.0, 0.0, k, seed=1),
        lambda m, k: arrival_time_samples(m, 0.0, 1, 10, seed=1, max_epochs=k),
        lambda m, k: mc_bridge_histogram(m, 0.0, k, [0.0, 1.0], [-1.0, 1.0], 10, seed=1),
    ],
    ids=["first_return", "simulate_until_return", "arrival_time", "bridge_histogram"],
)
@pytest.mark.parametrize("count", [2.5, NAN], ids=["fraction", "nan"])
def test_samplers_reject_epoch_counts_that_are_not_integers(sample, count):
    # A stream's epochs are counted in whole epochs; a NaN cap would censor
    # every path after its first epoch.
    with pytest.raises(TypeError):
        sample(two_state_model(), count)


# A sequential reference for the walker: each sampler's epoch loop written out
# on its own, on the shared per-epoch stepper, drawing the same random numbers
# in the same order.  The samplers must reproduce it bit for bit.

GALLERY = gallery_models()


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def _ref_chunks(n_paths, chunk_size, seed):
    for b, lo in enumerate(range(0, n_paths, chunk_size)):
        yield min(chunk_size, n_paths - lo), np.random.default_rng(np.random.SeedSequence((seed, b)))


def _ref_step(model):
    """The shared stepper, drawing its uniforms from ``rng`` and returning the
    new states and the arrival flags."""
    def resolve(states, u, rng):
        k = np.minimum(model._epoch.step(states, u, rng.random(states.size)), 2 * model.p - 1)
        return k % model.p, k >= model.p

    return resolve


def _ref_start(model, rng, m):
    return rng.choice(model.p, size=m, p=model.alpha).astype(np.int64)


def _ref_path(model, z, horizon, seed):
    rng = np.random.default_rng(seed)
    step = _ref_step(model)
    state, t, dur = int(_ref_start(model, rng, 1)[0]), 0.0, float(z)
    rows, arrivals = [(0.0, state, dur, 0.0, 0.0, 0.0)], [0.0]
    while t + (dt := rng.exponential(1.0 / model.gamma)) < horizon:
        t, u = t + dt, dur + dt
        (new,), (arrived,) = step(np.array([state]), np.array([u]), rng)
        _, _, _, level, div, cost = rows[-1]
        cost = cost + (model.k_cost[state, new] if arrived else 0.0)
        rows.append((t, new, u, level + model.rates[state] * dt, div + model.sigma[state] * dt, cost))
        arrivals += [t] if arrived else []
        state, dur = new, 0.0 if arrived else u
    cols = [np.asarray(c) for c in zip(*rows)]
    return cols[:1] + [cols[1].astype(int)] + cols[2:] + [np.asarray(arrivals)]


def _ref_first_return(model, z, theta, m, max_epochs, rng, barrier, start_state=None, w_min=0.0):
    """With ``w_min > 0``, after each segment's hits every path whose weight
    ``w`` (times its roulette factor) is below ``w_min`` draws a uniform, in
    path order; it goes on, carrying ``w_min``, if the uniform is below
    ``w / w_min``, and retires at that epoch with weight 0 otherwise."""
    step = _ref_step(model)
    states0 = _ref_start(model, rng, m) if start_state is None else np.full(m, start_state, np.int64)
    active, states, dur = np.arange(m), states0.copy(), np.full(m, float(z))
    level, div, costs, t, lift = (np.zeros(m) for _ in range(5))
    out = np.zeros(m, np.int64), np.full(m, -1, np.int64), np.zeros(m), np.full(m, np.inf)
    for n in range(1, max_epochs + 1):
        dt = rng.exponential(1.0 / model.gamma, size=active.size)
        s = states[active]
        u = dur[active] + dt
        lvl, dv = level[active] + model.rates[s] * dt, div[active] + model.sigma[s] * dt
        hit = lvl <= -barrier
        i = active[hit]
        out[0][i], out[1][i] = n, s[hit]
        out[2][i] = np.exp(-theta[0] * dv[hit] - theta[1] * costs[i]) * np.exp(lift[i])
        out[3][i] = t[i] + (-barrier - level[i]) / model.rates[s[hit]]
        active, s, dt, u, lvl, dv = (x[~hit] for x in (active, s, dt, u, lvl, dv))
        if w_min > 0.0:
            log_w = -theta[0] * dv - theta[1] * costs[active] + lift[active]
            low = np.flatnonzero(log_w < np.log(w_min))
            if low.size:
                wins = rng.random(low.size) < np.exp(log_w[low] - np.log(w_min))
                lift[active[low[wins]]] += np.log(w_min) - log_w[low[wins]]
                out[0][active[low[~wins]]] = n
                stay = np.ones(active.size, bool)
                stay[low[~wins]] = False
                active, s, dt, u, lvl, dv = (x[stay] for x in (active, s, dt, u, lvl, dv))
        if active.size == 0:
            break
        new, arrived = step(s, u, rng)
        costs[active] += np.where(arrived, model.k_cost[s, new], 0.0)
        dur[active], states[active] = np.where(arrived, 0.0, u), new
        level[active], div[active] = lvl, dv
        t[active] += dt
    return (*out, states0)


def _ref_bridge(model, z, n, m, rng, s_edges, l_edges):
    step = _ref_step(model)
    states = _ref_start(model, rng, m)
    level, dur, low = np.zeros(m), np.full(m, float(z)), np.full(m, np.inf)
    for k in range(1, n + 1):
        dt = rng.exponential(1.0 / model.gamma, size=m)
        u, level = dur + dt, level + model.rates[states] * dt
        if k == n:
            break
        low = np.minimum(low, level)
        states, arrived = step(states, u, rng)
        dur = np.where(arrived, 0.0, u)
    ok = (model.rates[states] < 0.0) & (low >= np.maximum(0.0, level))
    sel = [ok & (states == j) for j in range(model.p)]
    counts = np.stack([np.histogram2d(u[s], level[s], [s_edges, l_edges])[0] for s in sel])
    return counts.astype(np.int64), np.bincount(states[ok], minlength=model.p)


def _ref_arrivals(model, z, n_arrivals, m, max_epochs, rng):
    step = _ref_step(model)
    states = _ref_start(model, rng, m)
    times, n_seen = np.full((m, n_arrivals), np.nan), np.zeros(m, np.int64)
    t, dur, active = np.zeros(m), np.full(m, float(z)), np.arange(m)
    for _ in range(max_epochs):
        if active.size == 0:
            break
        dt = rng.exponential(1.0 / model.gamma, size=active.size)
        u = dur[active] + dt
        t[active] += dt
        states[active], arrived = step(states[active], u, rng)
        dur[active] = np.where(arrived, 0.0, u)
        i = active[arrived]
        times[i, n_seen[i]] = t[i]
        n_seen[i] += 1
        active = active[n_seen[active] < n_arrivals]
    return times


@pytest.mark.parametrize("name", GALLERY)
def test_simulate_path_matches_the_sequential_reference(name):
    model = GALLERY[name]
    for z in (0.0, 0.7):
        for seed in range(3):
            path = simulate_path(model, z, 10.0, seed)
            fields = (path.poisson_epochs, path.states, path.durations, path.fluid,
                      path.dividend_integral, path.jump_costs, path.arrival_epochs)
            for got, want in zip(fields, _ref_path(model, z, 10.0, seed)):
                _same_bits(got, want)


def _ascending(model):
    plus = np.where(model.rates > 0.0, model.alpha, 0.0)
    return model.with_alpha(plus / plus.sum())


@pytest.mark.parametrize("name", GALLERY)
def test_first_return_samples_match_the_sequential_reference(name, monkeypatch):
    monkeypatch.setattr(montecarlo, "_DEFAULT_CHUNK", 128)
    model, theta = GALLERY[name], (0.3, 0.2)
    ascending = _ascending(model)
    for barrier, start_model in ((0.0, ascending), (0.7, model)):
        got = first_return_samples(model, 0.7, *theta, 300, 100, 4, barrier_offset=barrier)
        parts = [_ref_first_return(start_model, 0.7, theta, m, 100, rng, barrier)
                 for m, rng in _ref_chunks(300, 128, 4)]
        fields = ("n_epoch", "exit_state", "weight", "crossing_time", "start_state")
        for k, field in enumerate(fields):
            _same_bits(getattr(got, field), np.concatenate([p[k] for p in parts]))
    # The single-path sampler, drawn and pinned starts, censored at the cap
    # or not: a censored path draws its last holding time and no uniform.
    for start_state in (None, int(model.s_plus[-1])):
        for z in (0.0, 0.7):
            for max_epochs in (2, 5, 100):
                for seed in range(20):
                    one = simulate_until_return(model, z, *theta, max_epochs, seed, start_state)
                    n_epoch, exit_state, weight, _, _ = _ref_first_return(
                        ascending, z, theta, 1, max_epochs, np.random.default_rng(seed), 0.0, start_state
                    )
                    assert (one.returned, one.exit_state, one.n_used) == (
                        n_epoch[0] > 0, exit_state[0], n_epoch[0] or max_epochs
                    )
                    _same_bits(one.weight, weight[0])


def test_a_model_with_another_alpha_draws_from_its_own_ascending_alpha():
    model, theta = GALLERY["mmpp"], (0.3, 0.2)  # rates (1, -1, 0.5), alpha e_0
    simulate_until_return(model, 0.0, *theta, 100, 0)  # the original's start distribution is built
    for alpha in ([0.0, 0.0, 1.0], [0.2, 0.5, 0.3]):
        other = model.with_alpha(alpha)
        for seed in range(20):
            one = simulate_until_return(other, 0.7, *theta, 100, seed)
            n_epoch, exit_state, weight, _, _ = _ref_first_return(
                _ascending(other), 0.7, theta, 1, 100, np.random.default_rng(seed), 0.0
            )
            assert (one.returned, one.exit_state, one.n_used) == (n_epoch[0] > 0, exit_state[0], n_epoch[0] or 100)
            _same_bits(one.weight, weight[0])
    descending = model.with_alpha([0.0, 1.0, 0.0])
    for sample in (
        lambda: simulate_until_return(descending, 0.0, *theta, 100, 0),
        lambda: first_return_samples(descending, 0.0, *theta, 10, 100, 0),
    ):
        with pytest.raises(ValueError, match="alpha has no mass on positive-rate states; specify start_state"):
            sample()


@pytest.mark.parametrize("name", GALLERY)
def test_bridge_histogram_matches_the_sequential_reference(name, monkeypatch):
    monkeypatch.setattr(montecarlo, "_DEFAULT_CHUNK", 128)
    model = GALLERY[name]
    s_edges, l_edges = np.linspace(0.0, 4.0, 9), np.linspace(-3.0, 3.0, 13)
    got = mc_bridge_histogram(model, 0.7, 3, s_edges, l_edges, 300, 6)
    parts = [_ref_bridge(model, 0.7, 3, m, rng, s_edges, l_edges) for m, rng in _ref_chunks(300, 128, 6)]
    _same_bits(got.counts, sum(p[0] for p in parts))
    _same_bits(got.n_hits, sum(p[1] for p in parts))


@pytest.mark.parametrize("name", GALLERY)
def test_arrival_times_match_the_sequential_reference(name, monkeypatch):
    monkeypatch.setattr(montecarlo, "_DEFAULT_CHUNK", 128)
    model = GALLERY[name]
    got = arrival_time_samples(model, 0.7, 3, 300, 7, max_epochs=6)
    want = np.concatenate([_ref_arrivals(model, 0.7, 3, m, 6, rng) for m, rng in _ref_chunks(300, 128, 7)])
    _same_bits(got, want)


# Many small streams: 300 paths in streams of 16 are 19 streams, admitted
# whenever the live set falls to 16 // 8 = 2 paths, so most are admitted
# while others are in mid-walk and each must count its own epochs.  The last
# of them holds 12 paths; 320 paths fill 20 streams to the last path.

SMALL = 16
PATH_COUNTS = pytest.mark.parametrize("n_paths", [300, 320], ids=["short_last_stream", "full_streams"])


@PATH_COUNTS
@pytest.mark.parametrize("max_epochs", [5, 100])
@pytest.mark.parametrize("name", GALLERY)
def test_refilled_first_passage_matches_the_sequential_reference(name, max_epochs, n_paths, monkeypatch):
    model, theta = GALLERY[name], (0.3, 0.2)
    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "_DEFAULT_CHUNK", SMALL)
        for barrier, start_model in ((0.0, _ascending(model)), (0.7, model)):
            got = first_return_samples(model, 0.7, *theta, n_paths, max_epochs, 4, barrier_offset=barrier)
            parts = [_ref_first_return(start_model, 0.7, theta, m, max_epochs, rng, barrier)
                     for m, rng in _ref_chunks(n_paths, SMALL, 4)]
            fields = ("n_epoch", "exit_state", "weight", "crossing_time", "start_state")
            for k, field in enumerate(fields):
                _same_bits(getattr(got, field), np.concatenate([p[k] for p in parts]))
    # The estimators walk one stream of the default size, with the roulette;
    # mc_ruin's horizon only filters.
    w_min = montecarlo.ROULETTE_W_MIN
    est = mc_ruin(model, 0.7, 0.7, n_paths, max_epochs, 9, theta1=0.3, theta2=0.2, horizon=5.0)
    (_, rng), = _ref_chunks(n_paths, 1 << 14, 9)
    _, _, weight, t_cross, _ = _ref_first_return(model, 0.7, theta, n_paths, max_epochs, rng, 0.7, w_min=w_min)
    values = np.where(t_cross <= 5.0, weight, 0.0)
    _same_bits(est.value, values.mean())
    _same_bits(est.std_error, values.std(ddof=1) / np.sqrt(n_paths))
    est = mc_first_return(model, 0.7, *theta, n_paths, max_epochs, 9)
    (_, rng), = _ref_chunks(n_paths, 1 << 14, 9)
    n_epoch, exit_state, weight, _, _ = _ref_first_return(
        _ascending(model), 0.7, theta, n_paths, max_epochs, rng, 0.0, w_min=w_min
    )
    _same_bits(est.value, weight.mean())
    _same_bits(est.std_error, weight.std(ddof=1) / np.sqrt(n_paths))
    assert est.censored_fraction == np.mean(n_epoch == 0)
    assert est.rouletted_fraction == np.mean((n_epoch > 0) & (exit_state < 0))


@PATH_COUNTS
@pytest.mark.parametrize("max_epochs", [5, 100])
@pytest.mark.parametrize("name", GALLERY)
def test_refilled_arrival_times_match_the_sequential_reference(name, max_epochs, n_paths, monkeypatch):
    monkeypatch.setattr(montecarlo, "_DEFAULT_CHUNK", SMALL)
    model = GALLERY[name]
    got = arrival_time_samples(model, 0.7, 3, n_paths, 7, max_epochs=max_epochs)
    want = [_ref_arrivals(model, 0.7, 3, m, max_epochs, rng) for m, rng in _ref_chunks(n_paths, SMALL, 7)]
    _same_bits(got, np.concatenate(want))


@PATH_COUNTS
@pytest.mark.parametrize("n", [2, 5])
@pytest.mark.parametrize("name", GALLERY)
def test_refilled_bridge_histogram_matches_the_sequential_reference(name, n, n_paths, monkeypatch):
    monkeypatch.setattr(montecarlo, "_DEFAULT_CHUNK", SMALL)
    model = GALLERY[name]
    s_edges, l_edges = np.linspace(0.0, 4.0, 9), np.linspace(-3.0, 3.0, 13)
    got = mc_bridge_histogram(model, 0.7, n, s_edges, l_edges, n_paths, 6)
    parts = [_ref_bridge(model, 0.7, n, m, rng, s_edges, l_edges) for m, rng in _ref_chunks(n_paths, SMALL, 6)]
    _same_bits(got.counts, sum(p[0] for p in parts))
    _same_bits(got.n_hits, sum(p[1] for p in parts))


def test_the_live_set_is_refilled_and_stays_bounded(monkeypatch):
    # Record the live paths and streams at every epoch of one walk.
    seen = []
    segment = simulate._Walk.segment

    def recording(walk):
        seen.append((walk.idx.size, len(walk._sizes)))
        segment(walk)

    monkeypatch.setattr(simulate._Walk, "segment", recording)
    monkeypatch.setattr(montecarlo, "_DEFAULT_CHUNK", 64)
    got = first_return_samples(two_state_model(), 0.0, 0.3, 0.2, 2000, 1000, 3)
    live, streams = np.array(seen).T
    assert live.max() <= 64 + 64 // 8
    assert streams.max() > 1  # a stream was admitted while another was walking
    # Walked one after another, each stream would take as many epochs as its
    # last path to return (or all 1000 when one is censored).
    epochs = np.where(got.n_epoch > 0, got.n_epoch, 1000)
    one_by_one = sum(epochs[lo:lo + 64].max() for lo in range(0, 2000, 64))
    assert len(seen) < one_by_one / 2


# The tail: once no stream is queued and at most ``simulate.TAIL_PATHS``
# paths are live, ``_walk_to_barrier`` finishes them in Python floats.
# Streams of 16 admitted whenever at most 16 paths are live leave stragglers
# of several streams live at the handover.


@pytest.mark.parametrize("name", GALLERY)
def test_the_python_float_tail_matches_the_sequential_reference(name, monkeypatch):
    handed = []  # per handover: the streams' live path numbers
    floats = simulate._Walk.floats

    def recording(walk):
        streams = floats(walk)
        handed.append([[path[0] for path in paths] for _, _, paths in streams])
        return streams

    monkeypatch.setattr(simulate._Walk, "floats", recording)
    monkeypatch.setattr(montecarlo, "_DEFAULT_CHUNK", SMALL)
    model, theta = GALLERY[name], (0.3, 0.2)
    returned = censored = rouletted = most_streams = 0
    # w_min: the plain walk, and a roulette at a threshold that these short
    # walks reach in their tails.
    for w_min, (barrier, start_model), start_state, max_epochs in itertools.product(
        (0.0, 0.5), ((0.0, _ascending(model)), (0.7, model)), (None, int(model.s_plus[-1])), (10, 100)
    ):
        cdf = simulate._first_passage_alpha(model, 0.7, *theta, max_epochs, start_state, barrier)
        out = np.zeros(300, np.int64), np.full(300, -1, np.int64), np.zeros(300), np.full(300, np.inf)
        starts = np.empty(300, np.int64)
        handed.clear()
        walk = simulate._Walk(model, 0.7, montecarlo._streams(300, 4), start_state, cdf, SMALL, starts)
        simulate._walk_to_barrier(walk, model.rates, *theta, max_epochs, barrier, out, w_min)
        parts = [_ref_first_return(start_model, 0.7, theta, m, max_epochs, rng, barrier, start_state, w_min)
                 for m, rng in _ref_chunks(300, SMALL, 4)]
        for k, got in enumerate((*out, starts)):
            _same_bits(got, np.concatenate([p[k] for p in parts]))
        tail = [i for streams in handed for ids in streams for i in ids]
        returned += np.count_nonzero(out[1][tail] >= 0)
        censored += np.count_nonzero(out[0][tail] == 0)
        rouletted += np.count_nonzero((out[0][tail] > 0) & (out[1][tail] < 0))
        most_streams = max([most_streams] + [len(streams) for streams in handed])
    # The tail finished paths that returned, paths censored at the cap and,
    # unless every weight is 1, paths the roulette retired; and it took over
    # stragglers of more than one stream.
    assert returned and censored and most_streams >= 2
    assert bool(rouletted) == bool(model.sigma.any() or model.k_cost.any())


# The weight roulette of mc_first_return and mc_ruin.


def test_rouletted_paths_are_not_censored():
    model, theta = two_state_model(), (0.3, 0.2)
    for u, start_state in ((0.0, None), (1.0, 0)):
        samples = first_return_samples(
            model, 0.0, *theta, 20_000, 10_000, 3, start_state=start_state,
            barrier_offset=u, w_min=montecarlo.ROULETTE_W_MIN,
        )
        returned = samples.exit_state >= 0
        retired = (samples.n_epoch > 0) & ~returned
        assert retired.any()
        # A retired path is reported at the epoch it was retired at.
        assert np.all(samples.weight[retired] == 0.0) and np.all(samples.crossing_time[retired] == np.inf)
        assert samples.censored_fraction == 0.0
        assert abs(returned.mean() + samples.censored_fraction + samples.rouletted_fraction - 1.0) <= 1e-12
        est = mc_ruin(model, u, 0.0, 20_000, 10_000, 3, start_state=start_state, theta1=0.3, theta2=0.2)
        assert (est.censored_fraction, est.rouletted_fraction) == (0.0, samples.rouletted_fraction)


def test_roulette_estimators_against_the_two_state_closed_forms():
    # Unbiased, and about as precise as the exact weights of the plain walk.
    model, theta, n = two_state_model(), (0.3, 0.2), 400_000
    for estimate, plain, exact in (
        (
            lambda: mc_first_return(model, 0.0, *theta, n, 10_000, seed=21),
            lambda: first_return_samples(model, 0.0, *theta, n, 10_000, seed=21),
            TWO_STATE_PSI_03_02,
        ),
        (
            lambda: mc_ruin(model, 1.0, 0.0, n, 10_000, seed=22, start_state=0, theta1=0.3, theta2=0.2),
            lambda: first_return_samples(model, 0.0, *theta, n, 10_000, seed=22, start_state=0, barrier_offset=1.0),
            TWO_STATE_RUIN_EXACT_U1,
        ),
    ):
        est, weight = estimate(), plain().weight
        assert est.rouletted_fraction > 0.05
        assert abs(est.value - exact) <= 3.0 * est.std_error
        assert est.std_error <= 1.05 * weight.std(ddof=1) / np.sqrt(n)


@pytest.mark.parametrize("name", GALLERY)
def test_roulette_estimators_at_theta_zero_are_the_plain_walk(name):
    # Every weight is 1, so the roulette never draws.
    model = GALLERY[name]
    for estimate, plain in (
        (
            lambda: mc_first_return(model, 0.7, 0.0, 0.0, 2_000, 200, seed=5),
            lambda: first_return_samples(model, 0.7, 0.0, 0.0, 2_000, 200, seed=5),
        ),
        (
            lambda: mc_ruin(model, 1.0, 0.7, 2_000, 200, seed=5),
            lambda: first_return_samples(model, 0.7, 0.0, 0.0, 2_000, 200, seed=5, barrier_offset=1.0),
        ),
    ):
        est, weight = estimate(), plain().weight
        _same_bits(est.value, weight.mean())
        _same_bits(est.std_error, weight.std(ddof=1) / np.sqrt(weight.size))
        assert est.rouletted_fraction == 0.0


@pytest.mark.parametrize("w_min", [NAN, -1e-3, 1.0, 2.0], ids=["nan", "negative", "one", "above_one"])
def test_first_return_samples_reject_a_roulette_threshold_outside_zero_one(w_min, monkeypatch):
    monkeypatch.setattr(montecarlo, "_streams", lambda *args: pytest.fail("a stream was drawn"))
    with pytest.raises(ValueError, match="w_min"):
        first_return_samples(two_state_model(), 0.0, 0.3, 0.2, 100, 10, seed=1, w_min=w_min)
