"""Monte Carlo samplers: argument validation, closed forms and reproducibility."""

import numpy as np
import pytest

from fluidrisk import simulate_path, simulate_until_return
from fluidrisk.gallery import two_state_model
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
        ({"n_paths": 10, "chunk_size": 0}, "chunk_size"),
    ],
)
def test_samplers_reject_nonpositive_sizes(sample, sizes, message):
    with pytest.raises(ValueError, match=message):
        sample(two_state_model(), **sizes)


def test_samplers_against_the_two_state_closed_forms():
    model = two_state_model()
    est = mc_first_return(model, 0.0, 0.3, 0.2, 20_000, 10_000, seed=11)
    assert abs(est.value - TWO_STATE_PSI_03_02) <= 3.0 * est.std_error
    est = mc_ruin(model, 1.0, 0.0, 20_000, 10_000, seed=12, start_state=0, theta1=0.3, theta2=0.2)
    assert abs(est.value - TWO_STATE_RUIN_EXACT_U1) <= 3.0 * est.std_error


def test_thread_count_does_not_change_samples():
    args = (two_state_model(), 0.0, 0.3, 0.2, 1000, 10_000, 5)
    one = first_return_samples(*args, chunk_size=300, n_threads=1)
    two = first_return_samples(*args, chunk_size=300, n_threads=2)
    for field in ("n_epoch", "exit_state", "weight", "crossing_time", "start_state"):
        np.testing.assert_array_equal(getattr(one, field), getattr(two, field))


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


@pytest.mark.parametrize(
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
@pytest.mark.parametrize("start_state", [-1, 2])
def test_samplers_reject_a_start_state_outside_the_state_space(sample, start_state):
    with pytest.raises(ValueError, match="start state must lie in 0..1"):
        sample(two_state_model(), start_state)
