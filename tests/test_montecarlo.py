"""Monte Carlo samplers: argument validation."""

import pytest

from fluidrisk.gallery import two_state_model
from fluidrisk.montecarlo import (
    arrival_time_samples,
    first_return_samples,
    mc_bridge_histogram,
)


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
