"""First-return and ruin descriptors against the Riccati and Erlang oracles."""

import dataclasses

import numpy as np
import pytest

from fluidrisk import erlangize, eval_kernel_batch, psi, ruin_descriptor
from fluidrisk.gallery import pareto_renewal_model, two_state_model

from _oracles import TWO_STATE_ERLANG_RUIN_U1, TWO_STATE_PSI_03_02


def test_psi_on_the_default_level_grid_matches_the_riccati_value():
    res = psi(two_state_model(), 0.3, 0.2)
    assert res.info["engine"] == "level"
    assert res.converged
    assert res.matrix[0, 0] == pytest.approx(TWO_STATE_PSI_03_02, abs=2e-3)


def test_ruin_extrapolation_cancels_the_level_quadrature_error():
    # One ramp stage makes the ruin value a first return of a three-state
    # model; its exact Erlang(1) value is the oracle.  The raw grid value
    # carries the second-order quadrature error, which the Richardson step
    # over the spacing-halved grid removes.
    exact = TWO_STATE_ERLANG_RUIN_U1[1]
    res = ruin_descriptor(two_state_model(), 1.0, 1, 0.3, 0.2, i0=0)
    assert res.converged and res.info["extrapolated"]
    assert len(res.info["raw_values"]) == 2
    assert len(res.info["iterations"]) == 2
    err = abs(res.value - exact)
    assert err < 1e-5
    assert abs(res.info["raw_values"][0] - exact) >= 100.0 * err


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
