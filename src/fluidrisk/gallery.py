"""Ready-made models used across the tests and the command-line examples.

Each model has one source: its JSON-ready config in :func:`gallery_configs`.
The builders load that config through
:func:`~fluidrisk.model.model_config_from_dict`, so a gallery model is
validated on load exactly as a user config is.
"""

from __future__ import annotations

from .model import FluidModel, model_config_from_dict

__all__ = [
    "two_state_model",
    "mmpp_model",
    "renewal_ph_model",
    "pareto_renewal_model",
    "calendar_switch_model",
    "cross_arrival_model",
    "gallery_models",
    "gallery_configs",
]


def _load(name: str) -> FluidModel:
    return model_config_from_dict(gallery_configs()[name])


def two_state_model() -> FluidModel:
    """Two-state homogeneous benchmark with slightly negative mean drift.

    Rates ``(+1, -1)``, ``C = [[-1, 0.9], [0.8, -1]]``, ``D = diag(0.1, 0.2)``
    and ``gamma = 1``.  The generator ``Q = C + D`` has stationary law
    ``(8, 9)/17``, so the mean drift is ``-1/17`` and first return below the
    initial level is certain but slow — a demanding reference case.
    """
    return _load("two_state")


def mmpp_model() -> FluidModel:
    """Markov-modulated Poisson process: phase changes in ``C``, arrivals in ``D = diag(v)``.

    Three phases with arrival intensities ``v = (2, 0.5, 1)`` riding on the
    irreducible phase generator
    ``Q_phase = [[-1, 0.7, 0.3], [0.4, -1.2, 0.8], [0.5, 0.5, -1]]``, so
    ``C = Q_phase - diag(v)``; fluid rates ``(+1, -1, +0.5)``.
    """
    return _load("mmpp")


def renewal_ph_model() -> FluidModel:
    """Renewal process of phase-type interarrivals: ``D(u) = (-C(u) 1) * pi``.

    Phase-type law with initial vector ``pi = (0.6, 0.4)`` and sub-generator
    ``T = [[-2, 1], [0.5, -1.5]]``; every arrival restarts the phase from
    ``pi``, so consecutive interarrival times are independent.
    """
    return _load("renewal_ph")


def pareto_renewal_model() -> FluidModel:
    """Markov-renewal model with heavy-tailed Pareto sojourns.

    Hazards ``h_i(u) = a_i / (b_i + u)`` decay in the duration, producing
    inter-arrival laws with power tails; arrivals route by a fixed stochastic
    matrix.
    """
    return _load("pareto_renewal")


def calendar_switch_model() -> FluidModel:
    """Arrival-free model whose switching intensities change at fixed times.

    With ``D`` identically zero the duration clock never resets, so the
    kernel argument coincides with calendar time: the chain is a
    time-inhomogeneous Markov jump process with piecewise-constant generator,
    switching regimes at times 1 and 3.
    """
    return _load("calendar_switch")


def cross_arrival_model() -> FluidModel:
    """Homogeneous model whose arrivals can move between rate classes.

    Unlike :func:`two_state_model`, the arrival kernel ``D`` has off-diagonal
    mass, so arrivals themselves can carry the state from the up class to the
    down class — exercising the arrival branch of bridge decompositions.
    """
    return _load("cross_arrival")


def gallery_models() -> dict[str, FluidModel]:
    """All gallery models keyed by name."""
    return {name: model_config_from_dict(conf) for name, conf in gallery_configs().items()}


def gallery_configs() -> dict[str, dict]:
    """JSON-ready configuration mappings of the gallery models.

    These are the models' only definition: every builder above loads its
    entry.  Each call returns fresh mappings, which serve as templates for
    user configs and for exercising the command-line loader.
    """
    return {
        "two_state": {
            "rates": [1.0, -1.0],
            "sigma": [1.0, 0.0],
            "cost_matrix": [[0.5, 0.7], [0.3, 0.4]],
            "alpha": [1.0, 0.0],
            "kernel": {
                "type": "constant",
                "C": [[-1.0, 0.9], [0.8, -1.0]],
                "D": [[0.1, 0.0], [0.0, 0.2]],
                "gamma": 1.0,
            },
        },
        "mmpp": {
            "rates": [1.0, -1.0, 0.5],
            "sigma": [0.5, 0.0, 0.2],
            "cost_matrix": [[0.1, 0.1, 0.1], [0.1, 0.1, 0.1], [0.1, 0.1, 0.1]],
            "alpha": [1.0, 0.0, 0.0],
            "kernel": {
                "type": "constant",
                "C": [[-3.0, 0.7, 0.3], [0.4, -1.7, 0.8], [0.5, 0.5, -2.0]],
                "D": [[2.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 1.0]],
                "gamma": 3.0,
            },
        },
        "renewal_ph": {
            "rates": [1.0, -1.0],
            "sigma": [0.3, 0.0],
            "cost_matrix": [[0.0, 0.0], [0.0, 0.0]],
            "alpha": [0.6, 0.4],
            "kernel": {
                "type": "constant",
                "C": [[-2.0, 1.0], [0.5, -1.5]],
                "D": [[0.6, 0.4], [0.6, 0.4]],
                "gamma": 2.0,
            },
        },
        "pareto_renewal": {
            "rates": [1.0, -1.0],
            "sigma": [0.2, 0.0],
            "cost_matrix": [[0.25, 0.25], [0.25, 0.25]],
            "alpha": [1.0, 0.0],
            "kernel": {
                "type": "pareto_renewal",
                "a": [2.5, 1.8],
                "b": [1.0, 2.0],
                "routing": [[0.3, 0.7], [0.6, 0.4]],
                "gamma": 2.5,
            },
        },
        "calendar_switch": {
            "rates": [1.0, -1.0],
            "sigma": [0.0, 0.0],
            "cost_matrix": [[0.0, 0.0], [0.0, 0.0]],
            "alpha": [1.0, 0.0],
            "kernel": {
                "type": "piecewise_constant",
                "breakpoints": [1.0, 3.0],
                "C_pieces": [
                    [[-0.8, 0.8], [0.6, -0.6]],
                    [[-1.5, 1.5], [0.2, -0.2]],
                    [[-0.4, 0.4], [1.0, -1.0]],
                ],
                "D_pieces": [
                    [[0.0, 0.0], [0.0, 0.0]],
                    [[0.0, 0.0], [0.0, 0.0]],
                    [[0.0, 0.0], [0.0, 0.0]],
                ],
                "gamma": 1.5,
            },
        },
        "cross_arrival": {
            "rates": [1.0, -1.0],
            "sigma": [0.4, 0.0],
            "cost_matrix": [[0.1, 0.6], [0.2, 0.3]],
            "alpha": [0.5, 0.5],
            "kernel": {
                "type": "constant",
                "C": [[-2.0, 0.5], [0.3, -1.0]],
                "D": [[0.5, 1.0], [0.2, 0.5]],
                "gamma": 2.0,
            },
        },
    }
