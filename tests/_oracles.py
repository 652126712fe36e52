"""Independent reference computations for the test suite.

Everything here is derived by routes disjoint from the recursion and
quadrature engines under test: dense matrix algebra on the duration-free
generator blocks (Sylvester iterations for the first-passage Riccati
equation, matrix exponentials for level passage), closed-form distribution
functions, hand-derived constants for the two-state benchmark whose
arithmetic is reproduced in comments, and Monte Carlo references committed
with the call, seed and path count that produced them.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm, solve_sylvester

# ---------------------------------------------------------------------------
# Hand-derived constants for the two-state benchmark
# (rates (+1, -1), C = [[-1, .9], [.8, -1]], D = diag(.1, .2), gamma = 1,
#  start state 0, initial duration 0)
# ---------------------------------------------------------------------------

# Mean drift: Q = C + D has stationary law pi solving pi Q = 0:
#   pi = (8, 9) / 17, drift = pi . r = (8 - 9) / 17 = -1/17.
TWO_STATE_DRIFT = -1.0 / 17.0

# Arrival operator N = (-C)^{-1} D:
#   -C = [[1, -0.9], [-0.8, 1]], det = 1 - 0.72 = 0.28,
#   (-C)^{-1} = [[1, 0.9], [0.8, 1]] / 0.28,
#   N = [[0.1, 0.18], [0.08, 0.2]] / 0.28.
TWO_STATE_RENEWAL = np.array([[0.1, 0.18], [0.08, 0.2]]) / 0.28

# First-return mass at the second epoch (start state 0, level 0):
# the path must hold in state 0 for E1 ~ Exp(1), take the one C-type jump to
# state 1 (uniformized probability Cbar[0,1] = 0.9), then descend for
# E2 ~ Exp(1) far enough that the level E1 - E2 is <= 0:
#   P = 0.9 * P(E2 >= E1) = 0.9 * 1/2 = 0.45.
TWO_STATE_BRIDGE2_MASS = 0.45

# First-return mass at the third epoch.  Two state sequences reach epoch 3 in
# state 1 with the interior epoch strictly above the start:
#   0 -> 0 -> 1 (self-arrival then switch): weight 0.1 * 0.9,
#     needs E3 >= E1 + E2;      P = 1/4  (two independent exponentials),
#   0 -> 1 -> 1 (switch then self-arrival): weight 0.9 * 0.2,
#     needs E2 <= E1 <= E2 + E3; P = 1/4.
#   total = 0.09 * 0.25 + 0.18 * 0.25 = 0.0675.
TWO_STATE_BRIDGE3_MASS = 0.0675

# Full-plane two-epoch bridge frequency (no sign restriction on the final
# level): the only requirement is a descending final segment, so the mass is
# the one-step probability of ending epoch 1 in state 1:
#   (Cbar + Dbar)[0, 1] = 0.9.
TWO_STATE_BRIDGE2_FULLPLANE = 0.9

# Exact transform values at (theta1, theta2) = (0.3, 0.2), from the scalar
# Riccati quadratic below (reproduced to 13 digits by riccati_descriptor):
TWO_STATE_PSI_03_02 = 0.5751688436617369
TWO_STATE_RUIN_EXACT_U1 = 0.4031956721928180  # psi * exp(Khat * 1)
TWO_STATE_ERLANG_RUIN_U1 = {
    1: 0.4244031617557272,
    4: 0.4092477388639054,
    16: 0.4047656307701864,
}


def two_state_psi_scalar(theta1: float, theta2: float) -> float:
    """Closed-form first-return transform of the two-state benchmark.

    With one state per rate class the Riccati equation is a scalar
    quadratic.  Writing T = diag(1/|r|) (C + e^{-theta2 K} o D - theta1
    diag(sigma)) and a = T[1,0], b = T[0,0] + T[1,1], c = T[0,1]:

        a psi^2 + b psi + c = 0,  psi = (-b - sqrt(b^2 - 4ac)) / (2a),

    taking the minimal root.  For this model |r| = (1, 1), D is diagonal and
    sigma = (1, 0), so
        a = 0.8,
        b = -2 - theta1 + 0.1 e^{-0.5 theta2} + 0.2 e^{-0.4 theta2},
        c = 0.9.
    At theta = (0.3, 0.2): b = -2.0248929889190768 and psi = 0.57516884366.
    """
    a = 0.8
    b = -2.0 - theta1 + 0.1 * np.exp(-0.5 * theta2) + 0.2 * np.exp(-0.4 * theta2)
    c = 0.9
    disc = b * b - 4.0 * a * c
    return float((-b - np.sqrt(disc)) / (2.0 * a))


# ---------------------------------------------------------------------------
# Dense-matrix first-passage references for duration-free models
# ---------------------------------------------------------------------------


def _constant_blocks(model):
    if not model.kernel.is_constant:
        raise ValueError("reference computations require a duration-free kernel")
    C, D = model.kernel.constant
    return np.asarray(C, dtype=float), np.asarray(D, dtype=float)


def weighted_generator(model, theta1: float = 0.0, theta2: float = 0.0) -> np.ndarray:
    """Transform-weighted generator C + e^{-theta2 K} o D - theta1 diag(sigma).

    Dividends accrue at rate sigma while the path occupies a state, acting as
    killing at rate theta1 sigma; each arrival i -> k carries the factor
    e^{-theta2 K[i, k]}.  Phase changes (C-type epochs) are costless.
    """
    C, D = _constant_blocks(model)
    kappa = np.exp(-theta2 * model.k_cost)
    return C + kappa * D - theta1 * np.diag(model.sigma)


def riccati_descriptor(
    model,
    theta1: float = 0.0,
    theta2: float = 0.0,
    tol: float = 1e-13,
    max_iter: int = 200_000,
) -> np.ndarray:
    """First-return transform matrix by Sylvester iteration on the Riccati
    equation of the rate-scaled weighted generator.

    With T = diag(1/|r|) Q_theta partitioned by rate sign, the minimal
    nonnegative solution of

        T_pp Psi + Psi T_mm + T_pm + Psi T_mp Psi = 0

    is the limit of Psi_{k+1} = sylvester(T_pp, T_mm, -(T_pm + Psi_k T_mp
    Psi_k)) from Psi_0 = 0, which increases monotonically entrywise.
    """
    Q = weighted_generator(model, theta1, theta2)
    T = Q / np.abs(model.rates)[:, None]
    ip, im = model.s_plus, model.s_minus
    Tpp = T[np.ix_(ip, ip)]
    Tpm = T[np.ix_(ip, im)]
    Tmp = T[np.ix_(im, ip)]
    Tmm = T[np.ix_(im, im)]
    psi = np.zeros((ip.size, im.size))
    for _ in range(max_iter):
        nxt = solve_sylvester(Tpp, Tmm, -(Tpm + psi @ Tmp @ psi))
        if np.abs(nxt - psi).max() < tol:
            return nxt
        psi = nxt
    raise RuntimeError("Riccati iteration did not converge")


def descent_generator(
    model, theta1: float = 0.0, theta2: float = 0.0, psi: np.ndarray | None = None
) -> np.ndarray:
    """Generator of the downward level-passage record on descending states.

    Per unit of level descended the record either keeps descending (T_mm) or
    flips upward and must first return to the departure level (T_mp Psi):
    Khat = T_mm + T_mp Psi.
    """
    if psi is None:
        psi = riccati_descriptor(model, theta1, theta2)
    Q = weighted_generator(model, theta1, theta2)
    T = Q / np.abs(model.rates)[:, None]
    ip, im = model.s_plus, model.s_minus
    return T[np.ix_(im, im)] + T[np.ix_(im, ip)] @ psi


def ruin_exact(model, u: float, theta1: float = 0.0, theta2: float = 0.0) -> np.ndarray:
    """Exact ruin transform matrix from capital u: Psi e^{Khat u}.

    Entry (i, j) weights paths from ascending state i at level u that first
    return to level u (Psi), then pass the remaining u units of level
    downward (e^{Khat u}), hitting zero in descending state j.
    """
    psi = riccati_descriptor(model, theta1, theta2)
    khat = descent_generator(model, theta1, theta2, psi)
    return psi @ expm(khat * u)


def erlang_ruin_exact(
    model, u: float, n: int, theta1: float = 0.0, theta2: float = 0.0
) -> np.ndarray:
    """Ruin transform from Erlang(n, n/u)-randomized capital.

    The randomized height H has matrix transform E[e^{Khat H}] =
    (I - (u/n) Khat)^{-n} (the Erlang moment generating function evaluated at
    the descent generator, finite because Khat has spectrum in the left half
    plane), so the value is Psi (I - (u/n) Khat)^{-n}.
    """
    psi = riccati_descriptor(model, theta1, theta2)
    khat = descent_generator(model, theta1, theta2, psi)
    m = khat.shape[0]
    core = np.linalg.matrix_power(np.linalg.inv(np.eye(m) - (u / n) * khat), n)
    return psi @ core


# ---------------------------------------------------------------------------
# Distribution helpers
# ---------------------------------------------------------------------------


def ks_statistic(samples: np.ndarray, cdf) -> float:
    """Two-sided Kolmogorov-Smirnov statistic of samples against a CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    f = np.asarray(cdf(x), dtype=float)
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))


def ks_critical(n: int, alpha: float = 0.01) -> float:
    """Asymptotic two-sided KS critical value sqrt(-ln(alpha/2) / 2) / sqrt(n)."""
    return float(np.sqrt(-0.5 * np.log(alpha / 2.0)) / np.sqrt(n))


def ph_cdf(pi: np.ndarray, T: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Phase-type CDF 1 - pi e^{Tx} 1 evaluated on an array of points."""
    pi = np.asarray(pi, dtype=float)
    T = np.asarray(T, dtype=float)
    return np.array([1.0 - pi @ expm(T * float(v)) @ np.ones(T.shape[0]) for v in x])


def pareto_survival(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Survival (b / (b + x))^a of the first event under hazard a / (b + u)."""
    x = np.asarray(x, dtype=float)
    return (b / (b + x)) ** a


# ---------------------------------------------------------------------------
# Monte Carlo references, sampled once with the calls shown
# ---------------------------------------------------------------------------

# Ruin from Erlang(n, n)-distributed capital (mean u = 1) entering state 0, at
# (theta1, theta2) = (0.3, 0.2), on the duration-dependent gallery models.  It
# is the first return of the erlangized model from its first ramp stage, and
# each entry is (value, std_error, n_paths) of
#   mc_first_return(erlangize(model, 1.0, n, 0).model, 0.0, 0.3, 0.2,
#                   n_paths, 10_000, seed=11, start_state=0).
# About 31% of calendar_switch paths reach max_epochs.  They count as no
# return: they escape upward in the last regime (t >= 3), whose drift is
# positive.
ERLANG_RUIN_MC = {
    ("pareto_renewal", 1): (0.7466976144002218, 0.00033752601584449216, 400_000),
    ("pareto_renewal", 4): (0.7422386391427017, 0.00033288070295676346, 400_000),
    ("pareto_renewal", 16): (0.7409170147147578, 0.00033154192935976756, 400_000),
    ("calendar_switch", 1): (0.68959, 0.0014630713327713205, 100_000),
    ("calendar_switch", 4): (0.69383, 0.0014575049070948412, 100_000),
    ("calendar_switch", 16): (0.69801, 0.0014518751593765849, 100_000),
}
