"""The three benchmark workloads: their calls, references and tolerances.

Each workload is a closed loop: one caller makes the calls below in a fixed
order, each starting when the previous one returns.  A *case* is one row of
a workload; it is one library call, except ``simulate_until_return``, whose
2,000 calls form one case checked on their mean weight.

Why these workloads:

* ``duration_free`` runs only the duration-free engines in ``homogeneous``
  (FFT convolutions and fixed-point sweeps, 5 to 265 sweeps per solve).
  Fixed-point acceleration and per-sweep cost show here; the generic
  bridge engine, the survival integrator and the samplers are not used.
* ``duration_dependent`` runs only the generic bridge engine in ``bridge``
  and the RK4 integrator in ``survival`` with scalar ``eval_kernel`` calls.
  Per-order loops and kernel-evaluation cost show here; the level engine
  is not used.
* ``monte_carlo`` asks first-return and ruin questions by sampling
  (``montecarlo`` and ``simulate``): many small kernel batches at random
  durations instead of one batch per grid.

Tolerances.  A deterministic output passes when ``|value - reference|`` is
at most its case tolerance (``tolerance``): 1.5 times the error measured at
the commit that introduced this benchmark (``seed_error``), plus five
standard errors of a Monte Carlo reference, rounded up.  A Monte Carlo output passes
within ``MC_BAND`` combined standard errors of its reference.  At five
standard errors a correct sampler fails one check in about 1.7 million, so
over hundreds of runs the failure count does not change by chance.
"""

from __future__ import annotations

# numpy and fluidrisk are imported inside functions, so that the timed set-up
# of a run includes their import.
import contextlib
import csv
import io
import json
import math
import shutil
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

#: Monte Carlo checks pass within this many combined standard errors.
MC_BAND = 5.0
#: No tolerance is tighter than this: below it, reordered floating-point sums
#: would fail a correct change.
TOL_FLOOR = 1e-12

#: Paths per Monte Carlo call, and ``simulate_until_return`` calls per pass.
MC_PATHS = 100_000
MC_MAX_EPOCHS = 10_000
SIM_CALLS = 2_000
#: The smoke size (self-tests) divides these counts by ``SMOKE_DIVISOR``.
SMOKE_DIVISOR = 50

THETA = (0.3, 0.2)
PSI_MODELS = ("two_state", "mmpp", "renewal_ph", "cross_arrival")
PSI_THETA1 = (0.1, 1.0)
PSI_THETA2 = 0.2

@dataclass(frozen=True)
class KnownDefect:
    """A failure of the library expected until the cited ROADMAP item lands,
    recorded by its symptom: the call's output and the checked value.

    A failing case whose output and value match the symptom counts in
    ``failed`` and ``failed_frac`` like any other failure, but does not make
    a run incorrect.  Any other failure of the case (a raise, another
    output, another value) does."""

    reason: str
    output: object
    value: float
    value_tol: float

    def matches(self, output, outcome: "Outcome") -> bool:
        return (
            output == self.output
            and outcome.value is not None
            and abs(outcome.value - self.value) <= self.value_tol
        )


KNOWN_DEFECTS = {
    "cli.first_return.two_state.theta0": KnownDefect(
        reason="ROADMAP item 4: the certain-return mass comes out as 1.00706 > 1 with exit 0",
        output=0,  # the exit code
        value=1.0070625,
        value_tol=1e-5,
    ),
}


@dataclass
class Outcome:
    """The check of one case's output against its reference."""

    ok: bool
    value: float | None = None
    reference: float | None = None
    error: float | None = None
    tolerance: float | None = None
    note: str = ""
    deterministic: bool = True


@dataclass
class Case:
    """One timed call (or batch of calls) of a workload, with its check."""

    name: str
    kind: str  # the end-to-end time bucket: psi, ruin, bridge, ...
    run: Callable[[int], object]  # receives the case's Monte Carlo seed
    check: Callable[[object], Outcome]
    seed_error: float | None = None
    paths: int = 0  # Monte Carlo paths finished per call, for mc_paths_per_s


def _within(value: float, reference: float, tolerance: float, note: str = "") -> Outcome:
    err = abs(value - reference)
    ok = math.isfinite(value) and err <= tolerance
    if not ok:
        note = (note + "; " if note else "") + f"|error| {err:.3e} above tolerance {tolerance:.3e}"
    return Outcome(ok, value, reference, err, tolerance, note)


def _probabilities(arr) -> str:
    """Empty when every entry is a probability, else a note."""
    import numpy as np

    a = np.asarray(arr, dtype=float)
    if not np.all(np.isfinite(a)):
        return "non-finite value"
    if a.min() < 0.0 or a.max() > 1.0:
        return f"probability outside [0, 1]: range [{a.min():.6g}, {a.max():.6g}]"
    return ""


def _fail_on(outcome: Outcome, note: str) -> Outcome:
    if note:
        outcome.ok = False
        outcome.note = note + ("; " + outcome.note if outcome.note else "")
    return outcome


def tolerance(seed_error: float, ref_std_error: float = 0.0) -> float:
    """A case tolerance: 1.5 times the seed's error, plus ``MC_BAND`` standard
    errors of a Monte Carlo reference, at least ``TOL_FLOOR``, rounded up to
    two significant digits."""
    tol = max(1.5 * seed_error + MC_BAND * ref_std_error, TOL_FLOOR)
    scale = 10.0 ** (math.floor(math.log10(tol)) - 1)
    return float(f"{math.ceil(tol / scale) * scale:.2g}")


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)["references"]


def mc_seed(seed: int, pass_index: int, case_index: int) -> int:
    """The Monte Carlo seed of one case in one pass, derived from the run seed."""
    import numpy as np

    return int(np.random.SeedSequence([seed, pass_index, case_index]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Monte Carlo references without a closed form
# ---------------------------------------------------------------------------


def reference_pareto_psi_by_epoch8(n_paths: int, seed: int) -> tuple[float, float]:
    """E[weight; return by epoch 8] for pareto_renewal from state 0 at (0.3, 0.2)."""
    import fluidrisk as fr

    s = fr.first_return_samples(
        fr.pareto_renewal_model(), 0.0, *THETA, n_paths, 8, seed, start_state=0
    )
    return float(s.weight.mean()), float(s.weight.std(ddof=1) / math.sqrt(n_paths))


def reference_calendar_return_by_2(n_paths: int, seed: int) -> tuple[float, float]:
    """P(some Poisson epoch before time 2 sits at or below the start level),
    calendar_switch from state 0, by ``simulate_path``."""
    import fluidrisk as fr

    model = fr.calendar_switch_model()
    hits = 0
    for k in range(n_paths):
        path = fr.simulate_path(model, 0.0, 2.0, [seed, k], start_state=0)
        hits += bool((path.fluid[1:] <= 0.0).any())
    p = hits / n_paths
    return p, math.sqrt(p * (1.0 - p) / n_paths)


def reference_pareto_first_return(n_paths: int, seed: int) -> tuple[float, float]:
    """``mc_first_return(pareto_renewal, 0, 0.3, 0.2, n, 10_000, seed)``."""
    import fluidrisk as fr

    est = fr.mc_first_return(fr.pareto_renewal_model(), 0.0, *THETA, n_paths, MC_MAX_EPOCHS, seed)
    return est.value, est.std_error


MC_REFERENCES = {
    "pareto_psi_by_epoch8": reference_pareto_psi_by_epoch8,
    "calendar_return_by_2": reference_calendar_return_by_2,
    "pareto_first_return": reference_pareto_first_return,
}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Set-up (timed as ``setup_s``) in ``__init__``; references and cases after."""

    name = ""

    def __init__(self, work_dir: Path, smoke: bool = False):
        import fluidrisk as fr

        self.fr = fr
        self.work_dir = Path(work_dir)
        self.smoke = smoke
        self.models = fr.gallery_models()

    def references(self) -> None:
        """Compute the oracle values; not part of set-up or of any pass."""

    def cases(self) -> list[Case]:
        raise NotImplementedError


class DurationFree(Workload):
    name = "duration_free"

    #: |error| of each psi solve at the seed, max over the matrix entries.
    PSI_SEED_ERROR = {
        ("two_state", 0.1): 1.035e-3,
        ("two_state", 1.0): 7.470e-4,
        ("mmpp", 0.1): 1.222e-3,
        ("mmpp", 1.0): 6.143e-4,
        ("renewal_ph", 0.1): 2.749e-3,
        ("renewal_ph", 1.0): 1.068e-3,
        ("cross_arrival", 0.1): 1.103e-3,
        ("cross_arrival", 1.0): 8.256e-4,
    }
    #: The seed's error here is the known defect, so the tolerance is not
    #: derived from it: it sits just above the largest psi tolerance above.
    CLI_SEED_ERROR, CLI_TOL = 7.062e-3, 5e-3
    RUIN_SEED_ERROR = 3.103e-6
    BRIDGE_SEED_ERROR = {2: 1.506e-3, 3: 1.774e-4}

    def __init__(self, work_dir: Path, smoke: bool = False):
        super().__init__(work_dir, smoke)
        fr = self.fr
        import fluidrisk.cli  # noqa: F401  (the CLI module is part of set-up)

        self.grids = {name: fr.LevelGrid.for_model(self.models[name]) for name in PSI_MODELS}
        self.bridge_grid = fr.LevelDurationGrid.for_model(self.models["two_state"])
        self.config = self.work_dir / "two_state.json"
        self.config.write_text(json.dumps(fr.gallery_configs()["two_state"]))
        self.cli_out = self.work_dir / "first_return"
        self.cli_args = ["first-return", str(self.config), "--out", str(self.cli_out)]

    def references(self) -> None:
        import _oracles as O

        self.psi_ref = {
            (name, t1): O.riccati_descriptor(self.models[name], t1, PSI_THETA2)
            for name in PSI_MODELS
            for t1 in PSI_THETA1
        }
        self.ruin_ref = O.TWO_STATE_ERLANG_RUIN_U1[4]
        self.bridge_ref = {2: O.TWO_STATE_BRIDGE2_MASS, 3: O.TWO_STATE_BRIDGE3_MASS}

    def cases(self) -> list[Case]:
        fr = self.fr
        two = self.models["two_state"]
        out = []
        for name in PSI_MODELS:
            for t1 in PSI_THETA1:
                key = (name, t1)
                tol = tolerance(self.PSI_SEED_ERROR[key])
                out.append(
                    Case(
                        name=f"psi.{name}.theta1={t1}",
                        kind="psi",
                        run=lambda seed, m=self.models[name], g=self.grids[name], t1=t1: fr.psi(
                            m, t1, PSI_THETA2, grid=g
                        ),
                        check=lambda r, key=key, tol=tol: _converged(
                            r.converged, _check_matrix(r.matrix, self.psi_ref[key], tol)
                        ),
                        seed_error=self.PSI_SEED_ERROR[key],
                    )
                )
        ruin_tol = tolerance(self.RUIN_SEED_ERROR)
        bridge_tol = {n: tolerance(e) for n, e in self.BRIDGE_SEED_ERROR.items()}
        out += [
            Case(
                name="cli.first_return.two_state.theta0",
                kind="cli",
                run=self._run_cli,
                check=self._check_cli,
                seed_error=self.CLI_SEED_ERROR,
            ),
            Case(
                name="ruin.two_state.u1.stages4",
                kind="ruin",
                run=lambda seed: fr.ruin_descriptor(two, 1.0, 4, *THETA, i0=0),
                check=lambda r: _converged(
                    r.converged,
                    _fail_on(_within(r.value, self.ruin_ref, ruin_tol), _probabilities([r.value])),
                ),
                seed_error=self.RUIN_SEED_ERROR,
            ),
            Case(
                name="bridge.split.two_state.n8",
                kind="bridge",
                run=lambda seed: fr.bridge_recursion(two, self.bridge_grid, n_max=8),
                check=lambda t: _check_bridge(t, self.bridge_ref, bridge_tol, "split"),
                seed_error=max(self.BRIDGE_SEED_ERROR.values()),
            ),
        ]
        return out

    def _run_cli(self, seed: int) -> int:
        # No pass may read a file an earlier pass wrote.
        shutil.rmtree(self.cli_out, ignore_errors=True)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return self.fr.cli.main(self.cli_args)

    def _check_cli(self, code: int) -> Outcome:
        with open(self.cli_out / "first_return.csv", newline="") as fh:
            values = [float(row["value"]) for row in csv.DictReader(fh)]
        mass = sum(values)
        # Start in the one ascending state: the mass is the return probability,
        # certain at the negative mean drift of two_state.
        o = _fail_on(_within(mass, 1.0, self.CLI_TOL), _probabilities(values + [mass]))
        return _fail_on(o, "" if code == 0 else f"exit code {code}")


def _converged(converged: bool, outcome: Outcome) -> Outcome:
    return _fail_on(outcome, "" if converged else "not converged")


def _check_bridge(tensor, refs: dict, tols: dict, engine: str) -> Outcome:
    """Orders with a closed-form mass, and every order's mass a probability."""
    outcomes = [_within(float(tensor.mass(n).sum()), ref, tols[n], f"order {n}") for n, ref in refs.items()]
    failing = [o for o in outcomes if not o.ok]
    o = failing[0] if failing else max(outcomes, key=lambda o: o.error / o.tolerance)
    o = _fail_on(o, _probabilities([tensor.mass(n).sum() for n in tensor.orders]))
    return _fail_on(o, "" if tensor.mode == engine else f"engine {tensor.mode}, expected {engine}")


def _check_matrix(matrix, ref, tol: float) -> Outcome:
    """Largest entrywise error against a reference matrix."""
    import numpy as np

    err = float(np.abs(matrix - ref).max())
    o = Outcome(err <= tol, float(matrix.sum()), float(ref.sum()), err, tol)
    if not o.ok:
        o.note = f"max |error| {err:.3e} above tolerance {tol:.3e}"
    return _fail_on(o, _probabilities(matrix))


class DurationDependent(Workload):
    name = "duration_dependent"

    PSI_SEED_ERROR = 5.469e-3
    FT_SEED_ERROR = 1.630e-3
    BRIDGE_SEED_ERROR = {2: 1.506e-3, 3: 1.774e-4}
    SURVIVAL_SEED_ERROR = 9.4e-15
    RENEWAL_SEED_ERROR = 5.7e-13

    def __init__(self, work_dir: Path, smoke: bool = False):
        super().__init__(work_dir, smoke)
        fr = self.fr
        pareto = self.models["pareto_renewal"]
        u_max = 8.0 / pareto.gamma
        self.pareto_grid = fr.LevelDurationGrid.for_model(pareto, du=u_max / 32)
        self.bridge_grid = fr.LevelDurationGrid.for_model(self.models["two_state"])
        kernel = fr.gallery_configs()["pareto_renewal"]["kernel"]
        self.pareto_params = {k: kernel[k] for k in ("a", "b", "routing")}

    def references(self) -> None:
        import numpy as np

        import _oracles as O

        mc = load_references()
        self.psi_ref = mc["pareto_psi_by_epoch8"]
        self.ft_ref = mc["calendar_return_by_2"]
        self.bridge_ref = {2: O.TWO_STATE_BRIDGE2_MASS, 3: O.TWO_STATE_BRIDGE3_MASS}
        a, b = np.array(self.pareto_params["a"]), np.array(self.pareto_params["b"])
        routing = np.array(self.pareto_params["routing"])
        self.survival_ref = np.diag(O.pareto_survival(a, b, 20.0))
        self.renewal_ref = (1.0 - O.pareto_survival(a, b, 16.0))[:, None] * routing

    def cases(self) -> list[Case]:
        fr = self.fr
        pareto = self.models["pareto_renewal"]
        two = self.models["two_state"]
        cal = self.models["calendar_switch"]
        psi_tol = tolerance(self.PSI_SEED_ERROR, self.psi_ref["std_error"])
        ft_tol = tolerance(self.FT_SEED_ERROR, self.ft_ref["std_error"])
        bridge_tol = {n: tolerance(e) for n, e in self.BRIDGE_SEED_ERROR.items()}
        survival_tol = tolerance(self.SURVIVAL_SEED_ERROR)
        renewal_tol = tolerance(self.RENEWAL_SEED_ERROR)
        return [
            Case(
                name="psi.pareto_renewal.n8",
                kind="psi",
                run=lambda seed: fr.psi(pareto, *THETA, grid=self.pareto_grid, n_max=8),
                # The series is truncated at epoch 8 on purpose: not converged.
                check=lambda r: _fail_on(
                    _within(float(r.matrix.sum()), self.psi_ref["value"], psi_tol),
                    _probabilities(r.matrix),
                ),
                seed_error=self.PSI_SEED_ERROR,
            ),
            Case(
                name="finite_time.calendar_switch.t2",
                kind="finite_time",
                run=lambda seed: fr.finite_time_return(cal, 2.0, du=1.0 / 8.0),
                check=lambda r: _fail_on(
                    _within(float(r.value.sum()), self.ft_ref["value"], ft_tol),
                    _probabilities(r.value),
                ),
                seed_error=self.FT_SEED_ERROR,
            ),
            Case(
                name="bridge.z.two_state.n4",
                kind="bridge",
                run=lambda seed: fr.bridge_recursion(two, self.bridge_grid, n_max=4, method="z"),
                check=lambda t: _check_bridge(t, self.bridge_ref, bridge_tol, "z"),
                seed_error=max(self.BRIDGE_SEED_ERROR.values()),
            ),
            Case(
                name="survival_matrix.pareto.0_20",
                kind="survival",
                run=lambda seed: fr.survival_matrix(pareto.kernel, 0.0, 20.0),
                check=lambda r: _check_matrix(r.matrix, self.survival_ref, survival_tol),
                seed_error=self.SURVIVAL_SEED_ERROR,
            ),
            Case(
                name="renewal_operator.pareto.u16",
                kind="survival",
                run=lambda seed: fr.renewal_operator(pareto, u_max=16.0),
                # The case asks for the operator truncated at 16: not converged.
                check=lambda r: _check_matrix(r.matrix, self.renewal_ref, renewal_tol),
                seed_error=self.RENEWAL_SEED_ERROR,
            ),
        ]


class MonteCarlo(Workload):
    name = "monte_carlo"

    def __init__(self, work_dir: Path, smoke: bool = False):
        super().__init__(work_dir, smoke)
        divisor = SMOKE_DIVISOR if smoke else 1
        self.n_paths = MC_PATHS // divisor
        self.sim_calls = SIM_CALLS // divisor

    def references(self) -> None:
        import _oracles as O

        self.psi_ref = O.TWO_STATE_PSI_03_02
        self.ruin_ref = O.TWO_STATE_RUIN_EXACT_U1
        self.pareto_ref = load_references()["pareto_first_return"]

    def cases(self) -> list[Case]:
        fr = self.fr
        two = self.models["two_state"]
        pareto = self.models["pareto_renewal"]
        n = self.n_paths
        return [
            Case(
                name="mc_first_return.two_state",
                kind="mc",
                run=lambda seed: fr.mc_first_return(two, 0.0, *THETA, n, MC_MAX_EPOCHS, seed, n_threads=1),
                check=lambda e: _check_mc(e.value, e.std_error, self.psi_ref, 0.0),
                paths=n,
            ),
            Case(
                name="mc_ruin.two_state.u1",
                kind="mc",
                run=lambda seed: fr.mc_ruin(
                    two, 1.0, 0.0, n, MC_MAX_EPOCHS, seed, start_state=0,
                    theta1=THETA[0], theta2=THETA[1], n_threads=1,
                ),
                check=lambda e: _check_mc(e.value, e.std_error, self.ruin_ref, 0.0),
                paths=n,
            ),
            Case(
                name="mc_first_return.pareto_renewal",
                kind="mc",
                run=lambda seed: fr.mc_first_return(pareto, 0.0, *THETA, n, MC_MAX_EPOCHS, seed, n_threads=1),
                check=lambda e: _check_mc(
                    e.value, e.std_error, self.pareto_ref["value"], self.pareto_ref["std_error"]
                ),
                paths=n,
            ),
            Case(
                name="simulate_until_return.two_state",
                kind="mc",
                run=lambda seed: [
                    fr.simulate_until_return(two, 0.0, *THETA, MC_MAX_EPOCHS, seed + k)
                    for k in range(self.sim_calls)
                ],
                check=self._check_simulated,
                paths=self.sim_calls,
            ),
        ]

    def _check_simulated(self, samples) -> Outcome:
        import numpy as np

        w = np.array([s.weight for s in samples])
        o = _check_mc(float(w.mean()), float(w.std(ddof=1) / math.sqrt(w.size)), self.psi_ref, 0.0)
        return _fail_on(o, _probabilities(w))


def _check_mc(value: float, se: float, ref: float, ref_se: float) -> Outcome:
    band = MC_BAND * math.sqrt(se * se + ref_se * ref_se)
    o = _within(value, ref, band)
    o.deterministic = False
    return _fail_on(o, _probabilities([value]))


WORKLOADS = {w.name: w for w in (DurationFree, DurationDependent, MonteCarlo)}


def run_case(case: Case, seed: int):
    """Call a case, collecting its warnings; returns ``(output, warnings)``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        output = case.run(seed)
    return output, sorted({str(w.message) for w in caught})

