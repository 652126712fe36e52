"""Command-line front end binding model configs to the library operations.

Every subcommand takes a JSON model-config path as its first positional
argument and writes machine-readable artifacts (CSV and/or JSON) into
``--out`` (default: current directory).  :func:`main` is the one runner: it
loads the config, creates ``--out``, calls the subcommand's handler and then
writes ``manifest.json`` alongside the artifacts, recording the command, the
SHA-256 of the raw config bytes, all numeric parameters, the seed, the
library version, the wall-clock time and any flag the handler returns
(``converged``, ``inside_band``).  A run that exits 2 writes no manifest.
CSV files use ``.`` as the decimal separator and print floats with 17
significant digits, so identical invocations reproduce byte-identical output.

Exit codes
----------
0   success
2   validation failure (malformed config, structural violation, bad arguments)
3   numeric non-convergence (truncation above tolerance, iteration cap hit,
    or a Monte Carlo cross-check outside its 3-standard-error band)

Subcommands
-----------
validate           load + validate a config, report diagnostics
simulate           sample uniformized paths, one CSV row per Poisson epoch
gmatrix            survival matrices G(s, t) on requested time points
density            inter-arrival marginal density values with tail bounds
bridge             per-order integrated bridge masses (+ optional binary dump)
first-return       first-return descriptor matrix Psi
finite-time        horizon-limited return descriptor (arrival-free models)
ruin               ruin descriptor from Erlang-randomized capital
mc                 Monte Carlo estimates (first-return | ruin | bridge)
convergence-study  analytic vs Monte Carlo 3-SE cross-check (a first-return
                   study needs a duration-free kernel; ruin takes any)

``convergence_study.csv`` has one row with the columns ``quantity``,
``analytic``, ``numeric_error_estimate``, ``mc_value``, ``mc_std_error``,
``gap``, ``band`` (3 SE + the numeric error estimate) and ``inside``.

Binary bridge dump layout (all little-endian)
---------------------------------------------
magic ``b"FRBRIDG1"`` (8 bytes) ·  5 × uint64 dims ``(n_orders, n_up,
n_down, n_durations, n_levels)`` · 7 × float64 ``(theta1, theta2, z, u_max,
du, l_max, dl)`` · ``n_orders`` × uint64 order labels · then
``n_orders·n_up·n_down·n_durations·n_levels`` float64 density values in
row-major ``(order, i, j, duration, level)`` order.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import struct
import sys
import time

import numpy as np

from . import __version__
from .bridge import LevelDurationGrid, bridge_recursion, integrate_bridge
from .descriptors import finite_time_return, psi, ruin_descriptor
from .model import (
    FluidModel,
    FluidModelError,
    config_hash,
    load_model_config,
    validate_model,
)
from .montecarlo import mc_bridge_histogram, mc_first_return, mc_ruin
from .simulate import simulate_path
from .survival import iph_marginal, survival_matrix

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3

_BRIDGE_MAGIC = b"FRBRIDG1"


def _fmt(x) -> str:
    """Floats with 17 significant digits: round-trip exact, locale-free."""
    return format(float(x), ".17g")


def _resolve_threads(args) -> int:
    threads = getattr(args, "threads", None)
    if threads is None:
        env = os.environ.get("FLUIDRISK_THREADS", "")
        if not env.strip():
            return 1
        try:
            threads = int(env)
        except ValueError:
            raise FluidModelError(f"FLUIDRISK_THREADS must be an integer, got {env!r}")
    if threads < 1:
        raise FluidModelError(f"thread count must be at least 1, got {threads!r}")
    return threads


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _write_manifest(args, out: str, started: float, extra: dict) -> None:
    params = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in {"func", "config", "out", "command"}
    }
    manifest = {
        "command": args.command,
        "config_hash": config_hash(args.config),
        "parameters": params,
        "seed": params.get("seed"),
        "version": __version__,
        "wall_clock_seconds": time.perf_counter() - started,
    }
    manifest.update(extra)
    _write_json(os.path.join(out, "manifest.json"), manifest)


# ---------------------------------------------------------------------------
# Subcommand handlers: handler(args, model, out) -> (exit code, manifest extras)
# ---------------------------------------------------------------------------


def _cmd_validate(args, model: FluidModel, out: str) -> tuple[int, dict]:
    report = validate_model(model)
    summary = {
        "ok": report.ok,
        "n_samples": report.n_samples,
        "worst": report.worst,
        "messages": list(report.messages),
        "p": model.p,
        "gamma": model.gamma,
        "ascending_states": model.s_plus.tolist(),
        "descending_states": model.s_minus.tolist(),
    }
    _write_json(os.path.join(out, "validate.json"), summary)
    print(
        f"config OK: {model.p} states ({model.s_plus.size} ascending, "
        f"{model.s_minus.size} descending), gamma={model.gamma:g}, "
        f"{report.n_samples} kernel samples checked"
    )
    return EXIT_OK, {}


def _cmd_simulate(args, model: FluidModel, out: str) -> tuple[int, dict]:
    if args.n_paths < 1:
        raise ValueError(f"n_paths must be at least 1, got {args.n_paths!r}")
    rows = []
    for k in range(args.n_paths):
        path = simulate_path(model, args.z, args.horizon, seed=args.seed + k)
        for e in range(path.states.size):
            rows.append(
                [
                    str(k),
                    str(e),
                    _fmt(path.poisson_epochs[e]),
                    str(int(path.states[e])),
                    _fmt(path.durations[e]),
                    _fmt(path.fluid[e]),
                    _fmt(path.dividend_integral[e]),
                    _fmt(path.jump_costs[e]),
                ]
            )
    _write_csv(
        os.path.join(out, "paths.csv"),
        ["path", "epoch", "time", "state", "duration", "level", "dividends", "costs"],
        rows,
    )
    print(f"wrote {len(rows)} epochs over {args.n_paths} path(s) to {out}/paths.csv")
    return EXIT_OK, {}


def _cmd_gmatrix(args, model: FluidModel, out: str) -> tuple[int, dict]:
    p = model.p
    header = ["s", "t"] + [f"G_{i}_{j}" for i in range(p) for j in range(p)] + ["error_estimate"]
    rows = []
    for t in args.t:
        if t < args.s:
            raise FluidModelError(f"gmatrix needs t >= s, got t={t} < s={args.s}")
        res = survival_matrix(model.kernel, args.s, t, step=args.step)
        rows.append(
            [_fmt(args.s), _fmt(t)]
            + [_fmt(v) for v in np.asarray(res.matrix).ravel()]
            + [_fmt(res.error_estimate)]
        )
    _write_csv(os.path.join(out, "gmatrix.csv"), header, rows)
    print(f"wrote {len(rows)} survival matrices to {out}/gmatrix.csv")
    return EXIT_OK, {}


def _cmd_density(args, model: FluidModel, out: str) -> tuple[int, dict]:
    rows = []
    worst_tail = 0.0
    all_converged = True
    for y in args.y:
        res = iph_marginal(model, args.n, y, u_max=args.u_max, step=args.step)
        worst_tail = max(worst_tail, res.tail_bound)
        all_converged = all_converged and res.converged
        rows.append(
            [
                str(args.n),
                _fmt(y),
                _fmt(res.density),
                _fmt(res.tail_bound),
                _fmt(res.initial_mass),
            ]
        )
    _write_csv(
        os.path.join(out, "density.csv"),
        ["n", "y", "density", "tail_bound", "initial_mass"],
        rows,
    )
    print(f"wrote {len(rows)} density values to {out}/density.csv")
    if not all_converged:
        print(f"non-convergence: duration-window tail bound {worst_tail:.3e}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE, {}
    return EXIT_OK, {}


def _bridge_grid(model: FluidModel, args) -> LevelDurationGrid:
    grid = LevelDurationGrid.for_model(model)
    u_max = args.u_max if args.u_max is not None else grid.u_max
    du = args.du if args.du is not None else grid.du
    l_max = args.l_max if args.l_max is not None else grid.l_max
    dl = args.dl if args.dl is not None else grid.dl
    return LevelDurationGrid(u_max=u_max, du=du, l_max=l_max, dl=dl)


def _cmd_bridge(args, model: FluidModel, out: str) -> tuple[int, dict]:
    grid = _bridge_grid(model, args)
    tensor = bridge_recursion(model, grid, args.theta1, args.theta2, n_max=args.n_max)
    diag = tensor.diagnostics
    header = [
        "n",
        "i",
        "j",
        "L_value",
        "holding_tail_bound",
        "level_edge_max_density",
        "duration_edge_max_density",
        "negative_clamp_magnitude",
    ]
    diag_cols = [
        _fmt(diag.get("holding_tail_bound", 0.0)),
        _fmt(diag.get("level_edge_max_density", 0.0)),
        _fmt(diag.get("duration_edge_max_density", 0.0)),
        _fmt(abs(diag.get("negative_min", 0.0))),
    ]
    rows = []
    for n in tensor.orders:
        L = integrate_bridge(tensor, n, args.z)
        for a, i in enumerate(model.s_plus):
            for b, j in enumerate(model.s_minus):
                rows.append([str(n), str(int(i)), str(int(j)), _fmt(L[a, b])] + diag_cols)
    _write_csv(os.path.join(out, "bridge.csv"), header, rows)

    if args.binary:
        orders = list(tensor.orders)
        stack = np.stack([tensor.value(n, args.z) for n in orders])
        with open(os.path.join(out, args.binary), "wb") as fh:
            fh.write(_BRIDGE_MAGIC)
            fh.write(struct.pack("<5Q", *stack.shape))
            fh.write(
                struct.pack(
                    "<7d",
                    args.theta1,
                    args.theta2,
                    args.z,
                    grid.u_max,
                    grid.du,
                    grid.l_max,
                    grid.dl,
                )
            )
            fh.write(struct.pack(f"<{len(orders)}Q", *orders))
            fh.write(np.ascontiguousarray(stack, dtype="<f8").tobytes())

    print(f"wrote bridge masses for orders {list(tensor.orders)} to {out}/bridge.csv")
    return EXIT_OK, {}


def _descriptor_rows(model: FluidModel, matrix: np.ndarray, n_used: int, tail: float):
    rows = []
    for a, i in enumerate(model.s_plus):
        for b, j in enumerate(model.s_minus):
            rows.append(
                [str(int(i)), str(int(j)), _fmt(matrix[a, b]), str(n_used), _fmt(tail)]
            )
    return rows


def _cmd_first_return(args, model: FluidModel, out: str) -> tuple[int, dict]:
    res = psi(
        model,
        args.theta1,
        args.theta2,
        z=args.z,
        eps=args.eps,
        n_max=args.n_max,
    )
    _write_csv(
        os.path.join(out, "first_return.csv"),
        ["i", "j", "value", "n_used", "tail_estimate"],
        _descriptor_rows(model, res.matrix, res.n_used, res.tail_estimate),
    )
    print(
        f"first-return descriptor: total mass {res.matrix.sum():.6f}, "
        f"n_used={res.n_used}, tail={res.tail_estimate:.3e}"
    )
    extra = {"converged": res.converged}
    if not res.converged:
        print("non-convergence: truncation tail above eps", file=sys.stderr)
        return EXIT_NO_CONVERGENCE, extra
    return EXIT_OK, extra


def _cmd_finite_time(args, model: FluidModel, out: str) -> tuple[int, dict]:
    res = finite_time_return(
        model,
        args.horizon,
        theta1=args.theta1,
        theta2=args.theta2,
        z=args.z,
        m_max=args.m_max,
        eps=args.eps,
    )
    _write_csv(
        os.path.join(out, "finite_time.csv"),
        ["i", "j", "value", "n_used", "tail_estimate"],
        _descriptor_rows(model, res.value, res.n_used, res.tail_estimate),
    )
    print(
        f"finite-time return by t={args.horizon:g}: total {res.value.sum():.6f}, "
        f"orders up to {res.n_used}, tail bound {res.tail_estimate:.3e}"
    )
    if res.tail_estimate > args.eps:
        print("non-convergence: epoch-count tail bound above eps", file=sys.stderr)
        return EXIT_NO_CONVERGENCE, {}
    return EXIT_OK, {}


def _cmd_ruin(args, model: FluidModel, out: str) -> tuple[int, dict]:
    res = ruin_descriptor(
        model,
        args.u,
        args.n_stages,
        args.theta1,
        args.theta2,
        i0=args.i0,
    )
    aug = res.erlangized.model
    rows = []
    for b, j in enumerate(aug.s_minus):
        rows.append([str(int(j) - args.n_stages), _fmt(res.by_state[b])])
    _write_csv(os.path.join(out, "ruin.csv"), ["j", "value"], rows)
    summary = {
        "value": res.value,
        "u": args.u,
        "n_stages": args.n_stages,
        "theta1": args.theta1,
        "theta2": args.theta2,
        "converged": res.converged,
    }
    _write_json(os.path.join(out, "ruin.json"), summary)
    print(f"ruin descriptor from u={args.u:g} with {args.n_stages} stages: {res.value:.6f}")
    extra = {"converged": res.converged}
    if not res.converged:
        print("non-convergence: first-return solve did not reach tolerance", file=sys.stderr)
        return EXIT_NO_CONVERGENCE, extra
    return EXIT_OK, extra


def _cmd_mc(args, model: FluidModel, out: str) -> tuple[int, dict]:
    sampling = dict(
        n_paths=args.n_paths,
        seed=args.seed,
        start_state=args.start_state,
        n_threads=_resolve_threads(args),
    )
    if args.mode == "bridge":
        grid = LevelDurationGrid.for_model(model)
        hist = mc_bridge_histogram(model, args.z, args.n, grid.durations, grid.levels, **sampling)
        rows = []
        for j in model.s_minus:
            freq = hist.n_hits[int(j)] / hist.n_paths
            se = float(np.sqrt(max(freq * (1.0 - freq), 0.0) / hist.n_paths))
            rows.append([str(int(j)), _fmt(freq), _fmt(se), str(hist.n_paths), str(hist.seed)])
        _write_csv(
            os.path.join(out, "mc_bridge.csv"), ["j", "value", "std_error", "n_paths", "seed"], rows
        )
        print(f"mc bridge order {args.n}: {int(hist.n_hits.sum())} qualifying paths")
        return EXIT_OK, {}

    if args.mode == "first-return":
        est = mc_first_return(
            model, args.z, args.theta1, args.theta2, max_epochs=args.max_epochs, **sampling
        )
    else:  # ruin
        est = mc_ruin(
            model,
            args.u,
            args.z,
            max_epochs=args.max_epochs,
            theta1=args.theta1,
            theta2=args.theta2,
            horizon=args.horizon,
            **sampling,
        )
    row = [_fmt(est.value), _fmt(est.std_error), str(est.n_paths), _fmt(est.censored_fraction)]
    _write_csv(
        os.path.join(out, f"mc_{args.mode.replace('-', '_')}.csv"),
        ["value", "std_error", "n_paths", "censored_fraction", "seed"],
        [row + [str(est.seed)]],
    )
    print(f"mc {args.mode}: {est.value:.6f} ± {est.std_error:.2e}")
    if est.censored_fraction > 0.01:
        print(
            f"warning: {est.censored_fraction:.1%} of paths censored at "
            f"max_epochs={args.max_epochs}; the estimate is biased low",
            file=sys.stderr,
        )
    return EXIT_OK, {}


def _cmd_convergence_study(args, model: FluidModel, out: str) -> tuple[int, dict]:
    threads = _resolve_threads(args)
    if args.quantity == "first-return":
        if not model.kernel.is_constant:
            raise FluidModelError(
                "a first-return convergence-study needs a duration-free kernel; "
                "cross-check a duration-dependent one with --quantity ruin"
            )
        alpha_plus = model.alpha[model.s_plus]
        if alpha_plus.sum() <= 0.0:
            raise FluidModelError(
                "convergence-study needs initial mass on ascending states"
            )
        alpha_plus = alpha_plus / alpha_plus.sum()
        # The doubling solve is exact to its error figure: nothing to refine.
        res = psi(model, args.theta1, args.theta2, z=args.z)
        analytic = float(alpha_plus @ res.matrix.sum(axis=1))
        numeric_est = res.info["tail_estimate"]
        est = mc_first_return(
            model,
            args.z,
            args.theta1,
            args.theta2,
            n_paths=args.n_paths,
            max_epochs=args.max_epochs,
            seed=args.seed,
            n_threads=threads,
        )
    else:  # ruin
        res = ruin_descriptor(
            model, args.u, args.n_stages, args.theta1, args.theta2, i0=args.i0
        )
        analytic = res.value
        numeric_est = res.info["tail_estimate"]
        # The descriptor is ruin from Erlang(n_stages)-randomized capital, the
        # first return of the ramp-augmented model; sample that same model.
        est = mc_first_return(
            res.erlangized.model,
            0.0,
            args.theta1,
            args.theta2,
            n_paths=args.n_paths,
            max_epochs=args.max_epochs,
            seed=args.seed,
            start_state=0,
            n_threads=threads,
        )

    gap = abs(analytic - est.value)
    # The analytic side carries numerical error of its own: the solver's error
    # figure, plus the duration lift's discretization term for ruin.
    # Without it, a zero-variance Monte Carlo sample (e.g. certain return at
    # theta = 0) would demand exactness.
    band = 3.0 * est.std_error + numeric_est
    inside = gap <= band
    _write_csv(
        os.path.join(out, "convergence_study.csv"),
        [
            "quantity",
            "analytic",
            "numeric_error_estimate",
            "mc_value",
            "mc_std_error",
            "gap",
            "band",
            "inside",
        ],
        [
            [
                args.quantity,
                _fmt(analytic),
                _fmt(numeric_est),
                _fmt(est.value),
                _fmt(est.std_error),
                _fmt(gap),
                _fmt(band),
                str(inside),
            ]
        ],
    )
    print(
        f"{args.quantity}: analytic {analytic:.6f} vs MC {est.value:.6f} ± "
        f"{est.std_error:.2e} → gap {gap:.2e} {'inside' if inside else 'OUTSIDE'} "
        f"band {band:.2e} (3 SE + numeric estimate {numeric_est:.2e})"
    )
    if est.censored_fraction > 0.01:
        print(
            f"warning: {est.censored_fraction:.1%} of paths censored; "
            "widen --max-epochs before trusting the band",
            file=sys.stderr,
        )
    return (EXIT_OK if inside else EXIT_NO_CONVERGENCE), {"inside_band": inside}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(sub, theta: bool = True, seed: bool = False, threads: bool = False):
    sub.add_argument("config", help="path to a JSON model configuration")
    sub.add_argument("--out", default=".", help="artifact directory (default: .)")
    if threads:
        sub.add_argument(
            "--threads",
            type=int,
            default=None,
            help="Monte Carlo worker cap (fallback: FLUIDRISK_THREADS, then 1)",
        )
    if theta:
        sub.add_argument("--theta1", type=float, default=0.0, help="dividend transform argument")
        sub.add_argument("--theta2", type=float, default=0.0, help="cost transform argument")
    if seed:
        sub.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")


# Built once per process: building the parser is most of a short CLI call.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluidrisk",
        description=(
            "Duration-modulated arrival processes driving fluid risk dynamics: "
            "validation, simulation, survival operators, bridge densities, "
            "first-return/finite-time/ruin descriptors, and Monte Carlo "
            "cross-checks."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("validate", help="load and validate a model config")
    _add_common(s, theta=False)
    s.set_defaults(func=_cmd_validate)

    s = subs.add_parser("simulate", help="sample uniformized paths to CSV")
    _add_common(s, theta=False, seed=True)
    s.add_argument("--horizon", type=float, required=True, help="calendar-time horizon")
    s.add_argument("--z", type=float, default=0.0, help="initial duration (default 0)")
    s.add_argument("--n-paths", type=int, default=1, help="number of paths (default 1)")
    s.set_defaults(func=_cmd_simulate)

    s = subs.add_parser("gmatrix", help="survival matrices G(s, t)")
    _add_common(s, theta=False)
    s.add_argument("--s", type=float, default=0.0, help="left endpoint (default 0)")
    s.add_argument(
        "--t", type=float, action="append", required=True, help="right endpoint (repeatable)"
    )
    s.add_argument("--step", type=float, default=None, help="integrator step override")
    s.set_defaults(func=_cmd_gmatrix)

    s = subs.add_parser("density", help="inter-arrival marginal density values")
    _add_common(s, theta=False)
    s.add_argument("--n", type=int, default=1, help="arrival index (default 1)")
    s.add_argument(
        "--y", type=float, action="append", required=True, help="evaluation point (repeatable)"
    )
    s.add_argument("--u-max", type=float, default=None, help="duration-window override")
    s.add_argument("--step", type=float, default=None, help="integrator step override")
    s.set_defaults(func=_cmd_density)

    s = subs.add_parser("bridge", help="integrated bridge masses per order")
    _add_common(s)
    s.add_argument("--n-max", type=int, default=8, help="deepest bridge order (default 8)")
    s.add_argument("--z", type=float, default=0.0, help="initial duration (default 0)")
    s.add_argument("--u-max", type=float, default=None, help="duration window override")
    s.add_argument("--du", type=float, default=None, help="duration spacing override")
    s.add_argument("--l-max", type=float, default=None, help="level window override")
    s.add_argument("--dl", type=float, default=None, help="level spacing override")
    s.add_argument(
        "--binary",
        default=None,
        metavar="NAME",
        help="also dump the full density tensor to this file in --out",
    )
    s.set_defaults(func=_cmd_bridge)

    s = subs.add_parser("first-return", help="first-return descriptor matrix")
    _add_common(s)
    s.add_argument("--z", type=float, default=0.0, help="initial duration (default 0)")
    s.add_argument("--eps", type=float, default=1e-5, help="truncation tail tolerance")
    s.add_argument("--n-max", type=int, default=64, help="bridge-order cap (duration kernels)")
    s.set_defaults(func=_cmd_first_return)

    s = subs.add_parser("finite-time", help="return descriptor within a horizon")
    _add_common(s)
    s.add_argument("--horizon", type=float, required=True, help="calendar-time horizon")
    s.add_argument("--z", type=float, default=0.0, help="initial duration (default 0)")
    s.add_argument("--eps", type=float, default=1e-8, help="epoch-count tail tolerance")
    s.add_argument("--m-max", type=int, default=None, help="hard cap on epoch orders")
    s.set_defaults(func=_cmd_finite_time)

    s = subs.add_parser("ruin", help="ruin descriptor from Erlang-randomized capital")
    _add_common(s)
    s.add_argument("--u", type=float, required=True, help="initial capital")
    s.add_argument("--n-stages", type=int, required=True, help="Erlang stages of the capital")
    s.add_argument("--i0", type=int, default=None, help="entry state (default: from alpha)")
    s.set_defaults(func=_cmd_ruin)

    s = subs.add_parser("mc", help="Monte Carlo estimates with standard errors")
    # One parser per mode, so a flag of another mode is an error (exit 2).
    modes = s.add_subparsers(dest="mode", required=True, help="quantity to estimate")
    for mode in ("first-return", "ruin", "bridge"):
        m = modes.add_parser(mode, allow_abbrev=False)
        _add_common(m, theta=mode != "bridge", seed=True, threads=True)
        m.add_argument("--n-paths", type=int, default=100_000, help="sample size (default 1e5)")
        m.add_argument("--z", type=float, default=0.0, help="initial duration (default 0)")
        m.add_argument("--start-state", type=int, default=None, help="pin the starting state")
        if mode == "bridge":
            m.add_argument("--n", type=int, default=2, help="bridge order")
        else:
            m.add_argument("--max-epochs", type=int, default=10_000, help="per-path epoch cap")
        if mode == "ruin":
            m.add_argument("--u", type=float, required=True, help="initial capital")
            m.add_argument("--horizon", type=float, default=None, help="time horizon")
        m.set_defaults(func=_cmd_mc)

    s = subs.add_parser(
        "convergence-study", help="analytic vs Monte Carlo 3-SE cross-check"
    )
    _add_common(s, seed=True, threads=True)
    s.add_argument(
        "--quantity",
        choices=["first-return", "ruin"],
        default="first-return",
        help="quantity to cross-check (default first-return: duration-free kernels only)",
    )
    s.add_argument(
        "--z", type=float, default=0.0, help="initial duration (default 0; first-return only)"
    )
    s.add_argument("--u", type=float, default=1.0, help="initial capital (ruin)")
    s.add_argument("--n-stages", type=int, default=16, help="Erlang stages (ruin)")
    s.add_argument("--i0", type=int, default=None, help="entry state (ruin)")
    s.add_argument("--n-paths", type=int, default=100_000, help="sample size (default 1e5)")
    s.add_argument("--max-epochs", type=int, default=10_000, help="per-path epoch cap")
    s.set_defaults(func=_cmd_convergence_study)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        model = load_model_config(args.config)
        out = args.out or "."
        os.makedirs(out, exist_ok=True)
        code, extra = args.func(args, model, out)
        _write_manifest(args, out, started, extra)
    except (FluidModelError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return code


if __name__ == "__main__":
    sys.exit(main())
