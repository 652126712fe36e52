"""Command-line front end: reproducible artifacts and exit codes."""

import csv
import json
import struct

import numpy as np
import pytest

from fluidrisk import (
    LevelDurationGrid,
    __version__,
    bridge_recursion,
    config_hash,
    ruin_descriptor,
)
import fluidrisk.cli as cli
from fluidrisk.cli import EXIT_INVALID, EXIT_NO_CONVERGENCE, EXIT_OK, build_parser, main
from fluidrisk.gallery import (
    gallery_configs,
    pareto_renewal_model,
    two_state_model,
)

# The transform arguments of the ruin cases.
THETA = ["--theta1", "0.3", "--theta2", "0.2"]

STUDY_COLUMNS = [
    "quantity",
    "analytic",
    "numeric_error_estimate",
    "mc_value",
    "mc_std_error",
    "gap",
    "band",
    "inside",
]


def _config(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(gallery_configs()[name]))
    return path


@pytest.fixture
def two_state_config(tmp_path):
    return _config(tmp_path, "two_state")


@pytest.mark.parametrize(
    "args, artifact",
    [
        (["ruin", "--u", "1", "--n-stages", "1", "--i0", "0"] + THETA, "ruin.csv"),
        (["bridge", "--n-max", "4"], "bridge.csv"),
        (["simulate", "--horizon", "5", "--n-paths", "3"], "paths.csv"),
        (["mc", "ruin", "--u", "1", "--n-paths", "1000"], "mc_ruin.csv"),
    ],
)
def test_reruns_write_byte_identical_csv(two_state_config, tmp_path, args, artifact):
    outputs = []
    for run in ("first", "second"):
        out = tmp_path / run
        assert main(args + [str(two_state_config), "--out", str(out)]) == EXIT_OK
        outputs.append((out / artifact).read_bytes())
    assert outputs[0] == outputs[1]


def test_malformed_config_exits_invalid(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out"
    assert main(["validate", str(bad), "--out", str(out)]) == EXIT_INVALID
    assert not (out / "manifest.json").exists()


# One small run of every subcommand; main writes each manifest.
@pytest.mark.parametrize(
    "name, args, artifact",
    [
        ("two_state", ["validate"], "validate.json"),
        ("two_state", ["simulate", "--horizon", "2", "--n-paths", "2"], "paths.csv"),
        ("two_state", ["gmatrix", "--t", "0.5", "--t", "1"], "gmatrix.csv"),
        ("pareto_renewal", ["density", "--y", "0.5", "--y", "2"], "density.csv"),
        ("two_state", ["bridge", "--n-max", "3"], "bridge.csv"),
        ("two_state", ["first-return"] + THETA, "first_return.csv"),
        ("calendar_switch", ["finite-time", "--horizon", "0.5"], "finite_time.csv"),
        ("two_state", ["ruin", "--u", "1", "--n-stages", "4", "--i0", "0"] + THETA, "ruin.json"),
        ("two_state", ["mc", "first-return", "--n-paths", "200"] + THETA, "mc_first_return.csv"),
        ("two_state", ["mc", "ruin", "--u", "1", "--n-paths", "200"], "mc_ruin.csv"),
        ("two_state", ["mc", "bridge", "--n-paths", "200"], "mc_bridge.csv"),
        ("two_state", ["convergence-study", "--n-paths", "500"] + THETA, "convergence_study.csv"),
    ],
    ids=[
        "validate",
        "simulate",
        "gmatrix",
        "density",
        "bridge",
        "first_return",
        "finite_time",
        "ruin",
        "mc_first_return",
        "mc_ruin",
        "mc_bridge",
        "convergence_study",
    ],
)
def test_every_subcommand_writes_its_manifest(tmp_path, name, args, artifact):
    config = _config(tmp_path, name)
    out = tmp_path / "out"
    code = main(args + [str(config), "--out", str(out)])
    assert code == EXIT_OK
    assert (out / artifact).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == args[0]
    assert manifest["parameters"].get("mode") == (args[1] if args[0] == "mc" else None)
    assert manifest["config_hash"] == config_hash(str(config))
    assert manifest["version"] == __version__
    assert "command" not in manifest["parameters"]


# finite-time needs an arrival-free model: calendar_switch.  A NaN transform
# argument runs the duration-dependent z engine on calendar_switch and the
# Riccati solver on two_state unless it is rejected up front.
@pytest.mark.parametrize(
    "name, args",
    [
        ("two_state", ["ruin", "--u", "nan", "--n-stages", "4", "--i0", "0"]),
        ("two_state", ["convergence-study", "--quantity", "ruin", "--u", "nan", "--i0", "0"]),
        ("two_state", ["first-return", "--z", "nan"]),
        ("two_state", ["first-return", "--z", "-1"]),
        ("two_state", ["simulate", "--horizon", "2", "--z", "-1"]),
        ("two_state", ["mc", "first-return", "--n-paths", "50"]),
        ("two_state", ["mc", "bridge", "--z", "-0.000001"]),
        ("two_state", ["mc", "bridge", "--n-paths", "100", "--start-state", "5"]),
        ("two_state", ["mc", "ruin", "--u", "1", "--n-paths", "100", "--start-state", "-1"]),
        ("two_state", ["mc", "ruin", "--u", "1", "--horizon", "-1"]),
        ("two_state", ["first-return", "--theta1", "-0.5"]),
        ("two_state", ["mc", "first-return", "--theta1", "-0.5"]),
        ("two_state", ["ruin", "--u", "1", "--n-stages", "1", "--i0", "5"]),
        ("two_state", ["mc", "ruin", "--u", "nan", "--n-paths", "100"]),
        ("two_state", ["mc", "first-return", "--z", "nan", "--n-paths", "100"]),
        ("calendar_switch", ["bridge", "--n-max", "3", "--theta1", "nan"]),
        ("calendar_switch", ["finite-time", "--horizon", "2", "--theta1", "nan"]),
        ("calendar_switch", ["first-return", "--theta1", "nan"]),
        ("two_state", ["first-return", "--theta2", "nan"]),
        ("calendar_switch", ["ruin", "--u", "1", "--n-stages", "1", "--i0", "0", "--theta2", "nan"]),
        ("two_state", ["bridge", "--n-max", "3", "--theta2", "nan"]),
        ("calendar_switch", ["finite-time", "--horizon", "nan"]),
        ("calendar_switch", ["finite-time", "--horizon", "inf"]),
        ("calendar_switch", ["finite-time", "--horizon", "2", "--z", "nan"]),
    ],
    ids=[
        "ruin_nan_capital",
        "convergence_study_nan_capital",
        "first_return_nan_z",
        "first_return_negative_z",
        "simulate_negative_z",
        "mc_too_few_paths",
        "mc_bridge_negative_z",
        "mc_bridge_start_state_too_large",
        "mc_ruin_negative_start_state",
        "mc_ruin_negative_horizon",
        "first_return_negative_theta1",
        "mc_first_return_negative_theta1",
        "ruin_entry_state_too_large",
        "mc_ruin_nan_capital",
        "mc_first_return_nan_z",
        "bridge_nan_theta1",
        "finite_time_nan_theta1",
        "first_return_nan_theta1",
        "first_return_nan_theta2",
        "ruin_nan_theta2",
        "split_bridge_nan_theta2",
        "finite_time_nan_horizon",
        "finite_time_infinite_horizon",
        "finite_time_nan_z",
    ],
)
def test_invalid_arguments_exit_invalid(tmp_path, name, args):
    out = tmp_path / "out"
    assert main(args + [str(_config(tmp_path, name)), "--out", str(out)]) == EXIT_INVALID
    assert not (out / "manifest.json").exists()


# Each mc mode parses only its own flags: the bridge histogram takes no
# transform argument, epoch cap, capital or horizon, and only it takes --n.
@pytest.mark.parametrize(
    "mode, flags",
    [
        ("bridge", ["--theta1", "0.3"]),
        ("bridge", ["--theta2", "0.2"]),
        ("bridge", ["--max-epochs", "1"]),
        ("bridge", ["--u", "1"]),
        ("bridge", ["--horizon", "2"]),
        ("first-return", ["--n", "3"]),
        ("first-return", ["--u", "1"]),
        ("ruin", ["--u", "1", "--n", "3"]),
    ],
    ids=[
        "mc_bridge_theta1",
        "mc_bridge_theta2",
        "mc_bridge_max_epochs",
        "mc_bridge_capital",
        "mc_bridge_horizon",
        "mc_first_return_order",
        "mc_first_return_capital",
        "mc_ruin_order",
    ],
)
def test_mc_rejects_the_flags_of_other_modes(two_state_config, tmp_path, mode, flags):
    out = tmp_path / "out"
    args = ["mc", mode, str(two_state_config), "--out", str(out), "--n-paths", "500"]
    with pytest.raises(SystemExit) as err:
        main(args + flags)
    assert err.value.code == EXIT_INVALID
    assert not out.exists()


def test_simulate_without_paths_exits_invalid_and_writes_nothing(two_state_config, tmp_path):
    out = tmp_path / "out"
    args = ["simulate", str(two_state_config), "--out", str(out), "--horizon", "1", "--n-paths", "0"]
    assert main(args) == EXIT_INVALID
    assert not (out / "paths.csv").exists()


def test_ruin_convergence_study_reports_the_descriptor_grid_values(two_state_config, tmp_path):
    out = tmp_path / "study"
    args = "--quantity ruin --n-stages 1 --i0 0 --n-paths 2000".split() + THETA
    code = main(["convergence-study", str(two_state_config), "--out", str(out)] + args)
    with open(out / "convergence_study.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    res = ruin_descriptor(two_state_model(), 1.0, 1, 0.3, 0.2, i0=0)
    # One exact solve: the numeric error is the solver's own figure, never zero.
    assert list(row) == STUDY_COLUMNS
    assert float(row["analytic"]) == res.value
    assert float(row["numeric_error_estimate"]) == res.info["tail_estimate"] > 0.0
    # The Monte Carlo side samples the same Erlang-randomized capital.
    assert code == EXIT_OK
    assert row["inside"] == "True"


@pytest.mark.parametrize("theta", [("0", "0"), ("0.3", "0.2")], ids=["theta0", "theta_03_02"])
def test_first_return_convergence_study_solves_once(two_state_config, tmp_path, theta):
    out = tmp_path / "study"
    args = ["--quantity", "first-return", "--n-paths", "2000", "--theta1", theta[0], "--theta2", theta[1]]
    code = main(["convergence-study", str(two_state_config), "--out", str(out)] + args)
    with open(out / "convergence_study.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert code == EXIT_OK
    assert row["inside"] == "True"
    assert list(row) == STUDY_COLUMNS
    assert float(row["numeric_error_estimate"]) > 0.0


@pytest.mark.parametrize("name", ["pareto_renewal", "calendar_switch"])
def test_first_return_convergence_study_refuses_a_duration_dependent_kernel(
    tmp_path, monkeypatch, capsys, name
):
    def never(*args, **kwargs):
        raise AssertionError("solved or sampled a duration-dependent first return")

    monkeypatch.setattr(cli, "psi", never)
    monkeypatch.setattr(cli, "mc_first_return", never)
    config = _config(tmp_path, name)
    args = ["convergence-study", str(config), "--out", str(tmp_path / "out"), "--n-paths", "100"]
    assert main(args) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "duration-free kernel" in err
    assert "--quantity ruin" in err
    assert not (tmp_path / "out" / "convergence_study.csv").exists()


def test_certain_first_return_mass_stays_a_probability(two_state_config, tmp_path):
    # two_state drifts down at theta = 0, so return is certain.
    out = tmp_path / "out"
    assert main(["first-return", str(two_state_config), "--out", str(out)]) == EXIT_OK
    with open(out / "first_return.csv", newline="") as fh:
        mass = sum(float(row["value"]) for row in csv.DictReader(fh))
    assert mass <= 1.0
    assert abs(mass - 1.0) <= 1e-12


def test_ruin_convergence_study_at_the_default_stage_count(two_state_config, tmp_path):
    out = tmp_path / "study"
    args = "--quantity ruin --i0 0 --n-paths 2000".split() + THETA
    code = main(["convergence-study", str(two_state_config), "--out", str(out)] + args)
    with open(out / "convergence_study.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert code == EXIT_OK
    assert row["inside"] == "True"


@pytest.mark.parametrize("name", ["pareto_renewal", "calendar_switch"])
def test_ruin_on_a_duration_dependent_model_exits_ok(tmp_path, name):
    args = ["ruin", str(_config(tmp_path, name)), "--out", str(tmp_path / "out")]
    assert main(args + "--u 1 --n-stages 4 --i0 0".split() + THETA) == EXIT_OK


def test_ruin_past_the_lift_phase_cap_exits_invalid(tmp_path, capsys):
    config = gallery_configs()["two_state"]
    kernel = config["kernel"]
    config["kernel"] = {
        "type": "piecewise_constant",
        "breakpoints": [1e4 / kernel["gamma"]],
        "C_pieces": [kernel["C"]] * 2,
        "D_pieces": [kernel["D"]] * 2,
        "gamma": kernel["gamma"],
    }
    path = tmp_path / "far_breakpoint.json"
    path.write_text(json.dumps(config))
    args = ["ruin", str(path), "--out", str(tmp_path / "out"), "--u", "1", "--n-stages", "4"]
    assert main(args + ["--i0", "0"] + THETA) == EXIT_INVALID
    assert "phases, above the cap" in capsys.readouterr().err


def test_ruin_convergence_study_on_a_duration_dependent_model(tmp_path):
    out = tmp_path / "study"
    config = _config(tmp_path, "pareto_renewal")
    args = "--quantity ruin --n-stages 4 --i0 0 --n-paths 4000".split() + THETA
    code = main(["convergence-study", str(config), "--out", str(out)] + args)
    with open(out / "convergence_study.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    res = ruin_descriptor(pareto_renewal_model(), 1.0, 4, 0.3, 0.2, i0=0)
    assert float(row["analytic"]) == res.value
    # The band carries the lift's discretization term.
    assert float(row["numeric_error_estimate"]) == res.info["tail_estimate"]
    assert res.info["tail_estimate"] >= res.info["discretization"] > 0.0
    assert code == EXIT_OK
    assert row["inside"] == "True"


def test_threads_flag_only_on_the_monte_carlo_subcommands(two_state_config):
    parser = build_parser()
    with pytest.raises(SystemExit) as err:
        parser.parse_args(["validate", str(two_state_config), "--threads", "2"])
    assert err.value.code == EXIT_INVALID
    for argv in (["mc", "first-return"], ["convergence-study"]):
        args = parser.parse_args(argv[:1] + argv[1:] + [str(two_state_config), "--threads", "2"])
        assert args.threads == 2


def test_bridge_binary_dump_round_trips(two_state_config, tmp_path):
    out = tmp_path / "out"
    args = ["bridge", str(two_state_config), "--out", str(out), "--n-max", "3"]
    assert main(args + ["--z", "0.5", "--binary", "bridge.bin"] + THETA) == EXIT_OK
    raw = (out / "bridge.bin").read_bytes()
    assert raw[:8] == b"FRBRIDG1"
    dims = struct.unpack_from("<5Q", raw, 8)
    floats = struct.unpack_from("<7d", raw, 48)
    orders = struct.unpack_from(f"<{dims[0]}Q", raw, 104)
    values = np.frombuffer(raw, dtype="<f8", offset=104 + 8 * dims[0]).reshape(dims)

    model = two_state_model()
    grid = LevelDurationGrid.for_model(model)
    tensor = bridge_recursion(model, grid, 0.3, 0.2, n_max=3)
    assert orders == (2, 3)
    assert dims == (2, 1, 1, grid.n_durations, grid.n_levels)
    assert floats == (0.3, 0.2, 0.5, grid.u_max, grid.du, grid.l_max, grid.dl)
    for k, n in enumerate(orders):
        np.testing.assert_array_equal(values[k], tensor.value(n, 0.5))


def test_manifest_records_the_command_and_config_hash(two_state_config, tmp_path):
    out = tmp_path / "out"
    assert main(["bridge", str(two_state_config), "--out", str(out), "--n-max", "2"]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "bridge"
    assert manifest["config_hash"] == config_hash(str(two_state_config))
    assert manifest["parameters"]["n_max"] == 2
    assert manifest["parameters"]["theta1"] == 0.0
    assert manifest["seed"] is None
    assert manifest["version"] == __version__
    assert manifest["wall_clock_seconds"] >= 0.0


def test_capped_finite_time_series_exits_no_convergence(tmp_path):
    path = tmp_path / "cal.json"
    path.write_text(json.dumps(gallery_configs()["calendar_switch"]))
    out = tmp_path / "out"
    args = ["finite-time", str(path), "--out", str(out)]
    with pytest.warns(UserWarning, match="capped"):
        code = main(args + ["--horizon", "2", "--m-max", "3"])
    assert code == EXIT_NO_CONVERGENCE
    # A run that does not converge still records itself.
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "finite-time"
    assert manifest["parameters"]["m_max"] == 3


@pytest.mark.parametrize(
    "threads, env, code",
    [("0", "", EXIT_INVALID), ("-2", "", EXIT_INVALID), (None, "0", EXIT_INVALID)]
    + [("1", "0", EXIT_OK)],
    ids=["flag_zero", "flag_negative", "env_zero", "flag_overrides_env"],
)
def test_nonpositive_thread_counts_exit_invalid(
    two_state_config, tmp_path, monkeypatch, threads, env, code
):
    monkeypatch.setenv("FLUIDRISK_THREADS", env)
    args = ["mc", "first-return", str(two_state_config), "--out", str(tmp_path)]
    args += ["--n-paths", "100"] + THETA
    if threads is not None:
        args += ["--threads", threads]
    assert main(args) == code
