"""Command-line front end: reproducible artifacts and exit codes."""

import csv
import json
import struct

import numpy as np
import pytest

from fluidrisk import LevelDurationGrid, __version__, bridge_recursion, config_hash, ruin_descriptor
from fluidrisk.cli import EXIT_INVALID, EXIT_NO_CONVERGENCE, EXIT_OK, build_parser, main
from fluidrisk.gallery import gallery_configs, two_state_model

# Positive transform arguments cap the ruin level window, which keeps each
# ruin solve well under a second.
THETA = ["--theta1", "0.3", "--theta2", "0.2"]


@pytest.fixture
def two_state_config(tmp_path):
    path = tmp_path / "two_state.json"
    path.write_text(json.dumps(gallery_configs()["two_state"]))
    return path


@pytest.mark.parametrize(
    "args, artifact",
    [
        (["ruin", "--u", "1", "--n-stages", "1", "--i0", "0"] + THETA, "ruin.csv"),
        (["bridge", "--n-max", "4"], "bridge.csv"),
    ],
)
def test_reruns_write_byte_identical_csv(two_state_config, tmp_path, args, artifact):
    outputs = []
    for run in ("first", "second"):
        out = tmp_path / run
        assert main([args[0], str(two_state_config), "--out", str(out)] + args[1:]) == EXIT_OK
        outputs.append((out / artifact).read_bytes())
    assert outputs[0] == outputs[1]


def test_malformed_config_exits_invalid(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", str(bad), "--out", str(tmp_path / "out")]) == EXIT_INVALID


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--horizon", "2", "--z", "-1"],
        ["mc", "first-return", "--n-paths", "50"],
        ["mc", "bridge", "--z", "-0.000001"],
        ["mc", "bridge", "--n-paths", "100", "--start-state", "5"],
        ["mc", "ruin", "--u", "1", "--n-paths", "100", "--start-state", "-1"],
        ["first-return", "--theta1", "-0.5"],
        ["mc", "first-return", "--theta1", "-0.5"],
        ["ruin", "--u", "1", "--n-stages", "1", "--i0", "5"],
    ],
    ids=[
        "simulate_negative_z",
        "mc_too_few_paths",
        "mc_bridge_negative_z",
        "mc_bridge_start_state_too_large",
        "mc_ruin_negative_start_state",
        "first_return_negative_theta1",
        "mc_first_return_negative_theta1",
        "ruin_entry_state_too_large",
    ],
)
def test_invalid_arguments_exit_invalid(two_state_config, tmp_path, args):
    assert main(args + [str(two_state_config), "--out", str(tmp_path)]) == EXIT_INVALID


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
    raw = ruin_descriptor(two_state_model(), 1.0, 1, 0.3, 0.2, i0=0).info["raw_values"]
    assert float(row["analytic_raw"]) == raw[0]
    assert float(row["analytic_refined"]) == raw[1]
    # The Monte Carlo side samples the same Erlang-randomized capital.
    assert code == EXIT_OK
    assert row["inside"] == "True"


def test_ruin_convergence_study_at_the_default_stage_count(two_state_config, tmp_path):
    out = tmp_path / "study"
    args = "--quantity ruin --i0 0 --n-paths 2000".split() + THETA
    code = main(["convergence-study", str(two_state_config), "--out", str(out)] + args)
    with open(out / "convergence_study.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
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
    args = ["finite-time", str(path), "--out", str(tmp_path / "out")]
    with pytest.warns(UserWarning, match="capped"):
        code = main(args + ["--horizon", "2", "--m-max", "3"])
    assert code == EXIT_NO_CONVERGENCE


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
