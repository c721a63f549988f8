"""End-to-end tests for the command-line front end."""
import json
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import dahp.config
import dahp.experiments
import helpers
from dahp import optimal_price, population_model
from dahp.cli import main
from dahp.config import config_hash, load_config, resolved_dict
from dahp.experiments import COMMANDS, load_inputs, run_renewable
from dahp.timeseries import mean_day, synthetic_weather, synthetic_wholesale

TINY = """\
seed: 42
consumers:
  count: 2
  alpha: 0.55
  beta: 0.12
  mu: 0.8
  desired_temp: [18.0, 22.0]
  process_noise_var: 0.01
  obs_noise_var: 0.01
weather:
  days: 2
wholesale:
  days: 2
eta_grid: [0.0, 0.5, 1.0]
benchmarks:
  points: 6
renewable:
  capacity_grid: [5.0, 50.0]
storage:
  capacity: 4.0
  charge_limit: 2.0
  discharge_limit: 2.0
  eta_grid: [0.5]
  max_evals: 30
simulate:
  eta: 0.5
  thermostat_tolerances: [0.0, 2.0]
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(TINY)
    return path


def _run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pareto_writes_tradeoff(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, stderr = _run(["pareto", "--config", str(tiny_config), "--out", str(out)], capsys)
    assert code == 0 and stderr == ""
    assert str(out / "tradeoff.csv") in stdout
    lines = (out / "tradeoff.csv").read_text().splitlines()
    assert lines[0].startswith("eta,cs,rp,sw,price_01") and lines[0].endswith("price_24")
    assert len(lines) == 4  # header + one row per eta
    # welfare-maximizing tariff earns the retailer nothing
    assert lines[3].split(",")[2] == "0.0000"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "pareto"
    assert manifest["seed"] == 42
    assert manifest["outputs"] == ["tradeoff.csv"]


def test_benchmarks_writes_four_traces(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, _ = _run(["benchmarks", "--config", str(tiny_config), "--out", str(out)], capsys)
    assert code == 0
    for scheme in ("dahp", "cp", "tou", "pmp"):
        f = out / f"benchmark_{scheme}.csv"
        assert f.exists()
        lines = f.read_text().splitlines()
        assert lines[0] == "param,cs,rp"
        assert len(lines) == 7


def test_renewable_output_shape(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    code, *_ = _run(["renewable", "--config", str(tiny_config), "--out", str(out)], capsys)
    assert code == 0
    lines = (out / "renewable.csv").read_text().splitlines()
    assert lines[0] == "eta,K,delta_cs,delta_rp,fraction"
    assert len(lines) == 1 + 3 * 2  # eta grid x capacity grid


def test_storage_output_shape(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    code, *_ = _run(["storage", "--config", str(tiny_config), "--out", str(out)], capsys)
    assert code == 0
    lines = (out / "storage.csv").read_text().splitlines()
    assert lines[0].startswith("eta,cs,rp,arbitrage_volume,price_01")
    assert len(lines) == 2


def test_simulate_output_shape(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    code, *_ = _run(["simulate", "--config", str(tiny_config), "--out", str(out)], capsys)
    assert code == 0
    lines = (out / "simulate.csv").read_text().splitlines()
    assert lines[0] == "consumer_id,day,payment,discomfort,surplus"
    assert len(lines) == 1 + 2 * 2  # consumers x days
    base = (out / "baseline.csv").read_text().splitlines()
    assert base[0] == "tolerance,consumer_id,day,payment,discomfort,surplus"
    assert len(base) == 1 + 2 * 2 * 2  # x tolerances


def test_config_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("seed: 1\nconsumer:\n  count: 2\n")  # typo'd section
    code, stdout, stderr = _run(["pareto", "--config", str(bad), "--out", str(tmp_path / "o")], capsys)
    assert code == 2 and stdout == ""
    record = json.loads(stderr)
    assert record["error"] == "config"
    assert "consumer" in record["message"]
    assert stderr.count("\n") == 1  # exactly one line


@pytest.mark.parametrize("text, key, line", [
    ("seed: 1\nseed: 2\n", "seed", 2),
    ("seed: 1\nconsumers:\n  count: 3\nwholesale:\n  days: 1\nconsumers:\n  count: 4\n", "consumers", 6),
])
def test_repeated_config_key_exit_2_naming_the_key_and_its_line(tmp_path, capsys, text, key, line):
    config = tmp_path / "repeated.yaml"
    config.write_text(text)
    code, stdout, stderr = _run(["pareto", "--config", str(config), "--out", str(tmp_path / "o")], capsys)
    assert code == 2 and stdout == "" and stderr.count("\n") == 1
    record = json.loads(stderr)
    assert record["error"] == "config"
    assert f"found duplicate key '{key}'" in record["message"] and f"line {line}, column" in record["message"]
    assert not (tmp_path / "o").exists()


def test_data_error_exit_3(tmp_path, capsys):
    broken = tmp_path / "weather.csv"
    broken.write_text("date," + ",".join(f"h{i:02d}" for i in range(1, 25)) + "\n2024-01-01,1,2\n")
    cfg = tmp_path / "config.yaml"
    cfg.write_text(f"seed: 1\nweather:\n  source: file\n  path: {broken}\n")
    code, _, stderr = _run(["pareto", "--config", str(cfg), "--out", str(tmp_path / "o")], capsys)
    assert code == 3
    record = json.loads(stderr)
    assert record["error"] == "data"
    assert "lines" in record["message"]


def test_numerical_error_exit_4(tmp_path, capsys):
    # a leaky battery that starts charged but cannot discharge has no
    # feasible dispatch, so the storage study fails as a numerical error
    cfg = tmp_path / "config.yaml"
    cfg.write_text(
        "seed: 1\nconsumers:\n  count: 1\nstorage:\n"
        "  capacity: 10\n  initial_soc: 10\n  storage_eff: 0.5\n"
        "  charge_limit: 0.0\n  discharge_limit: 0.0\n  eta_grid: [0.5]\n"
    )
    code, _, stderr = _run(["storage", "--config", str(cfg), "--out", str(tmp_path / "o")], capsys)
    assert code == 4
    assert json.loads(stderr)["error"] == "numerical"


def test_unplanned_error_exits_1_with_one_json_line(tiny_config, tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr("dahp.cli.run_experiment", fail)
    code, stdout, stderr = _run(["pareto", "--config", str(tiny_config), "--out", str(tmp_path / "o")], capsys)
    _assert_failed(code, stdout, stderr, 1, "internal", "boom")


@pytest.mark.parametrize("marginal_cost", [-0.1, 1e6])
def test_invalid_marginal_cost_exit_2(tiny_config, tmp_path, capsys, marginal_cost):
    # negative is rejected up front; at or above wholesale fails in the solve
    tiny_config.write_text(TINY.replace(
        "  capacity_grid: [5.0, 50.0]\n",
        f"  capacity_grid: [5.0, 50.0]\n  marginal_cost: {marginal_cost}\n",
    ))
    code, stdout, stderr = _run(
        ["renewable", "--config", str(tiny_config), "--out", str(tmp_path / "o")], capsys
    )
    assert code == 2 and stdout == ""
    record = json.loads(stderr)
    assert record["error"] == "config"
    assert "renewable.marginal_cost" in record["message"]


@pytest.mark.parametrize("capacity", [".inf", ".nan"])
def test_non_finite_capacity_exit_2(tiny_config, tmp_path, capsys, capacity):
    tiny_config.write_text(TINY.replace("capacity_grid: [5.0, 50.0]", f"capacity_grid: [5.0, {capacity}]"))
    code, stdout, stderr = _run(
        ["renewable", "--config", str(tiny_config), "--out", str(tmp_path / "o")], capsys
    )
    assert code == 2 and stdout == ""
    record = json.loads(stderr)
    assert record["error"] == "config"
    assert "renewable.capacity_grid" in record["message"]


@pytest.mark.parametrize("key,value", [
    ("max_evals", "0"), ("max_evals", "2.5"), ("max_evals", "true"),
    ("count", "-2"), ("count", "1.5"), ("count", "true"),
])
def test_invalid_storage_integers_exit_2(tiny_config, tmp_path, capsys, key, value):
    tiny_config.write_text(TINY.replace("  eta_grid: [0.5]\n", f"  eta_grid: [0.5]\n  {key}: {value}\n")
                           .replace("  max_evals: 30\n", "" if key == "max_evals" else "  max_evals: 30\n"))
    code, stdout, stderr = _run(
        ["storage", "--config", str(tiny_config), "--out", str(tmp_path / "o")], capsys
    )
    assert code == 2 and stdout == ""
    record = json.loads(stderr)
    assert record["error"] == "config"
    assert f"storage.{key}" in record["message"]


def test_storage_manifest_records_search_counters(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    code, *_ = _run(["storage", "--config", str(tiny_config), "--out", str(out)], capsys)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    (search,) = manifest["counters"]["storage_search"]
    assert set(search) == {"eta", "n_evals", "truncated", "improved", "lp_solves", "lp_pivots",
                           "basis_reuses"}
    assert search["eta"] == 0.5
    assert search["truncated"] is True  # a budget of 30 evaluations
    # one battery spec, planned at every evaluation and at the result
    assert search["lp_solves"] + search["basis_reuses"] == search["n_evals"] + 1
    assert search["lp_solves"] >= 1


def test_simulate_manifest_records_consumer_days(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    code, *_ = _run(["simulate", "--config", str(tiny_config), "--out", str(out)], capsys)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    # 2 consumers x 2 days: one noise key per day, shared by every policy
    assert manifest["counters"] == {"consumer_days": 4, "substreams": 2}
    assert manifest["noise_scheme"] == 3


_TOLERANCES = "  thermostat_tolerances: [0.0, 2.0]\n"
_POINTS = "  points: 6\n"


@pytest.mark.parametrize("old, new, command, key", [
    pytest.param("seed: 42\n", "seed: true\n", "pareto", "seed", id="seed-bool"),
    pytest.param("  count: 2\n", "  count: true\n", "pareto", "consumers.count", id="count-bool"),
    pytest.param("weather:\n  days: 2\n", "weather:\n  days: true\n", "pareto", "weather.days",
                 id="days-bool"),
    pytest.param("  eta: 0.5\n", "  eta: true\n", "simulate", "simulate.eta", id="eta-bool"),
    *[
        pytest.param(_TOLERANCES, f"  thermostat_tolerances: {value}\n", "simulate",
                     "simulate.thermostat_tolerances", id=f"tolerances-{value}")
        for value in ("3", "[.inf]", "[.nan]", "[true]", "[-1.0]", "[abc]")
    ],
    *[
        pytest.param(_POINTS, f"{_POINTS}  {field}: {value}\n", "benchmarks", f"benchmarks.{field}",
                     id=f"{field}-{value}")
        for field, value in (
            ("peak_end", "30"), ("peak_end", "12.5"), ("peak_end", "true"),
            ("peak_start", "-1"), ("peak_start", "17"),
            ("tou_ratio", "abc"), ("tou_ratio", "0"), ("tou_ratio", ".inf"), ("tou_ratio", "true"),
        )
    ],
])
def test_invalid_config_values_exit_2(tiny_config, tmp_path, capsys, old, new, command, key):
    assert old in TINY
    tiny_config.write_text(TINY.replace(old, new, 1))
    code, stdout, stderr = _run(
        [command, "--config", str(tiny_config), "--out", str(tmp_path / "o")], capsys
    )
    assert code == 2 and stdout == ""
    record = json.loads(stderr)
    assert record["error"] == "config"
    assert key in record["message"]


def test_a_command_resolves_its_config_once(tiny_config, tmp_path, capsys, monkeypatch):
    # the manifest's config and its config_hash come from one resolved_dict
    # (a deep copy of the config), and the hash is still config_hash's
    calls = []

    def counted(config):
        calls.append(config)
        return resolved_dict(config)

    monkeypatch.setattr(dahp.config, "resolved_dict", counted)
    monkeypatch.setattr(dahp.experiments, "resolved_dict", counted)
    out = tmp_path / "out"
    code, *_ = _run(["pareto", "--config", str(tiny_config), "--out", str(out)], capsys)
    assert code == 0 and len(calls) == 1
    monkeypatch.undo()
    config = load_config(tiny_config)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == json.loads(json.dumps(resolved_dict(config)))
    assert manifest["config_hash"] == config_hash(config)


def test_seed_override_applies(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    code, *_ = _run(
        ["pareto", "--config", str(tiny_config), "--out", str(out), "--seed", "99"], capsys
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 99
    assert manifest["config"]["seed"] == 99


def test_bad_seed_override_rejected(tiny_config, tmp_path, capsys):
    code, _, stderr = _run(
        ["pareto", "--config", str(tiny_config), "--out", str(tmp_path / "o"), "--seed", "-5"],
        capsys,
    )
    assert code == 2
    assert json.loads(stderr)["error"] == "config"


def test_default_out_dir_comes_from_config(tiny_config, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, stdout, _ = _run(["pareto", "--config", str(tiny_config)], capsys)
    assert code == 0
    assert (tmp_path / "runs" / "tradeoff.csv").exists()


def test_reruns_are_byte_identical(tiny_config, tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert _run(["pareto", "--config", str(tiny_config), "--out", str(out_a)], capsys)[0] == 0
    assert _run(["pareto", "--config", str(tiny_config), "--out", str(out_b)], capsys)[0] == 0
    assert (out_a / "tradeoff.csv").read_bytes() == (out_b / "tradeoff.csv").read_bytes()
    a = json.loads((out_a / "manifest.json").read_text())
    b = json.loads((out_b / "manifest.json").read_text())
    a.pop("wall_time_s"), b.pop("wall_time_s")
    assert a == b


def test_different_seed_changes_output(tiny_config, tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    _run(["simulate", "--config", str(tiny_config), "--out", str(out_a)], capsys)
    _run(["simulate", "--config", str(tiny_config), "--out", str(out_b), "--seed", "43"], capsys)
    assert (out_a / "simulate.csv").read_bytes() != (out_b / "simulate.csv").read_bytes()


# Every command in one fresh interpreter through ``dahp.cli.main``; scipy is
# a test dependency only, so no run may import it.
_NO_SCIPY_RUN = """\
import sys
from dahp.cli import main
from dahp.experiments import COMMANDS
config, out = sys.argv[1:]
for command in COMMANDS:
    assert main([command, "--config", config, "--out", f"{out}/{command}"]) == 0, command
loaded = sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
assert not loaded, loaded
"""


def test_module_entry_point(tiny_config, tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "dahp", "pareto", "--config", str(tiny_config), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "tradeoff.csv").exists()
    runs = tmp_path / "runs"
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_RUN, str(tiny_config), str(runs)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(path.name for path in runs.iterdir()) == sorted(COMMANDS)


@pytest.mark.parametrize("args, words", [
    (["frobnicate", "--config", "x.yaml"], "invalid choice: 'frobnicate'"),
    (["pareto"], "required: --config"),
    (["pareto", "--config", "x.yaml", "--seed", "abc"], "invalid int value: 'abc'"),
    (["pareto", "--config", "x.yaml", "--frobnicate"], "unrecognized arguments: --frobnicate"),
    ([], "required: command"),
], ids=["unknown command", "no config", "seed not an integer", "unknown flag", "nothing"])
def test_a_bad_command_line_exits_2_with_one_json_line(args, words, capsys):
    # the README's error contract, not argparse's usage text and SystemExit
    code, stdout, stderr = _run(args, capsys)
    assert code == 2 and stdout == "" and stderr.count("\n") == 1
    record = json.loads(stderr)
    assert record["error"] == "config" and words in record["message"]


@pytest.mark.parametrize("args", [["-h"], ["pareto", "--help"]])
def test_help_still_exits_0(args, capsys):
    with pytest.raises(SystemExit) as info:
        main(args)
    captured = capsys.readouterr()
    assert info.value.code == 0 and captured.out.startswith("usage: dahp") and captured.err == ""


DEMO = Path(__file__).resolve().parents[1] / "configs" / "demo.yaml"


def _demo_config(tmp_path, changes=()):
    """``configs/demo.yaml`` cut to three consumers, with dotted keys replaced."""
    config = yaml.safe_load(DEMO.read_text())
    config["consumers"]["count"] = 3
    for key, value in changes:
        *sections, name = key.split(".")
        node = config
        for section in sections:
            node = node[section]
        node[name] = value
    path = tmp_path / "demo.yaml"
    path.write_text(yaml.safe_dump(config))
    return path


def _assert_failed(code, stdout, stderr, expected_code, kind, key=None):
    assert (code, stdout) == (expected_code, "")
    assert stderr.count("\n") == 1
    record = json.loads(stderr)
    assert record["error"] == kind
    assert key is None or key in record["message"]


@pytest.mark.parametrize("key, value, command, named", [
    ("storage.capacity", [1], "storage", "storage.capacity"),
    ("storage.capacity", [1], "pareto", "storage.capacity"),  # checked whichever command runs
    ("storage.storage_eff", None, "storage", "storage.storage_eff"),
    ("storage.charge_limit", math.nan, "storage", "storage.charge_limit"),
    ("storage.charge_eff", "0.9", "storage", "storage.charge_eff"),
    ("consumers.process_noise_var", math.nan, "pareto", "consumers.process_noise_var"),
    ("consumers.obs_noise_var", math.nan, "simulate", "consumers.obs_noise_var"),
    ("consumers.mu", math.nan, "pareto", "consumers.mu"),
    ("consumers.beta", [0.1, math.inf], "pareto", "consumers.beta"),
    ("eta_grid", [0, math.nan], "pareto", "eta_grid"),
    ("storage.eta_grid", [0.5, math.nan], "storage", "storage.eta_grid"),
    ("eta_grid", [True, 1], "pareto", "eta_grid"),
    ("weather", {"source": "file", "path": 5}, "pareto", "weather.path"),
])
def test_invalid_demo_values_exit_2(tmp_path, capsys, key, value, command, named):
    config = _demo_config(tmp_path, [(key, value)])
    result = _run([command, "--config", str(config), "--out", str(tmp_path / "o")], capsys)
    _assert_failed(*result, 2, "config", named)


def test_output_dir_must_be_a_path(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = _demo_config(tmp_path, [("output_dir", 5)])
    _assert_failed(*_run(["pareto", "--config", str(config)], capsys), 2, "config", "output_dir")


@pytest.mark.parametrize("command", ["pareto", "simulate"])
def test_non_positive_wholesale_mean_exit_3(tmp_path, capsys, command):
    prices = tmp_path / "prices.csv"
    prices.write_text(
        "date," + ",".join(f"h{i:02d}" for i in range(1, 25)) + "\n"
        "2024-01-01,-5," + ",".join(["30"] * 23) + "\n"
    )
    config = _demo_config(tmp_path, [("wholesale", {"source": "file", "path": str(prices)})])
    code, stdout, stderr = _run([command, "--config", str(config), "--out", str(tmp_path / "o")], capsys)
    _assert_failed(code, stdout, stderr, 3, "data", str(prices))
    assert "hours [1]" in json.loads(stderr)["message"]


@pytest.mark.parametrize("command", ["pareto", "simulate"])
def test_non_utf8_data_file_exit_3(tmp_path, capsys, command):
    weather = tmp_path / "weather.csv"
    header = "date," + ",".join(f"h{i:02d}" for i in range(1, 25))
    weather.write_bytes(f"{header}\n2024-01-01,{','.join(['30'] * 24)}\n".encode() + b"\xe9\n")
    config = _demo_config(tmp_path, [("weather", {"source": "file", "path": str(weather)})])
    code, stdout, stderr = _run([command, "--config", str(config), "--out", str(tmp_path / "o")], capsys)
    _assert_failed(code, stdout, stderr, 3, "data", str(weather))
    assert "utf-8" in json.loads(stderr)["message"]


def test_non_utf8_config_exit_2(tmp_path, capsys):
    config = _demo_config(tmp_path)
    config.write_bytes(config.read_bytes() + b"# caf\xe9\n")
    code, stdout, stderr = _run(["pareto", "--config", str(config), "--out", str(tmp_path / "o")], capsys)
    _assert_failed(code, stdout, stderr, 2, "config", str(config))
    assert "utf-8" in json.loads(stderr)["message"]


@pytest.mark.parametrize("command", ["pareto", "benchmarks", "renewable", "storage", "simulate"])
@pytest.mark.parametrize("key, value", [("consumers.beta", 1e-300), ("consumers.desired_temp", 1e308)])
def test_overflowing_population_model_exit_4(tmp_path, capsys, command, key, value):
    config = _demo_config(tmp_path, [(key, value)])
    result = _run([command, "--config", str(config), "--out", str(tmp_path / "o")], capsys)
    _assert_failed(*result, 4, "numerical")


def test_renewable_at_a_point_solved_to_rounding_exit_0(tmp_path, capsys):
    # alpha 1e-20 puts hours exactly on the zero-demand kink at four (eta, K)
    # cells, and the regime test flips them between classifications until
    # the solves run out: a residual that is rounding error is a solution
    config = _demo_config(tmp_path, [("consumers.count", 10), ("consumers.alpha", 1e-20)])
    code, _, stderr = _run(["renewable", "--config", str(config), "--out", str(tmp_path / "o")], capsys)
    assert (code, stderr) == (0, "")
    assert len((tmp_path / "o" / "renewable.csv").read_text().splitlines()) == 1 + 33


def test_renewable_without_a_consistent_regime_exit_4(tmp_path, capsys):
    config = _demo_config(tmp_path, [("consumers.count", 10), ("consumers.mu", 1e-300)])
    result = _run(["renewable", "--config", str(config), "--out", str(tmp_path / "o")], capsys)
    _assert_failed(*result, 4, "numerical", "no consistent demand regime")


def test_unbounded_battery_lp_exit_4(tmp_path, capsys):
    # Warm set points drive the eta = 0 seed tariff below zero in one hour;
    # with losses and no rate limits the battery LP is then unbounded, which
    # is not an unreachable terminal state of charge.
    config = _demo_config(tmp_path, [("consumers.desired_temp", 40.0), ("storage.charge_limit", math.inf),
                                     ("storage.discharge_limit", math.inf)])
    result = _run(["storage", "--config", str(config), "--out", str(tmp_path / "o")], capsys)
    _assert_failed(*result, 4, "numerical", "unbounded")
    assert "terminal state" not in json.loads(result[2])["message"]


def test_large_battery_storage_exit_0(tmp_path, capsys):
    # A 1e12 kWh battery's plans balance only up to rounding of its size,
    # which the plan check's tolerance, relative to the capacity and rate
    # limits, allows; an absolute one made this exit 4.
    config = _demo_config(tmp_path, [("storage.capacity", 1e12), ("storage.charge_limit", 1e12),
                                     ("storage.discharge_limit", 1e12), ("storage.eta_grid", [0.5]),
                                     ("storage.max_evals", 100)])
    code, stdout, stderr = _run(["storage", "--config", str(config), "--out", str(tmp_path / "o")], capsys)
    assert (code, stderr) == (0, "")


@pytest.mark.parametrize("ratio", [1e308, 1e-300])
def test_overflowing_benchmark_tariffs_exit_4(tmp_path, capsys, ratio):
    config = _demo_config(tmp_path, [("benchmarks.tou_ratio", ratio)])
    result = _run(["benchmarks", "--config", str(config), "--out", str(tmp_path / "o")], capsys)
    _assert_failed(*result, 4, "numerical", "tou")


def test_a_tou_sweep_past_the_largest_float_exit_4(tmp_path, capsys):
    # a subnormal ratio puts the TOU sweep's top, the zero-demand level
    # over the ratio, at infinity: a numerical failure, not bad input
    config = _demo_config(tmp_path, [("benchmarks.tou_ratio", 1e-310)])
    result = _run(["benchmarks", "--config", str(config), "--out", str(tmp_path / "o")], capsys)
    _assert_failed(*result, 4, "numerical", "tou benchmark sweep")


@pytest.mark.parametrize("command, change, named", [
    ("benchmarks", ("benchmarks.tou_ratio", 1e308), "tou"),
    ("simulate", ("simulate.thermostat_tolerances", [0.0, 1e308]), "baseline.csv"),
])
def test_a_study_that_exits_nonzero_writes_no_csv(tmp_path, capsys, command, change, named):
    # each study fails after it has made a finite table, which must not
    # reach the output directory either, nor must a manifest
    config = _demo_config(tmp_path, [change])
    out = tmp_path / "o"
    result = _run([command, "--config", str(config), "--out", str(out)], capsys)
    _assert_failed(*result, 4, "numerical", named)
    assert list(out.iterdir()) == []


def test_infeasible_battery_exit_4_before_any_plan(tmp_path, capsys):
    # a charged battery that loses half its charge an hour and cannot
    # recharge misses its terminal state of charge: its LP raises when it
    # is built, and the run writes nothing
    config = _demo_config(tmp_path, [("storage.initial_soc", 10.0), ("storage.storage_eff", 0.5),
                                     ("storage.charge_limit", 0.0), ("storage.discharge_limit", 0.0)])
    out = tmp_path / "o"
    result = _run(["storage", "--config", str(config), "--out", str(out)], capsys)
    _assert_failed(*result, 4, "numerical", "terminal state")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("via_flag", [False, True])
def test_output_dir_naming_a_file_exit_2(tmp_path, capsys, via_flag):
    taken = tmp_path / "taken"
    taken.write_text("")
    if via_flag:
        args = ["pareto", "--config", str(_demo_config(tmp_path)), "--out", str(taken)]
    else:
        args = ["pareto", "--config", str(_demo_config(tmp_path, [("output_dir", str(taken))]))]
    _assert_failed(*_run(args, capsys), 2, "config", str(taken))


@pytest.mark.parametrize("changes, named", [
    ([("storage.capacity", math.inf), ("storage.initial_soc", math.inf)], "storage.initial_soc"),
    ([("storage.capacity", math.inf), ("storage.charge_limit", math.inf), ("storage.discharge_limit", math.inf)],
     "finite charge or discharge limit"),
], ids=["infinite initial soc", "no finite bound"])
def test_unlimited_battery_exit_2(tmp_path, capsys, changes, named):
    config = _demo_config(tmp_path, changes)
    result = _run(["storage", "--config", str(config), "--out", str(tmp_path / "o")], capsys)
    _assert_failed(*result, 2, "config", named)


@pytest.mark.parametrize("name", ["tradeoff.csv", "manifest.json"])
def test_output_file_that_is_a_directory_exit_2(tmp_path, capsys, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    result = _run(["pareto", "--config", str(_demo_config(tmp_path)), "--out", str(out)], capsys)
    _assert_failed(*result, 2, "config", name)


# A week of distinct days, in a file whose rows are out of date order.
WEEK_DATES = [f"2021-07-{day:02d}" for day in (4, 1, 7, 2, 6, 3, 5)]


def _week_config(tmp_path, layout, changes=()):
    """The cut demo config on a seeded week of weather and $/MWh prices,
    both files in ``layout`` with their rows shuffled and a blank line,
    with dotted keys replaced as ``_demo_config`` does."""
    rng = np.random.default_rng(2105)
    weather = np.round(synthetic_weather(1)[0].values + rng.normal(0.0, 0.5, (7, 24)), 3)
    prices = np.round(1000.0 * synthetic_wholesale(1)[0].values * rng.uniform(0.8, 1.2, (7, 24)), 3)
    sources = []
    for name, days in (("weather", weather), ("wholesale", prices)):
        rows = helpers.series_rows(WEEK_DATES, days, layout)
        rows = [rows[i] for i in rng.permutation(len(rows))]
        rows.insert(3, "")
        path = helpers.write_series(tmp_path / f"{name}.csv", layout, rows)
        sources.append((name, {"source": "file", "path": str(path)}))
    return _demo_config(tmp_path, [*sources, ("storage.eta_grid", [0.5]), *changes])


@pytest.mark.parametrize("command", COMMANDS)
def test_shuffled_week_gives_the_same_bytes_in_either_layout(tmp_path, capsys, command):
    outputs = {}
    for layout in ("wide", "long"):
        out = tmp_path / layout / "out"
        out.parent.mkdir()
        config = _week_config(out.parent, layout)
        code, _, stderr = _run([command, "--config", str(config), "--out", str(out)], capsys)
        assert (code, stderr) == (0, "")
        names = json.loads((out / "manifest.json").read_text())["outputs"]
        outputs[layout] = {name: (out / name).read_bytes() for name in names}
    assert outputs["wide"] == outputs["long"]


FRONT_10K_RENEWABLE = [("consumers.count", 10_000), ("renewable.capacity_grid", [1e4, 5e4, 2e5])]


@pytest.mark.parametrize("week", ["synthetic", "seeded"])
def test_renewable_at_front_10k_scale_splits_the_benefit_at_the_lowest_demand(tmp_path, capsys, week):
    # a plant no larger than K*(eta), the smallest hourly demand under the
    # optimal tariff, leaves that tariff as it is, so the consumers' share
    # is exactly 0; a larger one gives them a positive share, never above
    # its large-plant limit 1 / (3 - 2 eta)
    if week == "synthetic":
        config = _demo_config(tmp_path, FRONT_10K_RENEWABLE)
    else:
        config = _week_config(tmp_path, "wide", FRONT_10K_RENEWABLE)
    out = tmp_path / "out"
    code, _, stderr = _run(["renewable", "--config", str(config), "--out", str(out)], capsys)
    assert (code, stderr) == (0, "")
    assert len((out / "renewable.csv").read_text().splitlines()) == 1 + 33
    loaded = load_config(config)
    population, weather, cost = load_inputs(loaded)
    tables, _ = run_renewable(loaded, population, weather, cost)
    header, columns = tables["renewable.csv"]
    model = population_model(population, mean_day(weather))
    for eta, capacity, fraction in zip(*(columns[header.index(name)] for name in ("eta", "K", "fraction"))):
        threshold = (model.intercept_mean - model.gain @ optimal_price(model, cost, eta)).min()
        assert fraction == 0.0 if capacity <= threshold else fraction > 0.0, (eta, capacity, threshold)
        assert fraction <= 1.0 / (3.0 - 2.0 * eta), (eta, capacity)


def _defective_rows(layout, defect):
    """Two days of rows in ``layout`` with one defect, and a 1-based line
    that the error must list."""
    rows = helpers.series_rows(WEEK_DATES[:2], np.full((2, 24), 20.0), layout)
    if defect == "duplicate":
        return [*rows, rows[0]], len(rows) + 2  # a repeated date, or hour
    if defect == "missing hour" and layout == "long":
        return rows[:1] + rows[2:], 3  # day one lacks hour 01; the error lists that day's lines
    head = rows[1].rsplit(",", 1)[0]  # line 3 without its last cell
    rows[1] = {"cell count": head, "missing hour": head + ","}.get(defect, f"{head},{defect}")
    return rows, 3


@pytest.mark.parametrize("defect", ["cell count", "oops", "nan", "inf", "-inf", "1e309", "duplicate", "missing hour"])
@pytest.mark.parametrize("layout", ["wide", "long"])
def test_defective_data_rows_exit_3_naming_file_and_line(tmp_path, capsys, layout, defect):
    _assert_rows_exit_3_naming_line(tmp_path, capsys, layout, *_defective_rows(layout, defect))


@pytest.mark.parametrize("stamp", ["05:30:00", "05:00:01", "05:00:00.250"])
def test_long_row_off_the_hour_exits_3_naming_file_and_line(tmp_path, capsys, stamp):
    rows = helpers.series_rows(WEEK_DATES[:1], np.full((1, 24), 20.0), "long")
    rows[5] = rows[5].replace("05:00:00", stamp)
    _assert_rows_exit_3_naming_line(tmp_path, capsys, "long", rows, 7)


@pytest.mark.parametrize("first, other", [("Z", "+02:00"), ("", "+00:00"), ("-05:00", "")],
                         ids=["utc-and-plus-2", "naive-then-utc", "offset-then-naive"])
def test_long_rows_with_mixed_utc_offsets_exit_3_naming_file_and_line(tmp_path, capsys, first, other):
    # hours are read off the wall clock, so an offset other than the first
    # stamp's would misplace the hour; a naive stamp counts as one more offset
    rows = helpers.series_rows(WEEK_DATES[:1], np.arange(24.0)[None], "long")
    rows = [row.replace(":00:00,", f":00:00{other if hour % 2 else first},") for hour, row in enumerate(rows)]
    _assert_rows_exit_3_naming_line(tmp_path, capsys, "long", rows, 3)


def _assert_rows_exit_3_naming_line(tmp_path, capsys, layout, rows, line):
    weather = helpers.write_series(tmp_path / "weather.csv", layout, rows)
    config = _demo_config(tmp_path, [("weather", {"source": "file", "path": str(weather)})])
    code, stdout, stderr = _run(["pareto", "--config", str(config), "--out", str(tmp_path / "o")], capsys)
    _assert_failed(code, stdout, stderr, 3, "data", str(weather))
    listed = re.search(r"lines \[([\d, ]+)\]", json.loads(stderr)["message"]).group(1)
    assert line in [int(number) for number in listed.split(",")]


@pytest.mark.parametrize("command", ["pareto", "renewable", "storage", "benchmarks"])
def test_non_finite_study_outputs_exit_4(tmp_path, capsys, command):
    # 1e300 degC is finite, so the data loads, but every surplus overflows
    rows = helpers.series_rows(["2024-07-01"], np.full((1, 24), 1e300), "wide")
    weather = helpers.write_series(tmp_path / "weather.csv", "wide", rows)
    config = _demo_config(tmp_path, [("weather", {"source": "file", "path": str(weather)}),
                                     ("storage.eta_grid", [0.5])])
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # pytest would record a warning instead of letting it reach stderr
        result = _run([command, "--config", str(config), "--out", str(out)], capsys)
    _assert_failed(*result, 4, "numerical", "not finite")
    assert list(out.iterdir()) == []
