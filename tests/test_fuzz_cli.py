"""Property test: whatever the configuration, the CLI ends with a
documented exit code (0, or 2/3/4 with one JSON error line), never 1."""
import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dahp.cli import main
from dahp.experiments import COMMANDS

DEMO = Path(__file__).resolve().parents[1] / "configs" / "demo.yaml"
PRICES = "<prices.csv>"  # stands for a wide CSV whose hour 1 has a negative price


def _tiny_demo() -> dict:
    config = yaml.safe_load(DEMO.read_text())
    config["consumers"]["count"] = 3
    config["weather"]["days"] = config["wholesale"]["days"] = 1
    config["eta_grid"] = [0.0, 0.5, 1.0]
    config["benchmarks"]["points"] = 4
    config["renewable"]["capacity_grid"] = [10.0]
    config["storage"].update(count=1, eta_grid=[0.5], max_evals=20)
    return config


BASE = _tiny_demo()
KEYS = [(name,) for name in BASE] + [
    (name, key) for name, section in BASE.items() if isinstance(section, dict) for key in section
]
# Integers stay small: large valid sizes are slow, not wrong.
SCALARS = st.one_of(
    st.booleans(),
    st.none(),
    st.integers(-3, 30),
    st.sampled_from([0.0, 0.5, 1.5, -1.0, 1e-300, 1e300, 1e308, math.inf, -math.inf, math.nan]),
    st.sampled_from(["", "abc", "0.9", "file", "synthetic", ".", PRICES]),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["source", "path", "days", "count", "x"]), inner, max_size=2),
    ),
    max_leaves=4,
)
NAN, INF = math.nan, math.inf
PROBES = [
    [(("storage", "capacity"), [1])], [(("storage", "storage_eff"), None)],
    [(("storage", "charge_limit"), NAN)], [(("consumers", "process_noise_var"), NAN)],
    [(("consumers", "obs_noise_var"), NAN)], [(("consumers", "mu"), NAN)],
    [(("consumers", "beta"), [0.1, INF])], [(("eta_grid",), [0, NAN])],
    [(("storage", "eta_grid"), [0.5, NAN])], [(("eta_grid",), [True, 1])], [(("output_dir",), 5)],
    [(("weather",), {"source": "file", "path": 5})],
    [(("wholesale",), {"source": "file", "path": PRICES})],
    [(("consumers", "beta"), 1e-300)], [(("consumers", "desired_temp"), 1e308)],
]


def _run(changes, command):
    config = copy.deepcopy(BASE)
    for key, value in changes:
        node = config
        for name in key[:-1]:
            node = node[name]
        if isinstance(node, dict):  # an earlier change may have replaced the section
            node[key[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        prices = Path(tmp) / "prices.csv"
        prices.write_text(
            "date," + ",".join(f"h{i:02d}" for i in range(1, 25)) + "\n2024-01-01,-5," + ",".join(["30"] * 23) + "\n"
        )
        path = Path(tmp) / "config.yaml"
        path.write_text(yaml.safe_dump(config).replace(PRICES, str(prices)))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
    return code, stdout.getvalue(), stderr.getvalue()


def _examples(test):
    for changes in PROBES:
        for command in COMMANDS:
            test = example(changes, command)(test)
    return test


@settings(max_examples=150, deadline=None, derandomize=True)
@_examples
@given(st.lists(st.tuples(st.sampled_from(KEYS), VALUES), min_size=1, max_size=3), st.sampled_from(COMMANDS))
def test_any_config_ends_with_a_documented_exit_code(changes, command):
    code, stdout, stderr = _run(changes, command)
    assert code in (0, 2, 3, 4), stderr
    if code:
        assert stdout == ""
        assert stderr.count("\n") == 1 and stderr.endswith("\n")
        assert json.loads(stderr)["error"] in ("config", "data", "numerical")
