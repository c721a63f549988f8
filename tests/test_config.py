"""Tests for the YAML experiment configuration layer."""
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

from dahp import config as config_module
from dahp.cli import main
from dahp.config import (
    ExperimentConfig,
    PopulationSpec,
    StorageSpec,
    batteries_from_spec,
    config_hash,
    draw_population,
    load_config,
    resolve_eta_grid,
    resolved_dict,
    validate_config,
)
from dahp.errors import ConfigError
from dahp.simulate import substream


def _write(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


MINIMAL = "seed: 7\n"


def test_minimal_config_gets_defaults(tmp_path):
    config = load_config(_write(tmp_path, MINIMAL))
    assert config.seed == 7
    assert config.output_dir == "runs"
    assert config.consumers.count == 10
    assert config.weather.source == "synthetic"
    assert config.eta_grid == [0.0, 1.0, 101]


def test_missing_seed_rejected(tmp_path):
    with pytest.raises(ConfigError) as info:
        load_config(_write(tmp_path, "output_dir: runs\n"))
    assert "seed" in str(info.value)


def test_unknown_root_key_named(tmp_path):
    with pytest.raises(ConfigError) as info:
        load_config(_write(tmp_path, "seed: 1\npopulation:\n  count: 3\n"))
    assert "population" in str(info.value)


def test_unknown_section_key_named(tmp_path):
    with pytest.raises(ConfigError) as info:
        load_config(_write(tmp_path, "seed: 1\nconsumers:\n  n: 3\n"))
    assert "consumers.n" in str(info.value)


def test_section_must_be_mapping(tmp_path):
    with pytest.raises(ConfigError) as info:
        load_config(_write(tmp_path, "seed: 1\nconsumers: [1, 2]\n"))
    assert "mapping" in str(info.value)


def test_bad_yaml_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "seed: [unclosed\n"))


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.yaml")


def test_negative_seed_rejected(tmp_path):
    with pytest.raises(ConfigError) as info:
        load_config(_write(tmp_path, "seed: -3\n"))
    assert "nonnegative" in str(info.value)


def test_file_source_requires_existing_path(tmp_path):
    with pytest.raises(ConfigError) as info:
        load_config(_write(tmp_path, "seed: 1\nweather:\n  source: file\n"))
    assert "weather.path" in str(info.value)
    with pytest.raises(ConfigError) as info:
        load_config(
            _write(tmp_path, "seed: 1\nweather:\n  source: file\n  path: /nope.csv\n")
        )
    assert "/nope.csv" in str(info.value)


def test_bad_source_rejected(tmp_path):
    with pytest.raises(ConfigError) as info:
        load_config(_write(tmp_path, "seed: 1\nwholesale:\n  source: api\n"))
    assert "wholesale.source" in str(info.value)


def test_simulate_eta_bounds(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "seed: 1\nsimulate:\n  eta: 1.5\n"))


def test_empty_capacity_grid_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "seed: 1\nrenewable:\n  capacity_grid: []\n"))


def test_eta_grid_three_number_form():
    grid = resolve_eta_grid([0.0, 1.0, 5])
    assert np.allclose(grid, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_eta_grid_short_lists_stay_explicit():
    # three floats, or an integer count of 3 or less, is a literal grid
    assert np.allclose(resolve_eta_grid([0.0, 0.5, 1.0]), [0.0, 0.5, 1.0])
    assert np.allclose(resolve_eta_grid([0.0, 0.5, 1]), [0.0, 0.5, 1.0])


def test_eta_grid_rejects_bad_values():
    with pytest.raises(ConfigError):
        resolve_eta_grid([0.5, 0.2])  # descending
    with pytest.raises(ConfigError):
        resolve_eta_grid([0.0, 1.2])  # out of range
    with pytest.raises(ConfigError):
        resolve_eta_grid([])
    with pytest.raises(ConfigError):
        resolve_eta_grid(["low", "high"])


def test_population_scalar_fields():
    spec = PopulationSpec(count=4, alpha=0.6, beta=0.2, mu=1.0, desired_temp=21.0)
    population = draw_population(spec, seed=11)
    assert len(population) == 4
    for params in population:
        assert params.alpha == 0.6
        assert params.beta == 0.2
        assert np.all(params.desired_temp == 21.0)


def test_drawn_setpoints_are_one_column_broadcast_over_the_hours():
    # each consumer's one drawn setpoint is a read-only zero-stride view over
    # the 24 hours, not a 1.92 MB (10,000, 24) copy, and each scalar field is
    # one value broadcast to every consumer: about 0.08 MB stays allocated
    # (the drawn setpoint column) and 0.10 MB at the peak on numpy 2.4, where
    # (10,000,) copies of the five scalars kept 0.48 MB and peaked at 0.91 MB,
    # and a setpoint copy as well kept 2.32 MB and peaked at 2.76 MB
    spec = PopulationSpec(count=10_000, desired_temp=[18.0, 22.0])
    draw_population(spec, seed=5)  # first-call costs outside the trace
    tracemalloc.start()
    try:
        population = draw_population(spec, seed=5)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 1e6 and peak < 1.5e6
    setpoints = population.desired_temp
    assert setpoints.shape == (10_000, 24) and setpoints.strides[1] == 0 and not setpoints.flags.writeable


def test_drawn_scalar_fields_are_read_only_zero_stride_views():
    population = draw_population(PopulationSpec(count=1_000, alpha=[0.3, 0.7], mu=2.0, desired_temp=21.0), seed=5)
    for name in ("beta", "mu", "process_noise_var", "obs_noise_var"):
        field = getattr(population, name)
        assert field.shape == (1_000,) and field.strides == (0,) and not field.flags.writeable, name
        with pytest.raises(ValueError):
            field[0] = 1.0
    assert population.mu[-1] == 2.0 and population.alpha.strides != (0,)
    assert population.desired_temp.shape == (1_000, 24) and population.desired_temp.strides == (0, 0)
    assert np.all(population.desired_temp == 21.0)


def test_population_range_fields_deterministic():
    spec = PopulationSpec(count=50, alpha=[0.3, 0.7], mu=[0.2, 2.0])
    a = draw_population(spec, seed=5)
    b = draw_population(spec, seed=5)
    c = draw_population(spec, seed=6)
    assert [p.alpha for p in a] == [p.alpha for p in b]
    assert [p.alpha for p in a] != [p.alpha for p in c]
    alphas = np.array([p.alpha for p in a])
    assert np.all((alphas >= 0.3) & (alphas <= 0.7))
    assert alphas.std() > 0.01  # actually varies


def _scalar_draws(spec: PopulationSpec, seed: int) -> list[dict]:
    """The population as drawn one consumer and one field at a time."""
    rng = substream(seed, 1)

    def draw(value):
        return float(value) if isinstance(value, (int, float)) else float(rng.uniform(*value))

    consumers = []
    for _ in range(spec.count):
        desired = draw(spec.desired_temp)
        consumers.append(dict(
            alpha=draw(spec.alpha), beta=draw(spec.beta), mu=draw(spec.mu),
            desired_temp=np.full(24, desired),
            process_noise_var=draw(spec.process_noise_var), obs_noise_var=draw(spec.obs_noise_var),
        ))
    return consumers


@pytest.mark.parametrize("spec", [
    PopulationSpec(count=300, alpha=[0.2, 0.8], beta=[0.05, 0.3], mu=[0.2, 2.0],
                   desired_temp=[17.0, 24.0], process_noise_var=[0.0, 0.05],
                   obs_noise_var=[0.001, 0.05]),
    PopulationSpec(count=40, desired_temp=[18.0, 22.0], mu=[0.5, 0.5], obs_noise_var=0),
    PopulationSpec(count=3),
])
def test_population_matches_scalar_draws(spec):
    population = draw_population(spec, seed=17)
    expected = _scalar_draws(spec, seed=17)
    assert len(population) == len(expected)
    for params, fields in zip(population, expected):
        for name, value in fields.items():
            assert np.array_equal(getattr(params, name)[0], value), name


def test_population_bad_range_rejected():
    with pytest.raises(ConfigError):
        draw_population(PopulationSpec(count=1, alpha=[0.7, 0.3]), seed=0)
    with pytest.raises(ConfigError):
        draw_population(PopulationSpec(count=1, beta="wide"), seed=0)


def test_population_invalid_parameters_become_config_errors():
    with pytest.raises(ConfigError) as info:
        draw_population(PopulationSpec(count=1, alpha=1.5), seed=0)
    assert "consumer" in str(info.value)


def test_batteries_from_spec():
    spec = StorageSpec(count=3, capacity=8.0, charge_eff=0.9)
    batteries = batteries_from_spec(spec)
    assert len(batteries) == 3
    assert batteries[0].capacity == 8.0
    assert batteries[0] == batteries[1]
    with pytest.raises(ConfigError):
        batteries_from_spec(StorageSpec(charge_eff=1.5))


def test_config_hash_changes_iff_fields_change(tmp_path):
    base = load_config(_write(tmp_path, "seed: 3\nconsumers:\n  count: 5\n", "a.yaml"))
    same = load_config(
        _write(tmp_path, "consumers:\n  count: 5\nseed: 3\n", "b.yaml")
    )  # key order is irrelevant
    assert config_hash(base) == config_hash(same)
    for other_text in (
        "seed: 4\nconsumers:\n  count: 5\n",
        "seed: 3\nconsumers:\n  count: 6\n",
        "seed: 3\nconsumers:\n  count: 5\n  alpha: 0.4\n",
    ):
        other = load_config(_write(tmp_path, other_text, "c.yaml"))
        assert config_hash(other) != config_hash(base)


def test_resolved_dict_is_plain_data():
    config = ExperimentConfig(seed=1)
    resolved = resolved_dict(config)
    assert resolved["seed"] == 1
    assert resolved["consumers"]["count"] == 10
    assert isinstance(resolved["storage"]["eta_grid"], list)


def test_demo_config_loads_and_validates():
    config = load_config(Path(__file__).resolve().parents[1] / "configs" / "demo.yaml")
    assert (config.seed, config.consumers.count, config.storage.count) == (2024, 10, 5)
    validate_config(config)
    assert len(draw_population(config.consumers, config.seed)) == 10
    assert len(batteries_from_spec(config.storage)) == 5
    assert resolve_eta_grid(config.eta_grid).size == 11


@pytest.mark.parametrize("spec", [
    PopulationSpec(count=1, mu=math.nan),
    PopulationSpec(count=1, process_noise_var=math.nan),
    PopulationSpec(count=1, beta=[0.1, math.inf]),
    PopulationSpec(count=1, desired_temp=True),
])
def test_population_spec_checked_by_schema(spec):
    with pytest.raises(ConfigError):
        draw_population(spec, seed=0)


@pytest.mark.parametrize("spec", [
    StorageSpec(charge_limit=math.nan),
    StorageSpec(capacity=[1]),
    StorageSpec(storage_eff=None),
    StorageSpec(charge_eff="0.9"),
    StorageSpec(count=True),
])
def test_storage_spec_checked_by_schema(spec):
    with pytest.raises(ConfigError):
        batteries_from_spec(spec)


def test_unlimited_battery_rates_accepted():
    (battery,) = batteries_from_spec(StorageSpec(charge_limit=math.inf, discharge_limit=math.inf))
    assert battery.charge_limit == math.inf


@pytest.mark.parametrize("grid", [[0.0, math.nan], [math.nan, 1.0, 5], [True, 1], [0.0, 1.0, True]])
def test_eta_grid_rejects_nan_and_bools(grid):
    with pytest.raises(ConfigError):
        resolve_eta_grid(grid)


@pytest.mark.parametrize("text, value", [("1e3", 1000.0), ("1e-300", 1e-300), ("+1E+3", 1000.0)])
def test_exponent_without_dot_loads_as_float(tmp_path, text, value):
    config = load_config(_write(tmp_path, f"seed: 7\nstorage:\n  capacity: {text}\n"))
    assert config.storage.capacity == value and isinstance(config.storage.capacity, float)


def test_quoted_exponent_stays_a_string(tmp_path):
    with pytest.raises(ConfigError, match="storage.capacity"):
        load_config(_write(tmp_path, 'seed: 7\nstorage:\n  capacity: "1e3"\n'))


_LOADER_BASES = [
    pytest.param(getattr(yaml, "CSafeLoader", None), id="libyaml",
                 marks=pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")),
    pytest.param(yaml.SafeLoader, id="python"),
]

# every documented value form, each under its own key
_VALUE_FORMS = """\
seed: 7
consumers:
  count: 20
  alpha: [0.25, 0.75]
  beta: [-0.2, -1e-1]
  mu: 1e3
  desired_temp: +1E+1
renewable:
  marginal_cost: 1e-300
  capacity_grid: [10, 5.0e1, 2e2]
storage:
  capacity: .inf
  charge_limit: -.INF
  eta_grid: [0.0, 1.0, 5]
"""


@pytest.mark.parametrize("base", _LOADER_BASES)
def test_both_yaml_parsers_load_equal_documents(base):
    demo = (Path(__file__).resolve().parents[1] / "configs" / "demo.yaml").read_text()
    for text in (demo, _VALUE_FORMS):
        ours = yaml.load(text, Loader=config_module._loader(base))
        python = yaml.load(text, Loader=config_module._loader(yaml.SafeLoader))
        assert repr(ours) == repr(python)  # repr tells 1000.0 from 1000
    forms = yaml.load(_VALUE_FORMS, Loader=config_module._loader(base))
    assert repr(forms["consumers"]) == repr(
        {"count": 20, "alpha": [0.25, 0.75], "beta": [-0.2, -0.1], "mu": 1000.0, "desired_temp": 10.0})
    assert repr(forms["renewable"]) == repr({"marginal_cost": 1e-300, "capacity_grid": [10, 50.0, 200.0]})
    assert repr(forms["storage"]) == repr({"capacity": math.inf, "charge_limit": -math.inf, "eta_grid": [0.0, 1.0, 5]})


@pytest.mark.parametrize("base", _LOADER_BASES)
@pytest.mark.parametrize("text, message", [
    ("seed: 7\nstorage:\n  charge_eff: \"0.9\"\n", "'storage.charge_eff' must be"),
    ("seed: 7\nstorage:\n  capacity: true\n", "'storage.capacity' must be"),
    ("seed: 7\nconsumers:\n  count: yes\n", "'consumers.count' must be"),
    ("seed: 7\nconsumers:\n  mu: [false, 1.0]\n", "'consumers.mu' must be"),
    ("seed: [unclosed\n", "not valid YAML"),
    ("seed: 7\n  bad: indent\n", "not valid YAML"),
    ("seed: 7\nstorage: {capacity: 1\n", "not valid YAML"),
    ("seed: 7\n\x07\n", "not valid YAML"),
    ("seed: !!python/object:os.system 7\n", "not valid YAML"),
])
def test_both_yaml_parsers_reject_the_same_documents(base, text, message, tmp_path, monkeypatch, capsys):
    # numeric strings and booleans are no numbers, and invalid YAML is a
    # configuration error: exit 2 on either parser
    monkeypatch.setattr(config_module, "_Loader", config_module._loader(base))
    assert main(["pareto", "--config", str(_write(tmp_path, text)), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("base", _LOADER_BASES)
@pytest.mark.parametrize("text, key, line", [
    ("seed: 1\nseed: 2\n", "'seed'", 2),
    ("seed: 1\nconsumers:\n  count: 3\n  alpha: 0.5\n  count: 4\n", "'count'", 5),  # within a section
    ("seed: 1\nconsumers: {count: 3}\nweather: {days: 2}\nconsumers: {count: 4}\n", "'consumers'", 4),
    ("seed: 1\nstorage:\n  eta_grid: [0.5]\n  capacity: 1.0\n  capacity: 1e3\n", "'capacity'", 5),
    ("seed: 1\n1: a\n1.0: b\n", "1.0", 3),  # equal keys written differently
])
def test_a_repeated_key_is_a_config_error_naming_the_key_and_its_line(base, text, key, line, tmp_path, monkeypatch):
    # the last value used to win silently, whichever section it sits in
    monkeypatch.setattr(config_module, "_Loader", config_module._loader(base))
    with pytest.raises(ConfigError, match="not valid YAML") as info:
        load_config(_write(tmp_path, text))
    assert f"found duplicate key {key}" in str(info.value) and f"line {line}, column" in str(info.value)


@pytest.mark.parametrize("base", _LOADER_BASES)
@pytest.mark.parametrize("text", [
    "base: &b {x: 1, y: 2}\nc:\n  <<: *b\n  x: 3\n",
    "base: &b {x: 1}\nd: &d {<<: *b, x: 2}\ne: {<<: *d}\nf: {<<: [*d, {z: 4}], x: 5}\n",
    # c merges d, and so flattens it, before d itself is built
    "a:\n  b: &d {<<: {x: 1, y: 1}, x: 2}\nc: {<<: *d, y: 3}\n",
    "=: 1\na: 2\n",  # a value key, which flattening reads as the string "="
])
def test_merge_keys_keep_their_override_meaning(base, text):
    # a mapping's own key overrides a merged one; only its own keys must differ
    assert yaml.load(text, Loader=config_module._loader(base)) == yaml.load(text, Loader=yaml.SafeLoader)


@pytest.mark.parametrize("base", _LOADER_BASES)
def test_both_yaml_parsers_resolve_the_value_forms_alike(base, tmp_path, monkeypatch):
    monkeypatch.setattr(config_module, "_Loader", config_module._loader(base))
    config = load_config(_write(tmp_path, _VALUE_FORMS.replace("-.INF", ".inf")))
    assert (config.consumers.mu, config.renewable.marginal_cost, config.storage.capacity) == (1000.0, 1e-300, math.inf)
    assert resolve_eta_grid(config.storage.eta_grid).size == 5
    assert draw_population(config.consumers, config.seed).beta.max() <= -0.1
