import builtins
import csv
import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridgame import cli, experiment, levelk, neural, scenario
from gridgame.cli import main
from gridgame.experiment import (SWEEP_COLUMNS, TRACE_COLUMNS,
                                 ExperimentConfig, cell_grid, cell_rng,
                                 config_from_dict, config_to_dict, load_config,
                                 load_policy, player_train_configs,
                                 policy_filename, resolve_policy, run_eval,
                                 run_sweep, run_trace, run_train, save_policy,
                                 worker_count, write_csv)
from gridgame.levelk import QPolicy, TrainConfig, build_hierarchy, evaluate
from gridgame.neural import NetworkSpec, init
from gridgame.scenario import (ATTACKER, ATTACKER_ACTIONS, DEFENDER,
                               DEFENDER_ACTIONS, GridParams, as_netform,
                               attacker_observation, defender_observation,
                               initial_attacker_memory,
                               initial_defender_memory, level0_policies,
                               power_flow)
from oracles import assert_draws_nothing, params_equal


def default_config():
    return ExperimentConfig(grid=GridParams(), train=TrainConfig())


def tiny_config(**experiment_overrides):
    data = {
        "train": {"episodes": 2, "hidden_layers": [4]},
        "experiment": {
            "k_max": 1,
            "q3max_values": [0.7],
            "pairings": [[0, 0]],
            "eval_episodes": 2,
            "horizon": 10,
            "seeds": [1],
            **experiment_overrides,
        },
    }
    return config_from_dict(data)


def write_config(tmp_path, config_dict):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_dict))
    return path


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_default_config_round_trips():
    config = default_config()
    rebuilt = config_from_dict(config_to_dict(config))
    assert rebuilt == config


def test_unknown_top_level_key_rejected():
    with pytest.raises(ValueError, match="unknown top-level"):
        config_from_dict({"grids": {}})


def test_unknown_grid_key_rejected():
    with pytest.raises(ValueError, match="grid.*q3max"):
        config_from_dict({"grid": {"q3max": 0.7}})


def test_unknown_train_key_rejected():
    with pytest.raises(ValueError, match="train"):
        config_from_dict({"train": {"episode": 5}})


def test_unknown_experiment_key_rejected():
    with pytest.raises(ValueError, match="experiment"):
        config_from_dict({"experiment": {"kmax": 2}})


def test_config_validates_pairings_against_k_max():
    with pytest.raises(ValueError, match="pairing"):
        config_from_dict({"experiment": {"k_max": 1, "pairings": [[2, 0]]}})


def test_config_rejects_nonpositive_sweep_values():
    for values in ([0.0], []):
        with pytest.raises(ValueError, match="q3max_values"):
            config_from_dict({"experiment": {"q3max_values": values}})


@pytest.mark.parametrize("data, key", [
    ({"train": {"episodes": "5"}}, "train.episodes"),
    ({"experiment": {"horizon": True}}, "experiment.horizon"),
    ({"grid": {"q3_max": float("nan")}}, "grid.q3_max"),
    ({"train": {"learning_rate": float("inf")}}, "train.learning_rate"),
    ({"experiment": {"q3max_values": [0.7, float("nan")]}},
     "experiment.q3max_values"),
    ({"experiment": {"pairings": [[0, 0, 0]]}}, "experiment.pairings"),
    ({"grid": {"p2_range": 1.4}}, "grid.p2_range"),
])
def test_ill_typed_config_value_rejected_naming_its_key(data, key):
    with pytest.raises(ValueError, match=key.replace(".", r"\.")):
        config_from_dict(data)


def test_p2_range_of_non_finite_width_rejected():
    # numpy's uniform refused such a range only at the first load draw
    with pytest.raises(ValueError, match="p2_range width must be finite"):
        config_from_dict({"grid": {"p2_range": [-1e308, 1e308]}})


@pytest.mark.parametrize("experiment", [
    {"q3max_values": [1.0000001, 1.0000002]},  # same RNG stream and file name
    {"q3max_values": [1234567.0, 1234568.0]},  # same file name only
    {"q3max_values": [0.7, 0.7]},
    {"seeds": [1, 2, 1]},
    {"pairings": [[0, 0], [0, 0]]},  # two identical sweep rows
])
def test_colliding_config_values_rejected(experiment):
    with pytest.raises(ValueError, match=r"q3max_values|seeds|pairing \(0,0\)"):
        config_from_dict({"experiment": experiment})
    if "pairings" in experiment:  # built in code, as tuples; lists are refused
        pairings = tuple(map(tuple, experiment["pairings"]))
        with pytest.raises(ValueError, match=r"pairing \(0,0\) is listed more"):
            dataclasses.replace(tiny_config(), pairings=pairings)
        with pytest.raises(ValueError, match=r"^pairings must be a tuple, "
                                             r"got \[\[0, 0\], \[0, 0\]\]$"):
            dataclasses.replace(tiny_config(), **experiment)


@pytest.mark.parametrize("text, key", [
    ('{"train": {"episodes": 5, "episodes": 10}}', "episodes"),
    ('{"grid": {}, "grid": {"q3_max": 0.7}}', "grid"),
])
def test_duplicate_config_key_rejected(tmp_path, text, key):
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"duplicate key '{key}'"):
        load_config(path)


def test_train_seed_refused_as_unknown_key():
    for value in (99, None):
        with pytest.raises(ValueError, match=r"unknown key\(s\) in 'train': seed"):
            config_from_dict({"train": {"seed": value}})


@pytest.mark.parametrize("value", [5.0, 0.0])
def test_train_optimistic_bias_refused_pointing_to_player_biases(value):
    with pytest.raises(ValueError, match=r"train\.optimistic_bias.*"
                       r"experiment\.defender_optimistic_bias.*"
                       r"experiment\.attacker_optimistic_bias"):
        config_from_dict({"train": {"optimistic_bias": value}})


@pytest.mark.parametrize("value", [0.5, 1.0])
def test_grid_q3_max_refused_pointing_to_q3max_values(value):
    with pytest.raises(ValueError, match=r"'grid\.q3_max' is set per cell; use "
                       r"'experiment\.q3max_values'"):
        config_from_dict({"grid": {"q3_max": value}})


@pytest.mark.parametrize("section, value, message", [
    ("grid", GridParams(q3_max=5.0),
     r"'grid\.q3_max' is set per cell; use 'experiment\.q3max_values'"),
    ("train", TrainConfig(optimistic_bias=9.0),
     r"'train\.optimistic_bias' is set per player; use "
     r"'experiment\.defender_optimistic_bias'"),
])
def test_config_built_in_code_refuses_a_value_set_elsewhere(section, value,
                                                            message):
    """No config holds a value that every command overrides and that
    `config_to_dict` leaves out of the manifest."""
    sections = {"grid": GridParams(), "train": TrainConfig(), section: value}
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**sections)


def test_readme_config_example_loads():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
    config_from_dict(json.loads(example))


finite = st.floats(allow_nan=False, allow_infinity=False)
# circuit constants whose grids cannot overflow the circuit
circuit = st.floats(-1e6, 1e6)
unit = st.floats(0.0, 1.0)


@st.composite
def grids(draw):
    v1_min = draw(st.floats(0.5, 1.0))
    v1_max = v1_min + draw(st.floats(1e-6, 0.5))
    band = draw(st.floats(0.001, 0.1))
    p2_lo = draw(st.floats(-10.0, 10.0))
    return GridParams(
        r1=draw(circuit), r2=draw(circuit), x1=draw(circuit), x2=draw(circuit),
        v0=draw(st.floats(1e-6, 1e6)), tap_step=draw(st.floats(1e-6, 1.0)),
        v1_min=v1_min, v1_max=v1_max, band_halfwidth=band,
        strike_threshold=band + draw(st.floats(1e-6, 1.0)), p3=draw(circuit),
        p2_range=(p2_lo, p2_lo + draw(st.floats(0.0, 10.0))),
        q2_factor=draw(circuit), memory_window=draw(st.integers(1, 50)),
        v1_start=draw(st.floats(v1_min, v1_max)),
        defender_start_action=draw(st.integers(0, DEFENDER_ACTIONS - 1)),
        attacker_start_action=draw(st.integers(0, ATTACKER_ACTIONS - 1)))


@st.composite
def trains(draw):
    epsilon_start = draw(unit)
    return TrainConfig(
        episodes=draw(st.integers(0, 10 ** 6)),
        gamma=draw(st.floats(0.0, 1.0, exclude_max=True)),
        learning_rate=draw(st.floats(1e-9, 10.0)),
        epsilon_start=epsilon_start,
        epsilon_end=draw(st.floats(0.0, epsilon_start)),
        epsilon_decay=draw(unit), init_scale=draw(st.floats(0.0, 1e6)),
        hidden_layers=tuple(draw(st.lists(st.integers(1, 64), max_size=3))))


@st.composite
def experiment_configs(draw):
    k_max = draw(st.integers(0, 3))
    level = st.integers(0, k_max)
    # thousandths up to 1000 keep both the RNG key and the file name apart
    q3_steps = draw(st.lists(st.integers(1, 999_999), min_size=1, max_size=4,
                             unique=True))
    return ExperimentConfig(
        grid=draw(grids()), train=draw(trains()),
        defender_optimistic_bias=draw(finite),
        attacker_optimistic_bias=draw(finite), k_max=k_max,
        q3max_values=tuple(n / 1000 for n in q3_steps),
        pairings=tuple(draw(st.lists(st.tuples(level, level), max_size=4,
                                     unique=True))),
        eval_episodes=draw(st.integers(1, 10 ** 4)),
        horizon=draw(st.integers(1, 10 ** 4)),
        seeds=tuple(draw(st.lists(st.integers(0, 2 ** 32), min_size=1,
                                  max_size=4, unique=True))))


@settings(deadline=None)
@given(experiment_configs())
def test_config_round_trips_through_its_dict_and_json(config):
    data = config_to_dict(config)
    assert config_from_dict(data) == config
    assert config_from_dict(json.loads(json.dumps(data))) == config


def _bad_values(hint):
    """Values that the config check must refuse for a field of type `hint`."""
    if hint is int:
        return ["1", 1.5, True, [1], {}, None]
    if hint is float:
        return [math.nan, math.inf, -math.inf, "0.5", False, None, [0.5]]
    return ["x", 1, None, {}, [math.nan], [None], [True]]  # a tuple field


_CONFIG_FIELDS = [
    (section, key, typing.get_type_hints(cls)[key])
    for section, cls in (("grid", GridParams), ("train", TrainConfig),
                         ("experiment", ExperimentConfig))
    for key in config_to_dict(default_config())[section]]


@settings(deadline=None)
@given(st.sampled_from(_CONFIG_FIELDS).flatmap(
    lambda field: st.tuples(st.just(field[:2]),
                            st.sampled_from(_bad_values(field[2])))))
def test_ill_typed_or_non_finite_value_at_any_key_rejected_naming_it(case):
    (section, key), value = case
    with pytest.raises(ValueError, match=rf"'{section}\.{key}'"):
        config_from_dict({section: {key: value}})


def _built_in_code(section, key, value):
    """The default config's part `section` with `key` set to `value`."""
    part = default_config()
    if section != "experiment":
        part = getattr(part, section)
    return dataclasses.replace(part, **{key: value})


def test_loader_and_code_refuse_an_ill_typed_value_for_one_reason():
    """The loader hands each value over with its JSON lists turned into
    tuples, and refuses it for the reason that a config built in code gives;
    only the name of the field differs.  Built in code, a list is refused
    where a tuple belongs, so no config differs from its own round trip."""
    for section, key, hint in _CONFIG_FIELDS:
        for value in _bad_values(hint):
            loaded = tuple(value) if isinstance(value, list) else value
            with pytest.raises(ValueError) as built:
                _built_in_code(section, key, loaded)
            reason = re.fullmatch(rf"{key} (.+), got {re.escape(repr(loaded))}",
                                  str(built.value))
            assert reason, (section, key, value, str(built.value))
            with pytest.raises(ValueError) as read:
                config_from_dict({section: {key: value}})
            assert str(read.value) == \
                f"'{section}.{key}' {reason[1]}, got {value!r}"
            if isinstance(value, list) and typing.get_origin(hint) is tuple:
                with pytest.raises(ValueError, match=rf"^{key} must be a "
                                   rf"tuple, got {re.escape(repr(value))}$"):
                    _built_in_code(section, key, value)


def test_config_overrides_apply():
    config = config_from_dict({
        "grid": {"memory_window": 3, "p2_range": [1.0, 1.1]},
        "train": {"gamma": 0.9},
        "experiment": {"seeds": [5, 6]},
    })
    assert config.grid.memory_window == 3
    assert config.grid.p2_range == (1.0, 1.1)
    assert config.train.gamma == 0.9
    assert config.seeds == (5, 6)


def test_player_train_configs_bias_defaults():
    configs = player_train_configs(default_config())
    assert configs[DEFENDER].optimistic_bias == 0.0
    assert configs[ATTACKER].optimistic_bias == 2.0
    custom = config_from_dict({"experiment": {}})
    overridden = config_from_dict(
        {"experiment": {"attacker_optimistic_bias": 7.0,
                        "defender_optimistic_bias": -1.0}})
    assert player_train_configs(overridden)[ATTACKER].optimistic_bias == 7.0
    assert player_train_configs(overridden)[DEFENDER].optimistic_bias == -1.0
    for key in ("defender_optimistic_bias", "attacker_optimistic_bias"):
        with pytest.raises(ValueError,
                           match=f"'experiment.{key}' must be a number, got None"):
            config_from_dict({"experiment": {key: None}})
        for value in (float("nan"), float("inf"), -float("inf"), 10 ** 400):
            with pytest.raises(ValueError, match=f"^{key} must be finite"):
                dataclasses.replace(custom, **{key: value})


# Every integer field of the three config classes, and how to put one value
# into it: as the field itself, an entry of a tuple, or a level of a pairing.
INTEGER_FIELDS = [
    ("grid", "memory_window", lambda v: v),
    ("grid", "defender_start_action", lambda v: v),
    ("grid", "attacker_start_action", lambda v: v),
    ("train", "episodes", lambda v: v),
    ("train", "hidden_layers", lambda v: (4, v)),
    ("experiment", "k_max", lambda v: v),
    ("experiment", "eval_episodes", lambda v: v),
    ("experiment", "horizon", lambda v: v),
    ("experiment", "seeds", lambda v: (2, v)),
    ("experiment", "pairings", lambda v: ((0, 0), (v, 0))),
]


def _holds_ints(hint):
    return hint is int or any(map(_holds_ints, typing.get_args(hint)))


def test_integer_fields_are_every_int_field_of_the_config_classes():
    declared = {(section, name)
                for section, cls in [("grid", GridParams), ("train", TrainConfig),
                                     ("experiment", ExperimentConfig)]
                for name, hint in typing.get_type_hints(cls).items()
                if _holds_ints(hint)}
    assert declared == {(section, name) for section, name, _ in INTEGER_FIELDS}
    # every declared type is one that the field check knows: it gives a
    # reason to refuse None rather than raising TypeError
    for cls in (GridParams, TrainConfig, ExperimentConfig, scenario.NativeBattle):
        for name, hint in typing.get_type_hints(cls).items():
            assert isinstance(levelk.field_fault(hint, None), str), (cls, name)
    with pytest.raises(TypeError, match="^no field check for type"):
        levelk.field_fault(str, "x")


@pytest.mark.parametrize("value", [True, 2.5, np.int64(1)],
                         ids=["bool", "float", "numpy-int64"])
@pytest.mark.parametrize("section, name, put", INTEGER_FIELDS,
                         ids=[name for _, name, _ in INTEGER_FIELDS])
def test_config_built_in_code_refuses_a_non_int_in_an_integer_field(
        section, name, put, value):
    """The file loader refuses these; a config built in code does too, at
    construction, naming the field, rather than failing late (a numpy
    integer in the manifest) or changing meaning (a float seed that draws
    its integer part's streams under a file name of its own)."""
    valid = ExperimentConfig(grid=GridParams(), train=TrainConfig())
    part = valid if section == "experiment" else getattr(valid, section)
    assert dataclasses.replace(part, **{name: put(1)}) is not None
    with pytest.raises(ValueError, match=f"^{name} must hold only Python ints"):
        dataclasses.replace(part, **{name: put(value)})


def test_config_refuses_a_float_seed_beside_an_int_one():
    with pytest.raises(ValueError, match=r"^seeds must hold only Python ints, "
                                         r"got \(1, 1\.5\)"):
        ExperimentConfig(grid=GridParams(), train=TrainConfig(), seeds=(1, 1.5))


# ---------------------------------------------------------------------------
# policy files
# ---------------------------------------------------------------------------

def _dummy_policy(grid, player=ATTACKER):
    prior = level0_policies(grid)[player]
    spec = NetworkSpec(prior.feature_dim, (4,), prior.action_count)
    rng = np.random.default_rng(0)
    return QPolicy(init(spec, 0.1, 2.0, rng), prior.encoder)


def test_policy_save_load_round_trip(tmp_path):
    grid = GridParams(q3_max=0.7)
    policy = _dummy_policy(grid)
    path = tmp_path / policy_filename(ATTACKER, 1, 0.7, 3)
    save_policy(path, policy, ATTACKER, 1, 0.7, 3, TrainConfig())
    loaded = load_policy(path, grid, ATTACKER, 1, 3)
    assert params_equal(loaded.params, policy.params)
    assert loaded.params.spec == policy.params.spec
    assert sorted(json.loads(path.read_text())) == [
        "format_version", "level", "network", "player", "q3_max", "seed",
        "train_config"]


@pytest.mark.parametrize("player", [DEFENDER, ATTACKER])
def test_loaded_policy_never_draws_from_the_rng(tmp_path, player):
    grid = GridParams(q3_max=0.7)
    path = tmp_path / policy_filename(player, 1, 0.7, 3)
    save_policy(path, _dummy_policy(grid, player), player, 1, 0.7, 3,
                TrainConfig())
    assert_draws_nothing(load_policy(path, grid, player, 1, 3), grid, player)


@pytest.mark.parametrize("version", [1, 99, None, 2.0])
def test_policy_of_another_format_version_refused(tmp_path, version):
    grid = GridParams(q3_max=0.7)
    path = tmp_path / policy_filename(ATTACKER, 1, 0.7, 3)
    save_policy(path, _dummy_policy(grid), ATTACKER, 1, 0.7, 3, TrainConfig())
    payload = json.loads(path.read_text())
    payload["format_version"] = version
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError,
                       match=f"unsupported policy format version {version!r}"):
        load_policy(path, grid, ATTACKER, 1, 3)


def test_loaded_policy_encodes_like_its_level0_prior(tmp_path):
    grid = GridParams(q3_max=0.7)
    priors = level0_policies(grid)
    state = power_flow(1.4, 0.7, 1.0, 0.3, 1.02, grid)
    parents = {
        "defender_memory": initial_defender_memory(
            defender_observation(state), grid),
        "attacker_memory": initial_attacker_memory(
            attacker_observation(state), grid),
    }
    for player in (DEFENDER, ATTACKER):
        path = tmp_path / policy_filename(player, 1, 0.7, 1)
        save_policy(path, _dummy_policy(grid, player), player, 1, 0.7, 1,
                    TrainConfig())
        features = load_policy(path, grid, player, 1, 1).encoder(parents)
        assert features.tobytes() == priors[player].encoder(parents).tobytes()


@pytest.mark.parametrize("player, shaped_as", [(DEFENDER, ATTACKER),
                                                (ATTACKER, DEFENDER)])
def test_network_of_the_other_player_refused_at_load(tmp_path, player,
                                                      shaped_as):
    grid = GridParams(q3_max=0.7)
    path = tmp_path / policy_filename(player, 1, 0.7, 1)
    save_policy(path, _dummy_policy(grid, shaped_as), player, 1, 0.7, 1,
                TrainConfig())
    wrong = "6->11" if shaped_as == ATTACKER else "7->3"
    right = "7->3" if player == DEFENDER else "6->11"
    with pytest.raises(ValueError) as info:
        load_policy(path, grid, player, 1, 1)
    assert str(path) in str(info.value)
    assert wrong in str(info.value) and right in str(info.value)


def _valid_policy_payload(tmp_path):
    path = tmp_path / "valid.json"
    grid = GridParams(q3_max=0.7)
    save_policy(path, _dummy_policy(grid, DEFENDER), DEFENDER, 1, 0.7, 1,
                TrainConfig())
    return json.loads(path.read_text())


def _drop(key):
    return lambda payload: {k: v for k, v in payload.items() if k != key}


def _first_number(key, value):
    """Set the first number of the network's first `key` array to `value`."""
    def corrupt(payload):
        numbers = payload["network"][key][0]
        if key == "weights":
            numbers = numbers[0]
        numbers[0] = value
        return payload
    return corrupt


def _network(**network):
    return lambda payload: {**payload, "network": network}


@pytest.mark.parametrize("corrupt", [
    lambda payload: [payload],
    lambda payload: "defender",
    _drop("player"),
    _drop("network"),
    lambda payload: {**payload, "player": 7},
    lambda payload: {**payload, "player": ["defender"]},
    lambda payload: {**payload, "player": None},
    lambda payload: {**payload, "network": []},
    lambda payload: {**payload, "network": {
        "biases": payload["network"]["biases"]}},
    _network(weights=[[[0.0] * 7, [0.0] * 6]], biases=[[0.0, 0.0]]),
    _network(weights=[[[0.0] * 7] * 4, [[0.0] * 5] * 3],
             biases=[[0.0] * 4, [0.0] * 3]),
    _network(weights=[[[{"w": 0.0}] * 7] * 3], biases=[[0.0] * 3]),
    lambda payload: {**payload, "format_version": 1},
    lambda payload: {**payload, "format_version": 2.0},
    _first_number("weights", None),
    _first_number("biases", float("nan")),
], ids=["list", "string", "no-player", "no-network", "player-int",
        "player-list", "player-null", "network-list", "no-weights",
        "ragged-weights", "unchained-layers", "non-numeric-weights",
        "format-version-1", "format-version-2.0", "null-weight", "nan-bias"])
def test_cli_malformed_policy_file_exits_with_error_line(tmp_path, capsys,
                                                         corrupt):
    config_path = write_config(tmp_path, {
        "experiment": {"k_max": 1, "q3max_values": [0.7], "pairings": [[1, 0]],
                       "eval_episodes": 1, "horizon": 5, "seeds": [1]},
    })
    out = tmp_path / "out"
    out.mkdir()
    path = out / policy_filename(DEFENDER, 1, 0.7, 1)
    path.write_text(json.dumps(corrupt(_valid_policy_payload(tmp_path))))
    code = main(["eval", "--config", str(config_path), "--out", str(out),
                 "--defender-level", "1", "--attacker-level", "0",
                 "--q3max", "0.7"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err


IDENTITY_CONFIG = {
    "train": {"episodes": 2, "hidden_layers": [4]},
    "experiment": {"k_max": 2, "q3max_values": [0.2, 0.7],
                   "pairings": [[1, 0], [2, 0]], "eval_episodes": 1,
                   "horizon": 5, "seeds": [1, 2]},
}


@pytest.fixture(scope="module")
def identity_run(tmp_path_factory):
    """A `train` output with two levels, two q3_max values and two seeds."""
    out = tmp_path_factory.mktemp("identity") / "out"
    config_path = out.parent / "config.json"
    config_path.write_text(json.dumps(IDENTITY_CONFIG))
    assert main(["train", "--config", str(config_path), "--out", str(out),
                 "--jobs", "1"]) == 0
    return config_path, out


@pytest.mark.parametrize("field, source, target, stored, wanted", [
    ("player", (ATTACKER, 1, 0.7, 1), (DEFENDER, 1, 0.7, 1),
     "'attacker'", "'defender'"),
    ("level", (DEFENDER, 1, 0.7, 1), (DEFENDER, 2, 0.7, 1), "1", "2"),
    ("q3_max", (DEFENDER, 1, 0.7, 1), (DEFENDER, 1, 0.2, 1), "0.7", "0.2"),
    ("seed", (DEFENDER, 1, 0.7, 1), (DEFENDER, 1, 0.7, 2), "1", "2"),
])
def test_cli_policy_file_of_another_cell_exits_with_error_line(
        tmp_path, capsys, identity_run, field, source, target, stored, wanted):
    """A policy file copied over another cell's is refused, naming the
    file, the field and both values, rather than scored as that cell."""
    config_path, trained = identity_run
    out = tmp_path / "out"
    out.mkdir()
    for path in trained.glob("*.json"):
        (out / path.name).write_bytes(path.read_bytes())
    (out / policy_filename(*target)).write_bytes(
        (trained / policy_filename(*source)).read_bytes())
    capsys.readouterr()
    assert main(["sweep", "--config", str(config_path), "--out", str(out),
                 "--jobs", "1"]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: policy file {out / policy_filename(*target)} "
                   f"holds {field} {stored}, not the {wanted} asked for\n")
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("field, value", [
    ("level", True), ("level", 1.0), ("seed", True), ("seed", 1.0)])
def test_cli_policy_file_naming_its_cell_in_another_type_exits_with_error_line(
        tmp_path, capsys, identity_run, field, value):
    """A stored `true` or `1.0` equals the cell's 1, yet does not name it."""
    config_path, trained = identity_run
    out = tmp_path / "out"
    out.mkdir()
    for path in trained.glob("*.json"):
        (out / path.name).write_bytes(path.read_bytes())
    edited = out / policy_filename(DEFENDER, 1, 0.7, 1)
    payload = json.loads(edited.read_text())
    payload[field] = value
    edited.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["sweep", "--config", str(config_path), "--out", str(out),
                 "--jobs", "1"]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: policy file {edited} holds {field} {value!r}, "
                   f"not the 1 asked for\n")
    assert not (out / "sweep.csv").exists()


def test_policy_with_an_integral_q3_max_loads_for_its_float_cell(tmp_path):
    """A q3_max stored as 1 names the cell of 1.0, as a config's [1] does."""
    path = tmp_path / policy_filename(DEFENDER, 1, 1.0, 1)
    save_policy(path, _dummy_policy(GridParams(q3_max=1), DEFENDER), DEFENDER,
                1, 1, 1, TrainConfig())
    assert json.loads(path.read_text())["q3_max"] == 1
    load_policy(path, GridParams(q3_max=1.0), DEFENDER, 1, 1)


def test_policy_filename_format():
    assert policy_filename(DEFENDER, 2, 1.6, 7) == "defender_L2_q1.6_s7.json"
    assert policy_filename(ATTACKER, 1, 0.2, 10) == "attacker_L1_q0.2_s10.json"


def test_resolve_level0_needs_no_file(tmp_path):
    config = tiny_config()
    policy = resolve_policy(config, tmp_path, DEFENDER, 0, 0.7, 1)
    assert policy.action_count == 3


def test_resolve_missing_trained_policy_raises(tmp_path):
    config = tiny_config()
    with pytest.raises(FileNotFoundError, match="level 1"):
        resolve_policy(config, tmp_path, DEFENDER, 1, 0.7, 1)


def test_csv_writes_floats_with_repr_and_numpy_floats_as_floats(tmp_path):
    path = tmp_path / "values.csv"
    write_csv(path, ("a", "b", "c", "d"),
              [(np.float64(0.1), 0.1 + 0.2, 1 / 3, 7), (-0.0, 1e-300, 2.5e16, True)])
    assert path.read_text() == ("a,b,c,d\n"
                                "0.1,0.30000000000000004,0.3333333333333333,7\n"
                                "-0.0,1e-300,2.5e+16,True\n")


def test_failed_write_leaves_target_and_no_temp_file(tmp_path):
    path = tmp_path / "sweep.csv"
    write_csv(path, ("a",), [(1.5,)])
    before = path.read_bytes()
    with pytest.raises(UnicodeEncodeError):
        write_csv(path, ("a",), [("\ud800",)])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]


def test_writers_of_one_target_use_distinct_temp_files(tmp_path, monkeypatch):
    real_replace = os.replace
    sources = []

    def recording_replace(src, dst):
        sources.append(Path(src))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", recording_replace)
    path = tmp_path / "sweep.csv"
    write_csv(path, ("a",), [(1,)])
    write_csv(path, ("a",), [(2,)])
    assert len(set(sources)) == 2
    assert all(src.parent == tmp_path for src in sources)
    assert path.read_text() == "a\n2\n"


# ---------------------------------------------------------------------------
# train command
# ---------------------------------------------------------------------------

def test_train_k0_writes_manifest_only(tmp_path):
    config = tiny_config(k_max=0)
    written, failures = run_train(config, tmp_path)
    assert written == [] and failures == []
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["policies"] == []
    assert manifest["config"] == config_to_dict(config)
    assert config_from_dict(manifest["config"]) == config
    assert manifest["config"]["experiment"]["defender_optimistic_bias"] == 0.0
    assert manifest["config"]["experiment"]["attacker_optimistic_bias"] == 2.0


def test_train_k1_writes_both_policies(tmp_path):
    config = tiny_config()
    written, failures = run_train(config, tmp_path)
    assert failures == []
    assert sorted(written) == ["attacker_L1_q0.7_s1.json",
                               "defender_L1_q0.7_s1.json"]
    for name in written:
        assert (tmp_path / name).exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert sorted(manifest["policies"]) == sorted(written)


def test_train_rerun_is_byte_identical(tmp_path):
    config = tiny_config()
    run_train(config, tmp_path / "a")
    run_train(config, tmp_path / "b")
    for name in ("defender_L1_q0.7_s1.json", "attacker_L1_q0.7_s1.json",
                 "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_train_divergence_reported_per_cell(tmp_path, monkeypatch):
    from gridgame import experiment as experiment_module
    from gridgame.levelk import TrainingDiverged

    config = tiny_config(seeds=[1, 2])
    real = experiment_module.build_hierarchy
    # Worker processes each hold their own copy of any state a call could
    # record, so the failing cell is told by the stream it was given.
    first_cell = experiment_module.cell_rng(
        1, experiment_module._TRAIN_TAG, experiment_module._q3_key(0.7))

    def flaky_hierarchy(game, level0s, k_max, configs, rng):
        if rng.bit_generator.state == first_cell.bit_generator.state:
            raise TrainingDiverged("non-finite parameters at episode 0")
        return real(game, level0s, k_max, configs, rng)

    monkeypatch.setattr(experiment_module, "build_hierarchy", flaky_hierarchy)
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        written, failures = run_train(config, out, jobs=jobs)
        assert len(failures) == 1 and "seed=1" in failures[0]
        assert sorted(written) == ["attacker_L1_q0.7_s2.json",
                                   "defender_L1_q0.7_s2.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failures"] == failures


@pytest.mark.parametrize("jobs", [1, 2])
def test_train_manifest_lists_the_cells_finished_before_a_crash(
        tmp_path, monkeypatch, jobs):
    from gridgame import experiment as experiment_module

    config = tiny_config(seeds=[1, 2])
    real = experiment_module.save_policy

    def failing_save(path, policy, player, level, q3_max, seed, train):
        if seed == 2:
            raise OSError("disk full")
        real(path, policy, player, level, q3_max, seed, train)

    monkeypatch.setattr(experiment_module, "save_policy", failing_save)
    with pytest.raises(OSError, match="disk full"):
        run_train(config, tmp_path, jobs=jobs)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert config_from_dict(manifest["config"]) == config
    assert manifest["policies"] == ["defender_L1_q0.7_s1.json",
                                    "attacker_L1_q0.7_s1.json"]
    assert manifest["failures"] == []
    assert_no_child_left()


# ---------------------------------------------------------------------------
# sweep command
# ---------------------------------------------------------------------------

def test_sweep_writes_expected_rows(tmp_path):
    config = tiny_config(k_max=0, seeds=[1, 2])
    records = run_sweep(config, tmp_path)
    assert len(records) == 2  # one pairing x one q3_max x two seeds
    with open(tmp_path / "sweep.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert tuple(rows[0]) == SWEEP_COLUMNS
    assert len(rows) == 3
    # round-trip parse reproduces the records exactly
    for row, record in zip(rows[1:], records):
        assert float(row[0]) == record.q3_max
        assert int(row[3]) == record.seed
        assert float(row[4]) == record.defender_avg_reward_per_step
        assert float(row[5]) == record.attacker_avg_reward_per_step


def test_sweep_determinism_byte_identical(tmp_path):
    config = tiny_config(k_max=0)
    run_sweep(config, tmp_path / "one")
    run_sweep(config, tmp_path / "two")
    assert (tmp_path / "one" / "sweep.csv").read_bytes() == \
        (tmp_path / "two" / "sweep.csv").read_bytes()


def test_sweep_missing_policy_fails(tmp_path):
    config = tiny_config(pairings=[[1, 0]])
    with pytest.raises(FileNotFoundError):
        run_sweep(config, tmp_path)


# ---------------------------------------------------------------------------
# trace and eval commands
# ---------------------------------------------------------------------------

def test_trace_rows_and_physics(tmp_path):
    config = tiny_config(k_max=0, horizon=50)
    path = run_trace(config, tmp_path, 0, 0, 0.7, seed=1)
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 50
    with open(path, newline="") as handle:
        assert tuple(next(csv.reader(handle))) == TRACE_COLUMNS
    grid = GridParams(q3_max=0.7)
    for row in rows:
        flow = power_flow(float(row["p2"]), float(row["q2"]), 1.0,
                          float(row["q3"]), float(row["V1"]), grid)
        assert float(row["V2"]) == flow.V2
        assert float(row["V3"]) == flow.V3


def test_trace_rerun_identical(tmp_path):
    config = tiny_config(k_max=0)
    a = run_trace(config, tmp_path / "a", 0, 0, 0.7, seed=1)
    b = run_trace(config, tmp_path / "b", 0, 0, 0.7, seed=1)
    assert a.read_bytes() == b.read_bytes()


def test_eval_summary_and_csv(tmp_path):
    config = tiny_config(k_max=0, eval_episodes=3)
    summary = run_eval(config, tmp_path, 0, 0, 0.7, seed=1)
    assert summary["episodes"] == 3
    assert summary["defender_avg_reward_per_step"] <= 0.0
    with open(tmp_path / summary["csv"], newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 3
    per_episode = [float(r["defender_reward_per_step"]) for r in rows]
    assert np.mean(per_episode) == pytest.approx(
        summary["defender_avg_reward_per_step"], rel=1e-12)


def test_train_writes_the_policies_of_training_on_the_net(tmp_path):
    """`train` plays `scenario.NativeBattle`; its policy files hold what
    `build_hierarchy` on `as_netform` trains from the same cell stream."""
    config = tiny_config(k_max=2)
    run_train(config, tmp_path)
    (q3,), (seed,) = config.q3max_values, config.seeds
    grid = cell_grid(config, q3)
    hierarchy = build_hierarchy(
        as_netform(grid, config.horizon), level0_policies(grid), config.k_max,
        player_train_configs(config),
        cell_rng(seed, experiment._TRAIN_TAG, experiment._q3_key(q3)))
    for player in (DEFENDER, ATTACKER):
        for level in (1, 2):
            stored = load_policy(
                tmp_path / policy_filename(player, level, q3, seed), grid,
                player, level, seed)
            assert params_equal(stored.params,
                                hierarchy.policy(player, level).params)


def test_sweep_and_eval_write_the_bytes_of_evaluate_on_the_net(tmp_path):
    """`sweep` and `eval` score on `scenario.NativeBattle`; their files hold
    what `levelk.evaluate` on `as_netform` gives on the same cell streams."""
    config = tiny_config(pairings=[[0, 0], [1, 0], [0, 1], [1, 1]],
                         eval_episodes=3)
    run_train(config, tmp_path)
    run_sweep(config, tmp_path)
    summary = run_eval(config, tmp_path, 1, 0, 0.7, seed=1)
    (q3,), (seed,) = config.q3max_values, config.seeds
    game = as_netform(cell_grid(config, q3), config.horizon)

    def reference(tag, d_level, a_level):
        policies = {DEFENDER: resolve_policy(config, tmp_path, DEFENDER, d_level,
                                             q3, seed),
                    ATTACKER: resolve_policy(config, tmp_path, ATTACKER, a_level,
                                             q3, seed)}
        rng = cell_rng(seed, tag, experiment._q3_key(q3), d_level, a_level)
        return evaluate(game, policies, config.eval_episodes, rng)

    sweep_rows = []
    for d_level, a_level in config.pairings:
        means = reference(experiment._SWEEP_TAG, d_level,
                          a_level).mean_reward_per_step
        sweep_rows.append((q3, d_level, a_level, seed, means[DEFENDER],
                           means[ATTACKER], config.eval_episodes,
                           config.horizon))
    write_csv(tmp_path / "expected_sweep.csv", SWEEP_COLUMNS, sweep_rows)
    report = reference(experiment._EVAL_TAG, 1, 0)
    write_csv(tmp_path / "expected_eval.csv",
              ("episode", "defender_reward_per_step", "attacker_reward_per_step"),
              [(i, d, a) for i, (d, a) in enumerate(
                  zip(report.per_episode[DEFENDER],
                      report.per_episode[ATTACKER]), start=1)])
    assert (tmp_path / "sweep.csv").read_bytes() == \
        (tmp_path / "expected_sweep.csv").read_bytes()
    assert (tmp_path / summary["csv"]).read_bytes() == \
        (tmp_path / "expected_eval.csv").read_bytes()
    assert (summary["defender_avg_reward_per_step"],
            summary["attacker_avg_reward_per_step"]) == \
        (report.mean_reward_per_step[DEFENDER],
         report.mean_reward_per_step[ATTACKER])


def test_sweep_and_eval_score_policies_loaded_from_disk_in_lockstep(
        tmp_path, monkeypatch):
    """`NativeBattle.play` knows the priors and the networks that `sweep` and
    `eval` load from disk by identity, so neither plays `simulate`."""
    config = tiny_config(pairings=[[0, 0], [1, 0], [0, 1], [1, 1]],
                         eval_episodes=3)
    run_train(config, tmp_path)

    def refuse(*args):
        raise AssertionError("scoring called simulate")

    monkeypatch.setattr(scenario, "simulate", refuse)
    assert len(run_sweep(config, tmp_path, jobs=1)) == 4
    assert run_eval(config, tmp_path, 1, 1, 0.7, seed=1)["episodes"] == 3


def test_scoring_bytes_do_not_depend_on_the_greedy_certificate(
        tmp_path, monkeypatch):
    """`sweep` and `eval` decide most network rows of the lockstep from one
    stacked product per player, certified by `neural.greedy_bound`.  Forced
    off (an infinite bound, so every row goes to `forward`), `train`,
    `sweep` and `eval` write the same bytes.  The stacks decide every
    network decision of the sweep: one per network player, episode and
    step but the last.  Training calls `forward` too, so the exact rows are
    counted from the end of `train`."""
    pairings = [[0, 0], [1, 0], [0, 1], [1, 1], [2, 1], [1, 2], [2, 2]]
    config_path = write_config(tmp_path, {
        "train": {"episodes": 20},
        "experiment": {"k_max": 2, "q3max_values": [0.7, 1.2],
                       "pairings": pairings,
                       "eval_episodes": 10, "horizon": 30, "seeds": [1]}})
    sweep_decisions = 2 * sum((d > 0) + (a > 0) for d, a in pairings) * 10 * 29
    out = tmp_path / "out"
    args = ["--config", str(config_path), "--out", str(out)]
    decided, exact = [], []
    real_greedy, real_forward = neural.GreedyStack.greedy, neural.forward
    monkeypatch.setattr(neural.GreedyStack, "greedy", lambda self, xs, sizes: (
        decided.append(sum(sizes)), real_greedy(self, xs, sizes))[1])
    monkeypatch.setattr(neural, "forward", lambda params, x: (
        exact.append(1), real_forward(params, x))[1])

    def outputs():
        shutil.rmtree(out, ignore_errors=True)
        assert main(["train", *args]) == 0
        decided.clear()
        exact.clear()
        assert main(["sweep", *args, "--jobs", "1"]) == 0
        assert sum(decided) == sweep_decisions
        assert main(["eval", *args, "--defender-level", "2",
                     "--attacker-level", "1", "--q3max", "1.2"]) == 0
        return {path.name: path.read_bytes() for path in out.iterdir()}

    certified = outputs()
    assert sum(exact) < sum(decided) / 10
    monkeypatch.setattr(neural, "greedy_bound",
                        lambda params: (math.inf, 0.0, math.inf))
    assert outputs() == certified
    assert sum(exact) == sum(decided) > 0


# ---------------------------------------------------------------------------
# CLI entry point
# ---------------------------------------------------------------------------

def test_cli_sweep_end_to_end(tmp_path, capsys):
    config_path = write_config(tmp_path, {
        "train": {"episodes": 1},
        "experiment": {"k_max": 0, "q3max_values": [0.7], "pairings": [[0, 0]],
                       "eval_episodes": 2, "horizon": 5, "seeds": [1]},
    })
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config_path), "--out", str(out)]) == 0
    assert (out / "sweep.csv").exists()
    assert "sweep.csv" in capsys.readouterr().out


def test_cli_trace_and_eval(tmp_path, capsys):
    config_path = write_config(tmp_path, {
        "experiment": {"k_max": 0, "q3max_values": [0.2], "pairings": [[0, 0]],
                       "eval_episodes": 2, "horizon": 5, "seeds": [3]},
    })
    out = tmp_path / "out"
    assert main(["trace", "--config", str(config_path), "--out", str(out),
                 "--defender-level", "0", "--attacker-level", "0",
                 "--q3max", "0.2"]) == 0
    assert main(["eval", "--config", str(config_path), "--out", str(out),
                 "--defender-level", "0", "--attacker-level", "0",
                 "--q3max", "0.2", "--seed", "3"]) == 0
    output = capsys.readouterr().out
    assert "attacker avg reward/step" in output


def test_cli_train_writes_manifest(tmp_path):
    config_path = write_config(tmp_path, {
        "train": {"episodes": 1, "hidden_layers": [4]},
        "experiment": {"k_max": 0, "q3max_values": [0.7], "pairings": [[0, 0]],
                       "eval_episodes": 1, "horizon": 5, "seeds": [1]},
    })
    out = tmp_path / "out"
    assert main(["train", "--config", str(config_path), "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()


@pytest.mark.parametrize("option", ["--defender-level", "--attacker-level"])
def test_cli_train_refuses_level_options(tmp_path, capsys, option):
    config_path = write_config(tmp_path, {
        "experiment": {"k_max": 2, "q3max_values": [0.7], "pairings": [[0, 0]],
                       "eval_episodes": 1, "horizon": 5, "seeds": [1]},
        "train": {"episodes": 1, "hidden_layers": [2]},
    })
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main(["train", "--config", str(config_path), "--out", str(out),
              option, "7"])
    assert info.value.code == 2
    assert option in capsys.readouterr().err
    assert not out.exists()


def _level0_config(tmp_path, k_max=2, seeds=(3,)):
    return write_config(tmp_path, {
        "experiment": {"k_max": k_max, "q3max_values": [0.2],
                       "pairings": [[0, 0]], "eval_episodes": 1, "horizon": 5,
                       "seeds": list(seeds)},
    })


def _cell(defender=0, attacker=0, *extra, q3max="0.2"):
    return ["--defender-level", str(defender), "--attacker-level", str(attacker),
            "--q3max", q3max, *extra]


@pytest.mark.parametrize("command", ["eval", "trace"])
@pytest.mark.parametrize("player", [DEFENDER, ATTACKER])
@pytest.mark.parametrize("level", [-1, 3])
def test_cli_level_outside_k_max_refused_before_anything_is_written(
        tmp_path, capsys, command, player, level):
    config_path = _level0_config(tmp_path, k_max=2)
    out = tmp_path / "out"
    out.mkdir()
    # a policy left over from a run with a larger k_max is not scored
    leftover = policy_filename(player, 3, 0.2, 3)
    save_policy(out / leftover, _dummy_policy(GridParams(q3_max=0.2), player),
                player, 3, 0.2, 3, TrainConfig())
    levels = (level, 0) if player == DEFENDER else (0, level)
    code = main([command, "--config", str(config_path), "--out", str(out),
                 *_cell(*levels)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{player} level {level} is outside 0..k_max=2" in err
    assert [p.name for p in out.iterdir()] == [leftover]


@pytest.mark.parametrize("command", ["eval", "trace"])
def test_cli_negative_seed_refused_naming_it(tmp_path, capsys, command):
    config_path = _level0_config(tmp_path)
    out = tmp_path / "out"
    code = main([command, "--config", str(config_path), "--out", str(out),
                 *_cell(0, 0, "--seed", "-3")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "-3 is not one of the configured values (3,)" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "sweep", "eval", "trace"])
@pytest.mark.parametrize("option, value", [("--q3max", "0.3"), ("--seed", "9")])
def test_cli_unlisted_q3max_or_seed_refused_before_anything_is_written(
        tmp_path, capsys, command, option, value):
    config_path = _level0_config(tmp_path)
    out = tmp_path / "out"
    cell = {"--q3max": "0.2", "--seed": "3", option: value}
    args = [command, "--config", str(config_path), "--out", str(out),
            "--q3max", cell["--q3max"], "--seed", cell["--seed"]]
    if command in ("eval", "trace"):
        args += ["--defender-level", "0", "--attacker-level", "0"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{option} {value} is not one of the configured values" in err
    assert not out.exists()


def test_cli_builds_its_parser_once_per_process(tmp_path, monkeypatch, capsys):
    built = []
    real_build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or real_build())
    cli._parser.cache_clear()
    config_path = _level0_config(tmp_path)
    common = ["--config", str(config_path), "--out", str(tmp_path / "out")]
    for command in ("trace", "eval", "trace"):
        assert main([command, *common, *_cell()]) == 0
    assert main(["sweep", *common]) == 0
    assert len(built) == 1


def test_cli_failed_parse_leaves_the_next_parse_correct(tmp_path, capsys):
    config_path = _level0_config(tmp_path, seeds=(3, 4))
    out = tmp_path / "out"
    common = ["--config", str(config_path), "--out", str(out)]
    assert main(["trace", *common, *_cell(0, 0, "--seed", "4")]) == 0
    with pytest.raises(SystemExit) as info:
        main(["trace", *common, *_cell(0, 0, "--seed", "4", "--bogus")])
    assert info.value.code == 2
    assert "--bogus" in capsys.readouterr().err
    # no --seed: the config's first seed, not a value of an earlier call
    assert main(["trace", *common, *_cell()]) == 0
    assert capsys.readouterr().out == f"wrote {out / 'trace_D0A0_q0.2_s3.csv'}\n"
    assert sorted(p.name for p in out.iterdir()) == [
        "trace_D0A0_q0.2_s3.csv", "trace_D0A0_q0.2_s4.csv"]


def test_cli_bad_config_exits_nonzero(tmp_path, capsys):
    config_path = write_config(tmp_path, {"nope": {}})
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(config_path), "--out", str(out)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("train", "episodes", "5"),
    ("experiment", "horizon", True),
    ("experiment", "q3max_values", [float("nan")]),
    ("train", "learning_rate", float("inf")),
    ("experiment", "seeds", [1, 1]),
    ("experiment", "seeds", [1, -1]),  # not only once seed 1 has trained
    ("train", "hidden_layers", [0]),
    ("train", "seed", 99),
    ("train", "optimistic_bias", 0.0),
    ("grid", "p2_range", [-1e308, 1e308]),
    ("train", "horizon", 0),
    ("train", "horizon", 7),
    ("grid", "q3_max", 0.5),
    ("experiment", "q3max_values", []),
    ("grid", "v0", 0.0),
    ("train", "init_scale", -1.0),
])
def test_cli_bad_config_value_exits_with_error_line(tmp_path, capsys, section,
                                                    key, value):
    config_path = write_config(tmp_path, {section: {key: value}})
    code = main(["train", "--config", str(config_path),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_cli_refuses_an_integer_beyond_the_float_range_at_load(tmp_path, capsys,
                                                               command):
    """Such an integer is finite, but converting it to a float raises
    OverflowError: it is refused before anything runs or is written."""
    config_path = write_config(tmp_path, {"grid": {"r1": 10 ** 400}})
    code = main([command, "--config", str(config_path),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: 'grid.r1' must be finite, got 1000")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "trace", "eval", "sweep"])
def test_cli_grid_that_overflows_the_circuit_exits_with_error_line(
        tmp_path, capsys, command):
    """Each grid can overflow the circuit: squaring V2's deviation, or a
    reward once the attacker's move multiplies x2.  It is refused at load,
    with one error line, before anything is written."""
    for grid in ({"r1": 1e300}, {"x2": 1e308}):
        config_path = write_config(tmp_path, {
            "grid": grid,
            "experiment": {"k_max": 0, "q3max_values": [0.2],
                           "pairings": [[0, 0]], "eval_episodes": 2,
                           "horizon": 5, "seeds": [3]},
        })
        out = tmp_path / "out"
        options = [] if command in ("train", "sweep") else _cell()
        assert main([command, "--config", str(config_path), "--out", str(out),
                     *options]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: the grid's constants can "
                                       "overflow the circuit at q3_max=1: ")
        assert captured.err.endswith("; these four must be < 1e150\n")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not out.exists()


def test_config_refuses_a_cell_whose_grid_can_overflow():
    """The grid section passes at q3_max 1.0, but the attacker's larger
    injection in the cell at 100 can overflow its tap quotient."""
    data = {"grid": {"x1": 1e147}, "experiment": {"q3max_values": [0.7]}}
    config_from_dict(data)
    data["experiment"]["q3max_values"].append(100.0)
    with pytest.raises(ValueError, match="^the grid's constants can overflow "
                       "the circuit at q3_max=100: "):
        config_from_dict(data)


def test_cli_duplicate_config_key_exits_with_error_line(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text('{"experiment": {"k_max": 1, "k_max": 2}}')
    code = main(["train", "--config", str(config_path),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: config file {config_path} holds duplicate key 'k_max'\n"
    assert not (tmp_path / "out").exists()


def test_cli_duplicate_policy_key_exits_with_error_line(tmp_path, capsys):
    """A policy file whose `level` is given twice is refused, not scored
    under the last value."""
    config_path = write_config(tmp_path, {
        "experiment": {"k_max": 2, "q3max_values": [0.7],
                       "pairings": [[1, 0]], "eval_episodes": 1,
                       "horizon": 5, "seeds": [1]}})
    out = tmp_path / "out"
    out.mkdir()
    path = out / policy_filename(DEFENDER, 1, 0.7, 1)
    save_policy(path, _dummy_policy(GridParams(q3_max=0.7), DEFENDER),
                DEFENDER, 1, 0.7, 1, TrainConfig())
    text = path.read_text()
    assert text.count('"level": 1,') == 1
    path.write_text(text.replace('"level": 1,', '"level": 2, "level": 1,'))
    code = main(["eval", "--config", str(config_path), "--out", str(out),
                 "--defender-level", "1", "--attacker-level", "0",
                 "--q3max", "0.7"])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: policy file {path} holds duplicate key 'level'\n"
    assert [p.name for p in out.iterdir()] == [path.name]


def test_cli_integer_too_long_to_parse_exits_with_error_line_naming_it(
        tmp_path, capsys):
    """Python refuses to parse an integer of over 4,300 digits with a bare
    ValueError; the error line still names the file."""
    config_path = tmp_path / "config.json"
    config_path.write_text('{"grid": {"r1": 1' + "0" * 5000 + "}}")
    code = main(["train", "--config", str(config_path),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {config_path} is not valid JSON: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_cli_missing_config_file(tmp_path, capsys):
    code = main(["sweep", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path)])
    assert code == 1


@pytest.mark.parametrize("pairings, filters, message", [
    ([[0, 0], [0, 1]], ["--defender-level", "1"], "defender=1"),
    ([], [], "no pairings"),
], ids=["level-filter", "no-pairings"])
def test_cli_sweep_level_filter_matching_no_pairing_writes_nothing(
        tmp_path, capsys, pairings, filters, message):
    config_path = write_config(tmp_path, {
        "experiment": {"k_max": 1, "q3max_values": [0.7],
                       "pairings": pairings, "eval_episodes": 1,
                       "horizon": 5, "seeds": [1]},
    })
    out = tmp_path / "out"
    out.mkdir()
    (out / "sweep.csv").write_bytes(b"kept\n")
    code = main(["sweep", "--config", str(config_path), "--out", str(out),
                 *filters])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert (out / "sweep.csv").read_bytes() == b"kept\n"
    assert [p.name for p in out.iterdir()] == ["sweep.csv"]


def test_cli_train_runs_with_no_pairings(tmp_path):
    config_path = write_config(tmp_path, {
        "train": {"episodes": 1, "hidden_layers": [2]},
        "experiment": {"k_max": 1, "q3max_values": [0.7], "pairings": [],
                       "eval_episodes": 1, "horizon": 5, "seeds": [1]},
    })
    out = tmp_path / "out"
    assert main(["train", "--config", str(config_path), "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()


@pytest.mark.parametrize("kind", ["config", "policy"])
def test_cli_truncated_json_file_exits_with_error_line_naming_it(
        tmp_path, capsys, kind):
    config = {"experiment": {"k_max": 1, "q3max_values": [0.7],
                             "pairings": [[1, 0]], "eval_episodes": 1,
                             "horizon": 5, "seeds": [1]}}
    config_path = write_config(tmp_path, config)
    out = tmp_path / "out"
    out.mkdir()
    policy_path = out / policy_filename(DEFENDER, 1, 0.7, 1)
    save_policy(policy_path, _dummy_policy(GridParams(q3_max=0.7), DEFENDER),
                DEFENDER, 1, 0.7, 1, TrainConfig())
    path = config_path if kind == "config" else policy_path
    path.write_bytes(path.read_bytes()[:100])
    code = main(["eval", "--config", str(config_path), "--out", str(out),
                 "--defender-level", "1", "--attacker-level", "0",
                 "--q3max", "0.7"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err


@pytest.mark.parametrize("kind", ["config", "policy"])
def test_cli_file_that_is_not_utf8_exits_with_error_line_naming_it(
        tmp_path, capsys, kind):
    config_path = write_config(tmp_path, {
        "experiment": {"k_max": 1, "q3max_values": [0.7],
                       "pairings": [[1, 0]], "eval_episodes": 1,
                       "horizon": 5, "seeds": [1]}})
    out = tmp_path / "out"
    out.mkdir()
    policy_path = out / policy_filename(DEFENDER, 1, 0.7, 1)
    save_policy(policy_path, _dummy_policy(GridParams(q3_max=0.7), DEFENDER),
                DEFENDER, 1, 0.7, 1, TrainConfig())
    path = config_path if kind == "config" else policy_path
    path.write_bytes(b"\xff")
    code = main(["sweep", "--config", str(config_path), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {kind} file {path} is not valid JSON: ")
    assert err.count("error:") == 1 and err.count("\n") == 1
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("kind, command", [
    ("config", ["train"]), ("config", ["sweep"]),
    ("policy", ["sweep", "--jobs", "1"]),
    ("policy", ["eval", "--defender-level", "1", "--attacker-level", "0",
                "--q3max", "0.7"])])
def test_cli_deeply_nested_json_file_exits_with_error_line_naming_it(
        tmp_path, capsys, kind, command):
    """`json` gives up on nesting past the recursion limit with a
    RecursionError; the error line still names the file, and nothing is
    written."""
    config_path = write_config(tmp_path, {
        "experiment": {"k_max": 1, "q3max_values": [0.7],
                       "pairings": [[1, 0]], "eval_episodes": 1,
                       "horizon": 5, "seeds": [1]}})
    out = tmp_path / "out"
    out.mkdir()
    policy_path = out / policy_filename(DEFENDER, 1, 0.7, 1)
    save_policy(policy_path, _dummy_policy(GridParams(q3_max=0.7), DEFENDER),
                DEFENDER, 1, 0.7, 1, TrainConfig())
    if kind == "config":
        path = config_path
        path.write_text("[" * 100_000)
    else:
        path = policy_path
        text = path.read_text().rstrip().removesuffix("}")
        path.write_text(text + ', "extra": ' + "[" * 50_000 + "]" * 50_000 + "}")
    code = main([*command[:1], "--config", str(config_path), "--out", str(out),
                 *command[1:]])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {kind} file {path} is not valid JSON: ")
    assert err.count("error:") == 1 and err.count("\n") == 1
    assert [p.name for p in out.iterdir()] == [policy_path.name]


def test_cli_unknown_sweep_value_rejected(tmp_path, capsys):
    config_path = write_config(tmp_path, {
        "experiment": {"k_max": 0, "q3max_values": [0.7], "pairings": [[0, 0]],
                       "eval_episodes": 1, "horizon": 5, "seeds": [1]},
    })
    code = main(["sweep", "--config", str(config_path),
                 "--out", str(tmp_path / "out"), "--q3max", "0.9"])
    assert code == 1
    assert "0.9" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# worker processes (--jobs)
# ---------------------------------------------------------------------------

TWO_CELLS = {
    "train": {"episodes": 2, "hidden_layers": [4]},
    "experiment": {"k_max": 1, "q3max_values": [0.7, 1.2],
                   "pairings": [[0, 0], [1, 0], [0, 1], [1, 1]],
                   "eval_episodes": 2, "horizon": 10, "seeds": [1]},
}


def test_worker_count_defaults_to_the_cpus_and_caps_any_request(monkeypatch):
    cpus = len(os.sched_getaffinity(0))
    assert worker_count(None, 10 ** 9) == cpus
    assert worker_count(10 ** 9, 10 ** 9) == cpus
    assert worker_count(10 ** 9, 1) == 1
    assert worker_count(None, 1) == 1
    assert worker_count(1, 10 ** 9) == 1
    for jobs in (0, -1):
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            worker_count(jobs, 3)
    monkeypatch.delattr(os, "fork")
    assert worker_count(10 ** 9, 10 ** 9) == 1


def assert_no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _cell_unit(config, out_dir, cell):
    """A work unit of `_in_order`: the cell and the pid that ran it; a
    negative seed raises, naming the cell, and a seed of 99 hangs."""
    if cell[1] < 0:
        raise ValueError(f"bad cell {cell}")
    if cell[1] == 99:
        time.sleep(60)
    return cell, os.getpid()


@pytest.mark.parametrize("workers", [2, 3])
def test_in_order_yields_each_result_in_unit_order(workers):
    """Worker k is a forked child that runs units[k::workers]; the caller
    runs none, and gets every result in the order of the units."""
    units = [(0.7, seed) for seed in range(7)]
    with experiment._in_order(_cell_unit, None, None, units, workers) as results:
        got = list(results)
    assert [cell for cell, _ in got] == units
    pids = [pid for _, pid in got]
    assert len(set(pids)) == workers and os.getpid() not in pids
    assert pids == [pids[i % workers] for i in range(len(units))]
    assert_no_child_left()


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("failing", [0, 4, 6])
def test_in_order_raises_a_units_exception_at_its_position(workers, failing):
    units = [(0.7, -1 if i == failing else i) for i in range(7)]
    before = []
    with pytest.raises(ValueError, match=re.escape("bad cell (0.7, -1)")):
        with experiment._in_order(_cell_unit, None, None, units,
                                  workers) as results:
            for cell, _ in results:
                before.append(cell)
    assert before == units[:failing]
    assert_no_child_left()


@pytest.mark.parametrize("workers", [2, 3])
def test_in_order_kills_its_workers_when_the_consumer_stops_early(workers):
    """Units 3 on hang; leaving after two results kills and reaps every
    worker at once."""
    units = [(0.7, seed if seed < 3 else 99) for seed in range(7)]
    start = time.monotonic()
    with experiment._in_order(_cell_unit, None, None, units, workers) as results:
        assert [next(results)[0], next(results)[0]] == units[:2]
    assert time.monotonic() - start < 30
    assert_no_child_left()


# Runs the CLI with the arguments after `-c`, with one cell's worker dying
# before it sends its result; then says whether a child is left.
_DYING_WORKER = """
import os, sys
from gridgame import cli, experiment

unit_fn = sys.argv[1]
real = getattr(experiment, unit_fn)

def dying(config, out_dir, cell):
    if cell[0] == 1.2:
        os._exit(3)
    return real(config, out_dir, cell)

setattr(experiment, unit_fn, dying)
code = cli.main(sys.argv[2:])
try:
    os.waitpid(-1, os.WNOHANG)
    print("a child is left")
except ChildProcessError:
    print("no child is left")
sys.exit(code)
"""


@pytest.mark.parametrize("command, unit_fn", [("train", "_train_cell"),
                                              ("sweep", "_sweep_cell")])
def test_cli_fails_with_an_error_line_when_a_worker_dies(tmp_path, command,
                                                         unit_fn):
    config_path = write_config(tmp_path, TWO_CELLS)
    out = tmp_path / "out"
    args = ["--config", str(config_path), "--out", str(out)]
    if command == "sweep":
        assert main(["train", *args]) == 0
    src = Path(experiment.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _DYING_WORKER, unit_fn, command, *args,
         "--jobs", "2"], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 1
    assert proc.stderr == ("error: the worker process for the cell at "
                           "q3_max=1.2 seed=1 ended without its result\n")
    assert proc.stdout == "no child is left\n"
    assert not (out / "sweep.csv").exists()
    if command == "train":  # the policies of the cell before the dead one
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["policies"] == [policy_filename(DEFENDER, 1, 0.7, 1),
                                        policy_filename(ATTACKER, 1, 0.7, 1)]


def test_cli_jobs_1_and_2_write_identical_bytes(tmp_path, capsys):
    config_path = write_config(tmp_path, TWO_CELLS)
    outputs = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        for command in ("train", "sweep"):
            assert main([command, "--config", str(config_path),
                         "--out", str(out), "--jobs", jobs]) == 0
            assert_no_child_left()
        outputs[jobs] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(outputs["1"]) == 6  # 4 policies, manifest.json, sweep.csv
    assert outputs["1"] == outputs["2"]
    printed = capsys.readouterr().out.splitlines()
    assert [line.replace("jobs2", "jobs1") for line in printed[2:]] == printed[:2]


@pytest.mark.parametrize("jobs", [1, 2])
def test_train_writes_its_manifest_once_per_call(tmp_path, monkeypatch, jobs):
    """Replacing an existing file costs a disk flush, so the manifest is
    written once, when the cells end, not once per cell."""
    config = config_from_dict(TWO_CELLS)
    real = experiment._atomic_write_text
    manifests = []

    def spy(path, text):
        if path.name == "manifest.json":
            manifests.append(json.loads(text))
        real(path, text)

    monkeypatch.setattr(experiment, "_atomic_write_text", spy)
    for calls in (1, 2):  # the second call writes over the first's outputs
        written, _ = run_train(config, tmp_path, jobs=jobs)
        assert len(manifests) == calls
        assert manifests[-1]["policies"] == written and len(written) == 4
    assert_no_child_left()


def test_train_removes_an_earlier_manifest_before_its_first_cell(
        tmp_path, monkeypatch):
    config = config_from_dict(TWO_CELLS)
    (tmp_path / "manifest.json").write_text("junk")
    real = experiment._train_cell
    seen = []

    def watched(config, out_dir, cell):
        seen.append((out_dir / "manifest.json").exists())
        return real(config, out_dir, cell)

    monkeypatch.setattr(experiment, "_train_cell", watched)
    written, _ = run_train(config, tmp_path, jobs=1)
    assert seen == [False, False]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["policies"] == written and len(written) == 4


def test_train_interrupted_leaves_a_manifest_of_the_cells_finished(
        tmp_path, monkeypatch):
    config = config_from_dict(TWO_CELLS)
    real = experiment._train_cell

    def interrupted(config, out_dir, cell):
        if cell[0] == 1.2:
            raise KeyboardInterrupt
        return real(config, out_dir, cell)

    monkeypatch.setattr(experiment, "_train_cell", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_train(config, tmp_path, jobs=1)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["policies"] == [policy_filename(DEFENDER, 1, 0.7, 1),
                                    policy_filename(ATTACKER, 1, 0.7, 1)]
    assert manifest["failures"] == []


def _compensated_sum(iterable, /, start=0):
    """`sum` as Python 3.12 adds floats, with Neumaier's compensation; any
    other items as the running Python adds them."""
    values = list(iterable)
    if not all(type(value) is float for value in values):
        return _python_sum(values, start)
    total, compensation = float(start), 0.0
    for value in values:
        partial = total + value
        if abs(total) >= abs(value):
            compensation += (total - partial) + value
        else:
            compensation += (value - partial) + total
        total = partial
    return total + compensation


_python_sum = builtins.sum


def test_sweep_and_eval_bytes_do_not_depend_on_pythons_float_sum(
        tmp_path, monkeypatch):
    """Python 3.12's `sum` of floats compensates, 3.11's does not; the
    scores add in order either way, so `sweep.csv` and the eval CSV keep
    their bytes under a compensated `sum`."""
    config_path = write_config(tmp_path, {"experiment": {
        "k_max": 0, "q3max_values": [0.7, 1.2], "pairings": [[0, 0]],
        "eval_episodes": 20, "horizon": 100, "seeds": [1, 2]}})
    out = tmp_path / "out"
    args = ["--config", str(config_path), "--out", str(out)]

    def outputs():
        assert main(["sweep", *args]) == 0
        assert main(["eval", *args, "--defender-level", "0",
                     "--attacker-level", "0", "--q3max", "0.7"]) == 0
        return {path.name: path.read_bytes() for path in out.iterdir()}

    expected = outputs()
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    assert sum([0.1] * 10) == 1.0  # in order, 0.9999999999999999
    assert outputs() == expected


FOUR_CELLS = {**TWO_CELLS,
              "experiment": {**TWO_CELLS["experiment"], "seeds": [1, 2]}}


def test_cli_sweep_reports_the_first_missing_policy_in_config_order(
        tmp_path, capsys):
    """Rows run by (q3_max, seed) cell, but the error is that of the first
    failing row in config order (q3_max, then pairing, then seed).  Cell
    (0.7, 1) fails first, at its row D0/A1; row D1/A0 of the later cell
    (0.7, 2) comes before that row in config order."""
    config_path = write_config(tmp_path, FOUR_CELLS)
    out = tmp_path / "out"
    assert main(["train", "--config", str(config_path), "--out", str(out)]) == 0
    (out / policy_filename(DEFENDER, 1, 1.2, 1)).unlink()
    (out / policy_filename(ATTACKER, 1, 0.7, 1)).unlink()
    (out / policy_filename(DEFENDER, 1, 0.7, 2)).unlink()
    capsys.readouterr()
    errors = []
    for jobs in ("1", "2"):
        assert main(["sweep", "--config", str(config_path), "--out", str(out),
                     "--jobs", jobs]) == 1
        assert_no_child_left()
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error:") and errors[0].count("\n") == 1
    assert policy_filename(DEFENDER, 1, 0.7, 2) in errors[0]
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("option, value, column", [
    ("--defender-level", "1", "defender_level"),
    ("--attacker-level", "0", "attacker_level"),
    ("--seed", "2", "seed"),
])
def test_cli_filtered_sweep_writes_the_bytes_of_its_rows_in_the_full_sweep(
        tmp_path, option, value, column):
    """A row's score does not depend on the rows scored beside it."""
    config_path = write_config(tmp_path, FOUR_CELLS)
    out = tmp_path / "out"
    assert main(["train", "--config", str(config_path), "--out", str(out)]) == 0
    assert main(["sweep", "--config", str(config_path), "--out", str(out)]) == 0
    header, *rows = (out / "sweep.csv").read_bytes().splitlines(keepends=True)
    index = header.decode().rstrip("\n").split(",").index(column)
    kept = [row for row in rows if row.decode().split(",")[index] == value]
    assert 0 < len(kept) < len(rows)
    assert main(["sweep", "--config", str(config_path), "--out", str(out),
                 option, value]) == 0
    assert (out / "sweep.csv").read_bytes() == b"".join([header, *kept])


def test_sweep_plays_blocks_of_at_most_play_block_episodes(tmp_path,
                                                           monkeypatch):
    """However the rows of a cell are cut into blocks, no lockstep call
    plays more than `_PLAY_BLOCK` episodes, and sweep.csv and every row's
    rng end state are those of unblocked play."""
    config = config_from_dict({**TWO_CELLS, "experiment": {
        **TWO_CELLS["experiment"], "eval_episodes": 3}})
    run_train(config, tmp_path, jobs=1)
    lockstep, cell_rng = scenario._lockstep, experiment.cell_rng
    played, rngs = [], []
    monkeypatch.setattr(scenario, "_lockstep", lambda params, horizon, matches: (
        played.append(sum(episodes for _, episodes, _ in matches)),
        lockstep(params, horizon, matches))[1])
    monkeypatch.setattr(experiment, "cell_rng", lambda *args: (
        rngs.append(cell_rng(*args)), rngs[-1])[1])
    outputs = {}
    for block in (1000, 5):
        monkeypatch.setattr(levelk, "_PLAY_BLOCK", block)
        played.clear()
        rngs.clear()
        run_sweep(config, tmp_path, jobs=1)
        outputs[block] = ((tmp_path / "sweep.csv").read_bytes(),
                          [rng.bit_generator.state for rng in rngs])
        assert max(played) <= block
        assert sum(played) == 8 * 3  # 2 cells x 4 pairings x 3 episodes
    assert played == [5, 5, 2, 5, 5, 2]  # each cell's 12 episodes, cut
    assert len(outputs[5][1]) == 8
    assert outputs[5] == outputs[1000]


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_cli_nonpositive_jobs_refused_before_anything_is_written(
        tmp_path, capsys, command, jobs):
    config_path = write_config(tmp_path, TWO_CELLS)
    out = tmp_path / "out"
    assert main([command, "--config", str(config_path), "--out", str(out),
                 "--jobs", jobs]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"jobs must be >= 1, got {jobs}" in err
    assert not out.exists()
    out.mkdir()  # an earlier run's manifest is left as it was
    (out / "manifest.json").write_bytes(b'{"earlier": "run"}')
    assert main([command, "--config", str(config_path), "--out", str(out),
                 "--jobs", jobs]) == 1
    assert (out / "manifest.json").read_bytes() == b'{"earlier": "run"}'
    assert [path.name for path in out.iterdir()] == ["manifest.json"]
