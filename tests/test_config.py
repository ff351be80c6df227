"""Configuration plumbing: defaults, overrides, file loading, hashing."""

import json

import pytest

from qgraph.config import (
    DEFAULT_TOLERANCES,
    ConfigError,
    RunConfig,
    config_hash,
    default_config,
    load_config,
    merge,
    to_json_obj,
    validate,
)


def test_defaults_are_valid():
    cfg = validate(default_config())
    assert cfg.grid_max is None
    assert cfg.tolerances == DEFAULT_TOLERANCES
    assert cfg.output_format == "text"
    assert RunConfig._fields == ("grid_max", "tolerances", "seed", "output_format")


def test_merge_updates_tolerances_per_key():
    cfg = default_config()
    out = merge(cfg, {"tolerances": {"saddle": 1e-4}, "seed": 11})
    assert out.seed == 11
    assert out.tolerances["saddle"] == 1e-4
    assert out.tolerances["residual_theta"] == DEFAULT_TOLERANCES["residual_theta"]
    # original untouched
    assert cfg.tolerances["saddle"] == DEFAULT_TOLERANCES["saddle"]


def test_merge_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        merge(default_config(), {"gridmax": 3})
    # the former parallelism and precision settings are no longer config keys
    with pytest.raises(ConfigError, match="unknown config keys"):
        merge(default_config(), {"parallelism": 1})
    with pytest.raises(ConfigError, match="unknown config keys"):
        merge(default_config(), {"precision": 120})


def test_unknown_tolerance_names_rejected():
    with pytest.raises(ConfigError, match=r"unknown tolerance names: \['foo'\]"):
        merge(default_config(), {"tolerances": {"foo": 1.0}})
    with pytest.raises(ConfigError, match="unknown tolerance names"):
        validate(RunConfig(tolerances={**DEFAULT_TOLERANCES, "sadle": 1e-8}))


def test_validate_rejects_bad_values():
    for overrides in (
        {"grid_max": -1},
        {"seed": -1},
        {"seed": 2**64},
        {"output_format": "yaml"},
        {"tolerances": {"saddle": 0.0}},
        {"tolerances": {"saddle": float("inf")}},
        {"tolerances": {"saddle": float("nan")}},
    ):
        with pytest.raises(ConfigError):
            merge(default_config(), overrides)


def test_load_config_reads_env_file(tmp_path, monkeypatch):
    path = tmp_path / "qgraph.json"
    path.write_text(json.dumps({"seed": 99, "output_format": "json"}))
    monkeypatch.setenv("QGRAPH_CONFIG", str(path))
    cfg = load_config()
    assert cfg.seed == 99
    assert cfg.output_format == "json"


def test_load_config_explicit_path_wins(tmp_path, monkeypatch):
    env_file = tmp_path / "env.json"
    env_file.write_text(json.dumps({"seed": 1}))
    arg_file = tmp_path / "arg.json"
    arg_file.write_text(json.dumps({"seed": 2}))
    monkeypatch.setenv("QGRAPH_CONFIG", str(env_file))
    assert load_config(path=str(arg_file)).seed == 2


def test_load_config_rejects_malformed_file(tmp_path, monkeypatch):
    path = tmp_path / "broken.json"
    path.write_text("not json")
    monkeypatch.delenv("QGRAPH_CONFIG", raising=False)
    with pytest.raises(ConfigError):
        load_config(path=str(path))


def test_config_hash_is_stable_and_sensitive():
    a = default_config()
    b = merge(a, {})
    assert config_hash(a) == config_hash(b)
    c = merge(a, {"seed": 8})
    assert config_hash(c) != config_hash(a)
    obj = to_json_obj(a)
    assert json.dumps(obj)  # JSON-serializable
    # pinned: reports published with the defaults keep their hash
    assert config_hash(a) == "e8727b436cd2657d"
