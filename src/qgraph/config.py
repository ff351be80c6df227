"""Run configuration for the command line: defaults, overrides, hashing.

Configuration is a small immutable record.  Defaults live here; a JSON file
named by the QGRAPH_CONFIG environment variable (or an explicit --config
path) may override any subset of fields, and individual CLI flags override
the file.  Every rendered report embeds a hash of the effective
configuration so published numbers carry their provenance.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import NamedTuple, Optional

ENV_VAR = "QGRAPH_CONFIG"

OUTPUT_FORMATS = ("json", "text", "csv")

# tolerance names used by the numeric commands; all overridable per key
DEFAULT_TOLERANCES = {
    "growth_ratio_high": 2.4,
    "growth_ratio_low": 1.6,
    "lagrangian_tet": 1e-5,
    "lagrangian_theta": 1e-6,
    "residual_tet": 1e-8,
    "residual_theta": 1e-9,
    "resultant": 1e-6,
    "richardson_rel": 0.01,
    "saddle": 1e-8,
}


class ConfigError(ValueError):
    """Raised on malformed configuration input."""


class RunConfig(NamedTuple):
    """Effective run settings.

    grid_max of None means each verification check uses its own documented
    default grid; an integer forces that bound everywhere.
    """

    grid_max: Optional[int] = None
    tolerances: dict = None  # normalized by default_config / merge
    seed: int = 7
    precision: int = 120
    output_format: str = "text"


def default_config() -> RunConfig:
    return RunConfig(tolerances=dict(DEFAULT_TOLERANCES))


def validate(cfg: RunConfig) -> RunConfig:
    if cfg.grid_max is not None and (
        not isinstance(cfg.grid_max, int) or cfg.grid_max < 0
    ):
        raise ConfigError("grid_max must be a nonnegative integer")
    if not isinstance(cfg.tolerances, dict):
        raise ConfigError("tolerances must be a name -> value map")
    for name, value in cfg.tolerances.items():
        if not isinstance(value, (int, float)) or not value > 0:
            raise ConfigError(f"tolerance {name!r} must be positive")
    if not isinstance(cfg.seed, int) or not 0 <= cfg.seed < 2**64:
        raise ConfigError("seed must fit in 64 bits")
    if not isinstance(cfg.precision, int) or cfg.precision < 16:
        raise ConfigError("precision must be at least 16 bits")
    if cfg.output_format not in OUTPUT_FORMATS:
        raise ConfigError(f"output_format must be one of {OUTPUT_FORMATS}")
    return cfg


def merge(cfg: RunConfig, overrides: dict) -> RunConfig:
    """Apply a partial override map; tolerance entries merge key by key."""
    known = set(RunConfig._fields)
    unknown = set(overrides) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    fields = cfg._asdict()
    for key, value in overrides.items():
        if key == "tolerances":
            if not isinstance(value, dict):
                raise ConfigError("tolerances override must be a map")
            tols = dict(fields["tolerances"])
            tols.update(value)
            fields["tolerances"] = tols
        else:
            fields[key] = value
    return validate(RunConfig(**fields))


def load_config(path: Optional[str] = None, env: Optional[dict] = None) -> RunConfig:
    """Defaults, then the QGRAPH_CONFIG file, then an explicit path."""
    cfg = validate(default_config())
    env = os.environ if env is None else env
    sources = []
    env_path = env.get(ENV_VAR)
    if env_path:
        sources.append(env_path)
    if path:
        sources.append(path)
    for src in sources:
        try:
            with open(src, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {src!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed config file {src!r}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {src!r} must hold a JSON object")
        cfg = merge(cfg, data)
    return cfg


def to_json_obj(cfg: RunConfig) -> dict:
    return {
        "grid_max": cfg.grid_max,
        "tolerances": dict(sorted(cfg.tolerances.items())),
        "seed": cfg.seed,
        "precision": cfg.precision,
        "output_format": cfg.output_format,
    }


def config_hash(cfg: RunConfig) -> str:
    canonical = json.dumps(to_json_obj(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
