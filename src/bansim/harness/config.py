"""Flat key-value scenario configs with `[section]` headers.

Each experiment reads a fixed set of sections and keys, listed with their
types and defaults in ``SCHEMAS``.  ``parse_config`` types every value,
fills in the defaults and rejects unknown sections or keys, several values
for a one-value key, text its type rejects and non-finite numbers.  The raw
file bytes are hashed so every result table can name the exact config that
produced it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, field

from .. import channels, linkadapt


class ConfigError(ValueError):
    pass


def _fields(cls, **overrides) -> dict:
    """The keys of a parameter dataclass: one per field, typed by its default."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)} | overrides
    return {key: ([float], list(v)) if isinstance(v, tuple) else (type(v), v)
            for key, v in defaults.items()}


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def nonnegative_float(text: str) -> float:
    value = float(text)
    if value < 0:
        raise ValueError(text)
    return value


# section -> key -> (type, default).  A list type `[t]` takes one or more
# comma-separated values; a callable default is computed from the keys above it.
COMMON = {"seed": (nonnegative_int, None), "out": (str, ".")}
SCHEMAS = {
    "ber_sweep": {"ber_sweep": {
        "scheme": (str, "QAM16"),
        "ebn0_db": ([float], [0.0, 5.0, 10.0, 15.0]),
        "max_bits": (positive_int, 10**6), "min_errors": (positive_int, 100),
    }},
    "channel_stats": {
        "channel_stats": {"model": (str, "outdoor_ban"), "draws": (positive_int, 1000),
                          "num_clusters": (positive_int, 3)},
        "ban": _fields(channels.BanModelParams),
    },
    "doa_hist": {"doa_hist": {**_fields(channels.GbhdsParams),
                              "count": (positive_int, 100_000),
                              "bins": (positive_int, 61)}},
    "cma_convergence": {"cma_convergence": {
        "scheme": (str, "QAM16"),
        "mu": (float, lambda sec: 0.0006 if sec["scheme"].upper() == "QAM8"
               else 0.0003),
        "channel": ([float], [0.227, 0.460, 0.688, 0.460, 0.227]),
        # fractionally spaced by default: the reference 5-tap channel has a
        # deep spectral null at symbol spacing, so symbol-spaced CMA cannot open it
        "samples_per_symbol": (positive_int, 3), "nf": (positive_int, 13),
        "iterations": (positive_int, 20_000), "window": (positive_int, 500),
        "variant": (str, "CMA"),
    }},
    "mud_compare": {"mud_compare": {
        "scheme": (str, "OQPSK"), "ebn0_db": (float, 15.0),
        "symbols": (positive_int, 100_000), "training": (positive_int, 2_000),
        "ns": (positive_int, 2),
        "template1": ([float], [1.0, 0.5, 0.3]),
        "template2": ([float], [0.6, 0.9, 0.2]),
        "nw": (positive_int, 6), "nb": (nonnegative_int, 3),
        "ridge": (nonnegative_float, 1e-9),
    }},
    "la_sim": {"la_sim": {
        "rounds": (positive_int, 50),
        "distance_m": ([float], [1.0, 3.0]),
        "tx_power_dbm": ([float], lambda sec: [0.0] * len(sec["distance_m"])),
        **_fields(channels.PathLossParams, sigma_db=0.0),
        **_fields(linkadapt.LaThresholds),
        "window": (positive_int, 16),
        "noise_floor_dbm": (float, -100.0),
    }},
    "broadcast_sim": {"broadcast_sim": {
        "topology": (str, None), "source": (int, 0), "trials": (positive_int, 100),
        "max_backoff": (nonnegative_int, 7),
    }},
}
EXPERIMENTS = tuple(SCHEMAS)


@dataclass
class ScenarioConfig:
    experiment: str
    sections: dict[str, dict] = field(default_factory=dict)
    seed: int = 0
    output_dir: str = "."
    config_hash: str = ""

    def section(self, name: str) -> dict:
        return self.sections[name]


def parse_value(kind, text: str, where: str):
    """``text`` as a value of a schema type; ``where`` names it in errors."""
    if isinstance(kind, list):
        return [parse_value(kind[0], part.strip(), where) for part in text.split(",")]
    if "," in text:
        raise ConfigError(f"{where} takes one value, got {text!r}")
    if not text:
        raise ConfigError(f"{where} has no value")
    try:
        value = kind(text)
    except ValueError:
        raise ConfigError(f"{where}: expected {kind.__name__}, got {text!r}") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where}: {text!r} is not a finite number")
    return value


def parse_config(text: str, experiment: str) -> ScenarioConfig:
    if experiment not in SCHEMAS:
        raise ConfigError(f"unknown experiment {experiment!r}; "
                          f"choose one of {EXPERIMENTS}")
    schema = {"common": COMMON, **SCHEMAS[experiment]}
    sections: dict[str, dict] = {name: {} for name in schema}
    current = "common"
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in schema:
                raise ConfigError(f"line {lineno}: unknown section [{current}] "
                                  f"for {experiment}; known: {list(schema)}")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in schema[current]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{current}]")
        sections[current][key] = parse_value(schema[current][key][0], value,
                                             f"line {lineno}: [{current}] {key}")
    for name, keys in schema.items():
        sec = sections[name]
        for key, (_kind, default) in keys.items():
            if key not in sec:
                sec[key] = (default(sec) if callable(default) else
                            list(default) if isinstance(default, list) else default)
    common = sections["common"]
    if common["seed"] is None:
        raise ConfigError("config must set `seed` in the [common] section")
    return ScenarioConfig(
        experiment, sections, seed=common["seed"], output_dir=common["out"],
        config_hash=hashlib.sha256(text.encode()).hexdigest()[:16])
