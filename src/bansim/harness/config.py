"""Flat key-value scenario configs with `[section]` headers.

A comment is a whole line whose first non-blank character is ``#``; anywhere
else ``#`` is text, so a path may hold one, and a note after a value is part
of the value, which its kind then rejects.  Each experiment reads a fixed set
of sections and keys, listed with their kinds and defaults in ``SCHEMAS``.  A
key's kind is the one place that says which values the key may take, a name
choice such as ``scheme`` included; a rule that reads two keys is the
runner's, and the models check only what they compute.  ``parse_config``
types every value, fills in the defaults, requires each key whose default is
None and rejects unknown sections or keys, a key set twice, several values
for a one-value key and text its kind rejects.  The raw file bytes are
hashed so every result table can name the exact config that produced it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from typing import Any, Callable

from .. import channels, linkadapt, sigproc


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Kind:
    """A setting's type and the values of it that ``ok`` accepts, which
    ``rule`` names, as in "must be <rule>"; a float must also be finite."""
    type: type
    rule: str
    ok: Callable[[Any], bool] = lambda value: True


# the kinds of a schema's plain types
_PLAIN = {int: Kind(int, "an integer"), float: Kind(float, "a finite number"),
          str: Kind(str, "text")}
POSITIVE_INT = Kind(int, "an integer of at least 1", lambda v: v >= 1)
NONNEGATIVE_INT = Kind(int, "an integer of at least 0", lambda v: v >= 0)
POSITIVE = Kind(float, "a finite number above 0", lambda v: v > 0)
NONNEGATIVE = Kind(float, "a finite number of at least 0", lambda v: v >= 0)
# a scheme name in any case, read upper-cased
SCHEME = Kind(str.upper, "one of " + ", ".join(sigproc.SCHEMES),
              sigproc.SCHEMES.__contains__)


def _fields(cls, **kinds) -> dict:
    """The keys of a parameter dataclass, one per field, with its default:
    of the kind given in ``kinds``, or else of its default's type."""
    keys = {}
    for f in dataclasses.fields(cls):
        default = list(f.default) if isinstance(f.default, tuple) else f.default
        kind = [float] if isinstance(default, list) else type(default)
        keys[f.name] = (kinds.pop(f.name, kind), default)
    assert not kinds, f"{cls.__name__} has no fields {sorted(kinds)}"
    return keys


# section -> key -> (kind, default).  A list kind `[k]` takes one or more
# comma-separated values; a callable default is computed from the keys above it.
COMMON = {"seed": (NONNEGATIVE_INT, None), "out": (str, ".")}
SCHEMAS = {
    "ber_sweep": {"ber_sweep": {
        "scheme": (SCHEME, "QAM16"),
        "ebn0_db": ([float], [0.0, 5.0, 10.0, 15.0]),
        "max_bits": (POSITIVE_INT, 10**6), "min_errors": (POSITIVE_INT, 100),
    }},
    "channel_stats": {
        "channel_stats": {
            "model": (Kind(str, "outdoor_ban or indoor_ban",
                           ("outdoor_ban", "indoor_ban").__contains__), "outdoor_ban"),
            "draws": (POSITIVE_INT, 1000), "num_clusters": (POSITIVE_INT, 3)},
        # the generators would read a negative decay or spread as none
        "ban": _fields(channels.BanModelParams, delta_ns=POSITIVE,
                       num_bins_per_cluster=POSITIVE_INT,
                       gamma_cluster_db_per_ns=NONNEGATIVE,
                       gamma_ray_db_per_ns=NONNEGATIVE, sigma_cluster_db=NONNEGATIVE,
                       sigma_ray_db=NONNEGATIVE, mean_cluster_interarrival_ns=POSITIVE,
                       tau_ground_ns=NONNEGATIVE, shadowing_sigma_db=NONNEGATIVE),
    },
    "doa_hist": {"doa_hist": {
        **_fields(channels.GbhdsParams, radius_m=POSITIVE,
                  a=Kind(float, "a number in (0, 1)", lambda v: 0 < v < 1)),
        "count": (POSITIVE_INT, 100_000), "bins": (POSITIVE_INT, 61),
    }},
    "cma_convergence": {"cma_convergence": {
        "scheme": (Kind(str.upper, "QAM8 or QAM16", ("QAM8", "QAM16").__contains__),
                   "QAM16"),
        "mu": (NONNEGATIVE, lambda sec: 0.0006 if sec["scheme"] == "QAM8" else 0.0003),
        "channel": ([float], [0.227, 0.460, 0.688, 0.460, 0.227]),
        # fractionally spaced by default: the reference 5-tap channel has a
        # deep spectral null at symbol spacing, so symbol-spaced CMA cannot open it
        "samples_per_symbol": (POSITIVE_INT, 3),
        # odd: the equalizer starts from one tap of 1 in the middle
        "nf": (Kind(int, "an odd integer of at least 1", lambda v: v >= 1 and v % 2 == 1),
               13),
        "iterations": (POSITIVE_INT, 20_000), "window": (POSITIVE_INT, 500),
        "variant": (Kind(str, "CMA or DSE_CMA", ("CMA", "DSE_CMA").__contains__), "CMA"),
    }},
    "mud_compare": {"mud_compare": {
        "scheme": (SCHEME, "OQPSK"), "ebn0_db": (float, 15.0),
        "symbols": (POSITIVE_INT, 100_000), "training": (POSITIVE_INT, 2_000),
        "ns": (POSITIVE_INT, 2),
        "template1": ([float], [1.0, 0.5, 0.3]),
        "template2": ([float], [0.6, 0.9, 0.2]),
        "nw": (POSITIVE_INT, 6), "nb": (NONNEGATIVE_INT, 3),
        "ridge": (NONNEGATIVE, 1e-9),
    }},
    "la_sim": {"la_sim": {
        "rounds": (POSITIVE_INT, 50),
        "distance_m": ([POSITIVE], [1.0, 3.0]),
        "tx_power_dbm": ([float], lambda sec: [0.0] * len(sec["distance_m"])),
        **_fields(channels.PathLossParams, d0_m=POSITIVE, exponent=POSITIVE,
                  sigma_db=NONNEGATIVE),
        **_fields(linkadapt.LaThresholds,
                  th_pf=Kind(float, "a number in [0, 1]", lambda v: 0 <= v <= 1)),
        "window": (POSITIVE_INT, 16),
        "noise_floor_dbm": (float, -100.0),
    }},
    "broadcast_sim": {"broadcast_sim": {
        "topology": (str, None), "source": (int, 0), "trials": (POSITIVE_INT, 100),
        # the backoffs are numpy int64 draws below max_backoff + 1
        "max_backoff": (Kind(int, "an integer in [0, 2**63 - 1]",
                             lambda v: 0 <= v <= 2**63 - 1), 7),
    }},
}
EXPERIMENTS = tuple(SCHEMAS)


@dataclass
class ScenarioConfig:
    experiment: str
    sections: dict[str, dict]
    seed: int
    output_dir: str
    config_hash: str

    def section(self, name: str) -> dict:
        return self.sections[name]


def parse_value(kind, text: str, where: str):
    """``text`` as a value of a schema kind; ``where`` names it in errors."""
    if isinstance(kind, list):
        return [parse_value(kind[0], part.strip(), where) for part in text.split(",")]
    if "," in text:
        raise ConfigError(f"{where} takes one value, got {text!r}")
    if not text:
        raise ConfigError(f"{where} has no value")
    kind = _PLAIN.get(kind, kind)
    try:
        value = kind.type(text)
    except ValueError:
        pass
    else:
        if kind.ok(value) and (kind.type is not float or math.isfinite(value)):
            return value
    raise ConfigError(f"{where} must be {kind.rule}, got {text!r}")


def parse_config(text: str, experiment: str) -> ScenarioConfig:
    schema = {"common": COMMON, **SCHEMAS[experiment]}
    sections: dict[str, dict] = {name: {} for name in schema}
    current = "common"
    set_on: dict[tuple[str, str], int] = {}  # (section, key) -> line
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
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
        if (current, key) in set_on:
            raise ConfigError(f"line {lineno}: [{current}] {key} was already set on "
                              f"line {set_on[current, key]}")
        set_on[current, key] = lineno
        sections[current][key] = parse_value(schema[current][key][0], value,
                                             f"line {lineno}: [{current}] {key}")
    for name, keys in schema.items():
        sec = sections[name]
        for key, (_kind, default) in keys.items():
            if key not in sec:
                if default is None:
                    raise ConfigError(f"config must set `{key}` in the [{name}] section")
                sec[key] = (default(sec) if callable(default) else
                            list(default) if isinstance(default, list) else default)
    common = sections.pop("common")
    return ScenarioConfig(
        experiment, sections, seed=common["seed"], output_dir=common["out"],
        config_hash=hashlib.sha256(text.encode()).hexdigest()[:16])
