"""Experiment configuration: strict JSON with unit-suffixed values.

Every physical quantity is a "<number> <unit>" string; unknown keys are
rejected before any computation starts so unit mistakes and typos fail
loudly. Parsed configs resolve to SI (angular frequencies in rad/s).
"""

import json
import sys

from .species import AtomicSpecies
from .units import parse_quantity, UnitError


class ConfigError(ValueError):
    """Malformed, unknown, or missing configuration content."""


# schema: key -> (kind, default). kind is a units.parse_quantity kind,
# or one of: int, float, bool, int_list, nested dict schema.
_SPECIES_SCHEMA = {
    "mass": ("mass", None),
    "linewidth": ("frequency", None),
    "saturation_intensity": ("intensity", None),
    "line_wavelength": ("length", None),
    "ground_hyperfine_splitting": ("frequency", None),
    "rydberg_decay": ("frequency", None),
}

_COMMON = {
    "seed": ("int", 12345),
    "species": (_SPECIES_SCHEMA, {}),
}

SCHEMAS = {
    "fig1": {
        **_COMMON,
        "N_values": ("int_list", [1, 2, 5, 10, 20, 50, 100, 200, 350, 500]),
        "trials": ("int", 20),
        "diameter": ("length", "5 um"),
        "rabi": ("frequency", "1 MHz"),
        "principal_n": ("int", 50),
        "anchor_separation": ("length", "5 um"),
        "anchor_shift": ("frequency", "100 MHz"),
        "full_integrator_cap": ("int", 12),
    },
    "eject": {
        **_COMMON,
        "fort_power": ("power", "100 mW"),
        "fort_waist": ("length", "5 um"),
        "fort_wavelength": ("length", "1.06 um"),
        "eject_power": ("power", "9 uW"),
        "eject_waist": ("length", "10 um"),
        "eject_wavelength": ("length", "780 nm"),
        "eject_offset": ("length", "-3 um"),
        "eject_detuning_b": ("frequency", "1 GHz"),
        "temperature": ("temperature", "30 uK"),
        "cloud_diameter": ("length", "5 um"),
        "trajectories": ("int", 100),
        "trajectories_a": ("int", 20),
        "duration": ("time", "300 us"),
        "tolerance": ("float", 1e-9),
        "include_recoil_kicks": ("bool", True),
        "gravity": ("bool", False),
        "profile_samples": ("int", 121),
        "profile_halfwidth": ("length", "15 um"),
    },
    "emission": {
        **_COMMON,
        "N_values": ("int_list", [10, 20, 50]),
        "diameter": ("length", "5 um"),
        "lambda4": ("length", "0.78 um"),
        "tilt_angle": ("angle", "0 deg"),
        "trials": ("int", 20),
        "grid_points": ("int", 181),
        "jitter_sigma": ("length", "0 um"),
    },
    "schedule": {
        **_COMMON,
        "N": ("int", 100),
        "m": ("int", 1),
        "rabi": ("frequency", "1 MHz"),
        "eject_time": ("time", "40 us"),
    },
}


# ranges of parsed values (of every entry, for lists), checked at load
_AT_LEAST = {"seed": 0, "N_values": 1, "trials": 1, "N": 1, "m": 1,
             "principal_n": 1, "trajectories": 1, "trajectories_a": 1,
             "grid_points": 2, "fort_power": 0, "eject_power": 0,
             "temperature": 0, "jitter_sigma": 0, "eject_time": 0,
             "profile_samples": 2, "full_integrator_cap": 0}
_POSITIVE = {"diameter", "cloud_diameter", "rabi", "anchor_separation",
             "anchor_shift", "duration", "tolerance", "fort_waist",
             "eject_waist", "fort_wavelength", "eject_wavelength", "lambda4",
             "profile_halfwidth"}


def _check_ranges(cfg):
    for key, value in cfg.items():
        least = min(value) if isinstance(value, list) else value
        if key in _AT_LEAST and not least >= _AT_LEAST[key]:
            raise ConfigError("%s: must be >= %g, got %r"
                              % (key, _AT_LEAST[key], value))
        if key in _POSITIVE and not least > 0:
            raise ConfigError("%s: must be positive, got %r" % (key, value))
    if "m" in cfg and cfg["m"] > cfg["N"]:
        raise ConfigError("m: %d exceeds N = %d" % (cfg["m"], cfg["N"]))
    try:
        species_from_config(cfg)
    except ValueError as exc:
        raise ConfigError("species: %s" % exc) from None


def _parse_value(key, kind, raw):
    if isinstance(kind, dict):
        if not isinstance(raw, dict):
            raise ConfigError("%s: expected an object" % key)
        return _parse_section(raw, kind, prefix=key + ".")
    if kind == "int":
        if not isinstance(raw, int) or isinstance(raw, bool):
            raise ConfigError("%s: expected an integer, got %r" % (key, raw))
        return raw
    if kind == "float":
        # also rejects inf, nan and ints beyond the float range
        if (not isinstance(raw, (int, float)) or isinstance(raw, bool)
                or not abs(raw) <= sys.float_info.max):
            raise ConfigError("%s: expected a finite number, got %r"
                              % (key, raw))
        return float(raw)
    if kind == "bool":
        if not isinstance(raw, bool):
            raise ConfigError("%s: expected a boolean, got %r" % (key, raw))
        return raw
    if kind == "int_list":
        if (not isinstance(raw, list) or not raw
                or not all(isinstance(v, int) and not isinstance(v, bool)
                           for v in raw)):
            raise ConfigError("%s: expected a nonempty list of integers"
                              % key)
        return list(raw)
    try:
        return parse_quantity(raw, kind)
    except UnitError as exc:
        raise ConfigError("%s: %s" % (key, exc)) from None


def _parse_section(data, schema, prefix=""):
    unknown = set(data) - set(schema)
    if unknown:
        raise ConfigError("unknown key(s): %s"
                          % ", ".join(prefix + k for k in sorted(unknown)))
    out = {}
    for key, (kind, default) in schema.items():
        if key in data:
            out[key] = _parse_value(prefix + key, kind, data[key])
        elif default is None:
            out[key] = None
        elif isinstance(kind, dict):
            out[key] = _parse_section(default, kind, prefix=prefix + key + ".")
        else:
            out[key] = _parse_value(prefix + key, kind, default)
    return out


def load_config(subcommand, raw):
    """Validate and resolve a raw config dict for one subcommand."""
    if subcommand not in SCHEMAS:
        raise ConfigError("unknown subcommand %r" % (subcommand,))
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = _parse_section(raw, SCHEMAS[subcommand])
    _check_ranges(cfg)
    return cfg


def load_config_file(subcommand, path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError("invalid JSON in %s: %s" % (path, exc)) from None
    return load_config(subcommand, raw)


def species_from_config(cfg):
    """AtomicSpecies with any overrides from the config's species block."""
    overrides = cfg.get("species") or {}
    rename = {"linewidth": "linewidth_Gamma",
              "rydberg_decay": "rydberg_decay_gamma_R"}
    kwargs = {rename.get(k, k): v for k, v in overrides.items()
              if v is not None}
    return AtomicSpecies(**kwargs)
