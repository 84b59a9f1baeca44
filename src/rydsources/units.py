"""Strict parsing of unit-suffixed quantity strings into SI values.

All frequencies are converted to angular frequencies (rad/s) on input, so
that the rest of the code never mixes Hz and rad/s. Lengths, times, powers
and temperatures map to plain SI. A quantity must be written as
"<number> <unit>", e.g. "5 um", "1 MHz", "100 mW", "30 uK".
"""

import math


class UnitError(ValueError):
    """Raised for malformed quantity strings or unknown units."""


_TWO_PI = 2.0 * math.pi

# unit tables per quantity kind: suffix -> multiplier to SI
_LENGTH = {"m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6, "µm": 1e-6,
           "μm": 1e-6, "nm": 1e-9}
_TIME = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "µs": 1e-6, "μs": 1e-6,
         "ns": 1e-9}
# frequencies parse to angular frequency (rad/s)
_FREQUENCY = {"Hz": _TWO_PI, "kHz": _TWO_PI * 1e3, "MHz": _TWO_PI * 1e6,
              "GHz": _TWO_PI * 1e9, "THz": _TWO_PI * 1e12}
_POWER = {"W": 1.0, "mW": 1e-3, "uW": 1e-6, "µW": 1e-6, "μW": 1e-6,
          "nW": 1e-9}
_TEMPERATURE = {"K": 1.0, "mK": 1e-3, "uK": 1e-6, "µK": 1e-6, "μK": 1e-6,
                "nK": 1e-9}
_ANGLE = {"rad": 1.0, "mrad": 1e-3, "deg": math.pi / 180.0}
_MASS = {"kg": 1.0, "g": 1e-3}
_INTENSITY = {"W/m^2": 1.0, "W/m2": 1.0, "mW/cm^2": 10.0, "mW/cm2": 10.0}

_TABLES = {
    "length": _LENGTH,
    "time": _TIME,
    "frequency": _FREQUENCY,
    "power": _POWER,
    "temperature": _TEMPERATURE,
    "angle": _ANGLE,
    "mass": _MASS,
    "intensity": _INTENSITY,
}


def parse_quantity(text, kind):
    """Parse "<number> <unit>" into SI (frequencies into rad/s).

    `kind` selects the unit table: one of 'length', 'time', 'frequency',
    'power', 'temperature', 'angle', 'mass', 'intensity'.
    """
    if kind not in _TABLES:
        raise UnitError("unknown quantity kind %r" % (kind,))
    if not isinstance(text, str):
        raise UnitError("expected a unit-suffixed string, got %r" % (text,))
    parts = text.split()
    if len(parts) != 2:
        raise UnitError("malformed quantity %r (want '<number> <unit>')"
                        % (text,))
    try:
        value = float(parts[0])
    except ValueError:
        raise UnitError("cannot parse number in %r" % (text,)) from None
    table = _TABLES[kind]
    if parts[1] not in table:
        raise UnitError("unknown %s unit %r in %r (known: %s)"
                        % (kind, parts[1], text, ", ".join(sorted(table))))
    value *= table[parts[1]]
    if not math.isfinite(value):
        raise UnitError("%r is not a finite quantity" % (text,))
    return value
