"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError family is exit code 2,
DataError family is exit code 3.
"""

import numbers


class ConfigError(ValueError):
    """Invalid parameters, dimensions, or experiment configuration."""


class ShapeError(ConfigError):
    """Mismatched array shapes or dimensions."""


class DataError(ValueError):
    """Bad, malformed, or insufficient input data."""


class ParseError(DataError):
    """A data file failed to parse; message carries the line number."""


class DegenerateSetError(DataError):
    """No usable non-zero coefficient vector exists for a point set."""


def require_number(value, field: str, integer: bool = False):
    """``value`` if it is a real number (an integer when ``integer``), else a
    ConfigError naming ``field``; booleans count as neither."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if integer else "a number"
        raise ConfigError(f"{field} must be {what}, got {value!r}")
    return value


def require_seed(value, field: str = "seed") -> int:
    """``value`` if it is a non-negative integer, as NumPy's seeding takes,
    else a ConfigError naming ``field``."""
    require_number(value, field, integer=True)
    if value < 0:
        raise ConfigError(f"{field} must be >= 0, got {value}")
    return value
