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


def _as_float(value) -> float:
    """float() that saturates to +inf instead of raising on huge ints."""
    try:
        return float(value)
    except OverflowError:
        return float("inf")


def require_number(value, field: str, integer: bool = False):
    """``value`` as read: int(value) when ``integer``, else its float (+inf
    past float range); a ConfigError naming ``field`` unless it is a real
    number (an integer when ``integer``), booleans counting as neither."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if integer else "a number"
        raise ConfigError(f"{field} must be {what}, got {value!r}")
    return int(value) if integer else _as_float(value)


def require(ok: bool, field: str, rule: str, value) -> None:
    """A ConfigError reading ``<field> must <rule>, got <value>`` unless
    ``ok``: the one wording of every range error."""
    if not ok:
        raise ConfigError(f"{field} must {rule}, got {value}")


def require_seed(value, field: str = "seed") -> int:
    """``value`` if it is a non-negative integer, as NumPy's seeding takes,
    else a ConfigError naming ``field``."""
    require(require_number(value, field, integer=True) >= 0, field, "be >= 0", value)
    return value
