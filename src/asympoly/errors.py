"""Exception types shared across the package, and the two rules by which
every config number is read: :func:`finite_number` and :func:`integer`."""

import sys


class AsymPolyError(Exception):
    """Base class for all package-specific errors."""


class WindowLengthError(AsymPolyError):
    """A sequence window is too short for the requested operation."""


class IndexRangeError(AsymPolyError):
    """Access to a sequence index outside the realized window."""


class SeedError(AsymPolyError):
    """A seed holds the wrong number of values, or an x seed is missing
    (k != 0) or given (k = 0); the message names ``seeds.z`` or ``seeds.x``."""


class SingularRecoveryError(AsymPolyError):
    """Recovery of x from z hit a divisor below the singularity guard."""


class CausalityError(AsymPolyError):
    """A delay map asked for a value outside the realized x window."""


class DivergenceError(AsymPolyError):
    """A simulated or derived quantity left the finite range."""


class QuadratureDomainError(AsymPolyError):
    """The integrand 1/g is undefined: g nonpositive on the interval."""


class BracketRangeError(AsymPolyError):
    """Monotone bracketing exceeded the supported range without resolving."""


class ConfigError(AsymPolyError):
    """An equation or experiment configuration violates an invariant."""


class CatalogError(ConfigError):
    """Unknown catalog identifier or invalid catalog parameters."""


def finite_number(value: object, subject: str, error: type[ConfigError] = ConfigError) -> float:
    """value as a float.  A bool, a non-number or a value outside the float
    range (NaN, an infinity, an int such as 10**400) raises ``error``, whose
    message begins with ``subject``, e.g. ``field s:``."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not -sys.float_info.max <= value <= sys.float_info.max
    ):
        raise error(f"{subject} must be a finite number, got {value!r}")
    return float(value)


def integer(value: object, subject: str, error: type[ConfigError] = ConfigError) -> int:
    """value as an int: an int that is not a bool, of any size (each field
    bounds its own), or an integer-valued float (2.0 reads as 2)."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise error(f"{subject} must be an integer, got {value!r}")
    return int(value)
