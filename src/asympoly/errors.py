"""Exception types shared across the package, the two rules by which
every config number is read (:func:`finite_number` and :func:`integer`),
and :func:`brief`, the form in which a message echoes a config value."""

import sys


class AsymPolyError(Exception):
    """Base class for all package-specific errors."""


class WindowLengthError(AsymPolyError):
    """A sequence window is too short for the requested operation."""


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


def brief(value: object) -> str:
    """value as a message echoes it: its repr, or, for an int past 20
    digits (a config integer may have hundreds), its leading digits and
    its digit count, and for any other repr past 40 characters, its first
    20 and its length."""
    text = repr(value)
    if isinstance(value, int) and len(text) > 20:
        return f"{text[:6]}... ({len(text.lstrip('-'))} digits)"
    if len(text) > 40:
        return f"{text[:20]}... ({len(text)} characters)"
    return text


def finite_number(value: object, subject: str, error: type[ConfigError] = ConfigError) -> float:
    """value as a float.  A bool, a non-number or a value outside the float
    range (NaN, an infinity, an int such as 10**400) raises ``error``, whose
    message begins with ``subject``, e.g. ``field s:``."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not -sys.float_info.max <= value <= sys.float_info.max
    ):
        raise error(f"{subject} must be a finite number, got {brief(value)}")
    return float(value)


def integer(value: object, subject: str, error: type[ConfigError] = ConfigError) -> int:
    """value as an int: an int that is not a bool, of any size (each field
    bounds its own), or an integer-valued float (2.0 reads as 2)."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise error(f"{subject} must be an integer, got {brief(value)}")
    return int(value)
