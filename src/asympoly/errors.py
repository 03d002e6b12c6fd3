"""Exception types shared across the package."""


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
