"""Exception types shared across the package."""


class QGaltonError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(QGaltonError, ValueError):
    """An argument violates a documented precondition."""


class InvalidDistributionError(QGaltonError, ValueError):
    """A probability distribution fails its normalization contract."""


class DegenerateFitError(QGaltonError, ValueError):
    """A fit objective has no usable minimum."""


class ResourceLimitError(QGaltonError, ValueError):
    """A request exceeds a hard resource bound (e.g. path enumeration size)."""


class ConfigError(QGaltonError, ValueError):
    """An experiment configuration failed validation.

    The message names the offending field so CLI users can act on it.
    """
