"""The package's two exception classes: the only failures callers tell apart."""


class DistDetectError(ValueError):
    """An argument violates an assumption of the model, network or bounds.

    A ValueError, so callers that catch ValueError keep catching it.
    """


class ConfigInvalid(DistDetectError):
    """Experiment config failed validation."""
