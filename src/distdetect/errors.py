"""Exception hierarchy shared across the package."""


class DistDetectError(Exception):
    """Base class for all package-specific failures."""


class SimplexViolation(DistDetectError):
    """A vector claimed to be a probability distribution is not one."""


class AbsoluteContinuityViolation(DistDetectError):
    """KL divergence requested where mu puts mass outside pi's support."""


class NonFiniteInput(DistDetectError):
    """A potential vector contains NaN or infinity."""


class ZeroLikelihoodEntry(DistDetectError):
    """A likelihood table contains a zero entry, so log-marginals are unbounded."""


class BadRowSum(DistDetectError):
    """A likelihood-table row does not sum to one."""


class NotIdentifiable(DistDetectError):
    """Some false state is observationally equivalent to the true state for all agents."""


class IsolatedAgent(DistDetectError):
    """Gossip requested on a graph with a degree-zero vertex."""


class DimensionMismatch(DistDetectError):
    """Inconsistent sizes between matrices, samples and models."""


class DegenerateInputs(DistDetectError):
    """A bound or learning-rate formula evaluated outside its domain."""


class InvalidScenario(DistDetectError):
    """Monte Carlo scenario violates a model or network assumption."""


class ConfigInvalid(DistDetectError):
    """Experiment config failed validation."""
