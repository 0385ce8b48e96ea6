"""Exception types shared across the package."""


class CpcError(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrix(CpcError):
    """A matrix required to be invertible is numerically singular."""


class RankDeficient(CpcError):
    """A least-squares or elimination problem has insufficient rank."""


class NonFiniteState(CpcError):
    """Integration produced NaN or infinite state values."""


class VelocityBarDegenerate(CpcError):
    """The unactuated-direction velocity projection is too close to zero
    for the time reparameterization to be well conditioned."""


class EmptyDataset(CpcError):
    """A target store was built from zero data points."""


class NoValidCandidates(CpcError):
    """Every retrieved target candidate was rejected by a guard."""


class DatasetSchemaMismatch(CpcError):
    """A dataset file does not match the expected schema or chain layout."""
