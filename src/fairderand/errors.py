"""Exception hierarchy shared across the toolkit."""


class FairderandError(Exception):
    """Base class for all toolkit errors."""


class UnknownPointError(FairderandError, KeyError):
    """A tabular scorer or dataset has no entry for the point id."""


class DimensionMismatchError(FairderandError, ValueError):
    """Feature vectors of incompatible dimension were combined."""


class ZeroVectorError(FairderandError, ValueError):
    """Angular distance is undefined on the zero vector."""


class UnknownBucketError(FairderandError, KeyError):
    """A hash was evaluated on a bucket outside its embedded domain."""


class FamilyTooLargeError(FairderandError, ValueError):
    """Enumeration was requested for a family above the enumeration cap."""


class NotEnumerableError(FairderandError, ValueError):
    """Exact enumeration was requested for an infinite or oversized family."""


class EmptyPairSetError(FairderandError, ValueError):
    """No point pairs fall within the requested distance threshold."""


class InvalidParameterError(FairderandError, ValueError):
    """A parameter is outside the range its contract requires."""


class GridTooCoarseError(FairderandError, ValueError):
    """The search grid is too coarse to certify a fairness violation."""


class DataFormatError(FairderandError, ValueError):
    """A dataset file does not conform to the CSV contract."""
