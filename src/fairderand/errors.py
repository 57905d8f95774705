"""Exception hierarchy shared across the toolkit.

Every toolkit error falls under exactly one of three bases, one per CLI
exit code: ``InvalidParameterError`` (2), ``DataError`` (3) and
``NotEnumerableError`` (4).
"""


class FairderandError(Exception):
    """Base class for all toolkit errors."""


class InvalidParameterError(FairderandError, ValueError):
    """A parameter is outside the range its contract requires."""


class ConfigError(InvalidParameterError):
    """An experiment config is unreadable or malformed."""


class EmptyPairSetError(InvalidParameterError):
    """No point pairs fall within the requested distance threshold."""


class GridTooCoarseError(InvalidParameterError):
    """The search grid is too coarse to certify a fairness violation."""


class DataError(FairderandError):
    """The dataset does not fit the computation it is given to."""


class UnknownPointError(DataError, KeyError):
    """A tabular scorer or dataset has no entry for the point id."""


class DimensionMismatchError(DataError, ValueError):
    """Feature vectors of incompatible dimension were combined."""


class ZeroVectorError(DataError, ValueError):
    """Angular distance is undefined on the zero vector."""


class UnknownBucketError(DataError, KeyError):
    """A hash was evaluated on a bucket outside its embedded domain."""


class DataFormatError(DataError, ValueError):
    """A dataset file does not conform to the CSV contract."""


class NotEnumerableError(FairderandError, ValueError):
    """Exact enumeration was requested for an infinite or oversized family."""


class FamilyTooLargeError(NotEnumerableError):
    """Enumeration was requested for a family above the enumeration cap."""
