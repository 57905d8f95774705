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

    __str__ = Exception.__str__  # the message, where KeyError would print its repr


class DimensionMismatchError(DataError, ValueError):
    """Feature vectors of incompatible dimension were combined."""


class ZeroVectorError(DataError, ValueError):
    """Angular distance is undefined on the zero vector."""


class UnknownBucketError(DataError, KeyError):
    """A fixed bucketing met a bucket outside those it was built on."""

    __str__ = Exception.__str__


class DataFormatError(DataError, ValueError):
    """A dataset file does not conform to the CSV contract."""


class NotBinaryError(DataError, ValueError):
    """A bit- or set-valued computation met a feature other than 0 or 1,
    or an empty set where min-wise hashing needs a non-empty one."""


class NotEnumerableError(FairderandError, ValueError):
    """An exact audit was requested for a family it cannot list or count."""


class FamilyTooLargeError(NotEnumerableError):
    """An exact audit was requested for a family of 2**63 members or more,
    which the closed form's int64 split counts cannot count."""
