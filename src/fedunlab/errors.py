"""Exception taxonomy shared by all fedunlab modules.

Every error raised on a contract violation derives from FedUnlabError so
callers can distinguish library failures from programming mistakes.
"""

from __future__ import annotations


class FedUnlabError(Exception):
    """Base class for all fedunlab errors."""


class InvalidArgumentError(FedUnlabError):
    """An argument violates a documented precondition."""


class InfeasibleBudgetError(InvalidArgumentError):
    """Requested privacy/participation budgets cannot be met by any
    integer batch size, e.g. the implied batch size exceeds the client
    dataset size before rounding."""


class NotFoundError(FedUnlabError):
    """A referenced client or sample uid does not exist."""


class EmptyFederationError(FedUnlabError):
    """An operation would leave the federation with zero clients."""


class InfeasibleBatchError(FedUnlabError):
    """A mini-batch cannot be drawn because the batch size exceeds the
    current size of a selected client's dataset."""


class DivergedDiversityError(FedUnlabError):
    """Gradient diversity is undefined because the mean gradient has
    (numerically) zero norm."""


class CorruptedHistoryError(FedUnlabError):
    """Recorded history violates ordering or consistency constraints."""


class ModeMismatchError(FedUnlabError):
    """The requested operation is not supported by the store's mode,
    e.g. partial re-computation against a compact store."""


class DigestMismatchError(FedUnlabError):
    """A checkpoint was produced against a different dataset."""


class CheckpointFormatError(FedUnlabError):
    """A checkpoint file is truncated, has an unknown version tag, or
    fails to parse."""


class BinsTooFineError(FedUnlabError):
    """A statistical test would run with expected bin counts too small
    for the chi-square approximation to be trustworthy."""


class TooLargeToEnumerateError(FedUnlabError):
    """Exact enumeration was requested for a configuration whose history
    space exceeds the supported budget."""
