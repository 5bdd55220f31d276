"""Deterministic federated averaging with exact sample and client deletion.

The package trains a FedAvg-style model under explicit per-round client
subsampling and per-iteration mini-batch subsampling, records the full
selection history, and services deletion requests by recomputing only
the affected suffix. A built-in verification lab enumerates the exact
distribution over selection histories and certifies that a serviced
deletion is distributionally identical to retraining from scratch on
the reduced data.
"""

from .data import (
    COMPACT,
    FULL_HISTORY,
    ClientDataset,
    DataPoint,
    FederatedDataset,
    HyperParams,
    UnlearnRequest,
    dataset_digest,
    export_dataset,
    generate_synthetic,
    import_dataset,
    remove_client,
    remove_sample,
)
from .engine import ReplayPlan, aggregate, run_fats, sample_client_multiset, sample_minibatch
from .errors import (
    BinsTooFineError,
    CheckpointFormatError,
    CorruptedHistoryError,
    DigestMismatchError,
    DivergedDiversityError,
    EmptyFederationError,
    FedUnlabError,
    InfeasibleBatchError,
    InfeasibleBudgetError,
    InvalidArgumentError,
    ModeMismatchError,
    NotFoundError,
    TooLargeToEnumerateError,
)
from .losses import (
    LogisticLoss,
    LossModel,
    QuadraticLoss,
    check_lr_condition,
    estimate_grad_bound,
    estimate_smoothness,
    gradient_diversity,
    make_loss,
    stability_curvature_ratio,
    suggest_learning_rate,
)
from .stability import (
    EquivalenceReport,
    HistoryDistribution,
    enumerate_history_distribution,
    equivalence_test_exact,
    equivalence_test_mc,
    involvement_probability,
    tv_distance,
    unlearned_history_distribution,
    unlearned_history_distributions,
)
from .store import HistoryStore, load_checkpoint, save_checkpoint
from .unlearn import UnlearnOutcome, parse_request_line, process_stream, unlearn_request

__version__ = "0.1.0"

__all__ = [
    "COMPACT",
    "FULL_HISTORY",
    "BinsTooFineError",
    "CheckpointFormatError",
    "ClientDataset",
    "CorruptedHistoryError",
    "DataPoint",
    "DigestMismatchError",
    "DivergedDiversityError",
    "EmptyFederationError",
    "EquivalenceReport",
    "FedUnlabError",
    "FederatedDataset",
    "HistoryDistribution",
    "HistoryStore",
    "HyperParams",
    "InfeasibleBatchError",
    "InfeasibleBudgetError",
    "InvalidArgumentError",
    "LogisticLoss",
    "LossModel",
    "ModeMismatchError",
    "NotFoundError",
    "QuadraticLoss",
    "ReplayPlan",
    "TooLargeToEnumerateError",
    "UnlearnOutcome",
    "UnlearnRequest",
    "aggregate",
    "check_lr_condition",
    "dataset_digest",
    "enumerate_history_distribution",
    "equivalence_test_exact",
    "equivalence_test_mc",
    "estimate_grad_bound",
    "estimate_smoothness",
    "export_dataset",
    "generate_synthetic",
    "gradient_diversity",
    "import_dataset",
    "involvement_probability",
    "load_checkpoint",
    "make_loss",
    "parse_request_line",
    "process_stream",
    "remove_client",
    "remove_sample",
    "run_fats",
    "sample_client_multiset",
    "sample_minibatch",
    "save_checkpoint",
    "stability_curvature_ratio",
    "suggest_learning_rate",
    "tv_distance",
    "unlearn_request",
    "unlearned_history_distribution",
    "unlearned_history_distributions",
]
