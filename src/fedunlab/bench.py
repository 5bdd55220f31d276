"""Experiment runner, metrics, and reports.

A single JSON config describes dataset, loss, schedule, budgets, and
deletion requests. Runs write three files per repeat: metrics.csv
(deterministic per-round training metrics; byte-identical across runs
with the same config and seed), timings.csv (wall-clock measurements,
kept separate precisely because they are not deterministic), and
outcomes.csv (one line per deletion request)."""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import MISSING, astuple, dataclass, field, fields
from typing import get_type_hints

import numpy as np

from .data import (
    FULL_HISTORY,
    FederatedDataset,
    HyperParams,
    UnlearnRequest,
    generate_synthetic,
    import_dataset,
)
from .engine import run_fats
from .errors import DivergedDiversityError, InvalidArgumentError
from .losses import (
    LossModel,
    check_lr_condition,
    estimate_grad_bound,
    estimate_smoothness,
    full_local_grad,
    global_grad,
    global_loss,
    gradient_diversity,
    make_loss,
    stability_curvature_ratio,
    suggest_learning_rate,
)
from .store import HistoryStore
from .streams import DOMAIN_TRIAL, substream
from .unlearn import NOOP, REJECTED, STALE, UnlearnOutcome, process_stream

OUTCOME_FIELDS = [
    "run",
    "index",
    "kind",
    "client",
    "uid",
    "issue_step",
    "action",
    "from_iteration",
    "retrained_iterations",
    "probes",
    "rho_sample_realized",
    "rho_client_realized",
    "beyond_issue_step",
    "wall_time_s",
]


@dataclass(frozen=True)
class MetricsRow:
    """One training round's diagnostics for one run."""

    run: int
    round: int
    iteration: int
    grad_norm_sq: float
    avg_grad_norm_sq: float
    loss: float
    diversity: float
    lr_condition_margin: float
    rho_sample_realized: float
    rho_client_realized: float
    curvature_ratio: float


METRICS_FIELDS = [f.name for f in fields(MetricsRow)]


def _field(section: dict, path: str, kind: type, default=MISSING):
    """Read the config value at path from its section as kind: an int
    counts as a float, a bool as neither."""
    key = path.rpartition(".")[2]
    if key not in section:
        if default is MISSING:
            raise InvalidArgumentError(f"config field {path} is required")
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise InvalidArgumentError(f"config field {path} must be {kind.__name__}, got {value!r}")
    return kind(value)


def _section(raw, name: str, *own: str) -> dict:
    """Check that raw is an object whose keys all belong to a config
    field in section name or are in own."""
    if not isinstance(raw, dict):
        raise InvalidArgumentError(f"config field {name or 'root'} must be an object")
    paths = (f.metadata["path"].rpartition(".") for f in fields(ExperimentConfig) if f.metadata)
    unknown = sorted(set(raw) - {key for section, _, key in paths if section == name} - set(own))
    if unknown:
        path = f"{name}.{unknown[0]}" if name else unknown[0]
        raise InvalidArgumentError(f"config field {path} is not a known key")
    return raw


def _request(entry, where: str, total_steps: int) -> UnlearnRequest:
    _section(entry, where, "kind", "client", "uid", "issue_step")
    return UnlearnRequest(
        kind=_field(entry, f"{where}.kind", str),
        target_client=_field(entry, f"{where}.client", int),
        target_uid=_field(entry, f"{where}.uid", int, None),
        issue_step=_field(entry, f"{where}.issue_step", int, total_steps),
    )


@dataclass(kw_only=True)
class ExperimentConfig:
    """Validated experiment description. A field whose metadata holds a
    path is read from that config value, and is required if it has no
    default."""

    dataset_clients: int = field(metadata={"path": "dataset.num_clients"})
    dataset_samples: int = field(metadata={"path": "dataset.samples_per_client"})
    dataset_dim: int = field(default=1, metadata={"path": "dataset.dim"})
    dataset_classes: int = field(default=2, metadata={"path": "dataset.classes"})
    dataset_beta: float = field(default=0.5, metadata={"path": "dataset.beta"})
    dataset_seed: int = field(default=0, metadata={"path": "dataset.seed"})
    dataset_path: str | None
    loss: str = field(default="quadratic", metadata={"path": "loss"})
    total_steps: int = field(metadata={"path": "hyper.total_steps"})
    local_steps: int = field(metadata={"path": "hyper.local_steps"})
    rho_sample: float = field(metadata={"path": "hyper.rho_sample"})
    rho_client: float = field(metadata={"path": "hyper.rho_client"})
    lr: float | None  # None means derive from estimates
    storage_mode: str = field(default=FULL_HISTORY, metadata={"path": "hyper.storage_mode"})
    requests: list[UnlearnRequest]
    random_sample_requests: int = field(default=0, metadata={"path": "requests.random_samples"})
    request_seed: int = field(default=0, metadata={"path": "requests.seed"})
    repeats: int = field(default=1, metadata={"path": "repeats"})
    seed_base: int = field(default=0, metadata={"path": "seed_base"})
    output_dir: str = field(default="out", metadata={"path": "output_dir"})

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        raw = _section(raw, "", "dataset", "hyper", "requests")
        requests = raw.get("requests", [])
        if not isinstance(requests, (list, dict)):
            raise InvalidArgumentError("config field requests must be a list or an object")
        sections = {
            "": raw,
            "dataset": _section(raw.get("dataset", {}), "dataset", "path"),
            "hyper": _section(raw.get("hyper", {}), "hyper", "lr"),
            "requests": _section(requests if isinstance(requests, dict) else {}, "requests"),
        }
        data_path = _field(sections["dataset"], "dataset.path", str, None)
        types = get_type_hints(cls)
        values = {}
        for f in fields(cls):
            if not f.metadata:
                continue
            section, default = f.metadata["path"].rpartition(".")[0], f.default
            if section == "dataset" and data_path is not None and default is MISSING:
                default = 0  # unused: the dataset is read from path
            values[f.name] = _field(sections[section], f.metadata["path"], types[f.name], default)
        if values["repeats"] < 1:
            raise InvalidArgumentError("config field repeats must be at least 1")
        if values["random_sample_requests"] < 0:
            raise InvalidArgumentError("config field requests.random_samples must not be negative")
        lr = None
        if sections["hyper"].get("lr", "auto") != "auto":
            lr = _field(sections["hyper"], "hyper.lr", float)
            if not lr > 0:
                raise InvalidArgumentError("config field hyper.lr must be positive")
        if isinstance(requests, dict):
            requests = []
        return cls(
            **values,
            dataset_path=data_path,
            lr=lr,
            requests=[
                _request(entry, f"requests[{index}]", values["total_steps"])
                for index, entry in enumerate(requests)
            ],
        )

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as handle:
            try:
                raw = json.load(handle)
            except json.JSONDecodeError as exc:
                raise InvalidArgumentError(
                    f"config file {path} is not valid JSON: {exc}"
                ) from None
        return cls.from_dict(raw)


def load_config_dataset(config: ExperimentConfig) -> FederatedDataset:
    if config.dataset_path is not None:
        with open(config.dataset_path, "r", encoding="utf-8") as handle:
            return import_dataset(handle.read())
    return generate_synthetic(
        num_clients=config.dataset_clients,
        samples_per_client=config.dataset_samples,
        dim=config.dataset_dim,
        classes=config.dataset_classes,
        beta=config.dataset_beta,
        seed=config.dataset_seed,
    )


def resolve_learning_rate(
    config: ExperimentConfig, dataset: FederatedDataset, loss: LossModel
) -> tuple[float, float, float]:
    """Return (lr, curvature_ratio, smoothness). An explicit lr is passed
    through with the ratio still estimated for reporting; 'auto' applies
    the budget-balanced rule and then halves until the step-size condition
    holds (the loss gap uses zero as the optimum stand-in, which is a
    lower bound for both shipped losses)."""
    theta0 = np.zeros(loss.dim)
    smoothness = estimate_smoothness(loss, dataset, seed=config.seed_base)
    batch_size = build_hyper(config, dataset, lr=1.0, seed=0).batch_size
    grad_bound = estimate_grad_bound(loss, dataset, batch_size=batch_size, seed=config.seed_base)
    loss_gap = max(global_loss(loss, theta0, dataset), 1e-9)
    ratio = stability_curvature_ratio(
        grad_bound=grad_bound,
        smoothness=smoothness,
        loss_gap=loss_gap,
        rho_sample=config.rho_sample,
        num_clients=dataset.num_clients,
        samples_per_client=max(c.size for c in dataset.clients),
    )
    if config.lr is not None:
        return config.lr, ratio, smoothness
    lr = suggest_learning_rate(
        smoothness=smoothness, curvature_ratio=ratio, total_steps=config.total_steps
    )
    diversity_guess = 2.0
    for _ in range(60):
        ok, _ = check_lr_condition(lr, smoothness, diversity_guess, config.local_steps)
        if ok:
            break
        lr /= 2.0
    return lr, ratio, smoothness


def build_hyper(
    config: ExperimentConfig, dataset: FederatedDataset, lr: float, seed: int
) -> HyperParams:
    return HyperParams.from_budgets(
        rho_sample=config.rho_sample,
        rho_client=config.rho_client,
        num_clients=dataset.num_clients,
        samples_per_client=max(c.size for c in dataset.clients),
        total_steps=config.total_steps,
        local_steps=config.local_steps,
        lr=lr,
        seed=seed,
        storage_mode=config.storage_mode,
    )


def draw_random_sample_requests(
    dataset: FederatedDataset, count: int, seed: int, issue_step: int
) -> list[UnlearnRequest]:
    """Draw count distinct sample targets: each draw picks a client
    uniformly, then a point of that client not drawn before; a client
    whose points are all drawn is picked again. Raises when count
    exceeds the points the federation holds."""
    if count > dataset.total_points:
        raise InvalidArgumentError(
            f"cannot draw {count} distinct sample targets from "
            f"{dataset.total_points} points"
        )
    rng = substream(seed, DOMAIN_TRIAL, 999)
    requests: list[UnlearnRequest] = []
    taken: set[int] = set()
    client_ids = list(dataset.client_ids)
    while len(requests) < count:
        cid = int(client_ids[rng.integers(0, len(client_ids))])
        client = dataset.client(cid)
        candidates = [u for u in client.uids if u not in taken]
        if not candidates:
            continue
        uid = int(candidates[int(rng.integers(0, len(candidates)))])
        taken.add(uid)
        requests.append(
            UnlearnRequest(kind="sample", target_client=cid, target_uid=uid, issue_step=issue_step)
        )
    return requests


@dataclass
class RunResult:
    run: int
    hyper: HyperParams
    metrics: list[MetricsRow]
    outcomes: list[UnlearnOutcome]
    train_wall_s: float
    final_model: np.ndarray
    run_dir: str | None = None


def run_single(
    config: ExperimentConfig,
    dataset: FederatedDataset,
    loss: LossModel,
    lr: float,
    curvature_ratio: float,
    smoothness: float,
    run_index: int,
) -> RunResult:
    hyper = build_hyper(config, dataset, lr, seed=config.seed_base + run_index)
    store = HistoryStore(hyper.storage_mode, hyper.local_steps)
    metrics: list[MetricsRow] = []
    running_total = 0.0

    def round_hook(round_index: int, iteration: int, theta: np.ndarray) -> None:
        nonlocal running_total
        grad = global_grad(loss, theta, dataset)
        norm_sq = float(grad @ grad)
        running_total += norm_sq
        local_grads = [full_local_grad(loss, theta, c) for c in dataset.clients]
        try:
            diversity = gradient_diversity(local_grads)
        except DivergedDiversityError:
            diversity = float("nan")
        _, margin = check_lr_condition(
            hyper.lr,
            smoothness,
            diversity if math.isfinite(diversity) else 1.0,
            hyper.local_steps,
        )
        metrics.append(
            MetricsRow(
                run=run_index,
                round=round_index,
                iteration=iteration,
                grad_norm_sq=norm_sq,
                avg_grad_norm_sq=running_total / round_index,
                loss=global_loss(loss, theta, dataset),
                diversity=diversity,
                lr_condition_margin=margin,
                rho_sample_realized=hyper.rho_sample_realized,
                rho_client_realized=hyper.rho_client_realized,
                curvature_ratio=curvature_ratio,
            )
        )

    start = time.perf_counter()
    final = run_fats(1, hyper, dataset, store, loss, round_hook=round_hook)
    train_wall = time.perf_counter() - start

    requests = list(config.requests)
    if config.random_sample_requests:
        requests += draw_random_sample_requests(
            dataset,
            config.random_sample_requests,
            config.request_seed + run_index,
            issue_step=hyper.total_steps,
        )
    outcomes: list[UnlearnOutcome] = []
    if requests:
        outcomes, _ = process_stream(requests, store, dataset, hyper, loss)
        latest = store.latest_global_model()
        if latest is not None:
            final = latest
    return RunResult(
        run=run_index,
        hyper=hyper,
        metrics=metrics,
        outcomes=outcomes,
        train_wall_s=train_wall,
        final_model=final,
    )


def write_run_files(result: RunResult, run_dir: str) -> None:
    os.makedirs(run_dir, exist_ok=True)
    with open(os.path.join(run_dir, "metrics.csv"), "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(METRICS_FIELDS)
        writer.writerows(map(astuple, result.metrics))
    with open(os.path.join(run_dir, "outcomes.csv"), "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(OUTCOME_FIELDS)
        for index, outcome in enumerate(result.outcomes):
            req = outcome.request
            writer.writerow([
                result.run, index, req.kind, req.target_client,
                "-" if req.target_uid is None else req.target_uid,
                req.issue_step, outcome.action,
                "-" if outcome.from_iteration is None else outcome.from_iteration,
                outcome.retrained_iterations, outcome.probes,
                repr(outcome.rho_sample_realized), repr(outcome.rho_client_realized),
                int(outcome.beyond_issue_step), f"{outcome.wall_time_s:.6f}",
            ])
    with open(os.path.join(run_dir, "timings.csv"), "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["run", "train_wall_s", "unlearn_wall_s_total"])
        writer.writerow([
            result.run,
            f"{result.train_wall_s:.6f}",
            f"{sum(o.wall_time_s for o in result.outcomes):.6f}",
        ])


def read_metrics(path: str) -> list[MetricsRow]:
    """Parse a metrics.csv that write_run_files wrote."""
    columns = get_type_hints(MetricsRow)
    with open(path, "r", newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        missing = [name for name in columns if name not in (reader.fieldnames or ())]
        if missing:
            raise InvalidArgumentError(f"metrics file {path} has no column {missing[0]}")
        try:
            return [
                MetricsRow(**{name: kind(record[name]) for name, kind in columns.items()})
                for record in reader
            ]
        except (TypeError, ValueError) as exc:
            raise InvalidArgumentError(
                f"metrics file {path} line {reader.line_num}: {exc}"
            ) from None


def run_experiment(config: ExperimentConfig, write_files: bool = True) -> list[RunResult]:
    dataset = load_config_dataset(config)
    loss = make_loss(config.loss, dataset.dim)
    lr, ratio, smoothness = resolve_learning_rate(config, dataset, loss)
    results = []
    for run_index in range(config.repeats):
        result = run_single(config, dataset, loss, lr, ratio, smoothness, run_index)
        if write_files:
            run_dir = os.path.join(config.output_dir, f"run_{run_index}")
            write_run_files(result, run_dir)
            result.run_dir = run_dir
        results.append(result)
    return results


# the share of a run's last rounds convergence_summary's plateau averages
PLATEAU_FRACTION = 0.25


def convergence_summary(metrics: list[MetricsRow]) -> dict:
    """Summarize one configuration's runs: the running-average gradient
    norm trend and a plateau estimate over the last rounds."""
    if not metrics:
        raise InvalidArgumentError("no metrics rows")
    by_run: dict[int, list[MetricsRow]] = {}
    for row in metrics:
        by_run.setdefault(row.run, []).append(row)
    plateaus = []
    finals = []
    for run_rows in by_run.values():
        run_rows.sort(key=lambda r: r.round)
        tail = max(1, int(len(run_rows) * PLATEAU_FRACTION))
        plateaus.append(float(np.mean([r.grad_norm_sq for r in run_rows[-tail:]])))
        finals.append(run_rows[-1].avg_grad_norm_sq)
    return {
        "runs": len(by_run),
        "rounds": max(r.round for r in metrics),
        "plateau_grad_norm_sq": plateaus,
        "final_avg_grad_norm_sq": finals,
        "mean_plateau": float(np.mean(plateaus)),
        "mean_final_avg": float(np.mean(finals)),
    }


def unlearning_efficiency_report(outcomes: list[UnlearnOutcome], total_steps: int) -> dict:
    """Aggregate the cost of the serviced requests, those neither stale
    nor rejected, against the full-retrain baseline of total_steps
    iterations per serviced request."""
    if not outcomes:
        raise InvalidArgumentError("no outcomes")
    serviced = [o for o in outcomes if o.action not in (STALE, REJECTED)]
    retrained = [o.retrained_iterations for o in serviced]
    recomputes = sum(1 for o in serviced if o.retrained_iterations > 0)
    total_retrained = sum(retrained)
    baseline = total_steps * len(serviced)
    return {
        "requests": len(outcomes),
        "serviced": len(serviced),
        "stale": sum(1 for o in outcomes if o.action == STALE),
        "rejected": sum(1 for o in outcomes if o.action == REJECTED),
        "noop": sum(1 for o in serviced if o.action == NOOP),
        "recompute_rate": recomputes / len(serviced) if serviced else 0.0,
        "mean_retrained_iterations": total_retrained / len(serviced) if serviced else 0.0,
        "max_retrained_iterations": max(retrained) if retrained else 0,
        "mean_rho_sample_realized": float(
            np.mean([o.rho_sample_realized for o in serviced])
        ) if serviced else 0.0,
        "speedup_vs_full_retrain": (
            baseline / total_retrained if total_retrained > 0 else math.inf
        ),
        "mean_wall_time_s": float(np.mean([o.wall_time_s for o in serviced]))
        if serviced
        else 0.0,
    }
