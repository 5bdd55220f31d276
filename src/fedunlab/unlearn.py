"""Deletion handling: O(1) verification plus partial re-computation.

`unlearn_request` is the one entry point for both request kinds and
both store modes. `couple` is the one deletion rule: from the target's
first recorded use it picks the iteration re-computation starts at and
the recorded decisions the re-run keeps. The store keeps no local
models, so the re-run starts at that iteration's `round_start`; every
earlier round is kept and every decision the plan does not pin is
redrawn from the reduced dataset under a fresh stream epoch. The exact
certifier (`stability.unlearned_history_distribution`) runs both as well.

Sample deletion on a full-history store verifies involvement with one
index probe; an unused sample is a no-op. Otherwise re-computation
starts at the earliest involved iteration and the re-run keeps the
client multisets, every other client's batches, and the target client's
batches that did not contain the deleted point; only batches that
contained it are redrawn. This component-wise reuse is the coupling
that makes the re-run's sampling history distributed exactly as a
retrain on the reduced dataset. Redrawing the whole suffix instead would
bias the retained prefix (it would be conditioned on non-involvement),
so the reuse is a correctness requirement, not an optimization.

Client deletion verifies with one probe against the round index. The
re-run starts at the first round that selected the client and redraws
everything from there over the remaining clients (conditioning a
with-replacement draw on avoiding one client is exactly the uniform
draw over the others, so the retained prefix needs no surgery).

A compact store keeps no batches, so it cannot replay a prefix. A
compact sample deletion always retrains from iteration 1 under a fresh
epoch: keeping the model when the point was unused would keep a history
conditioned on non-involvement. A compact client deletion retrains from
iteration 1 iff the client was ever selected, which is exact by the
argument above.

A deletion that would leave a client or the federation empty, or whose
reduced federation cannot supply a batch of batch_size points wherever
the re-run could draw one, is rejected before anything is changed, so
the store and the dataset stay as they were.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .data import (
    FULL_HISTORY,
    FederatedDataset,
    HyperParams,
    UnlearnRequest,
    remove_target,
)
from .engine import ReplayPlan, run_fats
from .errors import EmptyFederationError, InvalidArgumentError, NotFoundError
from .losses import LossModel
from .store import HistoryStore

NOOP = "noop"
PARTIAL_RETRAIN = "partial_retrain"
FULL_RETRAIN = "full_retrain"
STALE = "stale"
REJECTED = "rejected"

Multisets = Iterable[tuple[int, tuple[int, ...]]]  # (round, multiset)
Records = Iterable[tuple[tuple[int, int], tuple[int, ...]]]  # ((iteration, client), batch)


@dataclass(frozen=True)
class UnlearnOutcome:
    """What servicing one deletion request did."""

    request: UnlearnRequest
    action: str
    from_iteration: int | None
    retrained_iterations: int
    wall_time_s: float
    final_model: np.ndarray | None
    rho_sample_realized: float
    rho_client_realized: float
    probes: int
    beyond_issue_step: bool = False  # re-computation starts after issue_step


def _outcome(
    request: UnlearnRequest,
    action: str,
    from_iteration: int | None,
    hyper: HyperParams,
    dataset: FederatedDataset,
    start_time: float,
    probes: int,
    final_model: np.ndarray | None,
) -> UnlearnOutcome:
    """The one place an outcome is built. Budgets are realized against
    the dataset the call returns: the sample budget uses the target
    client's size when that client remains, otherwise the smallest
    client (the conservative choice)."""
    if dataset.has_client(request.target_client):
        size = dataset.client(request.target_client).size
    else:
        size = dataset.min_client_size()
    rho_sample, rho_client = hyper.realized_budgets(dataset.num_clients, size)
    return UnlearnOutcome(
        request=request,
        action=action,
        from_iteration=from_iteration,
        retrained_iterations=(
            0 if from_iteration is None else hyper.total_steps - from_iteration + 1
        ),
        wall_time_s=time.perf_counter() - start_time,
        final_model=final_model,
        rho_sample_realized=rho_sample,
        rho_client_realized=rho_client,
        probes=probes,
        beyond_issue_step=from_iteration is not None and from_iteration > request.issue_step,
    )


def round_start(iteration: int, local_steps: int) -> int:
    """The first iteration of the round holding iteration."""
    return (iteration - 1) // local_steps * local_steps + 1


def build_sample_replay_plan(
    request: UnlearnRequest, start: int, multisets: Multisets, records: Records, local_steps: int
) -> ReplayPlan:
    """Pin every recorded decision at or after start except the target
    client's batches that contained the deleted uid."""
    client_id, uid = request.target_client, request.target_uid
    return ReplayPlan(
        round_multisets={r: m for r, m in multisets if (r - 1) * local_steps >= start - 1},
        batches={
            key: batch
            for key, batch in records
            if key[0] >= start and not (key[1] == client_id and uid in batch)
        },
    )


def couple(
    request: UnlearnRequest, mode: str, first_use: int | None,
    multisets: Multisets, records: Records, local_steps: int,
) -> tuple[int | None, ReplayPlan]:
    """The deletion rule for both request kinds and both store modes.

    first_use is the target's earliest recorded use (None when it was
    never used or the store cannot tell); multisets and records are the
    recorded (round, multiset) and ((iteration, client), batch) pairs,
    all of them or only those from first_use's round start on. Returns
    the iteration re-computation starts at (None: keep the history as
    it is) and the decisions from its round start on that the re-run
    keeps."""
    if mode != FULL_HISTORY:
        return (1 if request.kind == "sample" or first_use is not None else None), ReplayPlan()
    if request.kind == "client" or first_use is None:
        return first_use, ReplayPlan()
    since = round_start(first_use, local_steps)
    return first_use, build_sample_replay_plan(request, since, multisets, records, local_steps)


def unlearn_request(
    request: UnlearnRequest,
    store: HistoryStore,
    dataset: FederatedDataset,
    hyper: HyperParams,
    loss: LossModel,
) -> tuple[UnlearnOutcome, FederatedDataset]:
    """Service one deletion request exactly. Returns the outcome and the
    reduced dataset, or the unchanged dataset when the request is
    rejected. A request is rejected when the deletion would leave a
    client or the federation empty, or too small to draw a batch from
    wherever the re-run could draw one. Raises NotFoundError when the
    target is not in the dataset."""
    start_time = time.perf_counter()
    client_id = request.target_client
    uid = request.target_uid
    sample = request.kind == "sample"
    full = store.mode == FULL_HISTORY
    try:
        reduced = remove_target(dataset, request)
    except EmptyFederationError:
        smallest = 0
    else:
        # A partial sample re-run redraws only the target client's
        # batches; every other re-run may draw from any remaining client.
        if sample and full:
            smallest = reduced.client(client_id).size
        else:
            smallest = reduced.min_client_size()
    if smallest < hyper.batch_size:
        final = store.latest_global_model()
        return _outcome(request, REJECTED, None, hyper, dataset, start_time, 0, final), dataset

    probes_before = store.probes
    if sample:
        first_use = store.earliest_sample_use(uid) if full else None
    else:
        first_use = store.earliest_client_use(client_id)
    probes = store.probes - probes_before
    steps = store.local_steps
    # Read lazily: only a full-history sample deletion consumes them.
    multisets, records = store.decisions(round_start(first_use or 1, steps))
    from_iteration, plan = couple(request, store.mode, first_use, multisets, records, steps)
    if from_iteration is None:
        final = store.latest_global_model()
        return _outcome(request, NOOP, None, hyper, reduced, start_time, probes, final), reduced

    restart = round_start(from_iteration, steps)
    store.prune_after(restart)
    final = run_fats(restart, hyper, reduced, store, loss, replay=plan)
    action = PARTIAL_RETRAIN if full else FULL_RETRAIN
    outcome = _outcome(request, action, from_iteration, hyper, reduced, start_time, probes, final)
    return outcome, reduced


def process_stream(
    requests: list[UnlearnRequest],
    store: HistoryStore,
    dataset: FederatedDataset,
    hyper: HyperParams,
    loss: LossModel,
) -> tuple[list[UnlearnOutcome], FederatedDataset]:
    """Service requests in order. A request whose target is already gone
    yields a stale outcome. A rejected one leaves the store and the
    dataset as they were. Either way the stream continues."""
    outcomes: list[UnlearnOutcome] = []
    for request in requests:
        start_time = time.perf_counter()
        try:
            outcome, dataset = unlearn_request(request, store, dataset, hyper, loss)
        except NotFoundError:
            outcome = _outcome(request, STALE, None, hyper, dataset, start_time, 0, None)
        outcomes.append(outcome)
    return outcomes, dataset


def parse_request_line(line: str) -> UnlearnRequest:
    """Parse 'kind,client_id,uid_or_dash,issue_step'."""
    parts = [p.strip() for p in line.split(",")]
    if len(parts) != 4:
        raise InvalidArgumentError(
            f"request line needs 4 comma-separated fields, got {line!r}"
        )
    kind, client_text, uid_text, step_text = parts
    try:
        uid = None if uid_text == "-" else int(uid_text)
        client, step = int(client_text), int(step_text)
    except ValueError:
        raise InvalidArgumentError(
            f"request line needs integer client, uid and issue_step, got {line!r}"
        ) from None
    return UnlearnRequest(kind=kind, target_client=client, target_uid=uid, issue_step=step)
