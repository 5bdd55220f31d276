"""Federated averaging engine with per-decision random streams.

Training runs in rounds of local_steps iterations. At a round start the
server draws a multiset of clients_per_round clients uniformly with
replacement and broadcasts the current global model; every distinct
selected client then performs one mini-batch SGD step per iteration
(a client drawn twice runs once but carries weight two in the average).
At a round end the multiplicity-weighted mean of the local models
becomes the new global model.

Every sampling decision and every round's global model is recorded in
the history store, which is what makes deletions verifiable in O(1) and
re-computation possible from any round start: local models are not
stored, so a re-run starts at a round start, where every local model
is the round's global model. Re-execution of a suffix is bit-identical
as long as the store's epoch is unchanged, because every draw is keyed
by (seed, purpose, epoch, iteration context).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .data import FULL_HISTORY, FederatedDataset, HyperParams
from .errors import (
    CorruptedHistoryError,
    InfeasibleBatchError,
    InvalidArgumentError,
    ModeMismatchError,
)
from .losses import LossModel
from .store import HistoryStore
from .streams import DOMAIN_CLIENT_SAMPLING, DOMAIN_MINIBATCH, RekeyedPhilox, stream_key


@dataclass(frozen=True)
class ReplayPlan:
    """Pinned sampling decisions consulted during re-computation.

    Multisets are pinned per round, batches per (iteration, client).
    Any decision not pinned is drawn fresh from the current dataset with
    the store's current epoch in the stream key. Component-wise reuse is
    what keeps re-computed runs distributionally identical to
    retraining from scratch.
    """

    round_multisets: dict[int, tuple[int, ...]] = field(default_factory=dict)
    batches: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)


def sample_client_multiset(
    rng: np.random.Generator, client_ids: tuple[int, ...], count: int
) -> tuple[int, ...]:
    """Draw count clients uniformly with replacement; the result is the
    canonical (ascending) multiset."""
    if not client_ids:
        raise InvalidArgumentError("no clients to sample from")
    draws = rng.integers(0, len(client_ids), size=count)
    return tuple(sorted(client_ids[i] for i in draws))


def sample_minibatch(
    rng: np.random.Generator, uids: tuple[int, ...], batch_size: int
) -> tuple[int, ...]:
    """Draw batch_size uids uniformly without replacement, canonically
    sorted. Every subset of that size is equally likely."""
    if batch_size > len(uids):
        raise InfeasibleBatchError(
            f"batch size {batch_size} exceeds client size {len(uids)}"
        )
    rows = rng.choice(len(uids), size=batch_size, replace=False)
    return tuple(sorted(uids[i] for i in rows))


def local_step(theta: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
    return theta - lr * grad


def aggregate(
    local_models: dict[int, np.ndarray], multiset: tuple[int, ...]
) -> np.ndarray:
    """Multiplicity-weighted mean over the sampled multiset, summed in
    ascending client order so the float result is reproducible."""
    acc = None
    for client_id in multiset:  # already sorted ascending
        model = local_models[client_id]
        acc = model.copy() if acc is None else acc + model
    return acc / len(multiset)


RoundHook = Callable[[int, int, np.ndarray], None]


def run_fats(
    start_iteration: int,
    hyper: HyperParams,
    dataset: FederatedDataset,
    store: HistoryStore,
    loss: LossModel,
    replay: ReplayPlan | None = None,
    round_hook: RoundHook | None = None,
) -> np.ndarray:
    """Execute iterations start_iteration..total_steps and return the
    final global model. start_iteration must start a round.

    Starting from 1 trains from the zero model, overwrites the store and
    records the loss's name on it. Starting later resumes the store,
    under the loss it was trained with, from the global model before
    start_iteration's round. Records from start_iteration on are
    discarded and rewritten; the epoch is not advanced here, so
    re-running the same suffix is bit-identical.
    """
    total = hyper.total_steps
    steps = hyper.local_steps
    if not 1 <= start_iteration <= total:
        raise InvalidArgumentError(
            f"start_iteration {start_iteration} outside [1, {total}]"
        )
    if (start_iteration - 1) % steps:
        raise InvalidArgumentError(
            f"start_iteration {start_iteration} does not start a round of {steps} steps"
        )
    if start_iteration > store.next_iteration:
        raise InvalidArgumentError(
            f"cannot start at {start_iteration}: store only covers history "
            f"up to {store.next_iteration - 1}"
        )
    if start_iteration > 1 and store.mode != FULL_HISTORY:
        raise ModeMismatchError("compact stores only support training from iteration 1")
    if store.local_steps != steps:
        raise InvalidArgumentError("store and hyper disagree on local_steps")

    seed = hyper.seed
    count = hyper.clients_per_round
    batch_size = hyper.batch_size
    lr = hyper.lr
    active = dataset.client_ids
    epoch = store.epoch
    # One generator for the run, re-keyed per decision; the (seed,
    # domain, epoch) part of every key is folded once here.
    streams = RekeyedPhilox()
    multiset_key = stream_key(seed, DOMAIN_CLIENT_SAMPLING, epoch)
    batch_key = stream_key(seed, DOMAIN_MINIBATCH, epoch)
    plan = ReplayPlan() if replay is None else replay
    pinned_multisets, pinned_batches = plan.round_multisets, plan.batches

    first_round = store.round_of(start_iteration)
    if start_iteration > 1 and store.loss_name != loss.name:
        raise InvalidArgumentError(
            f"the store was trained under the {store.loss_name} loss, not {loss.name}"
        )
    theta = np.zeros(loss.dim) if start_iteration == 1 else store.global_model(first_round - 1)
    if theta is None:
        raise CorruptedHistoryError(f"no global model recorded for round {first_round - 1}")
    store.discard_from(start_iteration)
    if start_iteration == 1:
        store.loss_name = loss.name
        store.record_global(0, theta)

    multiset: tuple[int, ...] | None = None
    locals_: dict[int, np.ndarray] = {}
    for t in range(start_iteration, total + 1):
        round_index = store.round_of(t)
        if t == store.round_start_iteration(round_index):
            multiset = pinned_multisets.get(round_index)
            if multiset is None:
                rng = streams.rekey(multiset_key, round_index)
                multiset = sample_client_multiset(rng, active, count)
            store.record_round_start(round_index, multiset)
            locals_ = {cid: theta.copy() for cid in set(multiset)}
        assert multiset is not None
        for client_id in sorted(set(multiset)):
            pinned_batch = pinned_batches.get((t, client_id))
            client = dataset.client(client_id)
            if pinned_batch is not None:
                batch = pinned_batch
            else:
                if batch_size > client.size:
                    raise InfeasibleBatchError(
                        f"client {client_id} holds {client.size} points; cannot "
                        f"draw a batch of {batch_size}"
                    )
                rng = streams.rekey(batch_key, t, client_id)
                batch = sample_minibatch(rng, client.uids, batch_size)
            rows = client.rows_for(batch)
            grad = loss.mean_grad(
                locals_[client_id],
                client.features_matrix[rows],
                client.labels_vector[rows],
            )
            locals_[client_id] = local_step(locals_[client_id], grad, lr)
            store.record_iteration(t, client_id, batch)
        if t % steps == 0:
            theta = aggregate(locals_, multiset)
            store.record_global(round_index, theta)
            if round_hook is not None:
                round_hook(round_index, t, theta)
    return theta
