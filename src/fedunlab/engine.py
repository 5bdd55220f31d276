"""Federated averaging engine with per-decision random streams.

run_fats is FATS as written: a loop over windows of rounds, a loop over
each window's rounds and, inside a round, its local_steps iterations
over the round's distinct clients. A round records the multiset of
clients_per_round clients the server drew uniformly with replacement
and broadcasts the current global model; every distinct selected client
then performs one mini-batch SGD step per iteration (a client drawn
twice runs once but carries weight two in the average), and the
multiplicity-weighted mean of the local models becomes the new global
model.

Every sampling decision and every round's global model is recorded in
the history store, which is what makes deletions verifiable in O(1) and
re-computation possible from any round start: local models are not
stored, so a re-run starts at a round start, where every local model
is the round's global model. Re-execution of a suffix is bit-identical
as long as the store's epoch is unchanged, because every draw is keyed
by (seed, purpose, epoch, iteration context).

A window holds about WINDOW_DECISIONS decisions. At its start the
sampler settles the window's multisets and batches in one dict each,
drawing the unpinned ones in one array pass: streams.philox_words gives
every key's 32-bit words, and draw_multisets and draw_subsets repeat on
them numpy's integer steps (Lemire's bounded draw; Floyd's algorithm for
choice without replacement, run plainly in b^2 comparisons per key,
since every shipped config and benchmark workload draws b <= 8).
Integers only, so each decision equals the one-at-a-time draw of
sample_client_multiset or sample_minibatch, which remain the reference
and still draw a pass below MIN_ARRAY_DECISIONS, any key whose word
Lemire's method would reject and choice's tail-shuffle case. A batch
that cannot be drawn is left out, and the loop raises where it reaches
it. tests/test_streams.py checks the kernels against numpy, so a numpy
change to Philox, its bounded draw or choice fails there.
"""

from __future__ import annotations

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
from .store import HistoryStore, Round
from .streams import (
    DOMAIN_CLIENT_SAMPLING,
    DOMAIN_MINIBATCH,
    _MASK32,
    _SHIFT32,
    fold_keys,
    philox_words,
    rekeyed,
    stream_key,
)


# The sampling decisions a re-run keeps, as round -> Round with None for
# each batch that is redrawn. A round the plan leaves out is drawn whole;
# everything drawn is drawn from the current dataset with the store's
# current epoch in the stream key. Component-wise reuse is what keeps
# re-computed runs distributionally identical to retraining from scratch.
ReplayPlan = dict[int, Round]


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


# The array path draws a window of about WINDOW_DECISIONS decisions at
# once; a pass with fewer than MIN_ARRAY_DECISIONS fresh decisions is
# drawn one decision at a time, where the arrays' fixed cost would not
# pay off.
WINDOW_DECISIONS = 4096
MIN_ARRAY_DECISIONS = 32

_TWO32 = np.uint64(1 << 32)
# numpy's choice(n, b, replace=False) shuffles the tail of arange(n)
# instead of running Floyd's algorithm when n > 10,000 and b > n // 50.
_TAIL_SHUFFLE_MIN = 10_000
_TAIL_SHUFFLE_DIVISOR = 50


def _lemire(words: np.ndarray, bound: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's bounded draw in [0, bound) from one 32-bit word each, for
    bound < 2^32 (Lemire, ACM TOMACS 2019): the high half of word *
    bound. Where the low half falls below 2^32 mod bound numpy rejects
    the word and draws again; those entries are flagged."""
    product = words * bound
    return product >> _SHIFT32, (product & _MASK32) < _TWO32 % bound


def draw_multisets(
    lo: np.ndarray, hi: np.ndarray, population: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """The indices into population (< 2^32, numpy's 32-bit draw) that
    sample_client_multiset draws from each key (lo[i], hi[i]), as a
    (keys, count) array in draw order, and a flag for every key whose
    draws must be taken one at a time."""
    # numpy reads no word for a population of one; every draw is 0 here too
    draws, rejected = _lemire(philox_words(lo, hi, count), np.uint64(population))
    return draws.astype(np.int64), rejected.any(axis=1)


def draw_subsets(
    lo: np.ndarray, hi: np.ndarray, sizes: np.ndarray, batch_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """The row indices that sample_minibatch draws from each key (lo[i],
    hi[i]) out of sizes[i] rows (batch_size <= sizes[i] < 2^32),
    ascending, as a (keys, batch_size) array, and a flag for every key
    whose draw must be taken one at a time.

    numpy's choice runs Floyd's algorithm: for k = 0, ..., b - 1 it
    draws v_k in [0, j_k], j_k = n - b + k, and adds v_k to the set, or
    j_k if v_k is already in it. The final shuffle reorders the set
    without changing it. The draw for j = 0 reads no word, which shifts
    the words of the later draws, but j = 0 only occurs for n = b, where
    the set is every row whatever the words. Keys are flagged where a
    word would be rejected and where choice would shuffle instead."""
    sizes = np.asarray(sizes, dtype=np.uint64)
    flagged = (sizes > _TAIL_SHUFFLE_MIN) & (
        batch_size > sizes // np.uint64(_TAIL_SHUFFLE_DIVISOR)
    )
    tops = sizes[:, None] - np.arange(batch_size, 0, -1, dtype=np.uint64)
    rows, rejected = _lemire(philox_words(lo, hi, batch_size), tops + np.uint64(1))
    flagged |= rejected.any(axis=1)
    for k in range(1, batch_size):
        repeats = (rows[:, :k] == rows[:, k, None]).any(axis=1)
        rows[repeats, k] = tops[repeats, k]
    return np.sort(rows, axis=1).astype(np.int64), flagged


class _Sampler:
    """Every sampling decision of one run_fats call: pinned by the replay
    plan or drawn with its window.

    draw_window settles a window's multisets and the batches of its
    iterations in two dicts. A decision is pinned, drawn in one array
    pass, or drawn one at a time through streams.rekeyed and the scalar
    samplers: keys the kernels flag and passes below
    MIN_ARRAY_DECISIONS. Either way it is the keyed draw of the scalar
    samplers, so the run is the same. A batch that cannot be drawn (its
    client is missing or too small) is left out, and run_fats raises
    when the loop reaches it."""

    def __init__(
        self, hyper: HyperParams, dataset: FederatedDataset, epoch: int, plan: ReplayPlan
    ) -> None:
        self._dataset = dataset
        self._active = dataset.client_ids
        self._count = hyper.clients_per_round
        self._batch_size = hyper.batch_size
        self._steps = hyper.local_steps
        self._plan = plan
        # the (seed, domain, epoch) part of every key, folded once
        self._multiset_key = stream_key(hyper.seed, DOMAIN_CLIENT_SAMPLING, epoch)
        self._batch_key = stream_key(hyper.seed, DOMAIN_MINIBATCH, epoch)
        self._uids: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None

    def draw_window(
        self, first_round: int, stop_round: int
    ) -> tuple[dict[int, tuple[int, ...]], dict[tuple[int, int], tuple[int, ...]]]:
        """The multisets of rounds first_round..stop_round - 1, in round
        order, and the batches of their iterations by (iteration, client)."""
        plan = self._plan
        multisets = {r: plan[r][0] if r in plan else None for r in range(first_round, stop_round)}
        fresh = [r for r, multiset in multisets.items() if multiset is None]
        if fresh and self._active and len(fresh) >= MIN_ARRAY_DECISIONS:
            lo, hi = fold_keys(self._multiset_key, np.array(fresh))
            draws, flagged = draw_multisets(lo, hi, len(self._active), self._count)
            ids = np.sort(np.array(self._active)[draws], axis=1).tolist()
            for r, multiset, skip in zip(fresh, ids, flagged.tolist()):
                if not skip:
                    multisets[r] = tuple(multiset)
        for r in fresh:
            if multisets[r] is None:
                rng = rekeyed(self._multiset_key, r)
                multisets[r] = sample_client_multiset(rng, self._active, self._count)
        return multisets, self._draw_batches(multisets)

    def _draw_batches(
        self, multisets: dict[int, tuple[int, ...]]
    ) -> dict[tuple[int, int], tuple[int, ...]]:
        plan = self._plan
        dataset = self._dataset
        batch_size = self._batch_size
        steps = self._steps
        batches, fresh = {}, []
        for r, multiset in multisets.items():
            pinned = dict(plan[r][1]) if r in plan else {}
            start = (r - 1) * steps + 1
            for cid in set(multiset):
                drawable = dataset.has_client(cid) and dataset.client(cid).size >= batch_size
                pins = pinned.get(cid, ())
                for step in range(steps):
                    batch = pins[step] if step < len(pins) else None
                    if batch is not None:
                        batches[start + step, cid] = batch
                    elif drawable:
                        fresh.append((start + step, cid))
        if fresh and len(fresh) >= MIN_ARRAY_DECISIONS:
            times, client_ids = np.array(fresh).T
            values, objects, offsets, sizes = self._uid_table()
            at = np.searchsorted(self._active, client_ids)
            lo, hi = fold_keys(self._batch_key, times, client_ids)
            rows, flagged = draw_subsets(lo, hi, sizes[at], batch_size)
            rows += offsets[at][:, None]
            rows = np.take_along_axis(rows, np.argsort(values[rows], axis=1), axis=1)
            for key, batch, skip in zip(fresh, objects[rows].tolist(), flagged.tolist()):
                if not skip:
                    batches[key] = tuple(batch)
        for t, cid in fresh:
            if (t, cid) not in batches:
                rng = rekeyed(self._batch_key, t, cid)
                batches[t, cid] = sample_minibatch(rng, dataset.client(cid).uids, batch_size)
        return batches

    def _uid_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every client's uids end to end in client id order, as int64
        values and as the int objects of client.uids (so a batch shares
        them, as a scalar draw's does), and each client's offset in them
        and size."""
        if self._uids is None:
            clients = [self._dataset.client(cid) for cid in self._active]
            sizes = np.array([c.size for c in clients])
            objects = np.empty(int(sizes.sum()), dtype=object)
            objects[:] = [uid for c in clients for uid in c.uids]
            self._uids = (
                np.concatenate([c.uid_array for c in clients]),
                objects,
                np.cumsum(sizes) - sizes,
                sizes,
            )
        return self._uids


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


def check_start(
    start_iteration: int, hyper: HyperParams, store: HistoryStore, loss: LossModel
) -> None:
    """Raise unless run_fats can run from start_iteration on store. It
    reads the store only, so a caller can refuse before it prunes."""
    total = hyper.total_steps
    steps = hyper.local_steps
    if not 1 <= start_iteration <= total:
        raise InvalidArgumentError(f"start_iteration {start_iteration} outside [1, {total}]")
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
    if start_iteration > 1 and store.loss_name != loss.name:
        raise InvalidArgumentError(
            f"the store was trained under the {store.loss_name} loss, not {loss.name}"
        )
    before = store.round_of(start_iteration) - 1
    if start_iteration > 1 and store.global_model(before) is None:
        raise CorruptedHistoryError(f"no global model recorded for round {before}")


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
    check_start(start_iteration, hyper, store, loss)
    steps = hyper.local_steps
    sampler = _Sampler(hyper, dataset, store.epoch, {} if replay is None else replay)
    first_round = store.round_of(start_iteration)
    stop_round = hyper.rounds + 1
    # a round holds one multiset and at most local_steps * K batches
    window_rounds = max(1, WINDOW_DECISIONS // (1 + steps * hyper.clients_per_round))
    theta = np.zeros(loss.dim) if start_iteration == 1 else store.global_model(first_round - 1)
    store.discard_from(start_iteration)
    if start_iteration == 1:
        store.loss_name = loss.name
        store.record_global(0, theta)

    lr = hyper.lr
    for window in range(first_round, stop_round, window_rounds):
        multisets, batches = sampler.draw_window(window, min(window + window_rounds, stop_round))
        for round_index, multiset in multisets.items():
            store.record_round_start(round_index, multiset)
            clients = sorted(set(multiset))
            locals_ = dict.fromkeys(clients, theta)
            last = round_index * steps
            for t in range(last - steps + 1, last + 1):
                for client_id in clients:
                    client = dataset.client(client_id)
                    batch = batches.get((t, client_id))
                    if batch is None:
                        raise InfeasibleBatchError(
                            f"client {client_id} holds {client.size} points; cannot "
                            f"draw a batch of {hyper.batch_size}"
                        )
                    rows = client.rows_for(batch)
                    grad = loss.mean_grad(
                        locals_[client_id],
                        client.features_matrix[rows],
                        client.labels_vector[rows],
                    )
                    locals_[client_id] = locals_[client_id] - lr * grad
                    store.record_iteration(t, client_id, batch)
            theta = aggregate(locals_, multiset)
            store.record_global(round_index, theta)
            if round_hook is not None:
                round_hook(round_index, last, theta)
    return theta
