"""Training history store with full and compact footprints.

full_history mode records, per iteration and selected client, the drawn
mini-batch uids and the post-step local model, plus per-round client
multisets and aggregated models. That is what partial re-computation
replays. compact mode keeps only the initial and the latest model and
the client index below; its deletions retrain from iteration 1.

Two dictionaries make deletion verification a single probe: client ->
earliest round in which the client was selected (both modes), and, in
full_history mode, uid -> earliest iteration whose recorded batch
contained the uid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import FULL_HISTORY, COMPACT, FederatedDataset, HyperParams, dataset_digest
from .errors import (
    CheckpointFormatError,
    CorruptedHistoryError,
    DigestMismatchError,
    InvalidArgumentError,
    ModeMismatchError,
)

_CKPT_HEADER = "fedunlab-ckpt v1 encoding=decimal-text"


def _fmt_vec(vec: np.ndarray) -> str:
    return ",".join(repr(float(x)) for x in vec)


def _parse_vec(text: str) -> np.ndarray:
    return np.array([float(x) for x in text.split(",")], dtype=np.float64)


@dataclass(frozen=True)
class IterationRecord:
    """What one selected client persisted at one iteration."""

    batch_uids: tuple[int, ...]
    local_model: np.ndarray


class HistoryStore:
    """Mutable record of one training run, addressed by iteration."""

    def __init__(self, mode: str, local_steps: int) -> None:
        if mode not in (FULL_HISTORY, COMPACT):
            raise InvalidArgumentError(f"unknown store mode {mode!r}")
        if local_steps < 1:
            raise InvalidArgumentError("local_steps must be >= 1")
        self.mode = mode
        self.local_steps = local_steps
        self.epoch = 0
        self.next_iteration = 1
        self.probes = 0  # verification probe counter, diagnostics only
        # full_history payload
        self._round_multisets: dict[int, tuple[int, ...]] = {}
        self._iterations: dict[tuple[int, int], IterationRecord] = {}
        self._global_models: dict[int, np.ndarray] = {}
        # compact payload
        self._latest_model: np.ndarray | None = None
        self._latest_round = 0
        # indices; _earliest_use is kept in full_history mode only
        self._earliest_use: dict[int, int] = {}
        self._earliest_round: dict[int, int] = {}
        self._client_last_iter: dict[int, int] = {}

    # ------------------------------------------------------------------
    # recording

    def round_start_iteration(self, round_index: int) -> int:
        return (round_index - 1) * self.local_steps + 1

    def round_of(self, iteration: int) -> int:
        return (iteration - 1) // self.local_steps + 1

    def record_round_start(self, round_index: int, multiset: tuple[int, ...]) -> None:
        if round_index < 1:
            raise InvalidArgumentError("round_index must be >= 1")
        if not multiset:
            raise InvalidArgumentError("empty client multiset")
        if tuple(sorted(multiset)) != tuple(multiset):
            raise InvalidArgumentError("client multiset must be sorted ascending")
        start = self.round_start_iteration(round_index)
        if start > self.next_iteration:
            raise CorruptedHistoryError(
                f"round {round_index} starts at {start} but next iteration is "
                f"{self.next_iteration}"
            )
        if self.mode == FULL_HISTORY:
            self._round_multisets[round_index] = tuple(multiset)
        for client_id in set(multiset):
            prev = self._earliest_round.get(client_id)
            if prev is None or round_index < prev:
                self._earliest_round[client_id] = round_index

    def record_iteration(
        self,
        iteration: int,
        client_id: int,
        batch_uids: tuple[int, ...],
        local_model: np.ndarray,
    ) -> None:
        if iteration < 1:
            raise InvalidArgumentError("iteration must be >= 1")
        last = self._client_last_iter.get(client_id, 0)
        if iteration <= last:
            raise CorruptedHistoryError(
                f"client {client_id} record at t={iteration} arrives after t={last}"
            )
        self._client_last_iter[client_id] = iteration
        if self.mode == FULL_HISTORY:
            model = np.array(local_model, dtype=np.float64, copy=True)
            self._iterations[(iteration, client_id)] = IterationRecord(
                batch_uids=tuple(batch_uids), local_model=model
            )
            for uid in batch_uids:
                prev = self._earliest_use.get(uid)
                if prev is None or iteration < prev:
                    self._earliest_use[uid] = iteration
        if iteration >= self.next_iteration:
            self.next_iteration = iteration + 1

    def record_global(self, round_index: int, model: np.ndarray) -> None:
        if round_index < 0:
            raise InvalidArgumentError("round_index must be >= 0")
        model = np.array(model, dtype=np.float64, copy=True)
        if self.mode == FULL_HISTORY:
            self._global_models[round_index] = model
        else:
            if round_index == 0:
                self._global_models[0] = model
            self._latest_model = model
            self._latest_round = max(self._latest_round, round_index)

    # ------------------------------------------------------------------
    # lookups

    def round_multiset(self, round_index: int) -> tuple[int, ...] | None:
        if self.mode != FULL_HISTORY:
            raise ModeMismatchError("round multisets are not kept in compact mode")
        return self._round_multisets.get(round_index)

    def iteration_record(self, iteration: int, client_id: int) -> IterationRecord | None:
        if self.mode != FULL_HISTORY:
            raise ModeMismatchError("iteration records are not kept in compact mode")
        return self._iterations.get((iteration, client_id))

    def iter_records(self):
        """Yield ((iteration, client_id), record) in iteration order."""
        if self.mode != FULL_HISTORY:
            raise ModeMismatchError("iteration records are not kept in compact mode")
        yield from sorted(self._iterations.items())

    def decisions(self):
        """The recorded sampling decisions as flat (round, multiset) and
        ((iteration, client), batch) pairs, in no particular order. Both
        are empty in compact mode."""
        records = ((key, rec.batch_uids) for key, rec in self._iterations.items())
        return self._round_multisets.items(), records

    def global_model(self, round_index: int) -> np.ndarray | None:
        if self.mode == FULL_HISTORY:
            model = self._global_models.get(round_index)
            return None if model is None else model.copy()
        if round_index == 0:
            model = self._global_models.get(0)
            return None if model is None else model.copy()
        if round_index == self._latest_round and self._latest_model is not None:
            return self._latest_model.copy()
        return None

    def latest_global_model(self) -> np.ndarray | None:
        if self.mode == COMPACT:
            return None if self._latest_model is None else self._latest_model.copy()
        if not self._global_models:
            return None
        return self._global_models[max(self._global_models)].copy()

    # ------------------------------------------------------------------
    # O(1) verification probes

    def earliest_sample_use(self, uid: int, through: int | None = None) -> int | None:
        """Earliest recorded iteration whose batch contained uid, or None.
        With through set, uses after that iteration are invisible.
        Exactly one index probe. Needs full_history mode."""
        if self.mode != FULL_HISTORY:
            raise ModeMismatchError("sample uses are not kept in compact mode")
        self.probes += 1
        found = self._earliest_use.get(uid)
        if found is None:
            return None
        if through is not None and found > through:
            return None
        return found

    def earliest_client_use(self, client_id: int, through: int | None = None) -> int | None:
        """Earliest round-start iteration at which the client was
        selected, or None. With through set, only rounds whose index is
        at most round_of(through) are visible. Exactly one index probe."""
        self.probes += 1
        round_index = self._earliest_round.get(client_id)
        if round_index is None:
            return None
        if through is not None and round_index > self.round_of(through):
            return None
        return self.round_start_iteration(round_index)

    # ------------------------------------------------------------------
    # pruning

    def _rebuild_indices(self) -> None:
        self._earliest_use.clear()
        self._earliest_round.clear()
        self._client_last_iter.clear()
        for round_index, multiset in self._round_multisets.items():
            for client_id in set(multiset):
                prev = self._earliest_round.get(client_id)
                if prev is None or round_index < prev:
                    self._earliest_round[client_id] = round_index
        for (iteration, client_id), record in self._iterations.items():
            for uid in record.batch_uids:
                prev = self._earliest_use.get(uid)
                if prev is None or iteration < prev:
                    self._earliest_use[uid] = iteration
            if iteration > self._client_last_iter.get(client_id, 0):
                self._client_last_iter[client_id] = iteration

    def discard_from(self, iteration: int) -> bool:
        """Drop all records at iterations >= iteration without touching
        the epoch. Used when re-executing a suffix deterministically.
        Returns True when anything was removed."""
        if iteration < 1:
            raise InvalidArgumentError("iteration must be >= 1")
        if iteration >= self.next_iteration:
            return False
        if self.mode == COMPACT:
            if iteration > 1:
                raise ModeMismatchError(
                    "compact mode cannot prune mid-history; only a full reset "
                    "(iteration 1) is supported"
                )
            self._latest_model = None
            self._latest_round = 0
            self._earliest_round.clear()
            self._client_last_iter.clear()
            self.next_iteration = 1
            return True
        removed = False
        for key in [k for k in self._iterations if k[0] >= iteration]:
            del self._iterations[key]
            removed = True
        for r in [r for r in self._round_multisets if self.round_start_iteration(r) >= iteration]:
            del self._round_multisets[r]
            removed = True
        for r in [r for r in self._global_models if r > 0 and r * self.local_steps >= iteration]:
            del self._global_models[r]
            removed = True
        self.next_iteration = iteration
        if removed:
            self._rebuild_indices()
        return removed

    def prune_after(self, iteration: int) -> None:
        """Drop records at iterations >= iteration and advance the RNG
        epoch so re-drawn randomness is fresh. A prune beyond the last
        recorded iteration is a no-op."""
        if self.discard_from(iteration):
            self.epoch += 1

    # ------------------------------------------------------------------
    # canonical views

    def history_tuple(self) -> tuple:
        """Canonical nested tuple of the sampling history: per round,
        (multiset, ((client, (batch at each local step, uids sorted)), ...)).
        Models are excluded; they are a deterministic map of this."""
        if self.mode != FULL_HISTORY:
            raise ModeMismatchError("history_tuple needs full_history mode")
        rounds = []
        for round_index in sorted(self._round_multisets):
            multiset = self._round_multisets[round_index]
            start = self.round_start_iteration(round_index)
            per_client = []
            for client_id in sorted(set(multiset)):
                batches = []
                for t in range(start, start + self.local_steps):
                    record = self._iterations.get((t, client_id))
                    if record is None:
                        break
                    batches.append(tuple(sorted(record.batch_uids)))
                per_client.append((client_id, tuple(batches)))
            rounds.append((multiset, tuple(per_client)))
        return tuple(rounds)

    def storage_word_count(self) -> int:
        """Word-count storage model: every stored integer, flag, or float
        counts as one word."""
        if self.mode == FULL_HISTORY:
            words = 0
            for record in self._iterations.values():
                words += 1 + len(record.batch_uids) + record.local_model.size
            for multiset in self._round_multisets.values():
                words += len(multiset)
            for model in self._global_models.values():
                words += model.size
            return words
        words = len(self._earliest_round)
        for model in (self._latest_model, self._global_models.get(0)):
            if model is not None:
                words += model.size
        return words

    def state_equal(self, other: "HistoryStore") -> bool:
        """Bit-exact equality of persistent state (diagnostic counters
        excluded)."""
        if (
            self.mode != other.mode
            or self.local_steps != other.local_steps
            or self.epoch != other.epoch
            or self.next_iteration != other.next_iteration
            or self._round_multisets != other._round_multisets
            or self._earliest_use != other._earliest_use
            or self._earliest_round != other._earliest_round
            or self._latest_round != other._latest_round
        ):
            return False
        if set(self._iterations) != set(other._iterations):
            return False
        for key, record in self._iterations.items():
            other_record = other._iterations[key]
            if record.batch_uids != other_record.batch_uids:
                return False
            if record.local_model.tobytes() != other_record.local_model.tobytes():
                return False
        if set(self._global_models) != set(other._global_models):
            return False
        for key, model in self._global_models.items():
            if model.tobytes() != other._global_models[key].tobytes():
                return False
        a, b = self._latest_model, other._latest_model
        if (a is None) != (b is None):
            return False
        if a is not None and a.tobytes() != b.tobytes():
            return False
        return True

    def copy(self) -> "HistoryStore":
        clone = HistoryStore(self.mode, self.local_steps)
        clone.epoch = self.epoch
        clone.next_iteration = self.next_iteration
        clone._round_multisets = dict(self._round_multisets)
        clone._iterations = {
            key: IterationRecord(rec.batch_uids, rec.local_model.copy())
            for key, rec in self._iterations.items()
        }
        clone._global_models = {k: v.copy() for k, v in self._global_models.items()}
        clone._latest_model = None if self._latest_model is None else self._latest_model.copy()
        clone._latest_round = self._latest_round
        clone._earliest_use = dict(self._earliest_use)
        clone._earliest_round = dict(self._earliest_round)
        clone._client_last_iter = dict(self._client_last_iter)
        return clone


# ----------------------------------------------------------------------
# checkpoint serialization


def save_checkpoint(
    store: HistoryStore,
    hyper: HyperParams,
    dataset: FederatedDataset,
    path: str,
) -> None:
    """Write a self-describing, version-tagged text checkpoint that
    round-trips the store bit-exactly. The dataset itself is not stored;
    its digest is, so resuming against different data fails fast."""
    lines = [_CKPT_HEADER]
    lines.append(f"digest {dataset_digest(dataset)}")
    lines.append(f"mode {store.mode}")
    lines.append(f"epoch {store.epoch}")
    lines.append(f"next_iteration {store.next_iteration}")
    lines.append(f"hyper {json.dumps(hyper.__dict__, sort_keys=True)}")
    if store.mode == FULL_HISTORY:
        for r in sorted(store._round_multisets):
            lines.append(f"round {r} {','.join(map(str, store._round_multisets[r]))}")
        for r in sorted(store._global_models):
            lines.append(f"global {r} {_fmt_vec(store._global_models[r])}")
        for (t, client_id) in sorted(store._iterations):
            rec = store._iterations[(t, client_id)]
            lines.append(
                f"iter {t} {client_id} {','.join(map(str, rec.batch_uids))} "
                f"{_fmt_vec(rec.local_model)}"
            )
    else:
        for client_id in sorted(store._earliest_round):
            lines.append(f"eround {client_id} {store._earliest_round[client_id]}")
        init = store._global_models.get(0)
        if init is not None:
            lines.append(f"global 0 {_fmt_vec(init)}")
        if store._latest_model is not None:
            lines.append(f"latest {store._latest_round} {_fmt_vec(store._latest_model)}")
    lines.append("end")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def load_checkpoint(
    path: str, dataset: FederatedDataset | None = None
) -> tuple[HistoryStore, HyperParams]:
    """Load a checkpoint; verify the dataset digest when one is given."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != _CKPT_HEADER:
        raise CheckpointFormatError("unknown checkpoint header or version")
    if lines[-1] != "end":
        raise CheckpointFormatError("truncated checkpoint (missing end marker)")
    fields: dict[str, str] = {}
    body: list[str] = []
    for line in lines[1:-1]:
        key, _, rest = line.partition(" ")
        if key in ("digest", "mode", "epoch", "next_iteration", "hyper"):
            fields[key] = rest
        else:
            body.append(line)
    try:
        hyper = HyperParams(**json.loads(fields["hyper"]))
        mode = fields["mode"]
        epoch = int(fields["epoch"])
        next_iteration = int(fields["next_iteration"])
        digest = fields["digest"]
    except (KeyError, ValueError, TypeError) as exc:
        raise CheckpointFormatError(f"malformed checkpoint metadata: {exc}") from exc
    if dataset is not None and dataset_digest(dataset) != digest:
        raise DigestMismatchError(
            "checkpoint was produced against a different dataset"
        )
    store = HistoryStore(mode, hyper.local_steps)
    store.epoch = epoch
    try:
        for line in body:
            parts = line.split(" ")
            if parts[0] == "round":
                store._round_multisets[int(parts[1])] = tuple(
                    int(x) for x in parts[2].split(",")
                )
            elif parts[0] == "global":
                store._global_models[int(parts[1])] = _parse_vec(parts[2])
            elif parts[0] == "iter":
                t, client_id = int(parts[1]), int(parts[2])
                batch = tuple(int(x) for x in parts[3].split(","))
                store._iterations[(t, client_id)] = IterationRecord(
                    batch_uids=batch, local_model=_parse_vec(parts[4])
                )
            elif parts[0] in ("sflags", "cflags", "euse"):
                pass  # compact records of older checkpoints; no longer used
            elif parts[0] == "eround":
                store._earliest_round[int(parts[1])] = int(parts[2])
            elif parts[0] == "latest":
                store._latest_round = int(parts[1])
                store._latest_model = _parse_vec(parts[2])
            else:
                raise CheckpointFormatError(f"unknown record type {parts[0]!r}")
    except (IndexError, ValueError) as exc:
        raise CheckpointFormatError(f"malformed checkpoint record: {exc}") from exc
    if store.mode == FULL_HISTORY:
        store._rebuild_indices()
    store.next_iteration = next_iteration
    return store, hyper
