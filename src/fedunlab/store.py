"""Training history store with full and compact footprints.

A full_history store keeps the sampling history by position: round r's
client multiset at _multisets[r - 1], iteration t's {client: batch uids}
at _batches[t - 1] and round r's aggregated model at _globals[r]. That
is what partial re-computation replays. No local model is stored: a
re-run recomputes the ones it needs from its round's global model and
recorded batches, so a prune is a slice. A compact store keeps only the
initial and the latest model and the client index below; its deletions
retrain from iteration 1.

Two dictionaries make deletion verification a single probe: client ->
earliest round in which the client was selected (both modes), and, in
full_history mode, uid -> earliest iteration whose recorded batch
contained the uid. A prune drops their entries by walking only the
dropped suffix: a key whose earliest use lies in the suffix appears in
it.

Records arrive in order. A round starts at next_iteration, a batch is
recorded at next_iteration (opening that iteration) or at
next_iteration - 1, and a client appears at most once per iteration.
"""

from __future__ import annotations

import json

import numpy as np

from .data import FULL_HISTORY, COMPACT, FederatedDataset, HyperParams, dataset_digest
from .errors import (
    CheckpointFormatError,
    CorruptedHistoryError,
    DigestMismatchError,
    InvalidArgumentError,
    ModeMismatchError,
)

_CKPT_HEADER = "fedunlab-ckpt v2 encoding=decimal-text"


def _fmt_vec(vec: np.ndarray) -> str:
    return ",".join(repr(float(x)) for x in vec)


def _parse_vec(text: str) -> np.ndarray:
    return np.array([float(x) for x in text.split(",")], dtype=np.float64)


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


class HistoryStore:
    """Mutable record of one training run, addressed by position."""

    def __init__(self, mode: str, local_steps: int) -> None:
        if mode not in (FULL_HISTORY, COMPACT):
            raise InvalidArgumentError(f"unknown store mode {mode!r}")
        if local_steps < 1:
            raise InvalidArgumentError("local_steps must be >= 1")
        self.mode = mode
        self.local_steps = local_steps
        self.epoch = 0
        self.next_iteration = 1
        self.loss_name: str | None = None  # set by run_fats when it trains from 1
        self.probes = 0  # verification probe counter, diagnostics only
        # full_history only: round r at [r - 1]
        self._multisets: list[tuple[int, ...]] = []
        # iteration t at [t - 1]; compact keeps only the open iteration,
        # for the once-per-iteration check
        self._batches: list[dict[int, tuple[int, ...]]] = []
        # round r at [r]; compact: [initial, latest], latest of _latest_round
        self._globals: list[np.ndarray] = []
        self._latest_round = 0
        # indices; _earliest_use is kept in full_history mode only
        self._earliest_use: dict[int, int] = {}
        self._earliest_round: dict[int, int] = {}

    # ------------------------------------------------------------------
    # recording

    def round_start_iteration(self, round_index: int) -> int:
        return (round_index - 1) * self.local_steps + 1

    def round_of(self, iteration: int) -> int:
        return (iteration - 1) // self.local_steps + 1

    def _rounds_before(self, iteration: int) -> int:
        """Number of rounds that start before iteration."""
        return -(-(iteration - 1) // self.local_steps)

    def record_round_start(self, round_index: int, multiset: tuple[int, ...]) -> None:
        if round_index < 1:
            raise InvalidArgumentError("round_index must be >= 1")
        if not multiset:
            raise InvalidArgumentError("empty client multiset")
        if tuple(sorted(multiset)) != tuple(multiset):
            raise InvalidArgumentError("client multiset must be sorted ascending")
        start = self.round_start_iteration(round_index)
        if start != self.next_iteration:
            raise CorruptedHistoryError(
                f"round {round_index} starts at {start} but next iteration is "
                f"{self.next_iteration}"
            )
        if self.mode == FULL_HISTORY:
            self._multisets[round_index - 1:] = [tuple(multiset)]
        for client_id in multiset:
            self._earliest_round.setdefault(client_id, round_index)

    def record_iteration(
        self, iteration: int, client_id: int, batch_uids: tuple[int, ...]
    ) -> None:
        if iteration == self.next_iteration:
            if self.mode == FULL_HISTORY and self.round_of(iteration) != len(self._multisets):
                raise CorruptedHistoryError(
                    f"t={iteration} lies outside the last recorded round"
                )
            if self.mode == COMPACT:
                self._batches.clear()
            self._batches.append({})
            self.next_iteration += 1
        elif iteration != self.next_iteration - 1 or not self._batches:
            raise CorruptedHistoryError(
                f"record at t={iteration} arrives when the next iteration is "
                f"{self.next_iteration}"
            )
        current = self._batches[-1]
        if client_id in current:
            raise CorruptedHistoryError(f"client {client_id} recorded twice at t={iteration}")
        current[client_id] = tuple(batch_uids)
        if self.mode == FULL_HISTORY:
            for uid in batch_uids:
                self._earliest_use.setdefault(uid, iteration)

    def record_global(self, round_index: int, model: np.ndarray) -> None:
        """Record round_index's aggregated model (0: the initial one),
        overwriting one recorded before."""
        if round_index < 0:
            raise InvalidArgumentError("round_index must be >= 0")
        model = np.array(model, dtype=np.float64, copy=True)
        if self.mode == COMPACT and round_index > 0:
            if not self._globals:
                raise CorruptedHistoryError("no initial model recorded")
            self._globals[1:] = [model]
            self._latest_round = round_index
        elif round_index <= len(self._globals):
            self._globals[round_index:round_index + 1] = [model]
        else:
            raise CorruptedHistoryError(
                f"global model of round {round_index} recorded before round "
                f"{len(self._globals)}'s"
            )

    # ------------------------------------------------------------------
    # lookups

    def round_multiset(self, round_index: int) -> tuple[int, ...] | None:
        if self.mode != FULL_HISTORY:
            raise ModeMismatchError("round multisets are not kept in compact mode")
        if 1 <= round_index <= len(self._multisets):
            return self._multisets[round_index - 1]
        return None

    def decisions(self, since: int):
        """The recorded sampling decisions at or after iteration since:
        (round, multiset) pairs for the rounds that start there or later
        and ((iteration, client), batch) pairs, both in recording order
        and read lazily, so a caller pays only for the suffix it reads.
        Both are empty in compact mode."""
        if self.mode != FULL_HISTORY:
            return (), ()
        first_round = self._rounds_before(since) + 1
        multisets = (
            (r, self._multisets[r - 1]) for r in range(first_round, len(self._multisets) + 1)
        )
        records = (
            ((t, client_id), batch)
            for t in range(since, len(self._batches) + 1)
            for client_id, batch in self._batches[t - 1].items()
        )
        return multisets, records

    def global_model(self, round_index: int) -> np.ndarray | None:
        if self.mode == COMPACT and round_index > 0:
            if round_index != self._latest_round:
                return None
            round_index = 1
        if not 0 <= round_index < len(self._globals):
            return None
        return self._globals[round_index].copy()

    def latest_global_model(self) -> np.ndarray | None:
        return self._globals[-1].copy() if self._globals else None

    # ------------------------------------------------------------------
    # O(1) verification probes

    def earliest_sample_use(self, uid: int) -> int | None:
        """Earliest recorded iteration whose batch contained uid, or None.
        Exactly one index probe. Needs full_history mode."""
        if self.mode != FULL_HISTORY:
            raise ModeMismatchError("sample uses are not kept in compact mode")
        self.probes += 1
        return self._earliest_use.get(uid)

    def earliest_client_use(self, client_id: int) -> int | None:
        """Earliest round-start iteration at which the client was
        selected, or None. Exactly one index probe."""
        self.probes += 1
        round_index = self._earliest_round.get(client_id)
        if round_index is None:
            return None
        return self.round_start_iteration(round_index)

    # ------------------------------------------------------------------
    # pruning

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
            del self._globals[1:]
            self._latest_round = 0
            self._batches.clear()
            self._earliest_round.clear()
            self.next_iteration = 1
            return True
        rounds = self._rounds_before(iteration)
        for batches in self._batches[iteration - 1:]:
            for batch in batches.values():
                for uid in batch:
                    if self._earliest_use.get(uid, 0) >= iteration:
                        del self._earliest_use[uid]
        for multiset in self._multisets[rounds:]:
            for client_id in multiset:
                if self._earliest_round.get(client_id, 0) > rounds:
                    del self._earliest_round[client_id]
        del self._batches[iteration - 1:]
        del self._multisets[rounds:]
        del self._globals[self.round_of(iteration):]
        self.next_iteration = iteration
        return True

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
        for round_index, multiset in enumerate(self._multisets, start=1):
            start = self.round_start_iteration(round_index) - 1
            steps = self._batches[start:start + self.local_steps]
            per_client = []
            for client_id in sorted(set(multiset)):
                batches = []
                for step in steps:
                    if client_id not in step:
                        break
                    batches.append(tuple(sorted(step[client_id])))
                per_client.append((client_id, tuple(batches)))
            rounds.append((multiset, tuple(per_client)))
        return tuple(rounds)

    def storage_word_count(self) -> int:
        """Word-count storage model: every stored integer, flag, or float
        counts as one word."""
        if self.mode == FULL_HISTORY:
            words = sum(len(multiset) for multiset in self._multisets)
            for batches in self._batches:
                words += sum(1 + len(batch) for batch in batches.values())
        else:
            words = len(self._earliest_round)
        return words + sum(model.size for model in self._globals)

    def _state(self) -> tuple:
        return (
            self.mode, self.local_steps, self.epoch, self.next_iteration, self.loss_name,
            self._multisets, self._batches if self.mode == FULL_HISTORY else None,
            [model.tobytes() for model in self._globals], self._latest_round,
            self._earliest_use, self._earliest_round,
        )

    def state_equal(self, other: "HistoryStore") -> bool:
        """Bit-exact equality of persistent state (diagnostic counters
        excluded)."""
        return self._state() == other._state()

    def copy(self) -> "HistoryStore":
        clone = HistoryStore(self.mode, self.local_steps)
        clone.epoch = self.epoch
        clone.next_iteration = self.next_iteration
        clone.loss_name = self.loss_name
        clone._multisets = list(self._multisets)
        clone._batches = [dict(batches) for batches in self._batches]
        clone._globals = [model.copy() for model in self._globals]
        clone._latest_round = self._latest_round
        clone._earliest_use = dict(self._earliest_use)
        clone._earliest_round = dict(self._earliest_round)
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
    round-trips the store bit-exactly. Its body lists the records in
    recording order, so loading replays them through the store's own
    record_* methods and their order checks. The dataset itself is not
    stored; its digest is, so resuming against different data fails
    fast."""
    lines = [_CKPT_HEADER]
    lines.append(f"digest {dataset_digest(dataset)}")
    lines.append(f"mode {store.mode}")
    lines.append(f"epoch {store.epoch}")
    lines.append(f"next_iteration {store.next_iteration}")
    lines.append(f"loss {store.loss_name or '-'}")
    lines.append(f"hyper {json.dumps(hyper.__dict__, sort_keys=True)}")
    models = store._globals
    if store.mode == FULL_HISTORY:
        rounds = max(len(store._multisets), len(models) - 1)
        for r in range(rounds + 1):
            if 1 <= r <= len(store._multisets):
                lines.append(f"round {r} {','.join(map(str, store._multisets[r - 1]))}")
                start = store.round_start_iteration(r)
                for t in range(start, min(start + store.local_steps, store.next_iteration)):
                    for client_id, batch in store._batches[t - 1].items():
                        lines.append(f"iter {t} {client_id} {','.join(map(str, batch))}")
            if r < len(models):
                lines.append(f"global {r} {_fmt_vec(models[r])}")
    else:
        for client_id in sorted(store._earliest_round):
            lines.append(f"eround {client_id} {store._earliest_round[client_id]}")
        for r, model in zip((0, store._latest_round), models):
            lines.append(f"global {r} {_fmt_vec(model)}")
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
        found = lines[0] if lines else ""
        raise CheckpointFormatError(
            f"unsupported checkpoint header {found!r}; expected {_CKPT_HEADER!r}"
        )
    if lines[-1] != "end":
        raise CheckpointFormatError("truncated checkpoint (missing end marker)")
    fields: dict[str, str] = {}
    body: list[str] = []
    for line in lines[1:-1]:
        key, _, rest = line.partition(" ")
        if key in ("digest", "mode", "epoch", "next_iteration", "loss", "hyper"):
            fields[key] = rest
        else:
            body.append(line)
    try:
        hyper = HyperParams(**json.loads(fields["hyper"]))
        mode = fields["mode"]
        epoch = int(fields["epoch"])
        next_iteration = int(fields["next_iteration"])
        loss_name = fields["loss"]
        digest = fields["digest"]
    except (KeyError, ValueError, TypeError) as exc:
        raise CheckpointFormatError(f"malformed checkpoint metadata: {exc}") from exc
    if dataset is not None and dataset_digest(dataset) != digest:
        raise DigestMismatchError(
            "checkpoint was produced against a different dataset"
        )
    try:
        store = HistoryStore(mode, hyper.local_steps)
        for line in body:
            kind, *parts = line.split(" ")
            if kind == "round":
                store.record_round_start(int(parts[0]), _parse_ints(parts[1]))
            elif kind == "iter":
                store.record_iteration(int(parts[0]), int(parts[1]), _parse_ints(parts[2]))
            elif kind == "global":
                store.record_global(int(parts[0]), _parse_vec(parts[1]))
            elif kind == "eround" and mode == COMPACT:
                store._earliest_round[int(parts[0])] = int(parts[1])
            else:
                raise CheckpointFormatError(f"unknown record type {kind!r}")
    except (IndexError, ValueError, CorruptedHistoryError, InvalidArgumentError) as exc:
        raise CheckpointFormatError(f"malformed checkpoint record: {exc}") from exc
    if mode == COMPACT:
        store.next_iteration = next_iteration
    elif store.next_iteration != next_iteration:
        raise CheckpointFormatError(
            f"records end at t={store.next_iteration - 1}, header says "
            f"{next_iteration - 1}"
        )
    store.epoch = epoch
    store.loss_name = None if loss_name == "-" else loss_name
    return store, hyper
