"""Training history store with full and compact footprints.

A full_history store keeps the sampling history by position: round r's
client multiset at _multisets[r - 1], iteration t's {client: batch uids}
at _batches[t - 1] and round r's aggregated model at _globals[r]. That
is what partial re-computation replays. No local model is stored: a
re-run starts at a round start, from the previous round's global model,
so a prune is a slice. A compact store keeps only the initial and the
latest model and the client index below; its deletions retrain from
iteration 1.

The history is read back one Round at a time through rounds(): the
multiset and every distinct client's batch at each local step, the form
the deletion rule (`unlearn.couple`), the engine's replay plan and the
exact certifier share. history_tuple() is that view with each batch
sorted.

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

import io
import json
import math
from typing import Iterator

import numpy as np

from .data import FULL_HISTORY, COMPACT, FederatedDataset, HyperParams, dataset_digest
from .errors import (
    CheckpointFormatError,
    CorruptedHistoryError,
    DigestMismatchError,
    InvalidArgumentError,
    ModeMismatchError,
)
from .fileio import atomic_open

_CKPT_HEADER = b"fedunlab-ckpt v3 encoding=npy\n"
_CKPT_END = b"end\n"
# The arrays of a checkpoint, in file order. A full-history store fills
# the first six, a compact one the two eround columns; globals holds one
# model per row.
_CKPT_ARRAYS = (
    "multiset_clients", "multiset_sizes", "iteration_records", "record_clients",
    "batch_sizes", "batch_uids", "eround_clients", "eround_rounds", "globals",
)
_INT32 = np.iinfo(np.int32)

# One round of a sampling history: the client multiset and, for each
# distinct selected client in ascending order, its batch at each local
# step. A replay plan's round holds None for each batch that is redrawn.
Round = tuple[tuple[int, ...], tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]]


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

    def rounds(self, first: int = 1) -> Iterator[tuple[int, Round]]:
        """(r, round) for each recorded round from round first on, built
        lazily with every batch as it was recorded, so a caller pays only
        for the rounds it reads. A client's batches stop at the first
        local step without its record. Empty in compact mode."""
        steps = self.local_steps
        for r in range(max(first, 1), len(self._multisets) + 1):
            multiset = self._multisets[r - 1]
            iterations = self._batches[(r - 1) * steps:r * steps]
            body = []
            for client_id in sorted(set(multiset)):
                batches = []
                for records in iterations:
                    if client_id not in records:
                        break
                    batches.append(records[client_id])
                body.append((client_id, tuple(batches)))
            yield r, (multiset, tuple(body))

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

    def history_tuple(self) -> tuple[Round, ...]:
        """The canonical sampling history: rounds() of the whole history
        with the uids of each batch sorted. Models are excluded; they are
        a deterministic map of this."""
        if self.mode != FULL_HISTORY:
            raise ModeMismatchError("history_tuple needs full_history mode")
        return tuple(
            (multiset, tuple(
                (client_id, tuple(tuple(sorted(batch)) for batch in batches))
                for client_id, batches in body
            ))
            for _, (multiset, body) in self.rounds()
        )

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


# ----------------------------------------------------------------------
# checkpoint serialization


def _int_column(values: list[int]) -> np.ndarray:
    """values as little-endian int32 when they fit, else int64."""
    column = np.array(values, dtype=np.int64)
    if column.size == 0 or (column.min() >= _INT32.min and column.max() <= _INT32.max):
        return column.astype("<i4")
    return column.astype("<i8")


def _checkpoint_arrays(store: HistoryStore, dim: int) -> list[np.ndarray]:
    """The columns of _CKPT_ARRAYS for store, in that order."""
    full = store.mode == FULL_HISTORY
    multisets = store._multisets if full else []
    iterations = store._batches if full else []
    batches = [batch for records in iterations for batch in records.items()]
    eround = [] if full else sorted(store._earliest_round.items())
    models = np.array(store._globals, dtype="<f8") if store._globals else np.empty((0, dim), "<f8")
    if models.ndim != 2 or models.shape[1] != dim:
        raise InvalidArgumentError(
            f"the store's models do not have the dataset's {dim} weights each"
        )
    return [
        _int_column([client for multiset in multisets for client in multiset]),
        _int_column([len(multiset) for multiset in multisets]),
        _int_column([len(records) for records in iterations]),
        _int_column([client for client, _ in batches]),
        _int_column([len(batch) for _, batch in batches]),
        _int_column([uid for _, batch in batches for uid in batch]),
        _int_column([client for client, _ in eround]),
        _int_column([round_index for _, round_index in eround]),
        models,
    ]


def save_checkpoint(
    store: HistoryStore,
    hyper: HyperParams,
    dataset: FederatedDataset,
    path: str,
) -> None:
    """Write a self-describing, version-tagged binary checkpoint that
    round-trips the store bit-exactly: a header line, one line of JSON
    metadata, the arrays of _CKPT_ARRAYS in .npy format, and an end
    marker. The arrays list the records in recording order, so loading
    replays them through the store's own record_* methods and their
    order checks. The dataset itself is not stored; its digest and
    dimension are, so resuming against different data fails fast. The
    file is replaced atomically: a failed save leaves the old one."""
    meta = {
        "arrays": list(_CKPT_ARRAYS),
        "digest": dataset_digest(dataset),
        "dim": dataset.dim,
        "epoch": store.epoch,
        "hyper": hyper.__dict__,
        "latest_round": store._latest_round,
        "loss": store.loss_name,
        "mode": store.mode,
        "next_iteration": store.next_iteration,
    }
    arrays = _checkpoint_arrays(store, dataset.dim)
    with atomic_open(path, "wb") as handle:
        handle.write(_CKPT_HEADER)
        handle.write(json.dumps(meta, sort_keys=True).encode() + b"\n")
        for array in arrays:
            np.save(handle, array, allow_pickle=False)
        handle.write(_CKPT_END)


def _read_array(data: memoryview, stream: io.BytesIO) -> np.ndarray:
    """The next .npy array of stream, a view of data, with its size
    checked against the bytes left before anything is allocated."""
    if np.lib.format.read_magic(stream) != (1, 0):
        raise ValueError("unsupported .npy version")
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(stream)
    if fortran_order or dtype.hasobject:
        raise ValueError("array is not a plain C-ordered numeric array")
    count = math.prod(shape)
    start = stream.tell()
    end = start + count * dtype.itemsize
    if count < 0 or end > len(data):
        raise ValueError("array runs past the end of the file")
    stream.seek(end)
    return np.frombuffer(data, dtype=dtype, count=count, offset=start).reshape(shape)


def _split(values: list[int], sizes: list[int]) -> list[tuple[int, ...]]:
    """values cut into consecutive tuples of the given sizes."""
    if min(sizes, default=0) < 0 or sum(sizes) != len(values):
        raise ValueError("array sizes do not add up")
    parts, start = [], 0
    for size in sizes:
        parts.append(tuple(values[start:start + size]))
        start += size
    return parts


def _replay(store: HistoryStore, columns: dict[str, list], models: np.ndarray,
            latest_round: int, next_iteration: int) -> None:
    """Record the checkpoint's columns into an empty store in recording
    order, through record_* and their order checks, and refuse counters
    and models the records contradict."""
    other_mode = _CKPT_ARRAYS[6:8] if store.mode == FULL_HISTORY else _CKPT_ARRAYS[:6]
    if any(columns[name] for name in other_mode):
        raise ValueError(f"a {store.mode} checkpoint holds columns of the other mode")
    multisets = _split(columns["multiset_clients"], columns["multiset_sizes"])
    batches = _split(columns["batch_uids"], columns["batch_sizes"])
    clients = columns["record_clients"]
    if len(clients) != len(batches) or min(columns["iteration_records"], default=0) < 0:
        raise ValueError("record counts do not add up")
    record = rounds = 0
    for t, count in enumerate(columns["iteration_records"], start=1):
        if (t - 1) % store.local_steps == 0:
            store.record_round_start(rounds + 1, multisets[rounds])
            rounds += 1
        for client, batch in zip(clients[record:record + count], batches[record:record + count]):
            store.record_iteration(t, client, batch)
        record += count
    if record != len(clients):
        raise ValueError("records left over after the last iteration")
    for multiset in multisets[rounds:]:
        rounds += 1
        store.record_round_start(rounds, multiset)
    if store.mode == COMPACT:
        # a compact store records no iterations; its counters come from
        # the metadata, and its latest model may trail them by one round
        store.next_iteration = next_iteration
        completed = (next_iteration - 1) // store.local_steps
        if next_iteration < 1 or not max(completed - 1, 0) <= latest_round <= completed:
            raise ValueError(f"latest round {latest_round} at next iteration {next_iteration}")
        clients, erounds = columns["eround_clients"], columns["eround_rounds"]
        if len(set(clients)) != len(clients) or not all(1 <= r <= completed + 1 for r in erounds):
            raise ValueError(f"client rounds outside 1..{completed + 1} or repeated")
        store._earliest_round.update(zip(clients, erounds))
        if len(models) > 2 or (len(models) == 2) != (latest_round > 0):
            raise ValueError("a compact store holds the initial and the latest model")
        indices = (0, latest_round)
    else:
        # the initial model and one per completed round, the last of
        # which may not be recorded yet
        completed = (store.next_iteration - 1) // store.local_steps
        if latest_round != 0 or not 0 <= len(models) - completed <= 1:
            raise ValueError(
                f"{len(models)} global models and latest round {latest_round} after "
                f"{completed} completed rounds"
            )
        indices = range(len(models))
    for round_index, model in zip(indices, models):
        store.record_global(round_index, model)


def load_checkpoint(
    path: str, dataset: FederatedDataset | None = None
) -> tuple[HistoryStore, HyperParams]:
    """Load a checkpoint; verify the dataset digest when one is given.
    Any malformed, truncated or other-version file raises
    CheckpointFormatError."""
    with open(path, "rb") as handle:
        data = handle.read()
    if not data.startswith(_CKPT_HEADER):
        found = data.split(b"\n", 1)[0][:80].decode("utf-8", "replace")
        raise CheckpointFormatError(
            f"unsupported checkpoint header {found!r}; expected "
            f"{_CKPT_HEADER.decode().strip()!r}"
        )
    if not data.endswith(_CKPT_END):
        raise CheckpointFormatError("truncated checkpoint (missing end marker)")
    body = memoryview(data)[:len(data) - len(_CKPT_END)]
    stream = io.BytesIO(body)
    stream.seek(len(_CKPT_HEADER))
    try:
        meta = json.loads(stream.readline())
        hyper = HyperParams(**meta["hyper"])
        mode, digest, dim = meta["mode"], meta["digest"], int(meta["dim"])
        epoch, next_iteration = int(meta["epoch"]), int(meta["next_iteration"])
        latest_round, loss_name = int(meta["latest_round"]), meta["loss"]
        if mode != hyper.storage_mode:
            raise ValueError(f"mode {mode!r} but hyper.storage_mode {hyper.storage_mode!r}")
        if meta["arrays"] != list(_CKPT_ARRAYS):
            raise ValueError(f"array list {meta['arrays']!r}")
    except (KeyError, ValueError, TypeError, InvalidArgumentError) as exc:
        raise CheckpointFormatError(f"malformed checkpoint metadata: {exc}") from exc
    if dataset is not None and dataset_digest(dataset) != digest:
        raise DigestMismatchError(
            "checkpoint was produced against a different dataset"
        )
    try:
        arrays = dict(zip(_CKPT_ARRAYS, (_read_array(body, stream) for _ in _CKPT_ARRAYS)))
        if stream.tell() != len(body):
            raise ValueError("bytes left over after the last array")
        models = arrays.pop("globals")
        if models.dtype != np.float64 or models.ndim != 2 or models.shape[1] != dim:
            raise ValueError(
                f"global models of shape {models.shape} and type {models.dtype}; "
                f"expected float64 rows of width {dim}"
            )
        columns = {}
        for name, array in arrays.items():
            if array.ndim != 1 or array.dtype.kind != "i":
                raise ValueError(f"{name} is not a 1-d integer array")
            columns[name] = array.tolist()
        store = HistoryStore(mode, hyper.local_steps)
        _replay(store, columns, models, latest_round, next_iteration)
    except (IndexError, ValueError, CorruptedHistoryError, InvalidArgumentError) as exc:
        raise CheckpointFormatError(f"malformed checkpoint record: {exc}") from exc
    if store.next_iteration != next_iteration:
        raise CheckpointFormatError(
            f"records end at t={store.next_iteration - 1}, header says "
            f"{next_iteration - 1}"
        )
    store.epoch = epoch
    store.loss_name = loss_name
    return store, hyper
