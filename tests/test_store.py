"""History store: recording, probing, pruning, storage accounting,
checkpoints."""

import copy
import io
import json
import os
import re
import stat

import numpy as np
import pytest

from fedunlab.data import COMPACT, FULL_HISTORY, HyperParams, UnlearnRequest, generate_synthetic
from fedunlab.engine import run_fats
from fedunlab.errors import (
    CheckpointFormatError,
    CorruptedHistoryError,
    DigestMismatchError,
    InvalidArgumentError,
    ModeMismatchError,
)
from fedunlab.losses import make_loss
from fedunlab.store import HistoryStore, load_checkpoint, save_checkpoint
from fedunlab.unlearn import process_stream

from conftest import micro_hyper, recorded


def _filled_store(local_steps=2):
    store = HistoryStore(FULL_HISTORY, local_steps)
    store.record_global(0, np.zeros(2))
    store.record_round_start(1, (0, 1))
    store.record_iteration(1, 0, (3, 5))
    store.record_iteration(1, 1, (8,))
    store.record_iteration(2, 0, (4, 5))
    store.record_iteration(2, 1, (9,))
    store.record_global(1, np.array([0.4, 0.5]))
    store.record_round_start(2, (1, 1))
    store.record_iteration(3, 1, (8,))
    store.record_iteration(4, 1, (7,))
    store.record_global(2, np.array([1.2, 1.3]))
    return store


# ----------------------------------------------------------------------
# round arithmetic and recording


def test_round_arithmetic():
    store = HistoryStore(FULL_HISTORY, 3)
    assert store.round_start_iteration(1) == 1
    assert store.round_start_iteration(3) == 7
    assert store.round_of(1) == 1
    assert store.round_of(3) == 1
    assert store.round_of(4) == 2


def test_recording_and_lookup():
    store = _filled_store()
    assert recorded(store)[0] == {1: (0, 1), 2: (1, 1)}
    assert recorded(store)[1][(2, 0)] == (4, 5)
    np.testing.assert_array_equal(store.global_model(1), [0.4, 0.5])
    np.testing.assert_array_equal(store.latest_global_model(), [1.2, 1.3])
    assert store.next_iteration == 5


def test_multiset_must_be_sorted():
    store = HistoryStore(FULL_HISTORY, 1)
    with pytest.raises(InvalidArgumentError):
        store.record_round_start(1, (2, 1))


def test_rounds_from_first_yield_only_the_suffix():
    store = _filled_store()
    first = (1, ((0, 1), ((0, ((3, 5), (4, 5))), (1, ((8,), (9,))))))
    second = (2, ((1, 1), ((1, ((8,), (7,))),)))
    assert list(store.rounds()) == [first, second]
    assert list(store.rounds(2)) == [second]
    assert list(store.rounds(3)) == []
    assert store.history_tuple() == tuple(r for _, r in store.rounds())


def test_rounds_keep_batches_as_recorded():
    """rounds() hands batches out in their recorded order, so a replay
    records the same values; history_tuple() sorts them, and a client's
    batches stop at its first step without a record."""
    store = HistoryStore(FULL_HISTORY, 3)
    store.record_round_start(1, (0, 2))
    store.record_iteration(1, 0, (5, 3))
    store.record_iteration(1, 2, (9, 7))
    store.record_iteration(2, 0, (4, 1))
    assert list(store.rounds()) == [(1, ((0, 2), ((0, ((5, 3), (4, 1))), (2, ((9, 7),)))))]
    assert store.history_tuple() == (((0, 2), ((0, ((3, 5), (1, 4))), (2, ((7, 9),)))),)
    compact = HistoryStore(COMPACT, 1)
    compact.record_round_start(1, (0,))
    compact.record_iteration(1, 0, (1,))
    assert list(compact.rounds()) == []


def test_round_start_gap_rejected():
    store = HistoryStore(FULL_HISTORY, 2)
    with pytest.raises(CorruptedHistoryError):
        store.record_round_start(2, (0,))
    # a round that starts before the next iteration is rejected too
    store = _filled_store()
    with pytest.raises(CorruptedHistoryError):
        store.record_round_start(2, (0, 1))


def test_out_of_order_iteration_rejected():
    store = _filled_store()
    with pytest.raises(CorruptedHistoryError):
        store.record_iteration(3, 1, (9,))
    # a client at most once per iteration
    with pytest.raises(CorruptedHistoryError):
        store.record_iteration(4, 1, (8,))
    # an iteration outside the last recorded round
    with pytest.raises(CorruptedHistoryError):
        store.record_iteration(5, 1, (8,))
    # the compact store keeps the same order
    compact = HistoryStore(COMPACT, 2)
    compact.record_global(0, np.zeros(1))
    compact.record_round_start(1, (0,))
    compact.record_iteration(1, 0, (1,))
    for t in (1, 3):
        with pytest.raises(CorruptedHistoryError):
            compact.record_iteration(t, 0, (2,))
    assert store.next_iteration == 5 and compact.next_iteration == 2


# ----------------------------------------------------------------------
# probes


def test_earliest_sample_use_single_probe():
    store = _filled_store()
    before = store.probes
    assert store.earliest_sample_use(5) == 1
    assert store.probes == before + 1
    assert store.earliest_sample_use(7) == 4
    assert store.earliest_sample_use(999) is None


def test_earliest_client_use_round_based():
    store = _filled_store()
    assert store.earliest_client_use(0) == 1
    assert store.earliest_client_use(1) == 1
    assert store.earliest_client_use(5) is None


def test_involvement_flags_full_mode():
    """Both probes answer in full_history mode; a compact store keeps no
    sample uses, so only its client probe answers."""
    store = _filled_store()
    assert store.earliest_sample_use(5) is not None
    assert store.earliest_sample_use(999) is None
    assert store.earliest_client_use(1) is not None
    assert store.earliest_client_use(4) is None
    compact = HistoryStore(COMPACT, 2)
    compact.record_global(0, np.zeros(1))
    compact.record_round_start(1, (0,))
    compact.record_iteration(1, 0, (1,))
    assert compact.earliest_client_use(0) == 1
    with pytest.raises(ModeMismatchError):
        compact.earliest_sample_use(1)


# ----------------------------------------------------------------------
# pruning


def test_discard_from_keeps_epoch_prune_bumps_it():
    store = _filled_store()
    epoch = store.epoch
    clone = copy.deepcopy(store)
    assert clone.discard_from(3)
    assert clone.epoch == epoch
    assert clone.next_iteration == 3
    assert recorded(clone)[0] == {1: (0, 1)}
    kept = recorded(clone)[1]
    assert (3, 1) not in kept
    assert (2, 0) in kept

    store.prune_after(3)
    assert store.epoch == epoch + 1
    # prune beyond history is a no-op and must not bump the epoch
    store.prune_after(100)
    assert store.epoch == epoch + 1


def test_prune_rebuilds_earliest_indices():
    store = _filled_store()
    assert store.earliest_sample_use(7) == 4
    store.prune_after(4)
    assert store.earliest_sample_use(7) is None
    assert store.earliest_sample_use(8) == 1


def test_compact_prune_only_full_reset():
    store = HistoryStore(COMPACT, 2)
    store.record_global(0, np.zeros(1))
    store.record_round_start(1, (0,))
    store.record_iteration(1, 0, (1,))
    store.record_iteration(2, 0, (2,))
    with pytest.raises(ModeMismatchError):
        store.discard_from(2)
    store.prune_after(1)
    assert store.next_iteration == 1
    assert store.earliest_client_use(0) is None


def _trained_three_step_store():
    from fedunlab.data import HyperParams

    dataset = generate_synthetic(
        num_clients=3, samples_per_client=5, dim=2, classes=2, beta=0.5, seed=4
    )
    hyper = HyperParams(
        num_clients=3, samples_per_client=5, total_steps=12, local_steps=3,
        clients_per_round=2, batch_size=2, lr=0.05, rho_sample=0.5,
        rho_client=0.5, seed=8, storage_mode=FULL_HISTORY,
    )
    store = HistoryStore(FULL_HISTORY, 3)
    run_fats(1, hyper, dataset, store, make_loss("quadratic", 2))
    return dataset, store


def _rerecorded_prefix(store, cut):
    """A fresh store given, through record_*, the records of store
    before iteration cut."""
    steps = store.local_steps
    fresh = HistoryStore(FULL_HISTORY, steps)
    fresh.loss_name = store.loss_name
    fresh.record_global(0, store.global_model(0))
    for r, (multiset, body) in store.rounds():
        start = store.round_start_iteration(r)
        if start >= cut:
            break
        fresh.record_round_start(r, multiset)
        for t in range(start, min(start + steps, cut)):
            for client_id, batches in body:
                fresh.record_iteration(t, client_id, batches[t - start])
        if r * steps < cut:
            fresh.record_global(r, store.global_model(r))
    return fresh


def _scanned_uses(history, steps):
    """uid -> earliest iteration and client -> earliest round start, by
    a scan of history_tuple()."""
    samples, clients = {}, {}
    for r, (multiset, body) in enumerate(history, start=1):
        for client_id in multiset:
            clients.setdefault(client_id, (r - 1) * steps + 1)
        for _, batches in body:
            for step, batch in enumerate(batches):
                for uid in batch:
                    t = (r - 1) * steps + step + 1
                    samples[uid] = min(samples.get(uid, t), t)
    return samples, clients


def test_discard_from_equals_rerecorded_prefix():
    """For every cut, discarding from it leaves exactly the prefix
    re-recorded into a fresh store, and the indices answer as a scan of
    the kept history does."""
    dataset, store = _trained_three_step_store()
    uids = [uid for client in dataset.clients for uid in client.uids]
    for cut in range(1, store.next_iteration + 1):
        pruned = copy.deepcopy(store)
        pruned.discard_from(cut)
        assert pruned.state_equal(_rerecorded_prefix(store, cut)), cut
        samples, clients = _scanned_uses(pruned.history_tuple(), store.local_steps)
        for uid in uids:
            assert pruned.earliest_sample_use(uid) == samples.get(uid), (cut, uid)
        for client_id in dataset.client_ids:
            assert pruned.earliest_client_use(client_id) == clients.get(client_id)


# ----------------------------------------------------------------------
# storage accounting


def _trained_store(mode, total_steps, seed=0):
    dataset = generate_synthetic(
        num_clients=2, samples_per_client=4, dim=1, classes=2, beta=0.5, seed=3
    )
    hyper_kwargs = dict(
        num_clients=2, samples_per_client=4, total_steps=total_steps,
        local_steps=10, clients_per_round=1, batch_size=2, lr=0.01,
        rho_sample=0.5, rho_client=0.5, seed=seed, storage_mode=mode,
    )
    from fedunlab.data import HyperParams

    hyper = HyperParams(**hyper_kwargs)
    store = HistoryStore(mode, 10)
    run_fats(1, hyper, dataset, store, make_loss("quadratic", 1))
    return store


def test_storage_full_mode_linear_in_horizon():
    words = [_trained_store(FULL_HISTORY, t).storage_word_count()
             for t in (100, 200, 400)]
    assert words[0] < words[1] < words[2]
    # doubling the horizon roughly doubles the footprint
    assert words[2] / words[1] == pytest.approx(2.0, rel=0.1)


def test_storage_compact_mode_saturates():
    words = [_trained_store(COMPACT, t).storage_word_count()
             for t in (100, 200, 400)]
    assert words[0] == words[1] == words[2]


def test_state_equal_detects_differences():
    a = _filled_store()
    b = _filled_store()
    assert a.state_equal(b)
    b.record_round_start(3, (0,))
    b.record_iteration(5, 0, (3,))
    assert not a.state_equal(b)


# ----------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_full(tmp_path, micro_dataset):
    hyper = micro_hyper()
    store = HistoryStore(FULL_HISTORY, 1)
    run_fats(1, hyper, micro_dataset, store, make_loss("quadratic", 1))
    path = tmp_path / "ckpt.txt"
    save_checkpoint(store, hyper, micro_dataset, str(path))
    loaded, loaded_hyper = load_checkpoint(str(path), micro_dataset)
    assert loaded.state_equal(store)
    assert loaded_hyper == hyper


def test_checkpoint_round_trip_compact(tmp_path, micro_dataset):
    hyper = micro_hyper(storage_mode=COMPACT)
    store = HistoryStore(COMPACT, 1)
    run_fats(1, hyper, micro_dataset, store, make_loss("quadratic", 1))
    path = tmp_path / "ckpt.txt"
    save_checkpoint(store, hyper, micro_dataset, str(path))
    loaded, _ = load_checkpoint(str(path), micro_dataset)
    assert loaded.state_equal(store)


def test_checkpoint_digest_mismatch(tmp_path, micro_dataset):
    hyper = micro_hyper()
    store = HistoryStore(FULL_HISTORY, 1)
    run_fats(1, hyper, micro_dataset, store, make_loss("quadratic", 1))
    path = tmp_path / "ckpt.txt"
    save_checkpoint(store, hyper, micro_dataset, str(path))
    other = generate_synthetic(
        num_clients=2, samples_per_client=2, dim=1, classes=2, beta=0.5, seed=8
    )
    with pytest.raises(DigestMismatchError):
        load_checkpoint(str(path), other)


def test_checkpoint_truncation_detected(tmp_path, micro_dataset):
    hyper = micro_hyper()
    store = HistoryStore(FULL_HISTORY, 1)
    run_fats(1, hyper, micro_dataset, store, make_loss("quadratic", 1))
    path = tmp_path / "ckpt.bin"
    save_checkpoint(store, hyper, micro_dataset, str(path))
    data = path.read_bytes()
    for cut in (0, 10, 40, len(data) // 3, len(data) // 2, len(data) - 40, len(data) - 1):
        path.write_bytes(data[:cut])
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(str(path))


def test_checkpoint_bad_header(tmp_path):
    path = tmp_path / "ckpt.txt"
    path.write_text("some other format v9\nend\n")
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(str(path))


def test_checkpoint_resume_continues_training(tmp_path, micro_dataset):
    """A checkpoint taken mid-run resumes to the same final state as the
    uninterrupted run."""
    from fedunlab.data import HyperParams

    hyper = HyperParams(
        num_clients=2, samples_per_client=2, total_steps=4, local_steps=2,
        clients_per_round=1, batch_size=1, lr=0.1, rho_sample=0.5,
        rho_client=0.5, seed=5, storage_mode=FULL_HISTORY,
    )
    loss = make_loss("quadratic", 1)
    full_store = HistoryStore(FULL_HISTORY, 2)
    final = run_fats(1, hyper, micro_dataset, full_store, loss)

    partial = HistoryStore(FULL_HISTORY, 2)
    # train the first round only, by replaying the first half
    half = HistoryStore(FULL_HISTORY, 2)
    run_fats(1, hyper, micro_dataset, half, loss)
    half.discard_from(3)
    path = tmp_path / "half.txt"
    save_checkpoint(half, hyper, micro_dataset, str(path))
    resumed, resumed_hyper = load_checkpoint(str(path), micro_dataset)
    final_resumed = run_fats(3, resumed_hyper, micro_dataset, resumed, loss)
    assert np.array_equal(final, final_resumed)
    assert resumed.state_equal(full_store)


def _read_v3(path):
    """(header, metadata, arrays) of a checkpoint, parsed apart from the loader."""
    header, meta, body = path.read_bytes().split(b"\n", 2)
    assert body.endswith(b"end\n")
    stream = io.BytesIO(body[:-4])
    arrays = [np.load(stream, allow_pickle=False) for _ in json.loads(meta)["arrays"]]
    assert stream.read() == b""
    return header, json.loads(meta), arrays


def _write_v3(path, header, meta, arrays):
    with open(path, "wb") as handle:
        handle.write(header + b"\n" + json.dumps(meta).encode() + b"\n")
        for array in arrays:
            np.save(handle, array, allow_pickle=False)
        handle.write(b"end\n")


def test_checkpoint_rejects_v1_and_out_of_order_records(tmp_path, micro_dataset):
    hyper = micro_hyper()
    store = HistoryStore(FULL_HISTORY, 1)
    run_fats(1, hyper, micro_dataset, store, make_loss("quadratic", 1))
    path = tmp_path / "ckpt.bin"
    save_checkpoint(store, hyper, micro_dataset, str(path))
    header, meta, arrays = _read_v3(path)
    bad = tmp_path / "bad.bin"
    _write_v3(bad, header, meta, arrays)
    assert load_checkpoint(str(bad), micro_dataset)[0].state_equal(store)
    _write_v3(bad, b"fedunlab-ckpt v1 encoding=decimal-text", meta, arrays)
    with pytest.raises(CheckpointFormatError, match="v1"):
        load_checkpoint(str(bad))
    _write_v3(bad, header, {**meta, "mode": "other"}, arrays)
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(str(bad))
    # the last round's multiset dropped: its iteration lies outside the rounds
    names = meta["arrays"]
    short = list(arrays)
    sizes = arrays[names.index("multiset_sizes")]
    short[names.index("multiset_sizes")] = sizes[:-1]
    short[names.index("multiset_clients")] = arrays[names.index("multiset_clients")][:-sizes[-1]]
    _write_v3(bad, header, meta, short)
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(str(bad))
    # a client recorded twice in one iteration
    twice = list(arrays)
    records = arrays[names.index("iteration_records")]
    twice[names.index("iteration_records")] = np.array([records.sum()] + [0] * (len(records) - 1))
    twice[names.index("record_clients")] = np.zeros_like(arrays[names.index("record_clients")])
    _write_v3(bad, header, meta, twice)
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(str(bad))


@pytest.mark.parametrize("mode, other", [(FULL_HISTORY, COMPACT), (COMPACT, FULL_HISTORY)])
def test_checkpoint_rejects_two_different_modes(tmp_path, micro_dataset, mode, other):
    """The metadata and the hyper-parameters both name the store mode; a
    file whose two copies differ is malformed, whichever one is wrong."""
    hyper = micro_hyper(storage_mode=mode)
    store = HistoryStore(mode, 1)
    run_fats(1, hyper, micro_dataset, store, make_loss("quadratic", 1))
    path = tmp_path / "ckpt.bin"
    save_checkpoint(store, hyper, micro_dataset, str(path))
    header, meta, arrays = _read_v3(path)
    _write_v3(path, header, {**meta, "hyper": {**meta["hyper"], "storage_mode": other}}, arrays)
    with pytest.raises(CheckpointFormatError, match=f"mode '{mode}' but hyper.storage_mode '{other}'"):
        load_checkpoint(str(path), micro_dataset)


def test_checkpoint_rejects_v2_text(tmp_path, micro_dataset):
    path = tmp_path / "ckpt.txt"
    path.write_text(
        "fedunlab-ckpt v2 encoding=decimal-text\ndigest 0\nmode full_history\nend\n"
    )
    with pytest.raises(CheckpointFormatError, match="v2"):
        load_checkpoint(str(path), micro_dataset)


def test_checkpoint_rejects_other_width_and_malformed_arrays(tmp_path, micro_dataset):
    hyper = micro_hyper()
    store = HistoryStore(FULL_HISTORY, 1)
    run_fats(1, hyper, micro_dataset, store, make_loss("quadratic", 1))
    path = tmp_path / "ckpt.bin"
    save_checkpoint(store, hyper, micro_dataset, str(path))
    header, meta, arrays = _read_v3(path)
    bad = tmp_path / "bad.bin"
    wide = arrays[:-1] + [np.hstack([arrays[-1], arrays[-1]])]
    _write_v3(bad, header, meta, wide)
    with pytest.raises(CheckpointFormatError, match="width 1"):
        load_checkpoint(str(bad))
    _write_v3(bad, header, {**meta, "dim": 2}, arrays)
    with pytest.raises(CheckpointFormatError, match="width 2"):
        load_checkpoint(str(bad))
    _write_v3(bad, header, meta, arrays[:1] + [arrays[1].astype(np.float64)] + arrays[2:])
    with pytest.raises(CheckpointFormatError, match="integer"):
        load_checkpoint(str(bad))
    # an array header claiming far more elements than the file holds
    data = path.read_bytes()
    match = re.search(rb"'shape': \((\d+),\), \}( +)\n", data)
    digits, pad = match.group(1), match.group(2)
    huge = b"9" * (len(digits) + len(pad) - 1)
    bad.write_bytes(data[:match.start(1)] + huge + b",), } \n" + data[match.end():])
    with pytest.raises(CheckpointFormatError, match="past the end"):
        load_checkpoint(str(bad))
    with pytest.raises(InvalidArgumentError):
        save_checkpoint(store, hyper, generate_synthetic(
            num_clients=2, samples_per_client=2, dim=3, classes=2, beta=0.5, seed=7
        ), str(bad))


def _served_store(mode, local_steps=3, total_steps=60):
    dataset = generate_synthetic(
        num_clients=5, samples_per_client=6, dim=3, classes=2, beta=0.5, seed=4
    )
    hyper = HyperParams(
        num_clients=5, samples_per_client=6, total_steps=total_steps,
        local_steps=local_steps, clients_per_round=3, batch_size=2, lr=0.05,
        rho_sample=0.5, rho_client=0.5, seed=8, storage_mode=mode,
    )
    loss = make_loss("logistic", 3)
    store = HistoryStore(mode, local_steps)
    run_fats(1, hyper, dataset, store, loss)
    requests = [
        UnlearnRequest("sample", 1, dataset.client(1).uids[2], total_steps),
        UnlearnRequest("client", 3, None, total_steps),
    ]
    _, reduced = process_stream(requests, store, dataset, hyper, loss)
    return store, hyper, reduced, loss


@pytest.mark.parametrize("mode", [FULL_HISTORY, COMPACT])
def test_checkpoint_v3_round_trip_is_exact_and_deterministic(tmp_path, mode):
    store, hyper, reduced, _ = _served_store(mode)
    first, second = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(store, hyper, reduced, str(first))
    save_checkpoint(store, hyper, reduced, str(second))
    assert first.read_bytes() == second.read_bytes()
    loaded, loaded_hyper = load_checkpoint(str(first), reduced)
    assert loaded.state_equal(store) and loaded_hyper == hyper
    _, meta, arrays = _read_v3(first)
    assert meta["dim"] == 3
    assert all(a.dtype == np.dtype("<i4") for a in arrays[:-1])
    assert arrays[-1].dtype == np.dtype("<f8") and arrays[-1].shape[1] == 3
    # a mid-round cut of a full store round-trips as well
    if mode == FULL_HISTORY:
        store.discard_from(hyper.total_steps - 1)
        save_checkpoint(store, hyper, reduced, str(first))
        assert load_checkpoint(str(first), reduced)[0].state_equal(store)


def test_checkpoint_keeps_int64_uids(tmp_path):
    store = HistoryStore(FULL_HISTORY, 1)
    store.record_global(0, np.zeros(1))
    store.record_round_start(1, (0,))
    store.record_iteration(1, 0, (2**40, 3))
    dataset = generate_synthetic(
        num_clients=1, samples_per_client=2, dim=1, classes=2, beta=0.5, seed=0
    )
    hyper = HyperParams(
        num_clients=1, samples_per_client=2, total_steps=1, local_steps=1,
        clients_per_round=1, batch_size=2, lr=0.1, rho_sample=1.0, rho_client=1.0, seed=0,
    )
    path = tmp_path / "ckpt.bin"
    save_checkpoint(store, hyper, dataset, str(path))
    _, meta, arrays = _read_v3(path)
    assert arrays[meta["arrays"].index("batch_uids")].dtype == np.dtype("<i8")
    assert load_checkpoint(str(path), dataset)[0].state_equal(store)


def _saved_three_by_six(tmp_path, mode):
    """A checkpoint of 3 clients x 6 points trained for T = 12, E = 3:
    next_iteration 13 after 4 completed rounds."""
    dataset = generate_synthetic(
        num_clients=3, samples_per_client=6, dim=2, classes=2, beta=0.5, seed=6
    )
    hyper = HyperParams(
        num_clients=3, samples_per_client=6, total_steps=12, local_steps=3,
        clients_per_round=2, batch_size=2, lr=0.1, rho_sample=0.5, rho_client=0.5,
        seed=0, storage_mode=mode,
    )
    store = HistoryStore(mode, hyper.local_steps)
    run_fats(1, hyper, dataset, store, make_loss("quadratic", 2))
    path = tmp_path / "ckpt.bin"
    save_checkpoint(store, hyper, dataset, str(path))
    header, meta, arrays = _read_v3(path)
    assert (meta["next_iteration"], meta["latest_round"]) == (13, 4 if mode == COMPACT else 0)
    return dataset, path, header, meta, arrays


@pytest.mark.parametrize("field, value, loads", [
    ("next_iteration", 13, True),  # as saved
    ("latest_round", 3, True),  # round 4's model not yet recorded
    ("eround_rounds", 5, True),  # selected in a round not yet run
    ("next_iteration", 1, False),
    ("next_iteration", -7, False),
    ("next_iteration", 10**6, False),
    ("latest_round", 2, False),
    ("latest_round", 5, False),
    ("eround_rounds", 0, False),
    ("eround_rounds", 6, False),
    ("eround_clients", "twice", False),
])
def test_checkpoint_refuses_compact_counters_out_of_line(tmp_path, field, value, loads):
    """A compact checkpoint's counters come from its metadata: a
    next_iteration, latest_round or client round that no training run
    leaves, or a client listed twice, is refused."""
    dataset, path, header, meta, arrays = _saved_three_by_six(tmp_path, COMPACT)
    names = meta["arrays"]
    if field in names:
        column = arrays[names.index(field)].copy()
        column[0] = column[1] if value == "twice" else value
        arrays[names.index(field)] = column
    else:
        meta[field] = value
    _write_v3(path, header, meta, arrays)
    if loads:
        load_checkpoint(str(path), dataset)
    else:
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(str(path), dataset)


@pytest.mark.parametrize("models, latest_round, loads", [
    (5, 0, True),
    (4, 0, True),  # round 4's model not yet recorded
    (3, 0, False),
    (6, 0, False),
    (5, 4, False),
])
def test_checkpoint_refuses_full_history_without_its_models(tmp_path, models, latest_round,
                                                            loads):
    """A full-history checkpoint holds the initial model and one per
    completed round, the last of which may be missing, and latest_round
    0."""
    dataset, path, header, meta, arrays = _saved_three_by_six(tmp_path, FULL_HISTORY)
    globals_ = arrays[-1]
    arrays[-1] = np.vstack([globals_, globals_])[:models]
    _write_v3(path, header, {**meta, "latest_round": latest_round}, arrays)
    if loads:
        assert load_checkpoint(str(path), dataset)[0].latest_global_model().tobytes() == (
            globals_[models - 1].tobytes()
        )
    else:
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(str(path), dataset)


@pytest.mark.parametrize("mode", [FULL_HISTORY, COMPACT])
def test_stream_after_load_matches_the_original(tmp_path, mode):
    """Serving a stream on a loaded store gives the same outcomes,
    models and store, bit for bit, as serving it on the store saved."""
    store, hyper, reduced, loss = _served_store(mode)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(store, hyper, reduced, str(path))
    loaded, _ = load_checkpoint(str(path), reduced)
    requests = [
        UnlearnRequest("sample", 0, reduced.client(0).uids[0], hyper.total_steps),
        UnlearnRequest("client", 2, None, hyper.total_steps),
        UnlearnRequest("sample", 4, reduced.client(4).uids[5], hyper.total_steps),
    ]
    served = [process_stream(requests, s, reduced, hyper, loss) for s in (store, loaded)]
    (ours, ours_data), (theirs, theirs_data) = served
    assert loaded.state_equal(store)
    assert [(o.action, o.from_iteration, o.final_model.tobytes()) for o in ours] == [
        (o.action, o.from_iteration, o.final_model.tobytes()) for o in theirs
    ]
    assert ours_data.client_ids == theirs_data.client_ids


def test_failed_save_leaves_the_old_checkpoint(tmp_path, micro_dataset, monkeypatch):
    hyper = micro_hyper()
    store = HistoryStore(FULL_HISTORY, 1)
    run_fats(1, hyper, micro_dataset, store, make_loss("quadratic", 1))
    path = tmp_path / "ckpt.bin"
    save_checkpoint(store, hyper, micro_dataset, str(path))
    before = path.read_bytes()
    real_save = np.save
    calls = []

    def failing_save(handle, array, **kwargs):
        calls.append(array)
        if len(calls) == 4:
            handle.write(b"\x93NUMPY partial")
            raise OSError("disk gone mid-write")
        real_save(handle, array, **kwargs)

    monkeypatch.setattr(np, "save", failing_save)
    store.prune_after(2)
    with pytest.raises(OSError, match="mid-write"):
        save_checkpoint(store, hyper, micro_dataset, str(path))
    assert calls, "the save never reached the array writes"
    assert os.listdir(tmp_path) == ["ckpt.bin"]
    assert path.read_bytes() == before
    loaded, _ = load_checkpoint(str(path), micro_dataset)
    assert loaded.next_iteration == hyper.total_steps + 1


def test_save_keeps_the_mode_and_the_symlink_of_the_target(tmp_path, micro_dataset):
    hyper = micro_hyper()
    store = HistoryStore(FULL_HISTORY, 1)
    run_fats(1, hyper, micro_dataset, store, make_loss("quadratic", 1))
    target = tmp_path / "ckpt.bin"
    target.write_bytes(b"old")
    target.chmod(0o600)
    link = tmp_path / "latest.bin"
    link.symlink_to(target.name)
    save_checkpoint(store, hyper, micro_dataset, str(link))
    assert link.is_symlink() and os.readlink(link) == target.name
    assert stat.S_IMODE(target.stat().st_mode) == 0o600
    assert sorted(os.listdir(tmp_path)) == ["ckpt.bin", "latest.bin"]
    loaded, _ = load_checkpoint(str(target), micro_dataset)
    assert loaded.next_iteration == hyper.total_steps + 1
