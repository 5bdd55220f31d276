"""Deletion servicing: verification probes, partial re-computation,
prefix preservation, streams."""

import copy
from dataclasses import replace

import numpy as np
import pytest

from fedunlab.data import (
    COMPACT,
    FULL_HISTORY,
    HyperParams,
    UnlearnRequest,
    generate_synthetic,
    remove_sample,
)
from fedunlab.engine import run_fats
from fedunlab.errors import CorruptedHistoryError, InvalidArgumentError, NotFoundError
from fedunlab.losses import make_loss
from fedunlab.store import HistoryStore
from fedunlab.unlearn import (
    FULL_RETRAIN,
    NOOP,
    PARTIAL_RETRAIN,
    REJECTED,
    STALE,
    parse_request_line,
    process_stream,
    unlearn_request,
)

from conftest import micro_hyper, recorded


def _setup(seed=0, mode=FULL_HISTORY, num_clients=4, samples=5, total_steps=8,
           local_steps=2, batch_size=2, clients_per_round=2):
    dataset = generate_synthetic(
        num_clients=num_clients, samples_per_client=samples, dim=2,
        classes=2, beta=0.5, seed=6,
    )
    hyper = HyperParams(
        num_clients=num_clients, samples_per_client=samples,
        total_steps=total_steps, local_steps=local_steps,
        clients_per_round=clients_per_round, batch_size=batch_size,
        lr=0.05, rho_sample=0.5, rho_client=0.5, seed=seed, storage_mode=mode,
    )
    loss = make_loss("quadratic", 2)
    store = HistoryStore(mode, local_steps)
    run_fats(1, hyper, dataset, store, loss)
    return dataset, hyper, loss, store


def _find_used_uid(store, dataset):
    for client in dataset.clients:
        for uid in client.uids:
            if store._earliest_use.get(uid) is not None:
                return client.client_id, uid
    raise AssertionError("no uid was used")


def _find_unused_uid(store, dataset):
    for client in dataset.clients:
        for uid in client.uids:
            if store._earliest_use.get(uid) is None:
                return client.client_id, uid
    return None


# ----------------------------------------------------------------------
# sample deletion


def test_unlearn_sample_noop_when_never_used():
    for seed in range(20):
        dataset, hyper, loss, store = _setup(seed=seed)
        unused = _find_unused_uid(store, dataset)
        if unused is None:
            continue
        client_id, uid = unused
        reference = copy.deepcopy(store)
        request = UnlearnRequest(kind="sample", target_client=client_id,
                                 target_uid=uid, issue_step=hyper.total_steps)
        outcome, reduced = unlearn_request(request, store, dataset, hyper, loss)
        assert outcome.action == NOOP
        assert outcome.retrained_iterations == 0
        assert outcome.probes == 1
        assert store.state_equal(reference)
        assert not reduced.client(client_id).has_uid(uid)
        return
    raise AssertionError("no seed produced an unused uid")


def test_unlearn_sample_removes_target_everywhere():
    dataset, hyper, loss, store = _setup(seed=1)
    client_id, uid = _find_used_uid(store, dataset)
    request = UnlearnRequest(kind="sample", target_client=client_id,
                             target_uid=uid, issue_step=hyper.total_steps)
    outcome, reduced = unlearn_request(request, store, dataset, hyper, loss)
    assert outcome.action == PARTIAL_RETRAIN
    assert outcome.probes == 1
    assert outcome.from_iteration is not None
    assert outcome.retrained_iterations == hyper.total_steps - outcome.from_iteration + 1
    for (t, cid), batch in recorded(store)[1].items():
        if cid == client_id:
            assert uid not in batch
    # every stored batch is drawable from the reduced federation
    for (t, cid), batch in recorded(store)[1].items():
        client = reduced.client(cid)
        assert set(batch) <= set(client.uids)


def test_unlearn_sample_preserves_prefix_and_uninvolved_batches():
    dataset, hyper, loss, store = _setup(seed=2)
    client_id, uid = _find_used_uid(store, dataset)
    reference = copy.deepcopy(store)
    first_use = reference._earliest_use[uid]
    request = UnlearnRequest(kind="sample", target_client=client_id,
                             target_uid=uid, issue_step=hyper.total_steps)
    unlearn_request(request, store, dataset, hyper, loss)
    before = recorded(reference)[1]
    after = recorded(store)[1]
    # records strictly before the first use are identical, and so are the
    # global models of the rounds that end before it
    assert {k: b for k, b in after.items() if k[0] < first_use} == {
        k: b for k, b in before.items() if k[0] < first_use
    }
    for r in range(0, (first_use - 1) // hyper.local_steps + 1):
        assert np.array_equal(store.global_model(r), reference.global_model(r))
    # round multisets never change under sample deletion
    assert recorded(store)[0] == recorded(reference)[0]
    # batches not containing the uid are reused verbatim at every t
    for key, batch in before.items():
        if key[1] == client_id and uid in batch:
            continue
        assert after[key] == batch


def test_unlearn_sample_epoch_advances_only_on_recompute():
    dataset, hyper, loss, store = _setup(seed=1)
    client_id, uid = _find_used_uid(store, dataset)
    epoch = store.epoch
    request = UnlearnRequest(kind="sample", target_client=client_id,
                             target_uid=uid, issue_step=hyper.total_steps)
    unlearn_request(request, store, dataset, hyper, loss)
    assert store.epoch == epoch + 1


def test_unlearn_sample_missing_uid():
    dataset, hyper, loss, store = _setup()
    request = UnlearnRequest(kind="sample", target_client=0,
                             target_uid=10**9, issue_step=8)
    with pytest.raises(NotFoundError):
        unlearn_request(request, store, dataset, hyper, loss)


def test_unlearn_sample_needs_full_history():
    """Only a full history can tell a sample was never used or replay a
    prefix: on a compact store every sample deletion retrains from 1."""
    for client_id in (0, 3):
        dataset, hyper, loss, store = _setup(seed=5, mode=COMPACT)
        uid = dataset.client(client_id).uids[0]
        epoch = store.epoch
        request = UnlearnRequest(kind="sample", target_client=client_id,
                                 target_uid=uid, issue_step=8)
        outcome, reduced = unlearn_request(request, store, dataset, hyper, loss)
        assert outcome.action == FULL_RETRAIN
        assert outcome.from_iteration == 1
        assert outcome.retrained_iterations == hyper.total_steps
        assert outcome.probes == 0
        assert store.epoch == epoch + 1
        assert not reduced.client(client_id).has_uid(uid)


# ----------------------------------------------------------------------
# client deletion


def test_unlearn_client_prunes_from_first_selection():
    dataset, hyper, loss, store = _setup(seed=3)
    client_id = recorded(store)[0][2][0]
    reference = copy.deepcopy(store)
    first_round = reference._earliest_round[client_id]
    request = UnlearnRequest(kind="client", target_client=client_id,
                             target_uid=None, issue_step=hyper.total_steps)
    outcome, reduced = unlearn_request(request, store, dataset, hyper, loss)
    assert outcome.action == PARTIAL_RETRAIN
    assert outcome.from_iteration == (first_round - 1) * hyper.local_steps + 1
    assert not reduced.has_client(client_id)
    # the client appears nowhere afterward
    multisets = recorded(store)[0]
    for r in range(1, hyper.rounds + 1):
        assert client_id not in multisets[r]
    for t, cid in recorded(store)[1]:
        assert cid != client_id
    # prefix rounds before the first selection are bit-identical
    assert store.history_tuple()[:first_round - 1] == reference.history_tuple()[:first_round - 1]
    for r in range(first_round):
        assert np.array_equal(store.global_model(r), reference.global_model(r))


def test_unlearn_client_keeps_per_round_count():
    dataset, hyper, loss, store = _setup(seed=4)
    client_id = recorded(store)[0][1][0]
    request = UnlearnRequest(kind="client", target_client=client_id,
                             target_uid=None, issue_step=hyper.total_steps)
    unlearn_request(request, store, dataset, hyper, loss)
    multisets = recorded(store)[0]
    for r in range(1, hyper.rounds + 1):
        assert len(multisets[r]) == hyper.clients_per_round


def test_unlearn_client_noop_when_never_selected():
    for seed in range(60):
        dataset, hyper, loss, store = _setup(
            seed=seed, num_clients=6, clients_per_round=1, total_steps=4,
        )
        unseen = [c for c in dataset.client_ids if c not in store._earliest_round]
        if not unseen:
            continue
        reference = copy.deepcopy(store)
        request = UnlearnRequest(kind="client", target_client=unseen[0],
                                 target_uid=None, issue_step=hyper.total_steps)
        outcome, reduced = unlearn_request(request, store, dataset, hyper, loss)
        assert outcome.action == NOOP
        assert outcome.probes == 1
        assert store.state_equal(reference)
        return
    raise AssertionError("no seed left a client unselected")


def test_unlearn_client_last_client_forbidden(micro_dataset):
    from fedunlab.data import remove_client

    hyper = micro_hyper()
    loss = make_loss("quadratic", 1)
    store = HistoryStore(FULL_HISTORY, 1)
    run_fats(1, hyper, micro_dataset, store, loss)
    reference = copy.deepcopy(store)
    reduced = remove_client(micro_dataset, 0)
    request = UnlearnRequest(kind="client", target_client=1,
                             target_uid=None, issue_step=2)
    outcome, returned = unlearn_request(request, store, reduced, hyper, loss)
    assert outcome.action == REJECTED
    assert outcome.probes == 0
    assert returned is reduced
    assert store.state_equal(reference)


# ----------------------------------------------------------------------
# compact-mode full retrain


def test_full_retrain_unlearn_compact():
    dataset, hyper, loss, store = _setup(seed=5, mode=COMPACT)
    client_id = min(store._earliest_round)
    request = UnlearnRequest(kind="client", target_client=client_id,
                             target_uid=None, issue_step=hyper.total_steps)
    outcome, reduced = unlearn_request(request, store, dataset, hyper, loss)
    assert outcome.action == FULL_RETRAIN
    assert outcome.probes == 1
    assert outcome.retrained_iterations == hyper.total_steps
    assert store.earliest_client_use(client_id) is None
    assert not reduced.has_client(client_id)
    np.testing.assert_array_equal(outcome.final_model, store.latest_global_model())


def test_full_retrain_unlearn_deterministic():
    results = []
    for _ in range(2):
        dataset, hyper, loss, store = _setup(seed=9, mode=COMPACT)
        client_id = dataset.client_ids[0]
        uid = dataset.client(client_id).uids[0]
        request = UnlearnRequest(kind="sample", target_client=client_id,
                                 target_uid=uid, issue_step=hyper.total_steps)
        outcome, _ = unlearn_request(request, store, dataset, hyper, loss)
        results.append((outcome.action, outcome.final_model))
    assert results[0][0] == results[1][0]
    np.testing.assert_array_equal(results[0][1], results[1][1])


# ----------------------------------------------------------------------
# rejected deletions


def _tight_setup():
    """Every client holds exactly batch_size points, so any deletion that
    must redraw a batch from the target client is infeasible."""
    return _setup(seed=0, num_clients=3, samples=4, total_steps=8,
                  local_steps=2, batch_size=4, clients_per_round=2)


def test_failed_deletion_leaves_store_untouched():
    dataset, hyper, loss, store = _tight_setup()
    client_id, uid = _find_used_uid(store, dataset)
    reference = copy.deepcopy(store)
    bad = UnlearnRequest(kind="sample", target_client=client_id,
                         target_uid=uid, issue_step=hyper.total_steps)
    (outcome,), returned = process_stream([bad], store, dataset, hyper, loss)
    assert outcome.action == REJECTED
    assert outcome.probes == 0
    assert outcome.retrained_iterations == 0
    assert returned is dataset
    assert store.state_equal(reference)
    np.testing.assert_array_equal(outcome.final_model, reference.latest_global_model())
    # the stream goes on past a rejected request
    other = next(c for c in dataset.client_ids if c != client_id)
    good = UnlearnRequest(kind="client", target_client=other,
                          target_uid=None, issue_step=hyper.total_steps)
    outcomes, reduced = process_stream([bad, good], store, dataset, hyper, loss)
    assert outcomes[0].action == REJECTED
    assert outcomes[1].action in (NOOP, PARTIAL_RETRAIN)
    assert reduced.client(client_id).has_uid(uid)
    assert not reduced.has_client(other)


@pytest.mark.parametrize("mismatch", ["loss", "local_steps"])
def test_deletion_run_fats_refuses_leaves_store_untouched(mismatch):
    """A re-run that run_fats refuses is refused before the store is
    pruned: the call raises and the store keeps its suffix and epoch."""
    dataset, hyper, loss, store = _setup(num_clients=3, samples=6, total_steps=12,
                                         local_steps=3)
    client_id, uid = max(
        ((c.client_id, u) for c in dataset.clients for u in c.uids
         if store._earliest_use.get(u) is not None),
        key=lambda target: store._earliest_use[target[1]],
    )
    assert store._earliest_use[uid] > hyper.local_steps  # the re-run resumes
    if mismatch == "loss":
        loss = make_loss("logistic", 2)
    else:
        hyper = replace(hyper, local_steps=1)
    reference = copy.deepcopy(store)
    request = UnlearnRequest(kind="sample", target_client=client_id,
                             target_uid=uid, issue_step=hyper.total_steps)
    with pytest.raises(InvalidArgumentError):
        unlearn_request(request, store, dataset, hyper, loss)
    assert store.state_equal(reference)


def test_deletion_needing_a_missing_global_model_leaves_store_untouched():
    """A store recorded through record_* whose global models stop at
    round 2 of 4: a deletion that must resume from round 3 raises before
    the store is pruned, with its suffix and epoch kept."""
    dataset, hyper, loss, trained = _setup(num_clients=3, samples=6, total_steps=12,
                                           local_steps=3)
    store = HistoryStore(FULL_HISTORY, hyper.local_steps)
    store.loss_name = trained.loss_name
    for round_index, (multiset, body) in trained.rounds():
        store.record_round_start(round_index, multiset)
        start = store.round_start_iteration(round_index)
        for step in range(hyper.local_steps):
            for client_id, batches in body:
                store.record_iteration(start + step, client_id, batches[step])
    for round_index in range(3):
        store.record_global(round_index, trained.global_model(round_index))
    client_id, uid = next(
        (c.client_id, u) for c in dataset.clients for u in c.uids
        if store.round_of(store._earliest_use.get(u, 0)) == 4
    )
    reference = copy.deepcopy(store)
    request = UnlearnRequest(kind="sample", target_client=client_id,
                             target_uid=uid, issue_step=hyper.total_steps)
    with pytest.raises(CorruptedHistoryError, match="round 3"):
        unlearn_request(request, store, dataset, hyper, loss)
    assert store.state_equal(reference) and store.next_iteration == 13


def test_stream_rejects_emptying_a_client(micro_dataset):
    """A request that would leave a client empty is rejected inside a
    stream: the store keeps the state of the requests before it and the
    stream goes on."""
    hyper = micro_hyper()
    loss = make_loss("quadratic", 1)
    store = HistoryStore(FULL_HISTORY, hyper.local_steps)
    run_fats(1, hyper, micro_dataset, store, loss)
    first_uid, second_uid = micro_dataset.client(1).uids
    first = UnlearnRequest(kind="sample", target_client=1, target_uid=first_uid,
                           issue_step=hyper.total_steps)
    second = UnlearnRequest(kind="sample", target_client=1, target_uid=second_uid,
                            issue_step=hyper.total_steps)
    reference = copy.deepcopy(store)
    _, after_first = unlearn_request(first, reference, micro_dataset, hyper, loss)
    outcome, returned = unlearn_request(second, copy.deepcopy(reference), after_first, hyper, loss)
    assert outcome.action == REJECTED and returned is after_first
    outcomes, reduced = process_stream(
        [first, second, first], store, micro_dataset, hyper, loss
    )
    assert [o.action for o in outcomes][1:] == [REJECTED, STALE]
    assert outcomes[1].probes == 0
    np.testing.assert_array_equal(
        outcomes[1].final_model, reference.latest_global_model()
    )
    assert store.state_equal(reference)
    assert reduced.client(1).uids == (second_uid,)


# ----------------------------------------------------------------------
# streams


def test_process_stream_marks_repeat_as_stale():
    dataset, hyper, loss, store = _setup(seed=1)
    client_id, uid = _find_used_uid(store, dataset)
    request = UnlearnRequest(kind="sample", target_client=client_id,
                             target_uid=uid, issue_step=hyper.total_steps)
    outcomes, reduced = process_stream(
        [request, request], store, dataset, hyper, loss
    )
    assert [o.action for o in outcomes] == [PARTIAL_RETRAIN, STALE]
    assert not reduced.client(client_id).has_uid(uid)


def test_process_stream_mixed_kinds():
    dataset, hyper, loss, store = _setup(seed=2)
    client_id, uid = _find_used_uid(store, dataset)
    other = next(c for c in dataset.client_ids if c != client_id)
    requests = [
        UnlearnRequest(kind="sample", target_client=client_id,
                       target_uid=uid, issue_step=hyper.total_steps),
        UnlearnRequest(kind="client", target_client=other,
                       target_uid=None, issue_step=hyper.total_steps),
    ]
    outcomes, reduced = process_stream(requests, store, dataset, hyper, loss)
    assert len(outcomes) == 2
    assert not reduced.has_client(other)
    assert all(o.action in (NOOP, PARTIAL_RETRAIN) for o in outcomes)
    # sampled multisets in the final history avoid the removed client
    multisets = recorded(store)[0]
    for r in range(1, hyper.rounds + 1):
        assert other not in multisets[r]


def test_parse_request_line():
    request = parse_request_line("sample, 3, 17, 40")
    assert request == UnlearnRequest(kind="sample", target_client=3,
                                     target_uid=17, issue_step=40)
    request = parse_request_line("client,2,-,40")
    assert request.target_uid is None
    with pytest.raises(InvalidArgumentError):
        parse_request_line("sample,3,17")
    with pytest.raises(InvalidArgumentError):
        parse_request_line("bogus,3,17,40")
