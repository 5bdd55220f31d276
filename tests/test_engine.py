"""Training engine: sampling primitives, aggregation, determinism,
resume, and replay."""

import copy
import hashlib
from dataclasses import replace

import numpy as np
import pytest

from fedunlab import engine
from fedunlab.data import (
    FULL_HISTORY,
    ClientDataset,
    FederatedDataset,
    HyperParams,
    UnlearnRequest,
    generate_synthetic,
)
from fedunlab.engine import (
    ReplayPlan,
    aggregate,
    run_fats,
    sample_client_multiset,
    sample_minibatch,
)
from fedunlab.errors import (
    InfeasibleBatchError,
    InvalidArgumentError,
    ModeMismatchError,
)
from fedunlab.losses import make_loss
from fedunlab.store import HistoryStore
from fedunlab.streams import DOMAIN_MINIBATCH, substream
from fedunlab.unlearn import unlearn_request

from conftest import micro_hyper


def _hyper(**overrides):
    base = dict(
        num_clients=3, samples_per_client=4, total_steps=6, local_steps=2,
        clients_per_round=2, batch_size=2, lr=0.05, rho_sample=0.5,
        rho_client=0.5, seed=21, storage_mode=FULL_HISTORY,
    )
    base.update(overrides)
    return HyperParams(**base)


@pytest.fixture
def small_dataset():
    return generate_synthetic(
        num_clients=3, samples_per_client=4, dim=2, classes=2, beta=0.5, seed=2
    )


# ----------------------------------------------------------------------
# sampling primitives


def test_sample_client_multiset_canonical():
    rng = substream(0, DOMAIN_MINIBATCH, 0, 1)
    multiset = sample_client_multiset(rng, (5, 2, 9), 4)
    assert len(multiset) == 4
    assert multiset == tuple(sorted(multiset))
    assert set(multiset) <= {2, 5, 9}


def test_sample_client_multiset_covers_support():
    seen = set()
    for trial in range(200):
        rng = substream(trial, DOMAIN_MINIBATCH, 0, 0)
        seen.add(sample_client_multiset(rng, (0, 1), 2))
    assert seen == {(0, 0), (0, 1), (1, 1)}


def test_sample_minibatch_distinct_sorted_subset():
    rng = substream(1, DOMAIN_MINIBATCH, 0, 2)
    batch = sample_minibatch(rng, (10, 11, 12, 13), 3)
    assert batch == tuple(sorted(batch))
    assert len(set(batch)) == 3
    assert set(batch) <= {10, 11, 12, 13}


def test_sample_minibatch_uniform_over_subsets():
    counts = {}
    for trial in range(3000):
        rng = substream(trial, DOMAIN_MINIBATCH, 1, 0)
        batch = sample_minibatch(rng, (0, 1, 2, 3), 2)
        counts[batch] = counts.get(batch, 0) + 1
    assert len(counts) == 6
    for n in counts.values():
        assert abs(n - 500) < 5 * np.sqrt(3000 * (1 / 6) * (5 / 6))


def test_sample_minibatch_large_client_is_pinned():
    """12,000 uids with b = 300 lies between N/50 and N/20, where numpy's
    choice picks its algorithm by a cutoff that depends on `shuffle`; a
    sampler passing shuffle=False draws another batch from the same key."""
    uids = tuple(range(1000, 13000))
    batch = sample_minibatch(substream(5, DOMAIN_MINIBATCH, 0, 1, 0), uids, 300)
    assert len(set(batch)) == 300 and batch == tuple(sorted(batch))
    assert batch[:4] == (1009, 1022, 1073, 1087)
    assert hashlib.sha256(repr(batch).encode()).hexdigest() == (
        "cb96a88f6eaebf5cb125f2162b8396a73d8cdd403891c75f572c14e4b25d9519"
    )


def test_sample_minibatch_infeasible():
    rng = substream(0, DOMAIN_MINIBATCH, 0, 0)
    with pytest.raises(InfeasibleBatchError):
        sample_minibatch(rng, (1, 2), 3)


def test_aggregate_multiplicity_weighting():
    models = {1: np.array([3.0]), 2: np.array([0.0])}
    np.testing.assert_allclose(aggregate(models, (1, 1, 2)), [2.0])
    np.testing.assert_allclose(aggregate(models, (1, 2)), [1.5])


# ----------------------------------------------------------------------
# closed-form trajectory


def test_run_fats_forced_trajectory_matches_hand_sgd():
    """One client with one point and b=1 forces every draw, so the run
    is plain SGD on that point and can be checked in closed form."""
    dataset = FederatedDataset(
        clients=(ClientDataset(0, uid_array=[0], features_matrix=[[2.0]], labels_vector=[1.0]),),
        classes=2, dim=1, declared_samples_per_client=1, seed=0,
    )
    hyper = _hyper(
        num_clients=1, samples_per_client=1, total_steps=3, local_steps=1,
        clients_per_round=1, batch_size=1, lr=0.1,
    )
    loss = make_loss("quadratic", 1)
    store = HistoryStore(FULL_HISTORY, 1)
    final = run_fats(1, hyper, dataset, store, loss)
    theta = 0.0
    for _ in range(3):
        theta = theta - 0.1 * (2.0 * theta - 1.0) * 2.0
    assert final[0] == pytest.approx(theta, rel=1e-15)
    assert dict(store.decisions(1)[0])[2] == (0,)
    assert dict(store.decisions(1)[1])[(2, 0)] == (0,)


# ----------------------------------------------------------------------
# determinism and resume


def test_run_fats_deterministic(small_dataset):
    hyper = _hyper()
    loss = make_loss("quadratic", 2)
    runs = []
    for _ in range(2):
        store = HistoryStore(FULL_HISTORY, hyper.local_steps)
        final = run_fats(1, hyper, small_dataset, store, loss)
        runs.append((final, store))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][1].state_equal(runs[1][1])


def test_run_fats_seed_changes_history(small_dataset):
    loss = make_loss("quadratic", 2)
    stores = []
    for seed in (1, 2):
        store = HistoryStore(FULL_HISTORY, 2)
        run_fats(1, _hyper(seed=seed), small_dataset, store, loss)
        stores.append(store)
    assert stores[0].history_tuple() != stores[1].history_tuple()


@pytest.mark.parametrize("local_steps", [2, 3])
def test_run_fats_suffix_rerun_is_bit_identical(small_dataset, local_steps):
    """Re-executing from any round start against an unchanged epoch
    reproduces the original records and final model exactly, on the
    whole store as well as after a discard to the start. A start inside
    a round is rejected and leaves the store as it was."""
    loss = make_loss("quadratic", 2)
    hyper = _hyper(local_steps=local_steps)
    store = HistoryStore(FULL_HISTORY, local_steps)
    final = run_fats(1, hyper, small_dataset, store, loss)
    reference = copy.deepcopy(store)
    for start in range(1, hyper.total_steps + 1):
        if (start - 1) % local_steps:
            with pytest.raises(InvalidArgumentError, match="does not start a round"):
                run_fats(start, hyper, small_dataset, store, loss)
            assert store.state_equal(reference)
            continue
        assert np.array_equal(run_fats(start, hyper, small_dataset, store, loss), final)
        assert store.state_equal(reference)
        store.discard_from(start)
        assert np.array_equal(run_fats(start, hyper, small_dataset, store, loss), final)
        assert store.state_equal(reference)


def test_run_fats_resume_needs_the_trained_loss(small_dataset):
    hyper = _hyper()
    store = HistoryStore(FULL_HISTORY, hyper.local_steps)
    run_fats(1, hyper, small_dataset, store, make_loss("logistic", 2))
    assert store.loss_name == "logistic"
    reference = copy.deepcopy(store)
    with pytest.raises(InvalidArgumentError):
        run_fats(3, hyper, small_dataset, store, make_loss("quadratic", 2))
    assert store.state_equal(reference)


def test_run_fats_rejects_gap(small_dataset):
    hyper = _hyper()
    loss = make_loss("quadratic", 2)
    store = HistoryStore(FULL_HISTORY, hyper.local_steps)
    with pytest.raises(InvalidArgumentError, match="only covers history"):
        run_fats(3, hyper, small_dataset, store, loss)


def test_run_fats_rejects_compact_resume(small_dataset):
    hyper = _hyper(storage_mode="compact")
    loss = make_loss("quadratic", 2)
    store = HistoryStore("compact", hyper.local_steps)
    run_fats(1, hyper, small_dataset, store, loss)
    with pytest.raises(ModeMismatchError):
        run_fats(3, hyper, small_dataset, store, loss)


def test_run_fats_rejects_local_steps_mismatch(small_dataset):
    hyper = _hyper()
    loss = make_loss("quadratic", 2)
    store = HistoryStore(FULL_HISTORY, 3)
    with pytest.raises(InvalidArgumentError):
        run_fats(1, hyper, small_dataset, store, loss)


# ----------------------------------------------------------------------
# replay plans


def test_replay_plan_pins_decisions(small_dataset):
    hyper = _hyper()
    loss = make_loss("quadratic", 2)
    store = HistoryStore(FULL_HISTORY, hyper.local_steps)
    run_fats(1, hyper, small_dataset, store, loss)
    plan = ReplayPlan()
    plan.round_multisets.update(store.decisions(1)[0])
    for (t, cid), batch in store.decisions(1)[1]:
        plan.batches[(t, cid)] = batch
    replayed = HistoryStore(FULL_HISTORY, hyper.local_steps)
    # different seed and epoch cannot matter: every decision is pinned
    replayed.epoch = 5
    final = run_fats(1, _hyper(seed=999), small_dataset, replayed, loss, replay=plan)
    assert store.history_tuple() == replayed.history_tuple()
    assert np.array_equal(final, store.latest_global_model())


def test_round_hook_reports_boundaries(small_dataset):
    hyper = _hyper()
    loss = make_loss("quadratic", 2)
    store = HistoryStore(FULL_HISTORY, hyper.local_steps)
    calls = []
    run_fats(1, hyper, small_dataset, store, loss,
             round_hook=lambda r, t, theta: calls.append((r, t)))
    assert calls == [(1, 2), (2, 4), (3, 6)]


def test_micro_hyper_budget_derivation(micro_dataset):
    hyper = micro_hyper()
    assert hyper.clients_per_round == 1
    assert hyper.batch_size == 1
    assert hyper.rounds == 2
    assert hyper.rho_sample_realized == pytest.approx(0.5)
    assert hyper.rho_client_realized == pytest.approx(1.0)


# ----------------------------------------------------------------------
# array draws against one-at-a-time draws


def _both_paths(monkeypatch, run):
    """run() with every fresh decision drawn by the array kernels (small
    windows, no cutoff) and with every one drawn alone."""
    results = []
    for cutoff in (0, 10**9):
        monkeypatch.setattr(engine, "WINDOW_DECISIONS", 24)
        monkeypatch.setattr(engine, "MIN_ARRAY_DECISIONS", cutoff)
        results.append(run())
    return results


def _assert_same(results):
    (store_a, theta_a), (store_b, theta_b) = results
    assert store_a.state_equal(store_b)
    assert store_a.history_tuple() == store_b.history_tuple()
    assert theta_a.tobytes() == theta_b.tobytes()


def _churn():
    dataset = generate_synthetic(
        num_clients=6, samples_per_client=12, dim=2, classes=2, beta=0.5, seed=3
    )
    hyper = _hyper(
        num_clients=6, samples_per_client=12, total_steps=60, local_steps=3,
        clients_per_round=3, batch_size=3, seed=11,
    )
    return dataset, hyper, make_loss("logistic", 2)


def _train(dataset, hyper, loss):
    store = HistoryStore(FULL_HISTORY, hyper.local_steps)
    return store, run_fats(1, hyper, dataset, store, loss)


@pytest.mark.parametrize("uid_order", ["ascending", "descending"])
def test_array_draws_equal_scalar_draws_in_training(monkeypatch, uid_order):
    """A batch is sorted by uid, whatever order a client's rows hold
    its uids in."""
    dataset, hyper, loss = _churn()
    if uid_order == "descending":
        dataset = replace(dataset, clients=tuple(
            replace(c, uid_array=c.uid_array[::-1]) for c in dataset.clients
        ))
    _assert_same(_both_paths(monkeypatch, lambda: _train(dataset, hyper, loss)))


@pytest.mark.parametrize("kind", ["sample", "client"])
def test_array_draws_equal_scalar_draws_in_deletions(monkeypatch, kind):
    """A sample deletion replays pinned decisions and redraws the
    contaminated batches; a client deletion bumps the epoch and redraws
    the whole suffix from the client's first selection on."""
    dataset, hyper, loss = _churn()
    client = dataset.client_ids[2]
    uid = dataset.client(client).uids[0] if kind == "sample" else None

    def run():
        store, _ = _train(dataset, hyper, loss)
        outcome, _ = unlearn_request(
            UnlearnRequest(kind, client, uid, hyper.total_steps), store, dataset, hyper, loss
        )
        assert outcome.action == "partial_retrain" and outcome.retrained_iterations > 20
        return store, store.latest_global_model()

    _assert_same(_both_paths(monkeypatch, run))


def test_array_draws_leave_choice_tail_shuffle_to_scalar_path(monkeypatch):
    """Client 0 holds 10,050 points and b = 202 > 10,050 // 50, where
    numpy's choice shuffles instead of running Floyd: those batches are
    drawn one at a time, client 1's by the array kernels."""
    rng = np.random.default_rng(0)
    clients = tuple(
        ClientDataset(cid, uid_array=np.arange(size) + 20_000 * cid,
                      features_matrix=rng.normal(size=(size, 2)),
                      labels_vector=rng.integers(0, 2, size=size).astype(float))
        for cid, size in ((0, 10_050), (1, 300))
    )
    dataset = FederatedDataset(
        clients=clients, classes=2, dim=2, declared_samples_per_client=300, seed=0
    )
    hyper = _hyper(
        num_clients=2, samples_per_client=300, total_steps=12, local_steps=2,
        clients_per_round=2, batch_size=202,
    )
    loss = make_loss("quadratic", 2)
    scalar_sizes = []

    def counted(rng, uids, batch_size):
        scalar_sizes.append(len(uids))
        return sample_minibatch(rng, uids, batch_size)

    monkeypatch.setattr(engine, "sample_minibatch", counted)

    def run():
        scalar_sizes.clear()
        return (*_train(dataset, hyper, loss), list(scalar_sizes))

    (store_a, theta_a, alone_a), (store_b, theta_b, alone_b) = _both_paths(monkeypatch, run)
    _assert_same([(store_a, theta_a), (store_b, theta_b)])
    assert set(alone_a) == {10_050}
    assert set(alone_b) == {10_050, 300}


def test_array_draws_raise_where_scalar_draws_raise(monkeypatch):
    """A client too small for a fresh batch raises at the same iteration
    on both paths and leaves the same store."""
    dataset = FederatedDataset(
        clients=tuple(
            ClientDataset(cid, uid_array=np.arange(size) + 100 * cid,
                          features_matrix=np.ones((size, 1)), labels_vector=np.zeros(size))
            for cid, size in ((0, 6), (1, 6), (2, 2))
        ),
        classes=2, dim=1, declared_samples_per_client=6, seed=0,
    )
    hyper = _hyper(num_clients=3, samples_per_client=6, total_steps=40, batch_size=3)
    loss = make_loss("quadratic", 1)

    def run():
        store = HistoryStore(FULL_HISTORY, hyper.local_steps)
        with pytest.raises(InfeasibleBatchError) as error:
            run_fats(1, hyper, dataset, store, loss)
        return store, str(error.value)

    (store_a, error_a), (store_b, error_b) = _both_paths(monkeypatch, run)
    assert error_a == error_b and store_a.next_iteration > 1
    assert store_a.state_equal(store_b)
