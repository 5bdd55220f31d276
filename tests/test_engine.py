"""Training engine: sampling primitives, aggregation, determinism,
resume, and replay."""

import copy
import hashlib

import numpy as np
import pytest

from fedunlab.data import (
    FULL_HISTORY,
    ClientDataset,
    FederatedDataset,
    HyperParams,
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
