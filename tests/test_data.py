"""Dataset construction, budget derivation, deletion, serialization."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedunlab.data import (
    FULL_HISTORY,
    ClientDataset,
    FederatedDataset,
    HyperParams,
    dataset_digest,
    export_dataset,
    generate_synthetic,
    import_dataset,
    remove_client,
    remove_sample,
)
from fedunlab.errors import (
    EmptyFederationError,
    InfeasibleBudgetError,
    InvalidArgumentError,
    NotFoundError,
)

# ----------------------------------------------------------------------
# budget derivation


def test_sampling_sizes_frozen_example():
    # K = 0.5 * 4 * 50 / 20 = 5 exactly, b = 0.25 * 80 / (0.5 * 4) = 10
    sizes = HyperParams.from_budgets(
        rho_sample=0.25, rho_client=0.5, num_clients=50,
        samples_per_client=80, total_steps=20, local_steps=4, lr=1.0, seed=0,
    )
    assert sizes.clients_per_round == 5
    assert sizes.batch_size == 10
    assert sizes.rho_client_realized == pytest.approx(5 * 20 / (4 * 50))
    assert sizes.rho_sample_realized == pytest.approx(10 * 5 * 20 / (50 * 80))


def test_sampling_sizes_rounds_half_up():
    # exact K = 1.0 * 1 * 3 / 2 = 1.5 -> 2
    sizes = HyperParams.from_budgets(
        rho_sample=0.5, rho_client=1.0, num_clients=3,
        samples_per_client=4, total_steps=2, local_steps=1, lr=1.0, seed=0,
    )
    assert sizes.clients_per_round == 2
    # exact b = 0.5 * 4 / 1 = 2
    assert sizes.batch_size == 2


def test_sampling_sizes_clamps_to_one():
    # exact K = 0.02 and exact b = 0.2 both round to zero without the clamp
    sizes = HyperParams.from_budgets(
        rho_sample=0.0004, rho_client=0.02, num_clients=10,
        samples_per_client=10, total_steps=10, local_steps=1, lr=1.0, seed=0,
    )
    assert sizes.clients_per_round == 1
    assert sizes.batch_size == 1


def test_sampling_sizes_infeasible_batch():
    # exact b = 0.9 * 10 / (0.05 * 1) = 180 > N = 10
    with pytest.raises(InfeasibleBudgetError):
        HyperParams.from_budgets(
            rho_sample=0.9, rho_client=0.05, num_clients=20,
            samples_per_client=10, total_steps=20, local_steps=1, lr=1.0, seed=0,
        )


def test_sampling_sizes_rejects_bad_budgets():
    for rho_sample, rho_client in ((0.0, 0.5), (0.5, 0.0), (-1.0, 0.5), (0.5, 1.5)):
        with pytest.raises(InvalidArgumentError):
            HyperParams.from_budgets(
                rho_sample=rho_sample, rho_client=rho_client, num_clients=4,
                samples_per_client=4, total_steps=4, local_steps=1, lr=1.0, seed=0,
            )


@settings(max_examples=200, deadline=None)
@given(
    num_clients=st.integers(1, 64),
    samples=st.integers(1, 64),
    local_steps=st.integers(1, 8),
    round_count=st.integers(1, 16),
    rho_sample_pct=st.integers(1, 100),
    rho_client_pct=st.integers(1, 100),
)
def test_realized_budget_slack_bound(
    num_clients, samples, local_steps, round_count, rho_sample_pct, rho_client_pct
):
    """Without clamping, rounding inflates each budget by at most the
    relative slack of one unit: realized rho_client <= rho_client(1+1/K)
    and realized rho_sample <= rho_sample(1+1/b)(1+1/K)."""
    rho_sample = rho_sample_pct / 100
    rho_client = rho_client_pct / 100
    total_steps = round_count * local_steps
    try:
        sizes = HyperParams.from_budgets(
            rho_sample=rho_sample, rho_client=rho_client,
            num_clients=num_clients, samples_per_client=samples,
            total_steps=total_steps, local_steps=local_steps, lr=1.0, seed=0,
        )
    except InfeasibleBudgetError:
        return
    k_exact = rho_client * local_steps * num_clients / total_steps
    b_exact = rho_sample * samples / (rho_client * local_steps)
    clamped = k_exact < 0.5 or b_exact < 0.5 or sizes.batch_size == samples
    if clamped:
        return
    k, b = sizes.clients_per_round, sizes.batch_size
    assert sizes.rho_client_realized <= rho_client * (1 + 1 / k) * (1 + 1e-12)
    assert sizes.rho_sample_realized <= (
        rho_sample * (1 + 1 / b) * (1 + 1 / k) * (1 + 1e-12)
    )


def test_hyper_from_budgets_and_rounds():
    hyper = HyperParams.from_budgets(
        rho_sample=0.25, rho_client=0.5, num_clients=50,
        samples_per_client=80, total_steps=20, local_steps=4,
        lr=0.1, seed=0,
    )
    assert (hyper.clients_per_round, hyper.batch_size) == (5, 10)
    assert hyper.rounds == 5
    assert hyper.storage_mode == FULL_HISTORY


def test_hyper_validation():
    kwargs = dict(
        num_clients=2, samples_per_client=2, total_steps=4, local_steps=2,
        clients_per_round=1, batch_size=1, lr=0.1, rho_sample=0.5,
        rho_client=0.5, seed=0,
    )
    HyperParams(**kwargs)
    with pytest.raises(InvalidArgumentError):
        HyperParams(**{**kwargs, "total_steps": 5})  # not a multiple of E
    with pytest.raises(InvalidArgumentError):
        HyperParams(**{**kwargs, "batch_size": 3})  # bigger than client
    with pytest.raises(InvalidArgumentError):
        HyperParams(**{**kwargs, "lr": 0.0})
    with pytest.raises(InvalidArgumentError):
        HyperParams(**{**kwargs, "storage_mode": "verbose"})


# ----------------------------------------------------------------------
# synthetic generation


def test_generate_synthetic_shape_and_determinism():
    a = generate_synthetic(
        num_clients=3, samples_per_client=5, dim=4, classes=3, beta=0.5, seed=11
    )
    b = generate_synthetic(
        num_clients=3, samples_per_client=5, dim=4, classes=3, beta=0.5, seed=11
    )
    assert a.num_clients == 3
    assert a.total_points == 15
    assert dataset_digest(a) == dataset_digest(b)
    c = generate_synthetic(
        num_clients=3, samples_per_client=5, dim=4, classes=3, beta=0.5, seed=12
    )
    assert dataset_digest(a) != dataset_digest(c)


def test_generate_synthetic_uids_unique_and_client_major():
    dataset = generate_synthetic(
        num_clients=4, samples_per_client=3, dim=2, classes=2, beta=1.0, seed=0
    )
    seen = []
    for client_id in dataset.client_ids:
        client = dataset.client(client_id)
        assert client.size == 3
        seen.extend(client.uids)
    assert sorted(seen) == list(range(12))
    # uids are assigned in client blocks
    assert dataset.client(0).uids == (0, 1, 2)
    assert dataset.client(3).uids == (9, 10, 11)


def test_generate_synthetic_labels_in_range():
    dataset = generate_synthetic(
        num_clients=5, samples_per_client=8, dim=3, classes=4, beta=0.2, seed=2
    )
    for client in dataset.clients:
        for point in client.points:
            assert 0 <= int(point.label) < 4
            assert point.label == int(point.label)


def test_generate_synthetic_heterogeneity_moves_with_beta():
    """Lower beta concentrates labels within clients."""

    def mean_label_entropy(dataset):
        entropies = []
        for client in dataset.clients:
            counts = np.bincount(
                [int(p.label) for p in client.points], minlength=dataset.classes
            )
            p = counts / counts.sum()
            p = p[p > 0]
            entropies.append(float(-(p * np.log(p)).sum()))
        return float(np.mean(entropies))

    skewed = generate_synthetic(
        num_clients=20, samples_per_client=30, dim=2, classes=4, beta=0.05, seed=3
    )
    balanced = generate_synthetic(
        num_clients=20, samples_per_client=30, dim=2, classes=4, beta=100.0, seed=3
    )
    assert mean_label_entropy(skewed) < mean_label_entropy(balanced)


# ----------------------------------------------------------------------
# deletion


def test_remove_sample_counts_and_immutability(micro_dataset):
    uid = micro_dataset.client(1).uids[0]
    reduced = remove_sample(micro_dataset, 1, uid)
    assert reduced.total_points == micro_dataset.total_points - 1
    assert not reduced.client(1).has_uid(uid)
    assert micro_dataset.client(1).has_uid(uid)  # original untouched


def test_remove_sample_missing_uid(micro_dataset):
    with pytest.raises(NotFoundError):
        remove_sample(micro_dataset, 1, 10**9)
    with pytest.raises(NotFoundError):
        remove_sample(micro_dataset, 77, 0)


def test_remove_last_sample_of_client_forbidden():
    dataset = generate_synthetic(
        num_clients=2, samples_per_client=1, dim=1, classes=2, beta=0.5, seed=0
    )
    with pytest.raises(EmptyFederationError):
        remove_sample(dataset, 0, dataset.client(0).uids[0])


def test_remove_client(micro_dataset):
    reduced = remove_client(micro_dataset, 0)
    assert reduced.num_clients == 1
    assert not reduced.has_client(0)
    with pytest.raises(NotFoundError):
        remove_client(micro_dataset, 99)


def test_remove_only_client_forbidden(micro_dataset):
    reduced = remove_client(micro_dataset, 0)
    with pytest.raises(EmptyFederationError):
        remove_client(reduced, 1)


def test_deletion_commutes():
    dataset = generate_synthetic(
        num_clients=3, samples_per_client=4, dim=2, classes=2, beta=0.5, seed=5
    )
    u0 = dataset.client(0).uids[1]
    u2 = dataset.client(2).uids[3]
    ab = remove_sample(remove_sample(dataset, 0, u0), 2, u2)
    ba = remove_sample(remove_sample(dataset, 2, u2), 0, u0)
    assert dataset_digest(ab) == dataset_digest(ba)


# ----------------------------------------------------------------------
# serialization


def test_export_import_round_trip():
    dataset = generate_synthetic(
        num_clients=3, samples_per_client=4, dim=3, classes=2, beta=0.7, seed=13
    )
    text = export_dataset(dataset)
    back = import_dataset(text)
    assert dataset_digest(back) == dataset_digest(dataset)
    # float payloads survive exactly
    for client_id in dataset.client_ids:
        original = dataset.client(client_id)
        restored = back.client(client_id)
        assert np.array_equal(original.features_matrix, restored.features_matrix)
        assert np.array_equal(original.labels_vector, restored.labels_vector)


def test_import_rejects_bad_header():
    with pytest.raises(InvalidArgumentError):
        import_dataset("not-a-dataset v1\nend\n")


def test_import_rejects_truncation():
    dataset = generate_synthetic(
        num_clients=2, samples_per_client=2, dim=1, classes=2, beta=0.5, seed=0
    )
    text = export_dataset(dataset)
    trimmed = "\n".join(text.splitlines()[:-2]) + "\n"
    with pytest.raises(InvalidArgumentError):
        import_dataset(trimmed)


def test_digest_changes_on_deletion(micro_dataset):
    uid = micro_dataset.client(0).uids[0]
    assert dataset_digest(micro_dataset) != dataset_digest(
        remove_sample(micro_dataset, 0, uid)
    )


# ----------------------------------------------------------------------
# columns, digest and pinned bytes

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _two_clients(width_of_second=2):
    return (
        ClientDataset(0, [0, 1], [[1.0, -2.0], [0.5, 3.25]], [0.0, 1.0]),
        ClientDataset(4, [7], [[-0.0, 1e-300, 2.0][:width_of_second]], [1.0]),
    )


def test_digest_pinned():
    dataset = FederatedDataset(
        clients=_two_clients(), classes=2, dim=2, declared_samples_per_client=2, seed=3
    )
    assert dataset_digest(dataset) == "462ae50f921a9afcace62a78d8524d35"


def test_generate_synthetic_bytes_pinned():
    """The whole-client feature draw gives the bytes the per-point draw
    gave."""
    dataset = generate_synthetic(
        num_clients=3, samples_per_client=5, dim=4, classes=3, beta=0.5, seed=11
    )
    h = hashlib.blake2b(digest_size=16)
    for client in dataset.clients:
        h.update(client.features_matrix.astype("<f8").tobytes())
        h.update(client.labels_vector.astype("<f8").tobytes())
    assert h.hexdigest() == "7aaa138fea302e33706773ec5e9865d8"


@pytest.mark.parametrize("name, sha256", [
    ("quickstart", "188f64b1487793b7ddcfadaed8c33a69521a3ac14f2b0e4c898d32978ec251cf"),
    ("compact_storage", "5c71fd72edafca7651650039c98684ed7b3651c8c5c545d8ab7d099226682ddb"),
    ("convergence_study", "5c49abd0ddac7e6440ca1ea47c74d3dabd1c6d9893591f9b9d07ea77d9ef6647"),
])
def test_export_pinned_for_shipped_configs(name, sha256):
    """Dataset text format v1 and the generated data stay byte for byte."""
    spec = json.loads((CONFIGS / f"{name}.json").read_text())["dataset"]
    dataset = generate_synthetic(**spec)
    text = export_dataset(dataset)
    assert hashlib.sha256(text.encode()).hexdigest() == sha256
    assert export_dataset(import_dataset(text)) == text


def test_remove_sample_shares_untouched_clients():
    dataset = generate_synthetic(
        num_clients=4, samples_per_client=3, dim=2, classes=2, beta=0.5, seed=1
    )
    for target in dataset.client_ids:
        reduced = remove_sample(dataset, target, dataset.client(target).uids[1])
        for j in dataset.client_ids:
            assert (reduced.client(j) is dataset.client(j)) == (j != target)
        restored = import_dataset(export_dataset(reduced))
        assert dataset_digest(restored) == dataset_digest(reduced)
    reduced = remove_client(dataset, 2)
    assert all(reduced.client(j) is dataset.client(j) for j in reduced.client_ids)


def test_points_view_reads_the_columns():
    client = _two_clients()[0]
    assert client.uids == (0, 1)
    assert [(p.uid, p.features.tolist(), p.label) for p in client.points] == [
        (0, [1.0, -2.0], 0.0), (1, [0.5, 3.25], 1.0),
    ]
    with pytest.raises(ValueError):
        client.points[0].features[0] = 9.0  # read-only view of the matrix


def test_federation_rejects_mixed_widths():
    with pytest.raises(InvalidArgumentError, match="features per point"):
        FederatedDataset(
            clients=_two_clients(width_of_second=3), classes=2, dim=2,
            declared_samples_per_client=2, seed=0,
        )
    with pytest.raises(InvalidArgumentError, match="features per point"):
        FederatedDataset(
            clients=_two_clients(), classes=2, dim=3, declared_samples_per_client=2, seed=0,
        )


@pytest.mark.parametrize("uids, features, labels", [
    ([0, 0], [[1.0], [2.0]], [0.0, 1.0]),  # duplicate uid
    ([0.5, 1], [[1.0], [2.0]], [0.0, 1.0]),  # non-integer uid
    ([0, 1], [[1.0], [np.nan]], [0.0, 1.0]),  # non-finite feature
    ([0, 1], [[1.0], [2.0]], [0.0, np.inf]),  # non-finite label
    ([0, 1], [[1.0], [2.0, 3.0]], [0.0, 1.0]),  # ragged rows
    ([0, 1], [1.0, 2.0], [0.0, 1.0]),  # features not a matrix
    ([0, 1], [[1.0], [2.0]], [0.0]),  # one label short
    ([0, 1], [[], []], [0.0, 1.0]),  # zero-width rows
])
def test_client_rejects_malformed_columns(uids, features, labels):
    with pytest.raises(InvalidArgumentError):
        ClientDataset(0, uids, features, labels)
