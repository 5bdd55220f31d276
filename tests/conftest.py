import pytest

from fedunlab.data import FULL_HISTORY, HyperParams, generate_synthetic


@pytest.fixture
def micro_dataset():
    """Two clients of two points each, the smallest enumerable setup."""
    return generate_synthetic(
        num_clients=2, samples_per_client=2, dim=1, classes=2, beta=0.5, seed=7
    )


def micro_hyper(seed: int = 0, storage_mode: str = FULL_HISTORY) -> HyperParams:
    return HyperParams.from_budgets(
        rho_sample=0.5,
        rho_client=1.0,
        num_clients=2,
        samples_per_client=2,
        total_steps=2,
        local_steps=1,
        lr=0.1,
        seed=seed,
        storage_mode=storage_mode,
    )


@pytest.fixture
def micro_hyperparams():
    return micro_hyper()


def recorded(store):
    """A full-history store's multisets by round and batches by
    (iteration, client), read through HistoryStore.rounds."""
    multisets, batches = {}, {}
    for r, (multiset, body) in store.rounds():
        multisets[r] = multiset
        start = store.round_start_iteration(r)
        for client_id, client_batches in body:
            for t, batch in enumerate(client_batches, start=start):
                batches[t, client_id] = batch
    return multisets, batches
