"""Keyed random stream derivation.

The literal values below pin the mapping from keys to draws: a change
to the key derivation, or to how a generator is built or re-keyed,
fails here.
"""

import hashlib

import numpy as np
import pytest

from fedunlab.data import FULL_HISTORY, HyperParams, UnlearnRequest, generate_synthetic
from fedunlab.engine import run_fats
from fedunlab.losses import make_loss
from fedunlab.store import HistoryStore
from fedunlab.streams import (
    DOMAIN_CLIENT_SAMPLING,
    DOMAIN_DATA,
    DOMAIN_MINIBATCH,
    DOMAIN_PROBE,
    DOMAIN_TRIAL,
    RekeyedPhilox,
    derive_trial_seeds,
    stream_key,
    substream,
)
from fedunlab.unlearn import unlearn_request


def test_stream_key_deterministic():
    assert stream_key(1, 2, 3, 4) == stream_key(1, 2, 3, 4)


def test_stream_key_sensitive_to_every_part():
    base = stream_key(5, DOMAIN_MINIBATCH, 0, 7, 3)
    assert stream_key(6, DOMAIN_MINIBATCH, 0, 7, 3) != base
    assert stream_key(5, DOMAIN_CLIENT_SAMPLING, 0, 7, 3) != base
    assert stream_key(5, DOMAIN_MINIBATCH, 1, 7, 3) != base
    assert stream_key(5, DOMAIN_MINIBATCH, 0, 8, 3) != base
    assert stream_key(5, DOMAIN_MINIBATCH, 0, 7, 4) != base


def test_stream_key_order_matters():
    assert stream_key(0, 1, 2, 3) != stream_key(0, 1, 3, 2)


def test_substream_reproducible():
    a = substream(9, DOMAIN_MINIBATCH, 0, 1, 1).integers(0, 1000, size=8)
    b = substream(9, DOMAIN_MINIBATCH, 0, 1, 1).integers(0, 1000, size=8)
    assert np.array_equal(a, b)


def test_substream_epoch_changes_draws():
    a = substream(9, DOMAIN_MINIBATCH, 0, 1, 1).integers(0, 10**9)
    b = substream(9, DOMAIN_MINIBATCH, 1, 1, 1).integers(0, 10**9)
    assert a != b


def test_trial_seeds_distinct_and_deterministic():
    seeds = derive_trial_seeds(42, 1000, salt=3)
    again = derive_trial_seeds(42, 1000, salt=3)
    assert list(seeds) == list(again)
    assert len(set(int(s) for s in seeds)) == 1000
    other = derive_trial_seeds(42, 1000, salt=4)
    assert list(seeds) != list(other)


def test_stream_key_literals():
    assert stream_key(0, DOMAIN_DATA) == (6791897765849424158, 16563412984214734071)
    assert stream_key(7, DOMAIN_CLIENT_SAMPLING, 0, 3) == (
        11513740444648744168, 10839631512309953216,
    )
    assert stream_key(7, DOMAIN_MINIBATCH, 2, 11, 4) == (
        8183401027227207956, 1367988405735973918,
    )
    # seeds and parts are taken mod 2^64
    assert stream_key(2**64 + 5, DOMAIN_PROBE, -1) == (
        14742883798784924551, 4755109715293867919,
    )
    assert derive_trial_seeds(3, 2, salt=1) == [7538235444083763819, 2918508021079798962]


@pytest.mark.parametrize("key, first", [
    ((3, DOMAIN_DATA), [910508161, 877255029, 979742030]),
    ((3, DOMAIN_CLIENT_SAMPLING, 1, 4), [1197630, 175592542, 235564190]),
    ((3, DOMAIN_MINIBATCH, 1, 9, 2), [964816493, 280176788, 375907451]),
    ((3, DOMAIN_TRIAL, 0, 5), [605893072, 525168000, 96085736]),
    ((3, DOMAIN_PROBE, 2), [542662334, 888909021, 681781235]),
])
def test_first_draws_of_each_domain(key, first):
    assert substream(*key).integers(0, 10**9, size=3).tolist() == first


def _draw(rng, kind):
    if kind == "integers":
        return rng.integers(0, 20, size=3)
    if kind == "choice":
        return rng.choice(50, size=4, replace=False)
    if kind == "large_choice":
        return rng.choice(12_000, size=300, replace=False)
    return rng.random(2)


def _use_part(rng, how):
    """Leave the generator part-used: a buffered 32-bit half, a consumed
    double, or a consumed choice."""
    if how == "odd_uint32":
        rng.integers(0, 2**32, size=3, dtype=np.uint32)
    elif how == "random":
        rng.random()
    elif how == "choice":
        rng.choice(7, size=3, replace=False)


@pytest.mark.parametrize("kind", ["integers", "choice", "large_choice", "random"])
@pytest.mark.parametrize("how", ["fresh", "odd_uint32", "random", "choice"])
def test_rekeyed_draws_equal_substream(kind, how):
    streams = RekeyedPhilox()
    for index in range(40):
        head, tail = (11, DOMAIN_MINIBATCH, index % 3), (index, index % 5)
        rng = streams.rekey(stream_key(*head), *tail)
        assert np.array_equal(_draw(rng, kind), _draw(substream(*head, *tail), kind))
        _use_part(rng, how)


def test_training_and_deletion_bytes_are_pinned():
    """SHA-256 of a small logistic run's history and final model, then of
    the same after a sample deletion that restarts inside a round under
    a bumped epoch."""
    dataset = generate_synthetic(
        num_clients=3, samples_per_client=6, dim=2, classes=2, beta=0.5, seed=4
    )
    hyper = HyperParams(
        num_clients=3, samples_per_client=6, total_steps=12, local_steps=2,
        clients_per_round=2, batch_size=2, lr=0.1, rho_sample=0.5, rho_client=0.5,
        seed=7,
    )
    loss = make_loss("logistic", 2)
    store = HistoryStore(FULL_HISTORY, hyper.local_steps)
    final = run_fats(1, hyper, dataset, store, loss)

    def digest(theta):
        return hashlib.sha256(repr(store.history_tuple()).encode() + theta.tobytes()).hexdigest()

    assert digest(final) == "bfebb7c2f6fd3eeba3157cd5a3a95a5067e187a68e6298b41d2c2d259cd54166"
    outcome, _ = unlearn_request(UnlearnRequest("sample", 0, 0, 12), store, dataset, hyper, loss)
    assert (outcome.action, outcome.retrained_iterations, store.epoch) == ("partial_retrain", 7, 1)
    assert digest(store.global_model(store.round_of(12))) == (
        "21152480dbc035dc73d33ac647140cff2c07d58995b02a58b1ddd12ce3b4246f"
    )
