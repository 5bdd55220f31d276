"""Keyed random stream derivation.

The literal values below pin the mapping from keys to draws: a change
to the key derivation, or to how a generator is built or re-keyed,
fails here. The array kernels are checked against numpy itself, so a
numpy release that changes Philox, its bounded integer draw or the
algorithm of choice(replace=False) fails here too.
"""

import hashlib
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedunlab.data import FULL_HISTORY, HyperParams, UnlearnRequest, generate_synthetic
from fedunlab.engine import draw_multisets, draw_subsets, run_fats, sample_client_multiset
from fedunlab.losses import make_loss
from fedunlab.store import HistoryStore
from fedunlab.streams import (
    DOMAIN_CLIENT_SAMPLING,
    DOMAIN_DATA,
    DOMAIN_MINIBATCH,
    DOMAIN_PROBE,
    DOMAIN_TRIAL,
    derive_trial_seeds,
    fold_keys,
    philox_words,
    rekeyed,
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
    for index in range(40):
        head, tail = (11, DOMAIN_MINIBATCH, index % 3), (index, index % 5)
        rng = rekeyed(stream_key(*head), *tail)
        assert np.array_equal(_draw(rng, kind), _draw(substream(*head, *tail), kind))
        _use_part(rng, how)


def test_rekeyed_keeps_one_generator_per_thread():
    """Threads re-key, wait until all have, then draw: each draws its
    own key's stream, so no thread re-keys another's generator."""
    indices = range(4)
    barrier = threading.Barrier(len(indices), timeout=10)
    draws = {}

    def run(index):
        rng = rekeyed(stream_key(11, DOMAIN_MINIBATCH, 0), index)
        barrier.wait()
        draws[index] = rng.integers(0, 2**32, size=8)

    threads = [threading.Thread(target=run, args=(index,)) for index in indices]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert sorted(draws) == list(indices)
    for index in indices:
        expected = substream(11, DOMAIN_MINIBATCH, 0, index).integers(0, 2**32, size=8)
        assert np.array_equal(draws[index], expected)


# ----------------------------------------------------------------------
# array kernels


_U64 = st.integers(0, 2**64 - 1)


def _keys(count, seed=0):
    rng = np.random.default_rng(seed)
    return tuple(rng.integers(0, 2**64, size=count, dtype=np.uint64) for _ in range(2))


def _generator(lo, hi):
    return np.random.Generator(np.random.Philox(key=np.array([lo, hi], dtype=np.uint64)))


def _raw_words(lo, hi, count):
    """next_uint32's words of a fresh Philox, from its 64-bit outputs."""
    raw = np.random.Philox(key=np.array([lo, hi], dtype=np.uint64)).random_raw(-(-count // 2))
    return [half for value in raw.tolist() for half in (value & 0xFFFFFFFF, value >> 32)][:count]


@settings(max_examples=100, deadline=None)
@given(keys=st.lists(st.tuples(_U64, _U64), min_size=1, max_size=5), count=st.integers(1, 20))
def test_philox_words_equal_random_raw(keys, count):
    lo = np.array([k[0] for k in keys], dtype=np.uint64)
    hi = np.array([k[1] for k in keys], dtype=np.uint64)
    words = philox_words(lo, hi, count)
    assert words.shape == (len(keys), count)
    for row, (key_lo, key_hi) in zip(words.tolist(), keys):
        assert row == _raw_words(key_lo, key_hi, count)


@settings(max_examples=100, deadline=None)
@given(
    seed=_U64,
    epoch=st.integers(0, 2**40),
    parts=st.lists(
        st.tuples(st.integers(-(2**63), 2**63 - 1), st.integers(0, 2**63 - 1)),
        min_size=1, max_size=6,
    ),
)
def test_fold_keys_equal_stream_key_and_rekey(seed, epoch, parts):
    prefix = stream_key(seed, DOMAIN_MINIBATCH, epoch)
    first = np.array([p[0] for p in parts])
    second = np.array([p[1] for p in parts])
    lo, hi = fold_keys(prefix, first, second)
    one_lo, one_hi = fold_keys(prefix, first)
    for i, (a, b) in enumerate(parts):
        assert (int(lo[i]), int(hi[i])) == stream_key(seed, DOMAIN_MINIBATCH, epoch, a, b)
        assert (int(one_lo[i]), int(one_hi[i])) == stream_key(seed, DOMAIN_MINIBATCH, epoch, a)
        key = rekeyed(prefix, a, b).bit_generator.state["state"]["key"]
        assert key.tolist() == [int(lo[i]), int(hi[i])]


@pytest.mark.parametrize("n, b", [
    (4, 4), (5, 4), (50, 4), (2000, 4), (10_000, 4), (12_000, 240),
    (30, 1), (30, 9), (30, 17), (17, 17), (18, 17),
    (3, 2), (6, 3), (9, 8), (10, 8),
])
def test_floyd_sets_equal_sorted_choice(n, b):
    """b > 8 reads a second Philox block; n = b takes no word for its
    first draw; (12,000, 240) is the largest b that still runs Floyd;
    small n against b repeats draws often, so j_k is taken often."""
    count = 300 if b < 100 else 40
    lo, hi = _keys(count, seed=n * 1000 + b)
    rows, flagged = draw_subsets(lo, hi, np.full(count, n), b)
    assert not flagged.any()
    for i in range(count):
        expected = sorted(_generator(lo[i], hi[i]).choice(n, size=b, replace=False).tolist())
        assert rows[i].tolist() == expected


def test_floyd_sets_with_mixed_sizes():
    lo, hi = _keys(500, seed=3)
    sizes = np.random.default_rng(4).integers(4, 60, size=500)
    rows, flagged = draw_subsets(lo, hi, sizes, 4)
    assert not flagged.any()
    for i in range(500):
        expected = sorted(_generator(lo[i], hi[i]).choice(int(sizes[i]), size=4, replace=False).tolist())
        assert rows[i].tolist() == expected


@pytest.mark.parametrize("population, count", [(1, 3), (2, 2), (20, 4), (7, 12)])
def test_multiset_draws_equal_sample_client_multiset(population, count):
    """One client is numpy's range 0 (no word read); count > 8 reads a
    second Philox block."""
    ids = tuple(range(10, 10 + population))
    lo, hi = _keys(300, seed=population)
    draws, flagged = draw_multisets(lo, hi, population, count)
    assert not flagged.any()
    for i in range(300):
        ours = tuple(sorted(ids[j] for j in draws[i]))
        assert ours == sample_client_multiset(_generator(lo[i], hi[i]), ids, count)


def _rejects(words, bounds):
    """Whether numpy's bounded draw rejects a word, drawing bound by
    bound and reading no word for a bound of 1."""
    words = iter(words)
    for bound in bounds:
        if bound > 1 and (next(words) * bound) % 2**32 < 2**32 % bound:
            return True
    return False


def test_rejections_and_tail_shuffle_are_flagged():
    """A population of 3 * 2^30 makes about one word in four reject;
    exactly the keys whose draws reject are flagged, and every other key
    matches numpy. (12,000, 241) is choice's tail shuffle: all flagged."""
    n = 3 * 2**30
    lo, hi = _keys(400, seed=5)
    rows, flagged = draw_subsets(lo, hi, np.full(400, n), 4)
    draws, multiset_flagged = draw_multisets(lo, hi, n, 3)
    for i in range(400):
        words = _raw_words(lo[i], hi[i], 4)
        assert flagged[i] == _rejects(words, range(n - 3, n + 1))
        assert multiset_flagged[i] == _rejects(words, [n] * 3)
        if not flagged[i]:
            expected = sorted(_generator(lo[i], hi[i]).choice(n, size=4, replace=False).tolist())
            assert rows[i].tolist() == expected
        if not multiset_flagged[i]:
            assert draws[i].tolist() == _generator(lo[i], hi[i]).integers(0, n, size=3).tolist()
    assert 0 < flagged.sum() < 400 and 0 < multiset_flagged.sum() < 400
    _, shuffled = draw_subsets(lo[:20], hi[:20], np.full(20, 12_000), 241)
    assert shuffled.all()


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
