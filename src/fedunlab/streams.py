"""Counter-based random streams keyed by purpose.

Every random decision in the simulator is drawn from its own Philox
generator whose 128-bit key is derived from a tuple

    (seed, domain, epoch, ...context integers)

so that any draw can be reproduced in isolation and, crucially, fresh
randomness after a partial re-computation never reuses a key that was
consumed before: re-computation bumps the epoch component.

Philox is counter-based: its output is a function of its key and
counter alone, so a stream *is* its key. Each thread therefore keeps
one Philox, and rekeyed re-keys it for each decision instead of
building a generator per decision or per run; the draws are the same
as substream's.

For the same reason many streams can be computed at once: fold_keys is
the key derivation on uint64 arrays, and philox_words returns the first
32-bit words of many keyed streams, exactly the words numpy's Philox
would hand out. Both use integer arithmetic only.
"""

from __future__ import annotations

import threading

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Key domains. Each domain uses a fixed arity of context integers, so
# variable-length tuples cannot collide across domains.
DOMAIN_DATA = 1  # synthetic data generation: (seed, DOMAIN_DATA)
DOMAIN_CLIENT_SAMPLING = 2  # per-round multiset: (seed, dom, epoch, round)
DOMAIN_MINIBATCH = 3  # per-iteration batch: (seed, dom, epoch, t, client)
DOMAIN_TRIAL = 4  # derived per-trial seeds: (seed, dom, index)
DOMAIN_PROBE = 5  # estimator probes: (seed, dom, index)


def _splitmix64(value: int) -> int:
    value = (value + _GOLDEN) & _MASK64
    z = value
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _fold(lo: int, hi: int, part: int) -> tuple[int, int]:
    """Mix one context integer into a key; every key is built by these steps."""
    lo = _splitmix64(lo ^ (part & _MASK64))
    return lo, _splitmix64(hi ^ lo)


def stream_key(seed: int, domain: int, *parts: int) -> tuple[int, int]:
    """Mix (seed, domain, parts) into a 128-bit Philox key.

    Parts are folded in one at a time, so the key of (seed, domain,
    *head, *tail) is the key of (seed, domain, *head) extended by tail:
    rekeyed relies on this."""
    lo = _splitmix64((seed & _MASK64) ^ _splitmix64(domain))
    hi = _splitmix64(lo ^ _GOLDEN)
    for part in parts:
        lo, hi = _fold(lo, hi, part)
    return lo, hi


def substream(seed: int, domain: int, *parts: int) -> np.random.Generator:
    """Return an independent generator for one keyed decision."""
    lo, hi = stream_key(seed, domain, *parts)
    key = np.array([lo, hi], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# The calling thread's one Philox: its Generator and the state dict
# that re-keys it, built on the thread's first rekeyed call. Plain ints
# and tuples: the state setter converts them faster than arrays.
_thread = threading.local()


def rekeyed(prefix: tuple[int, int], *parts: int) -> np.random.Generator:
    """Re-key the calling thread's Philox to prefix extended by parts and
    return its generator, valid until the thread's next call.

    With prefix = stream_key(seed, domain, *head), the generator draws
    what substream(seed, domain, *head, *parts) would: re-keying sets the
    key with the counter at 0, the output buffer empty and no half-used
    32-bit word, the exact state of a new Philox with that key, however
    much of the previous key was used."""
    lo, hi = prefix
    for part in parts:
        lo, hi = _fold(lo, hi, part)
    try:
        generator, state = _thread.philox
    except AttributeError:
        generator = np.random.Generator(np.random.Philox(key=np.zeros(2, dtype=np.uint64)))
        state = {
            "bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": (0, 0)},
            "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        _thread.philox = generator, state
    state["state"]["key"] = lo, hi
    generator.bit_generator.state = state
    return generator


def _splitmix64_array(value: np.ndarray) -> np.ndarray:
    """_splitmix64 on a uint64 array; numpy's uint64 arithmetic wraps
    mod 2^64 as the masks do."""
    z = value + np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def fold_keys(prefix: tuple[int, int], *parts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Array twin of rekeyed's key fold: the keys of prefix extended by
    parts[0][i], parts[1][i], ... for every i, as two uint64 arrays (lo,
    hi). Parts are integer arrays of one length, taken mod 2^64."""
    lo = np.full(len(parts[0]), prefix[0], dtype=np.uint64)
    hi = np.full(len(parts[0]), prefix[1], dtype=np.uint64)
    for part in parts:
        lo = _splitmix64_array(lo ^ np.asarray(part).astype(np.uint64))
        hi = _splitmix64_array(hi ^ lo)
    return lo, hi


_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
# Philox4x64-10 constants (Salmon et al., SC'11; numpy's philox.h).
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = np.uint64(0x9E3779B97F4A7C15)
_PHILOX_W1 = np.uint64(0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10


def _mulhilo(multiplier: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit halves of multiplier * x, from 32-bit halves
    whose partial products fit in uint64."""
    m_lo, m_hi = np.uint64(multiplier & 0xFFFFFFFF), np.uint64(multiplier >> 32)
    x_lo, x_hi = x & _MASK32, x >> _SHIFT32
    cross_a, cross_b = x_lo * m_hi, x_hi * m_lo
    middle = ((x_lo * m_lo) >> _SHIFT32) + (cross_a & _MASK32) + (cross_b & _MASK32)
    high = x_hi * m_hi + (cross_a >> _SHIFT32) + (cross_b >> _SHIFT32) + (middle >> _SHIFT32)
    return high, x * np.uint64(multiplier)


def philox_words(lo: np.ndarray, hi: np.ndarray, count: int) -> np.ndarray:
    """The first count 32-bit words that next_uint32 gives on a fresh
    np.random.Philox(key=[lo[i], hi[i]]), for every i, as a (len(lo),
    count) uint64 array.

    numpy's Philox4x64-10 increments its counter before each block, so
    block j (from 0) encrypts the counter (j + 1, 0, 0, 0); each block's
    four 64-bit outputs are split into 32-bit words, low half first."""
    blocks = -(-count // 8)
    size = len(lo)
    key0 = np.repeat(np.asarray(lo, dtype=np.uint64), blocks)
    key1 = np.repeat(np.asarray(hi, dtype=np.uint64), blocks)
    c0 = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), size)
    c1 = c2 = c3 = np.zeros_like(c0)
    for index in range(_PHILOX_ROUNDS):
        if index:
            key0 = key0 + _PHILOX_W0
            key1 = key1 + _PHILOX_W1
        hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
        hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ key0, lo1, hi0 ^ c3 ^ key1, lo0
    outputs = np.stack([c0, c1, c2, c3], axis=1)
    words = np.stack([outputs & _MASK32, outputs >> _SHIFT32], axis=2)
    return words.reshape(size, blocks * 8)[:, :count]


def derive_trial_seeds(base_seed: int, count: int, salt: int = 0) -> list[int]:
    """Derive independent per-trial seeds for Monte-Carlo harnesses."""
    return [
        stream_key(base_seed, DOMAIN_TRIAL, salt, index)[0]
        for index in range(count)
    ]
