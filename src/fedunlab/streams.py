"""Counter-based random streams keyed by purpose.

Every random decision in the simulator is drawn from its own Philox
generator whose 128-bit key is derived from a tuple

    (seed, domain, epoch, ...context integers)

so that any draw can be reproduced in isolation and, crucially, fresh
randomness after a partial re-computation never reuses a key that was
consumed before: re-computation bumps the epoch component.

Philox is counter-based: its output is a function of its key and
counter alone, so a stream *is* its key. A training run therefore keeps
one RekeyedPhilox and re-keys it for each decision instead of building
a generator per decision; the draws are the same as substream's.
"""

from __future__ import annotations

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
    RekeyedPhilox.rekey relies on this."""
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


class RekeyedPhilox:
    """One Philox generator, re-keyed for each keyed decision.

    Re-keying sets the key with the counter at 0, the output buffer
    empty and no half-used 32-bit word: the exact state of a new Philox
    with that key. So every draw after a re-key equals the same draw
    from a fresh substream, however much of the previous key was used.
    """

    def __init__(self) -> None:
        self._bits = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        self._generator = np.random.Generator(self._bits)
        self._key = [0, 0]
        # Plain ints and tuples: the state setter converts them faster
        # than arrays.
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": self._key},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def rekey(self, prefix: tuple[int, int], *parts: int) -> np.random.Generator:
        """Re-key to prefix extended by parts and return the generator.

        With prefix = stream_key(seed, domain, *head), the generator
        draws what substream(seed, domain, *head, *parts) would."""
        lo, hi = prefix
        for part in parts:
            lo, hi = _fold(lo, hi, part)
        key = self._key
        key[0] = lo
        key[1] = hi
        self._bits.state = self._state
        return self._generator


def derive_trial_seeds(base_seed: int, count: int, salt: int = 0) -> list[int]:
    """Derive independent per-trial seeds for Monte-Carlo harnesses."""
    return [
        stream_key(base_seed, DOMAIN_TRIAL, salt, index)[0]
        for index in range(count)
    ]
