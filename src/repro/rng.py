"""Counter-based deterministic randomness (shared leaf module).

Both the reference GraphSage sampler (``repro.gnn.sampling``) and the
on-die TRNG model (``repro.isc.trng``) key their draws with this one
function, which is what makes out-of-order in-storage sampling provably
equivalent to the in-order reference: a draw depends only on
``(seed, *keys)``, never on execution order. :func:`counter_fold` is
the one step that folds a key into a counter state; a caller drawing
many keys under one prefix (the die sampler, once per command) folds the
prefix once and each key onto it. Procedural feature tables
(``repro.gnn.features``) read the same mixer as a stream, vectorized by
:func:`splitmix64_array`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SPLITMIX64_GAMMA",
    "splitmix64",
    "splitmix64_array",
    "counter_draw",
    "counter_fold",
    "stream_seed",
]

_MASK64 = (1 << 64) - 1
#: SplitMix64's stream increment: draw ``i`` of the stream seeded with
#: ``s`` is ``splitmix64(s + i * SPLITMIX64_GAMMA)`` (mod 2**64).
SPLITMIX64_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# The same constants as 0-d uint64 arrays: array operands stay uint64,
# and ufuncs take a 0-d array faster than a NumPy scalar.
_U64 = {
    c: np.array(c, dtype=np.uint64)
    for c in (SPLITMIX64_GAMMA, _MIX1, _MIX2, 27, 30, 31)
}


def splitmix64(x: int) -> int:
    """One round of the SplitMix64 mixing function (public-domain design)."""
    x = (x + SPLITMIX64_GAMMA) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """:func:`splitmix64` of every element of an integer array, as uint64.

    Elements are taken modulo 2**64, so a negative int64 wraps as the
    scalar's ``& _MASK64`` does. The arithmetic runs on arrays, where
    uint64 overflow wraps silently; on NumPy scalars it would warn, so a
    0-d input comes back with shape ``(1,)``.
    """
    z = np.array(x, dtype=np.uint64, ndmin=1)
    z += _U64[SPLITMIX64_GAMMA]
    z ^= z >> _U64[30]
    z *= _U64[_MIX1]
    z ^= z >> _U64[27]
    z *= _U64[_MIX2]
    z ^= z >> _U64[31]
    return z


def counter_fold(state: int, *keys: int) -> int:
    """Fold ``keys`` into a counter state, one SplitMix64 round per key.

    ``counter_draw(seed, *a, *b) == counter_fold(counter_draw(seed, *a),
    *b)`` bit for bit.
    """
    for key in keys:
        state = splitmix64(state ^ (int(key) & _MASK64))
    return state


def counter_draw(seed: int, *keys: int) -> int:
    """A uniform 64-bit draw determined purely by ``(seed, *keys)``."""
    return counter_fold(splitmix64(int(seed) & _MASK64), *keys)


def stream_seed(seed: int, *keys: int) -> int:
    """A derived seed for an independent worker/shard counter stream.

    Orchestration layers (grid cells, scale-out shards) hand each unit of
    work its own seed; deriving it as a keyed counter draw keeps the
    assignment independent of execution order and worker count. The top
    bit is dropped so the value stays a positive int64 for numpy
    Generators.
    """
    return counter_draw(seed, *keys) >> 1
