"""Deterministic 64-bit seed derivation.

Campaign reproducibility requires that every random draw (input values, queue
waits, shot noise) comes from a seed that is a pure function of the campaign
seed and the job coordinates.  Python's hash() is salted per process, so the
mixing here is done with a fixed splitmix-style finalizer instead.
"""

from __future__ import annotations

from functools import lru_cache

_MASK = (1 << 64) - 1


def mix64(x: int) -> int:
    """Splitmix64 finalizer. Bijective on 64-bit ints."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


@lru_cache(maxsize=1024)
def _fnv1a(value: str) -> int:
    """FNV-1a over utf-8; stable across processes unlike hash().

    A campaign folds the same few strings (target names, stream labels) into
    every job's seeds, so the hashes are memoised, in a bounded cache.
    """
    h = 0xCBF29CE484222325
    for b in value.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK
    return h


def _fold(value: int | str) -> int:
    if isinstance(value, str):
        return _fnv1a(value)
    return value & _MASK


def derive_seed(*parts: int | str) -> int:
    """Mix an arbitrary tuple of ints/strings into one 64-bit seed."""
    acc = 0x243F6A8885A308D3
    for p in parts:
        acc = mix64(acc ^ _fold(p))
    return acc
