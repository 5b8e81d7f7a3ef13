"""Differential oracle for seed derivation.

``oracle_derive_seed`` folds every string byte by byte on every call, as
``derive_seed`` did before string folds were memoised.  The memoised fold
must give the same seeds, also after its bounded cache has evicted entries.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from qbench.rng import _fnv1a, derive_seed, mix64

MASK = (1 << 64) - 1


def oracle_fold(value):
    if isinstance(value, str):
        h = 0xCBF29CE484222325
        for b in value.encode("utf-8"):
            h = ((h ^ b) * 0x100000001B3) & MASK
        return h
    return value & MASK


def oracle_derive_seed(*parts):
    acc = 0x243F6A8885A308D3
    for p in parts:
        acc = mix64(acc ^ oracle_fold(p))
    return acc


@settings(max_examples=500, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1) | st.text(max_size=12), max_size=6))
def test_derive_seed_matches_the_uncached_fold(parts):
    assert derive_seed(*parts) == oracle_derive_seed(*parts)
    assert derive_seed(*parts) == oracle_derive_seed(*parts)  # now from the cache


def test_string_fold_cache_is_bounded_and_survives_eviction():
    size = _fnv1a.cache_info().maxsize
    assert size is not None
    names = [f"target-{i}" for i in range(3 * size)]
    for _ in range(2):
        for name in names:
            assert derive_seed(7, name, "shots") == oracle_derive_seed(7, name, "shots")
    assert _fnv1a.cache_info().currsize <= size
