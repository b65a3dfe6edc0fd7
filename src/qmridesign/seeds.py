"""Deterministic random-stream derivation.

All randomness in the package flows from one master seed through a keyed
derivation tree (experiment -> command -> repeat -> subject-level stream).
Streams are independent numpy Generators, so results do not depend on
execution order and partial re-runs stay consistent.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["derive_rng"]


def _key_to_int(key: int | str) -> int:
    if isinstance(key, str):
        # crc32 is stable across platforms and Python versions
        return zlib.crc32(key.encode("utf-8"))
    if isinstance(key, (int, np.integer)):
        if key < 0:
            raise ValueError(f"stream keys must be non-negative, got {key}")
        return int(key)
    raise TypeError(f"stream key must be int or str, got {type(key)!r}")


def derive_rng(master_seed: int, *keys: int | str) -> np.random.Generator:
    """Independent Generator for the stream addressed by ``keys``.

    Example: ``derive_rng(seed, "evaluate", repeat_index)`` yields the same
    stream no matter how many other streams were consumed before it.
    """
    keys = tuple(_key_to_int(k) for k in keys)
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=keys))
