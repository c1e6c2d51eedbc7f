"""Keyed random substreams for reproducible parallel work.

Every stochastic component draws from a counter-based Philox generator whose
key is a hash of a seed plus a tag path, e.g. ``(seed, cell_id, rep)``. The
resulting stream depends only on the tag, never on worker scheduling, so
results are bit-identical for any worker count. :func:`map_chunks` is the
one process-pool path that spreads such work over workers.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .exceptions import InputError


def substream(*parts) -> np.random.Generator:
    """Return a Generator keyed by the hash of the tag tuple ``parts``."""
    tag = "|".join(repr(p) for p in parts)
    digest = hashlib.blake2b(tag.encode("utf-8"), digest_size=16).digest()
    key = int.from_bytes(digest, "little")
    return np.random.Generator(np.random.Philox(key=key))


def map_chunks(func, items, workers: int) -> list:
    """func(items), for a func that maps items to a list of results: in
    this process at one worker (fewer is an InputError), else joined in
    order over workers * 4 contiguous chunks on one process pool, one
    process per chunk at most (func must then pickle)."""
    if workers < 1:
        raise InputError(f"workers must be at least 1, got {workers}")
    if workers == 1:
        return func(items)
    bounds = [b for b in np.array_split(np.arange(len(items)), workers * 4) if b.size]
    with ProcessPoolExecutor(max_workers=min(workers, max(len(bounds), 1))) as pool:
        parts = pool.map(func, [items[b[0] : b[-1] + 1] for b in bounds])
        return [out for part in parts for out in part]
