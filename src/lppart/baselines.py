"""Reference partitioners: random, contiguous vertex blocks, contiguous edge blocks.

All three return a total assignment of [0, n) onto [0, p) with every part
nonempty.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .graph import GlobalGraph, block_cuts
from .seeds import rng_for


def random_partition(num_vertices: int, num_parts: int, seed: int = 0) -> np.ndarray:
    """Uniform i.i.d. parts; the first p vertices are assigned cyclically so
    no part can come out empty at small n."""
    if num_parts < 1:
        raise ConfigError(f"part count must be >= 1, got {num_parts}")
    if num_parts > num_vertices:
        raise ConfigError(f"part count {num_parts} exceeds vertex count {num_vertices}")
    rng = rng_for(seed, "baseline")
    parts = rng.integers(0, num_parts, size=num_vertices, dtype=np.int64)
    parts[:num_parts] = np.arange(num_parts)
    return parts


def vertex_block_partition(num_vertices: int, num_parts: int) -> np.ndarray:
    """Contiguous id ranges with sizes differing by at most one."""
    if num_parts < 1:
        raise ConfigError(f"part count must be >= 1, got {num_parts}")
    if num_parts > num_vertices:
        raise ConfigError(f"part count {num_parts} exceeds vertex count {num_vertices}")
    cuts = block_cuts(num_vertices, num_parts)
    return (np.searchsorted(cuts, np.arange(num_vertices), side="right") - 1).astype(np.int64)


def edge_block_partition(g: GlobalGraph, num_parts: int) -> np.ndarray:
    """Contiguous ranges balancing incident-edge mass.

    A greedy sweep in id order closes part k - 1 after the first vertex
    whose cumulative degree mass reaches k shares of 2m, provided enough
    vertices remain to keep every later part nonempty.  In closed form part
    k opens after vertex ``b_k = max(s_k, b_{k-1} + 1)``, where ``s_k`` is
    the first vertex whose mass reaches k shares, so ``b_k - k`` is a
    running maximum of ``s_k - k``.  Parts open while ``b_k <= n - 1 - p + k``;
    once one cannot, the sweep forces the trailing vertices into the parts
    still unopened, one each.
    """
    n, p = g.num_vertices, num_parts
    if p < 1:
        raise ConfigError(f"part count must be >= 1, got {p}")
    if p > n:
        raise ConfigError(f"part count {p} exceeds vertex count {n}")
    target = 2.0 * g.num_edges / p
    k = np.arange(1, p)
    first_reaching = np.searchsorted(np.cumsum(g.degrees), k * target)
    opened_after = np.maximum.accumulate(first_reaching - k) + k
    opened_after = opened_after[: int(np.count_nonzero(opened_after <= n - 1 - p + k))]
    parts = np.searchsorted(opened_after, np.arange(n)).astype(np.int64)
    opened = len(opened_after)
    if opened < p - 1:
        # degree mass ran short; force the trailing vertices into the open parts
        parts[n - (p - 1 - opened) :] = np.arange(opened + 1, p)
    return parts
