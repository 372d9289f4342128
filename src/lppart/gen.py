"""Synthetic edge-list generators: recursive-quadrant (rmat), uniform (er), high-diameter (randhd).

All generators return raw (u, v) pairs with ids in [0, n); self-pairs and
duplicates are possible and are passed through to CSR construction, which
drops self-loops.  Output is deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .seeds import rng_for

RMAT_DEFAULT_PROBS = (0.57, 0.19, 0.19, 0.05)  # standard Graph500 parameterization

KINDS = ("rmat", "er", "randhd")
MAX_PAIRS = np.iinfo(np.intp).max // 16  # the most int64 (u, v) rows one numpy array can hold


@dataclass(frozen=True)
class GenSpec:
    """Parameters for one synthetic graph."""

    kind: str
    num_vertices: int
    avg_degree: int
    seed: int = 0
    probs: tuple[float, float, float, float] = RMAT_DEFAULT_PROBS  # rmat quadrant probabilities

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown generator kind {self.kind!r}")
        if self.num_vertices < 2:
            raise ConfigError(f"need at least 2 vertices, got {self.num_vertices}")
        if self.avg_degree < 1:
            raise ConfigError(f"average degree must be >= 1, got {self.avg_degree}")
        # written to pass only on good values: NaN fails every comparison
        if not (all(0.0 <= q <= 1.0 for q in self.probs) and abs(sum(self.probs) - 1.0) <= 1e-9):
            raise ConfigError(f"rmat probabilities (--probs) must lie in [0, 1] and sum to 1, got {self.probs}")

    @property
    def num_pairs(self) -> int:
        """The pairs the generator draws: n * avg_degree / 2, or n * avg_degree for randhd."""
        return self.num_vertices * self.avg_degree // (1 if self.kind == "randhd" else 2)


def generate(spec: GenSpec) -> np.ndarray:
    if spec.kind == "rmat":
        return gen_rmat(spec)
    if spec.kind == "er":
        return gen_er(spec.num_vertices, spec.avg_degree, spec.seed)
    return gen_randhd(spec.num_vertices, spec.avg_degree, spec.seed)


def gen_rmat(spec: GenSpec) -> np.ndarray:
    """n * avg_degree / 2 pairs by recursive quadrant sampling; n must be a power of two."""
    n = spec.num_vertices
    if n & (n - 1):
        raise ConfigError(f"rmat vertex count must be a power of two, got {n}")
    scale = n.bit_length() - 1
    num_pairs = spec.num_pairs
    a, b, c, _ = spec.probs
    rng = rng_for(spec.seed, "gen-rmat")

    src = np.zeros(num_pairs, dtype=np.int64)
    dst = np.zeros(num_pairs, dtype=np.int64)
    for _ in range(scale):
        r = rng.random(num_pairs)
        # quadrants: a = (0,0), b = (0,1), c = (1,0), d = (1,1)
        dst_bit = ((r >= a) & (r < a + b)) | (r >= a + b + c)
        src_bit = r >= a + b
        src = (src << 1) | src_bit
        dst = (dst << 1) | dst_bit
    return np.stack([src, dst], axis=1)


def gen_er(num_vertices: int, avg_degree: int, seed: int = 0) -> np.ndarray:
    """n * avg_degree / 2 uniform pairs with u != v."""
    if num_vertices < 2:
        raise ConfigError(f"need at least 2 vertices, got {num_vertices}")
    if avg_degree < 1:
        raise ConfigError(f"average degree must be >= 1, got {avg_degree}")
    num_pairs = num_vertices * avg_degree // 2
    rng = rng_for(seed, "gen-er")
    u = rng.integers(0, num_vertices, size=num_pairs, dtype=np.int64)
    v = rng.integers(0, num_vertices, size=num_pairs, dtype=np.int64)
    clash = u == v
    while clash.any():
        v[clash] = rng.integers(0, num_vertices, size=int(clash.sum()), dtype=np.int64)
        clash = u == v
    return np.stack([u, v], axis=1)


def gen_randhd(num_vertices: int, avg_degree: int, seed: int = 0) -> np.ndarray:
    """For each vertex k, avg_degree pairs into the open id window (k - d, k + d).

    The window is clamped at the array bounds (no wraparound), so every pair
    satisfies |u - v| < avg_degree and the graph has a long shortest-path
    structure.  Self-pairs can occur and are dropped downstream.
    """
    n, d = num_vertices, avg_degree
    if n <= 2 * d:
        raise ConfigError(f"need n > 2 * avg_degree for the id window, got n={n}, avg_degree={d}")
    rng = rng_for(seed, "gen-randhd")
    ks = np.arange(n, dtype=np.int64)
    low = np.maximum(0, ks - (d - 1))
    high = np.minimum(n - 1, ks + (d - 1))
    src = np.repeat(ks, d)
    dst = rng.integers(np.repeat(low, d), np.repeat(high, d) + 1, dtype=np.int64)
    return np.stack([src, dst], axis=1)
