"""Output checks applied to every timed job of a benchmark run."""

from __future__ import annotations

import hashlib

import numpy as np


def partition_sha256(parts) -> str:
    """Hash of the labels as little-endian int64, independent of the input dtype."""
    return hashlib.sha256(np.asarray(parts, dtype="<i8").tobytes()).hexdigest()


class OutputChecker:
    """Collects the checks of one run.

    The first value seen under a key becomes the reference; every later value
    under that key must equal it.  That is how a single changed label, a
    diameter that drifts, or any other non-repeatable output shows up.
    """

    def __init__(self):
        self.reference: dict[str, object] = {}

    def same(self, key: str, value) -> list[str]:
        ref = self.reference.setdefault(key, value)
        return [] if ref == value else [f"{key}: {value!r} differs from the first job's {ref!r}"]

    def partition(self, key: str, parts, num_vertices: int, num_parts: int) -> list[str]:
        """Length n, integer labels in [0, p), and the same hash as the first job."""
        parts = np.asarray(parts)
        if parts.shape != (num_vertices,):
            return [f"{key}: shape {parts.shape}, expected ({num_vertices},)"]
        if parts.dtype.kind not in "iu":
            return [f"{key}: labels have dtype {parts.dtype}, expected integers"]
        if num_vertices and (parts.min() < 0 or parts.max() >= num_parts):
            return [f"{key}: labels span [{parts.min()}, {parts.max()}], expected [0, {num_parts})"]
        return self.same(f"{key} sha256", partition_sha256(parts))
