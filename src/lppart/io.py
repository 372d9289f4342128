"""File formats: edge-list text, binary edge cache, partition files.

Edge-list text is one ``u v`` pair per line, whitespace separated; blank
lines and lines starting with ``#`` are ignored.  Input ids may be arbitrary
integers; ``relabel_pairs`` maps them onto dense [0, n) in ascending original
order and returns the mapping.

The binary cache is an ``.npz`` with a version field, the pair array, and the
vertex count; it round-trips exactly and loads much faster than text.

A partition file has exactly n lines; line i is the (ASCII decimal) part of
dense vertex i.
"""

from __future__ import annotations

import zipfile
import zlib
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import InputError

CACHE_FORMAT_VERSION = 1
INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1  # vertex ids are stored as int64


def read_edge_list(path: str | Path) -> np.ndarray:
    """Parse (u, v) pairs from text; raises ``InputError`` naming a bad line."""
    pairs: list[tuple[int, int]] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            fields = stripped.split()
            if len(fields) < 2:
                raise InputError(f"{path}:{lineno}: expected 'u v', got {stripped!r}")
            try:
                u, v = int(fields[0]), int(fields[1])
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: non-integer vertex id in {stripped!r}") from exc
            pairs.append((u, v))
    if not pairs:
        return np.empty((0, 2), dtype=np.int64)
    try:
        return np.asarray(pairs, dtype=np.int64)
    except OverflowError:
        pass
    # some id does not fit int64; a range test on every line slows the
    # common case by about a tenth, so the line is located only now
    k = next(i for i, (u, v) in enumerate(pairs) if not (INT64_MIN <= u <= INT64_MAX and INT64_MIN <= v <= INT64_MAX))
    with open(path) as fh:
        data_lines = (n for n, line in enumerate(fh, start=1) if line.strip() and not line.strip().startswith("#"))
        lineno = next(islice(data_lines, k, None))
    raise InputError(f"{path}:{lineno}: vertex id outside the signed 64-bit range in '{pairs[k][0]} {pairs[k][1]}'")


def write_edge_list(path: str | Path, pairs: np.ndarray) -> None:
    with open(path, "w") as fh:
        for u, v in np.asarray(pairs, dtype=np.int64):
            fh.write(f"{u} {v}\n")


def relabel_pairs(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map arbitrary integer ids onto dense [0, n).

    Returns (dense pairs, id_map) where ``id_map[i]`` is the original id of
    dense vertex i (ascending original order).
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.size == 0:
        return pairs.reshape(0, 2), np.empty(0, dtype=np.int64)
    id_map, dense_flat = np.unique(pairs, return_inverse=True)
    return dense_flat.reshape(pairs.shape).astype(np.int64), id_map


def write_cache(path: str | Path, pairs: np.ndarray, num_vertices: int) -> None:
    np.savez_compressed(
        path,
        format_version=np.int64(CACHE_FORMAT_VERSION),
        num_vertices=np.int64(num_vertices),
        pairs=np.asarray(pairs, dtype=np.int64),
    )


def read_cache(path: str | Path) -> tuple[np.ndarray, int]:
    try:
        with np.load(path) as data:
            if "format_version" not in data or int(data["format_version"]) != CACHE_FORMAT_VERSION:
                raise InputError(f"{path}: unsupported or missing cache format version")
            missing = [key for key in ("pairs", "num_vertices") if key not in data]
            if missing:
                raise InputError(f"{path}: cache has no {' or '.join(missing)} array")
            return data["pairs"].astype(np.int64), int(data["num_vertices"])
    except (zipfile.BadZipFile, zlib.error, EOFError, ValueError) as exc:
        raise InputError(f"{path}: truncated or corrupt cache ({exc})") from exc


def load_pairs(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read text or binary edges and densify ids.

    Returns (dense pairs, id_map).  Binary caches are assumed dense already.
    """
    path = Path(path)
    if path.suffix == ".npz":
        pairs, n = read_cache(path)
        return pairs, np.arange(n, dtype=np.int64)
    raw = read_edge_list(path)
    if raw.size == 0:
        raise InputError(f"{path}: no edges found")
    return relabel_pairs(raw)


def dedup_pairs(pairs: np.ndarray) -> np.ndarray:
    """Collapse duplicate undirected pairs (orientation-insensitive)."""
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.size == 0:
        return pairs.reshape(0, 2)
    canon = np.stack([pairs.min(axis=1), pairs.max(axis=1)], axis=1)
    return np.unique(canon, axis=0)


def write_parts(path: str | Path, parts: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(str(int(x)) for x in parts))
        fh.write("\n")


def read_parts(path: str | Path) -> np.ndarray:
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                values.append(int(stripped))
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: non-integer part label {stripped!r}") from exc
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        pass
    # some label does not fit int64; as in read_edge_list, the line is
    # located only now so the common path pays nothing for it
    k = next(i for i, x in enumerate(values) if not INT64_MIN <= x <= INT64_MAX)
    with open(path) as fh:
        lineno = next(islice((n for n, line in enumerate(fh, start=1) if line.strip()), k, None))
    raise InputError(f"{path}:{lineno}: part label {values[k]} outside the signed 64-bit range")


def write_id_map(path: str | Path, id_map: np.ndarray) -> None:
    """Original id of each dense vertex, one per line."""
    with open(path, "w") as fh:
        for gid in id_map:
            fh.write(f"{int(gid)}\n")
