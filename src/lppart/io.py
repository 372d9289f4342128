"""File formats: edge-list text, binary edge cache, partition files.

Text files are UTF-8, and ``\\n``, ``\\r\\n`` and a lone ``\\r`` each end a line,
as in Python's text mode.  Edge-list text is one ``u v`` pair per line,
whitespace separated; fields after the second are ignored, and blank lines
and lines whose first non-blank character is ``#`` are skipped.  Input ids
may be arbitrary integers; ``relabel_pairs`` maps them onto dense [0, n) in
ascending original order, in the narrowest id type that holds n - 1
(``graph.id_dtype``), and returns the mapping.  Ids that are already
nonnegative and below the number of endpoints are relabelled by a mark
table and a prefix sum, without a sort; ``dedup_pairs`` orders the canonical
pairs by stable radix passes (``graph.stable_order``), not a comparison sort.

The binary cache is an ``.npz`` with three members: ``format_version`` (the
integer scalar 1), ``num_vertices`` (an int64 scalar) and ``pairs``.  Every member is stored,
not deflated, so loading one is a copy rather than zlib inflation.  ``pairs``
is stored in the narrowest unsigned type (uint8, uint16 or uint32) that holds
every id when all ids lie in [0, 2**32), and as int64 otherwise
(``graph.id_dtype``); the reader returns it in the type it was stored in, so
the cache round-trips exactly and its ids reach ``graph.build_csr`` without
an int64 copy.  Caches written deflated with int64 pairs by earlier versions
read back as int64.  A cache whose ``pairs`` are not integers, or whose
``num_vertices`` is not a nonnegative integer, is refused.

A partition file has exactly n lines; line i is the (ASCII decimal) part of
dense vertex i.

The edge-list reader reads the file's bytes once and parses the whole text
in one ``np.loadtxt`` call, after one regular expression has cut the
whole-line comments.  The partition reader parses the bytes as a uint8 array:
it accepts a file whose bytes are only digits, ``-``, ``\\n`` and ``\\r``, and
whose every non-blank line is an optional ``-`` and 1-18 digits, and takes
the values by Horner's rule over digit columns.  Whatever either fast path
refuses -- a malformed line, an id past int64, bad UTF-8, blanks around a
label, or a token that Python's ``int`` takes and the fast path does not,
such as ``1_000`` -- is read again by a plain line loop, which returns the
array or raises an ``InputError`` naming the file and line.  The fast paths
therefore never accept a file the loop rejects, and never return a different
array.

The writers format integers as ASCII decimal with array arithmetic (digit
counts, prefix-summed offsets, one pass per digit column), in blocks of at
most ``_BLOCK`` values, and write through text-mode files.
"""

from __future__ import annotations

import re
import warnings
import zipfile
import zlib
from io import StringIO
from pathlib import Path

import numpy as np

from .errors import InputError
from .graph import id_dtype, stable_order

CACHE_FORMAT_VERSION = 1
INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1  # the range of input vertex ids and part labels
_COMMENT_LINE = re.compile(r"\n[^\S\n]*#[^\n]*")  # matched after a newline, so a leading literal keeps the scan fast
_BLOCK = 1 << 16  # values the writers format at a time, so their temporaries stay bounded at any n
_MAX_DIGITS = 18  # the byte parser's widest label: any 18 digits fit int64


def _universal_newlines(text: str) -> str:
    """Turn ``\\r\\n`` and a lone ``\\r`` into ``\\n``, as text-mode reading does."""
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _loadtxt_int64(data: bytes) -> np.ndarray | None:
    """The (m, 2) int64 table of the first two fields of the edge list's data
    lines in one numpy pass, or None where numpy refuses the text or it has no
    data lines (the caller's loop then decides)."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    text = _universal_newlines(text)
    if "#" in text:
        text = _COMMENT_LINE.sub("\n", "\n" + text)
    if not text or text.isspace():
        return None
    try:
        # a warning (numpy < 2 parses "1.0" into an int with a DeprecationWarning) means numpy read
        # the text more loosely than ``int`` would, so it refuses the file like an error does
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(StringIO(text), dtype=np.int64, comments=None, usecols=(0, 1), ndmin=2)
    except (ValueError, Warning):
        return None


def _text_lines(path: str | Path, data: bytes) -> list[str]:
    """The file's lines as text-mode reading splits them; bad UTF-8 raises at its line."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = _universal_newlines(data[: exc.start].decode("utf-8")).count("\n") + 1
        raise InputError(f"{path}:{lineno}: not valid UTF-8") from None
    return _universal_newlines(text).split("\n")


def read_edge_list(path: str | Path) -> np.ndarray:
    """Parse (u, v) pairs from text; raises ``InputError`` naming a bad line."""
    data = Path(path).read_bytes()
    table = _loadtxt_int64(data)
    return table if table is not None else _read_edge_list_loop(path, data)


def _read_edge_list_loop(path: str | Path, data: bytes) -> np.ndarray:
    """``read_edge_list`` one line at a time: the reference for every file, and
    the reader of those numpy refuses."""
    pairs: list[tuple[int, int]] = []
    linenos: list[int] = []
    for lineno, line in enumerate(_text_lines(path, data), start=1):
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
        linenos.append(lineno)
    if not pairs:
        return np.empty((0, 2), dtype=np.int64)
    try:
        return np.asarray(pairs, dtype=np.int64)
    except OverflowError:
        pass
    # some id does not fit int64; every line parsed, so a malformed line later in the file wins
    k = next(i for i, (u, v) in enumerate(pairs) if not (INT64_MIN <= u <= INT64_MAX and INT64_MIN <= v <= INT64_MAX))
    raise InputError(f"{path}:{linenos[k]}: vertex id outside the signed 64-bit range in '{pairs[k][0]} {pairs[k][1]}'")


def _decimal_text(values: np.ndarray, ends: str) -> str:
    """Each int64 of the 2-D ``values``, row by row, in ASCII decimal followed
    by its column's terminator ``ends[j]``.

    Magnitudes are read in uint64 (``np.abs`` leaves ``INT64_MIN`` as is, and
    its uint64 view is 2**63, so it needs no special path), then in the
    narrowest unsigned type that holds the largest.  The digit counts give
    each value's slot by a prefix sum.  Each pass writes one digit column,
    widest first, at every value's slot; where a value is narrower than the
    column the byte lands left of its first digit, on a slot that a later
    pass, or the terminators and signs written last, overwrite.  The first
    value's such bytes land in ``pad`` leading bytes that are cut off.
    """
    if not values.size:
        return ""
    values = values.ravel()
    neg = values < 0
    mag = np.abs(values).view(np.uint64)
    mag = mag.astype(np.min_scalar_type(mag.max()), copy=False)
    width = len(str(mag.max()))
    digits = np.ones(len(mag), dtype=np.uint8)
    for power in range(1, width):
        digits += mag >= 10**power
    pad = width - 1
    pos = np.cumsum(digits + neg + np.uint8(1), dtype=np.intp)  # one past each terminator, not counting the pad
    out = np.empty(int(pos[-1]) + pad, dtype=np.uint8)
    pos -= 2  # each value's widest-column slot: its terminator's, pos - 1 + pad, less width
    upper = 0
    for col in range(width - 1, -1, -1):
        shifted = mag // 10**col if col else mag  # numpy divides by a constant fast; its % is several times slower
        out[pos] = shifted - upper * 10 + ord("0")
        upper = shifted
        pos += 1
    for j, end in enumerate(ends.encode("ascii")):
        out[pos[j :: len(ends)]] = end
    if neg.any():
        out[(pos - digits - 1)[neg]] = ord("-")
    return out[pad:].tobytes().decode("ascii")


def _decimal_blocks(values: np.ndarray, ends: str):
    """``_decimal_text`` of ``values`` (``len(ends)`` per line) in blocks of at most ``_BLOCK`` values."""
    values = np.asarray(values, dtype=np.int64).reshape(-1, len(ends))
    rows = max(1, _BLOCK // len(ends))
    for lo in range(0, len(values), rows):
        yield _decimal_text(values[lo : lo + rows], ends)


def edge_list_text(pairs: np.ndarray) -> str:
    """The edge-list text of ``pairs``: one ``u v`` line per pair."""
    return "".join(_decimal_blocks(pairs, " \n"))


def write_edge_list(path: str | Path, pairs: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.writelines(_decimal_blocks(pairs, " \n"))


def relabel_pairs(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map arbitrary integer ids onto dense [0, n).

    Returns (dense pairs, id_map) where ``id_map[i]`` is the original id of
    dense vertex i (ascending original order), the values
    ``np.unique(pairs, return_inverse=True)`` gives.  The dense pairs are in
    ``id_dtype(n - 1)`` (uint8 when there are none), and ``id_map`` is int64.
    When every id is nonnegative and below the number of endpoints, the ids
    that occur are marked in a table no longer than the pair array and
    numbered by a prefix sum, in O(n + m) without a sort; negative or sparse
    ids go through ``np.unique``.
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.size == 0:
        return np.empty((0, 2), dtype=id_dtype(0)), np.empty(0, dtype=np.int64)
    lo, hi = pairs.min(), pairs.max()
    if lo < 0 or hi >= pairs.size:
        id_map, dense_flat = np.unique(pairs, return_inverse=True)
        return dense_flat.reshape(pairs.shape).astype(id_dtype(len(id_map) - 1)), id_map
    mark = np.zeros(hi + 1, dtype=bool)
    mark[pairs] = True
    rank = np.cumsum(mark, dtype=id_dtype(np.count_nonzero(mark) - 1))
    # the prefix sum reaches n, which wraps when n - 1 is the type's top; the
    # sum and this subtraction are exact modulo the type's range, which holds every dense id
    rank -= 1
    return rank[pairs], np.flatnonzero(mark)


def _stored_dtype(pairs: np.ndarray) -> np.dtype:
    """``id_dtype`` of the largest id of the int64 ``pairs`` if none is
    negative, else int64."""
    if not pairs.size:
        return id_dtype(0)
    # decided apart from the signed case: np.result_type of an unsigned and a signed type can be float64
    return id_dtype(int(pairs.max())) if pairs.min() >= 0 else np.dtype(np.int64)


def write_cache(path: str | Path, pairs: np.ndarray, num_vertices: int) -> None:
    pairs = np.asarray(pairs, dtype=np.int64)
    np.savez(
        path,
        format_version=np.int64(CACHE_FORMAT_VERSION),
        num_vertices=np.int64(num_vertices),
        pairs=pairs.astype(_stored_dtype(pairs), copy=False),
    )


def read_cache(path: str | Path) -> tuple[np.ndarray, int]:
    """The cache's pairs, in the integer type they were stored in, and its vertex count."""
    try:
        with np.load(path) as data:
            version = data.get("format_version")
            # held to num_vertices' rule, a 0-d integer: int() of a float or an array would pass or raise
            if version is None or version.shape != () or version.dtype.kind not in "iu" or version != CACHE_FORMAT_VERSION:
                raise InputError(f"{path}: unsupported or missing cache format version")
            missing = [key for key in ("pairs", "num_vertices") if key not in data]
            if missing:
                raise InputError(f"{path}: cache has no {' or '.join(missing)} array")
            pairs, n = data["pairs"], data["num_vertices"]
    except (zipfile.BadZipFile, zlib.error, EOFError, ValueError) as exc:
        raise InputError(f"{path}: truncated or corrupt cache ({exc})") from exc
    if pairs.dtype.kind not in "iu" or (pairs.dtype == np.uint64 and pairs.size and pairs.max() > INT64_MAX):
        raise InputError(f"{path}: cache pairs must be integer ids within int64, got dtype {pairs.dtype}")
    if n.shape != () or n.dtype.kind not in "iu" or n < 0:
        raise InputError(f"{path}: cache num_vertices must be a nonnegative integer, got {n} of dtype {n.dtype}")
    return pairs, int(n)


def load_pairs(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read text or binary edges and densify ids.

    Returns (dense pairs, id_map).  Binary caches are assumed dense already,
    and their pairs come back in their stored type; one whose vertex count no
    int64 array holds (the id map is one) is refused, naming the file.  Text
    ids come back in ``relabel_pairs``' type.
    """
    path = Path(path)
    if path.suffix == ".npz":
        pairs, n = read_cache(path)
        if n > np.iinfo(np.intp).max // 8:
            raise InputError(f"{path}: cache num_vertices {n} is more than one int64 array holds")
        return pairs, np.arange(n, dtype=np.int64)
    raw = read_edge_list(path)
    if raw.size == 0:
        raise InputError(f"{path}: no edges found")
    return relabel_pairs(raw)


def dedup_pairs(pairs: np.ndarray) -> np.ndarray:
    """Collapse duplicate undirected pairs (orientation-insensitive).

    Returns the distinct canonical ``(min, max)`` rows in ascending
    lexicographic order, the array ``np.unique(canon, axis=0)`` returns, in
    the pairs' integer type.  The rows are ordered by two stable radix
    passes, by ``max`` and then by ``min``, and adjacent repeats are dropped.
    """
    pairs = np.asarray(pairs)
    if pairs.size == 0:
        return pairs.reshape(0, 2)
    lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
    order = stable_order(hi)
    order = order[stable_order(lo[order])]
    lo, hi = lo[order], hi[order]
    first = np.concatenate(([True], (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])))
    return np.stack([lo[first], hi[first]], axis=1)


def write_parts(path: str | Path, parts: np.ndarray) -> None:
    """One label per line; an empty partition is one empty line."""
    parts = np.asarray(parts, dtype=np.int64)
    with open(path, "w") as fh:
        fh.writelines(_decimal_blocks(parts, "\n"))
        if not parts.size:
            fh.write("\n")


def read_parts(path: str | Path) -> np.ndarray:
    """One int64 part label per non-blank line; raises ``InputError`` naming a bad line."""
    data = Path(path).read_bytes()
    parts = _parse_parts(data)
    return parts if parts is not None else _read_parts_loop(path, data)


def _parse_parts(data: bytes) -> np.ndarray | None:
    """The labels of a file whose lines, split at every ``\\n`` and ``\\r`` with
    the empty ones dropped, are each an optional ``-`` and 1-18 ASCII digits;
    None for any other file."""
    b = np.frombuffer(data, dtype=np.uint8)
    digit = b - ord("0")  # wraps, so only '0'..'9' fall below 10
    is_digit = digit < 10
    minus = b == ord("-")
    signs = np.count_nonzero(minus)
    newlines = np.count_nonzero(b == ord("\n")) + np.count_nonzero(b == ord("\r"))
    if np.count_nonzero(is_digit) + signs + newlines != len(b):
        return None
    text = np.zeros(len(b) + 2, dtype=bool)
    np.logical_or(is_digit, minus, out=text[1:-1])
    bounds = np.flatnonzero(text[1:] != text[:-1])  # each line's first byte, then one past its last
    start, stop = bounds[0::2], bounds[1::2]
    neg = minus[start]
    width = np.subtract(stop, start, out=start)  # in place: the per-line arrays are the largest here
    width -= neg
    if signs != np.count_nonzero(neg) or (len(width) and not 1 <= width.min() <= width.max() <= _MAX_DIGITS):
        return None  # a '-' past a line's first byte, or a line of no digits or too many
    values = np.zeros(len(width), dtype=np.int64)
    top = int(width.max(initial=0))
    # right-aligned columns; left of a short label they read bytes the mask drops (a negative
    # index wraps, and stays in range because some line has ``top`` digits)
    at = np.subtract(stop, top, out=stop)
    for col in range(top - 1, -1, -1):
        values *= 10
        values += digit[at] * (width > col)
        at += 1
    np.negative(values, out=values, where=neg)
    return values


def _read_parts_loop(path: str | Path, data: bytes) -> np.ndarray:
    """``read_parts`` one line at a time, as ``_read_edge_list_loop`` is for edges."""
    values: list[int] = []
    linenos: list[int] = []
    for lineno, line in enumerate(_text_lines(path, data), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            values.append(int(stripped))
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: non-integer part label {stripped!r}") from exc
        linenos.append(lineno)
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        pass
    k = next(i for i, x in enumerate(values) if not INT64_MIN <= x <= INT64_MAX)
    raise InputError(f"{path}:{linenos[k]}: part label {values[k]} outside the signed 64-bit range")


def write_id_map(path: str | Path, id_map: np.ndarray) -> None:
    """Original id of each dense vertex, one per line."""
    with open(path, "w") as fh:
        fh.writelines(_decimal_blocks(id_map, "\n"))
