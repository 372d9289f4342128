"""Whole-graph CSR storage, vertex-to-task distributions, and per-task local graphs.

The whole graph is an undirected multigraph in compressed sparse row form:
every undirected edge appears in both endpoints' neighbor lists.  Self-loops
are dropped at construction; duplicate edges are kept (deduplication is a
caller decision).  A ``Distribution`` assigns every vertex to exactly one
owning task; ``distribute`` then builds one ``LocalGraph`` per task holding
the owned vertices, their adjacency re-indexed to task-local slots, ghost
entries for one-hop neighbors owned elsewhere, and the send plan that says
which tasks ghost each owned vertex and in which of their slots.  A task
keeps every adjacency entry of its owned rows, so an edge between two tasks
is held by both and every per-task edge tally counts each edge from both
ends; summed over tasks, such tallies are twice the edge counts.

No set-up step uses a comparison sort.  ``stable_order`` is the one ordering
primitive: a least-significant-digit radix sort over 16-bit digits, so the
CSR build is a stable counting sort of the edges by source, O(n + m) per 16
bits of vertex id, and ``distribute`` orders owned vertices, ghosts and send
plan entries the same way.  The CSR build holds vertex ids in ``id_dtype``,
the narrowest type that holds n - 1, as the readers return them, and widens
only the finished neighbor array to int64.

Selections by a mixed mask take ``a[np.flatnonzero(mask)]``: numpy's boolean
index branches on every element, and at 30-70% true it runs 3-4.5 times slower
than a take by index.  That covers the edge list's ``u < v`` (half the
entries) and ``distribute``'s ghost filter and ghost dedupe.  A
mask that is nearly all true, nearly all false or true in runs, where the
boolean form is as fast or faster, stays a mask: the CSR's self-loop drop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, InputError
from .seeds import mix64

BLOCK = "block"
RANDOM_HASH = "random-hash"


@dataclass(frozen=True)
class GlobalGraph:
    """Symmetric CSR over dense vertex ids [0, n)."""

    num_vertices: int
    num_edges: int  # undirected edge count; neighbor list has 2 * num_edges entries
    offsets: np.ndarray  # int64, length num_vertices + 1, nondecreasing
    nbrs: np.ndarray  # int64, length 2 * num_edges

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def neighbors(self, v: int) -> np.ndarray:
        return self.nbrs[self.offsets[v] : self.offsets[v + 1]]

    @cached_property
    def edge_list(self) -> tuple[np.ndarray, np.ndarray]:
        """Each undirected edge once as int64 columns ``(u, v)`` with ``u < v``,
        ordered by ``u`` and then by position in ``u``'s neighbor list.

        Built on first use and kept, read-only, for the graph's lifetime, so
        every whole-graph tally after the first reads it instead of
        rebuilding it.
        """
        src = np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.degrees)
        once = np.flatnonzero(src < self.nbrs)
        u, v = src[once], self.nbrs[once]
        u.flags.writeable = v.flags.writeable = False
        return u, v


def stable_order(keys) -> np.ndarray:
    """The permutation ``np.argsort(keys, kind="stable")`` returns, in O(N) per pass.

    A least-significant-digit radix sort of the integer ``keys``: they are
    shifted by their minimum, so the number of 16-bit digits is set by their
    span, and each digit is ordered by one stable argsort of ``uint16``
    values, which numpy runs as a counting (radix) sort.  Keys of at most
    16 bits, or spanning fewer than 2^16 values, take a single pass.
    """
    keys = np.asarray(keys)
    if keys.dtype.itemsize <= 2 or keys.size == 0:
        return np.argsort(keys, kind="stable")
    lo, hi = keys.min(), keys.max()
    width = (int(hi) - int(lo)).bit_length()
    # offsets from the minimum as unsigned ints of the same width: exact even across the int64 range
    unsigned = np.dtype(f"u{keys.dtype.itemsize}")
    shifted = keys.view(unsigned)
    if lo:
        shifted = shifted - np.array(lo, dtype=keys.dtype).view(unsigned)
    order = np.argsort(shifted.astype(np.uint16), kind="stable")
    for shift in range(16, width, 16):
        digit = (shifted >> shift).astype(np.uint16)
        order = order[np.argsort(digit[order], kind="stable")]
    return order


def id_dtype(max_id: int) -> np.dtype:
    """The narrowest type that holds every vertex id in [0, ``max_id``]:
    uint8, uint16 or uint32, and int64 past 2^32, since ``np.bincount``
    refuses uint64."""
    return np.min_scalar_type(max_id) if 0 <= max_id < 1 << 32 else np.dtype(np.int64)


def build_csr(pairs, num_vertices: int) -> GlobalGraph:
    """Build a symmetric CSR from (u, v) pairs by a stable counting sort.

    The pairs may have any integer type.  The sources ``[u, v]`` and the
    other endpoints ``[v, u]`` are held in ``id_dtype(n - 1)``, so a pass
    reads 2 bytes per id when n <= 2^16.  The offsets are the prefix sums of
    the sources' counts; the neighbor lists are the other endpoints placed
    in the ``stable_order`` of their source, so each vertex lists its edges
    in input order, those where it is ``u`` before those where it is ``v``.
    Only the finished neighbor array is widened to int64.  It costs
    O(n + m) per 16 bits of vertex id: one pass up to n = 2^16.

    Self-loops are dropped; duplicate pairs are retained with multiplicity.
    An empty array of any type is the edgeless graph.  Raises ``InputError``
    naming the dtype if the ids are not integers, and naming the first
    offending pair if an endpoint is outside [0, num_vertices).
    """
    n = int(num_vertices)
    if n < 0:
        raise InputError(f"vertex count must be nonnegative, got {n}")
    arr = np.asarray(pairs)
    if arr.size == 0:
        arr = np.empty((0, 2), dtype=np.uint8)
    elif arr.dtype.kind not in "iu":
        raise InputError(f"vertex ids must be integers, got dtype {arr.dtype}")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InputError("edge list must be a sequence of (u, v) pairs")

    if arr.size and (arr.min() < 0 or arr.max() >= n):
        idx = int(np.nonzero(((arr < 0) | (arr >= n)).any(axis=1))[0][0])
        u, v = arr[idx]
        raise InputError(f"edge {idx}: endpoint out of range [0, {n}) in pair ({u}, {v})")

    u, v = arr[:, 0], arr[:, 1]
    keep = u != v
    if not keep.all():
        u, v = u[keep], v[keep]
    m = len(u)

    ids = id_dtype(max(n - 1, 0))
    src, other = np.empty(2 * m, dtype=ids), np.empty(2 * m, dtype=ids)
    src[:m] = other[m:] = u
    src[m:] = other[:m] = v
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    nbrs = other[stable_order(src)].astype(np.int64)
    return GlobalGraph(num_vertices=n, num_edges=m, offsets=offsets, nbrs=nbrs)


@dataclass(frozen=True)
class Distribution:
    """Pure vertex -> owning-task function.

    ``block`` owns contiguous id ranges whose sizes differ by at most one
    (the ``cuts`` array holds range starts); ``random-hash`` owns
    ``mix64(v, seed) % num_tasks``.
    """

    kind: str
    num_tasks: int
    cuts: np.ndarray | None = None  # block only: range starts, length num_tasks + 1
    seed: int = 0  # random-hash only

    def owner_of(self, vertices) -> np.ndarray:
        v = np.asarray(vertices, dtype=np.int64)
        if self.kind == BLOCK:
            return (np.searchsorted(self.cuts, v, side="right") - 1).astype(np.int64)
        return (mix64(v, self.seed) % np.uint64(self.num_tasks)).astype(np.int64)


def block_cuts(num_vertices: int, num_tasks: int) -> np.ndarray:
    """Range starts for contiguous blocks covering [0, n), sizes differing by <= 1."""
    base, extra = divmod(num_vertices, num_tasks)
    sizes = np.full(num_tasks, base, dtype=np.int64)
    sizes[:extra] += 1
    cuts = np.zeros(num_tasks + 1, dtype=np.int64)
    np.cumsum(sizes, out=cuts[1:])
    return cuts


def make_distribution(kind: str, num_vertices: int, num_tasks: int, seed: int = 0) -> Distribution:
    if num_tasks < 1:
        raise ConfigError(f"task count must be >= 1, got {num_tasks}")
    if num_tasks > num_vertices:
        raise ConfigError(f"task count {num_tasks} exceeds vertex count {num_vertices}; every task must own a vertex")
    if kind == BLOCK:
        return Distribution(kind=BLOCK, num_tasks=num_tasks, cuts=block_cuts(num_vertices, num_tasks))
    if kind == RANDOM_HASH:
        return Distribution(kind=RANDOM_HASH, num_tasks=num_tasks, seed=seed)
    raise ConfigError(f"unknown distribution kind {kind!r}")


@dataclass
class LocalGraph:
    """One task's share of the graph.

    Local slots [0, num_owned) are the owned vertices in ascending global id;
    slots [num_owned, num_slots) are ghosts (one-hop neighbors owned
    elsewhere), also ascending.  ``local_to_global`` holds every slot's
    global id once; ``owned`` and ``ghosts`` are views of its two ranges.
    ``nbr_slots`` holds the local CSR adjacency of owned vertices in slot
    indices, every entry of every owned row, so an edge to another task's
    vertex is held by both tasks.  ``degrees`` carries the *global* degree
    of every slot so weighting functions can read ghost degrees without
    communication.

    The send plan is a CSR over the owned rows: row r's entries
    ``plan_offsets[r]:plan_offsets[r + 1]`` name, in ascending order, every
    other task that ghosts the row (``plan_dest``) and the ghost slot the row
    has there (``plan_slot``).  A task's plan entries over all senders are
    exactly its ghosts, so every array here is O(owned + ghosts + edges):
    no field grows with the vertex count of the whole graph.
    """

    task: int
    num_tasks: int
    num_owned: int
    local_to_global: np.ndarray  # global id per slot: the owned ids, then the ghosts', each ascending
    offsets: np.ndarray  # local CSR offsets over owned, length num_owned + 1
    nbr_slots: np.ndarray  # neighbor local slot per directed edge
    degrees: np.ndarray  # global degree per local slot
    edge_src: np.ndarray  # owned local row per directed edge

    # send plan, filled by distribute()
    plan_offsets: np.ndarray = field(default=None, repr=False)  # CSR offsets over owned, length num_owned + 1
    plan_dest: np.ndarray = field(default=None, repr=False)  # task that ghosts the row, ascending per row
    plan_slot: np.ndarray = field(default=None, repr=False)  # the row's ghost slot on that task

    @property
    def owned(self) -> np.ndarray:
        """Global ids of the owned slots, ascending: a view of ``local_to_global``."""
        return self.local_to_global[: self.num_owned]

    @property
    def ghosts(self) -> np.ndarray:
        """Global ids of the ghost slots, ascending: a view of ``local_to_global``."""
        return self.local_to_global[self.num_owned :]

    @property
    def num_ghosts(self) -> int:
        return self.num_slots - self.num_owned

    @property
    def num_slots(self) -> int:
        return len(self.local_to_global)

    def neighbors(self, local_row: int) -> np.ndarray:
        return self.nbr_slots[self.offsets[local_row] : self.offsets[local_row + 1]]

    @cached_property
    def slot_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The owned rows next to each slot, as a CSR over slots ``(offsets, rows)``.

        Slot s's rows ``rows[offsets[s]:offsets[s + 1]]`` are ascending, one
        per adjacency entry that points at s, so a label change at s alters
        exactly those rows' neighbor counts.  Built on first use by one
        ``stable_order`` of ``nbr_slots`` and kept for the graph's lifetime,
        in int32 while the entries fit.
        """
        index = np.int32 if len(self.nbr_slots) < 2**31 else np.int64
        offsets = np.zeros(self.num_slots + 1, dtype=index)
        np.cumsum(np.bincount(self.nbr_slots, minlength=self.num_slots), out=offsets[1:])
        return offsets, self.edge_src[stable_order(self.nbr_slots)].astype(index)


def _build_local(
    g: GlobalGraph, dist: Distribution, owners: np.ndarray, degrees: np.ndarray, task: int, owned: np.ndarray, slot_of: np.ndarray
) -> LocalGraph:
    """One task's LocalGraph from its ``owned`` ids (ascending); ``slot_of`` is length-n scratch shared by all tasks."""
    starts = g.offsets[owned]
    counts = g.offsets[owned + 1] - starts
    offsets = np.zeros(len(owned) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])

    total = int(offsets[-1])
    gather = np.repeat(starts - offsets[:-1], counts) + np.arange(total, dtype=np.int64) if total else np.empty(0, dtype=np.int64)
    nbr_gids = g.nbrs[gather]

    # np.unique by radix sort and compare: the same array, without a comparison sort
    ghosts = nbr_gids[np.flatnonzero(owners[nbr_gids] != task)]
    ghosts = ghosts[stable_order(ghosts)]
    ghosts = ghosts[np.flatnonzero(np.concatenate(([True], ghosts[1:] != ghosts[:-1])))] if len(ghosts) else ghosts

    # every neighbor is owned or a ghost, so each entry read here was just written
    slot_of[owned] = np.arange(len(owned), dtype=np.int64)
    slot_of[ghosts] = len(owned) + np.arange(len(ghosts), dtype=np.int64)
    nbr_slots = slot_of[nbr_gids]

    local_to_global = np.concatenate([owned, ghosts])
    return LocalGraph(
        task=task,
        num_tasks=dist.num_tasks,
        num_owned=len(owned),
        local_to_global=local_to_global,
        offsets=offsets,
        nbr_slots=nbr_slots,
        degrees=degrees[local_to_global],
        edge_src=np.repeat(np.arange(len(owned), dtype=np.int64), counts),
    )


def _attach_send_plans(local_graphs: list[LocalGraph], num_vertices: int) -> None:
    """Fill every task's send plan from the ghost lists of all tasks.

    The graph is symmetric, so task d ghosts vertex v exactly when v's owner
    must send v's label to d.  Each ghost slot is therefore one plan entry
    of its owner: sorted by owner, then vertex, then destination, the ghost
    lists become the owners' plans in row order.
    """
    T = len(local_graphs)
    # every vertex's position in owner-major order: task 0's rows, then task 1's, ...
    rank = np.empty(num_vertices, dtype=np.int64)
    rank[np.concatenate([lg.owned for lg in local_graphs])] = np.arange(num_vertices, dtype=np.int64)
    ghost_rank = rank[np.concatenate([lg.ghosts for lg in local_graphs])]
    # the narrowest unsigned type: an exchange's stable sort by destination is then a radix sort
    dest = np.repeat(np.arange(T, dtype=np.min_scalar_type(T - 1)), [lg.num_ghosts for lg in local_graphs])
    slots = np.concatenate([lg.num_owned + np.arange(lg.num_ghosts, dtype=np.int64) for lg in local_graphs])
    # the ghost lists are concatenated in task order, so a stable sort by rank keeps each row's destinations ascending
    order = stable_order(ghost_rank)
    dest, slots = dest[order], slots[order]
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(ghost_rank, minlength=num_vertices), out=offsets[1:])
    first = 0
    for lg in local_graphs:
        rows = offsets[first : first + lg.num_owned + 1]
        lg.plan_offsets = rows - rows[0]
        lg.plan_dest = dest[rows[0] : rows[-1]]
        lg.plan_slot = slots[rows[0] : rows[-1]]
        first += lg.num_owned


def distribute(g: GlobalGraph, dist: Distribution) -> list[LocalGraph]:
    """Split ``g`` into one LocalGraph per task under ``dist``."""
    if dist.num_tasks > g.num_vertices:
        raise ConfigError(f"task count {dist.num_tasks} exceeds vertex count {g.num_vertices}; every task must own a vertex")
    T = dist.num_tasks
    owners = dist.owner_of(np.arange(g.num_vertices, dtype=np.int64))
    # every task's owned ids, ascending, as one slice of a stable sort by owner
    by_owner = stable_order(owners)
    bounds = np.zeros(T + 1, dtype=np.int64)
    np.cumsum(np.bincount(owners, minlength=T), out=bounds[1:])
    degrees = g.degrees
    slot_of = np.empty(g.num_vertices, dtype=np.int64)
    local_graphs = [_build_local(g, dist, owners, degrees, t, by_owner[bounds[t] : bounds[t + 1]], slot_of) for t in range(T)]
    _attach_send_plans(local_graphs, g.num_vertices)
    return local_graphs
