"""Partition quality metrics, diameter estimation, and cross-method ratios.

Cut conventions: the global edge cut counts each undirected edge once, while
the per-part cut counts a cut edge toward *both* endpoint parts (so the sum
of per-part cuts is twice the global cut).  ``scaled_max_cut`` normalizes the
max per-part cut by the average cut per part (edge_cut / p);
``scaled_max_cut_alt`` normalizes by the average edges per part (m / p).
Both are reported because either reading of "average edges per part" is
defensible.

The distributed variants compute the same quantities from per-task local
views: every task tallies each adjacency entry of its owned rows, so each
edge is counted once from each end, and the sum over tasks is halved after
the all-reduce.  The per-task counts that check the partitioner's ledger
(once when it is made and once at every phase exit) and the global counts
behind the report share one tally, fed the parts at the two ends of each
counted edge: for the report, each edge once; for a task, each of its
adjacency entries.
The whole-graph tallies and the components read each edge once from
``GlobalGraph.edge_list``, which the first of them builds.

The diameter estimate runs its sweeps on the largest connected component.
Components come from hook-and-shortcut union-find in O(log n) array rounds,
labelled in order of each component's smallest vertex; the first round hooks
every edge as it stands, since every vertex starts as its own root.  Each
sweep is a direction-optimizing breadth-first search: a level expands
top-down from the frontier, or bottom-up from the unvisited vertices once a
constant times the frontier's edges exceeds the edges left to visit.  A
bottom-up level reads each unvisited row in growing stages and stops at the
first stage that meets the frontier, so it reads at most the unvisited
vertices' edges; every level costs O(frontier edges) and every sweep
O(n + m).  The sweeps' frontier and unvisited lists are selected by index
(``np.flatnonzero``), as their masks are mixed and a boolean index branches
on every element; the components' live-edge filter, true for about 1% of the
edges in its first round on rmat and for none after, stays a mask.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import asdict, dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError
from .graph import GlobalGraph, LocalGraph
from .seeds import rng_for

REPORT_SCHEMA_VERSION = 1


def _check_parts(g: GlobalGraph, parts: np.ndarray) -> np.ndarray:
    parts = np.asarray(parts, dtype=np.int64)
    if len(parts) != g.num_vertices:
        raise InputError(f"partition length {len(parts)} != vertex count {g.num_vertices}")
    return parts


def edge_cut(g: GlobalGraph, parts) -> int:
    """Number of undirected edges whose endpoints are in different parts."""
    parts = _check_parts(g, parts)
    u, v = g.edge_list
    return int((parts[u] != parts[v]).sum())


def max_part_cut(g: GlobalGraph, parts) -> tuple[int, int]:
    """(max over parts of cut edges incident to the part, argmax part).

    Ties break to the lower part index.
    """
    parts = _check_parts(g, parts)
    p = int(parts.max()) + 1 if len(parts) else 1
    per_part = per_part_cut(g, parts, p)
    winner = int(per_part.argmax())
    return int(per_part[winner]), winner


def per_part_cut(g: GlobalGraph, parts, num_parts: int) -> np.ndarray:
    """Cut edges incident to each part (each cut edge counts toward both endpoint parts)."""
    return part_counts(g, parts, num_parts)[2]


def _imbalances(g: GlobalGraph, verts: np.ndarray, intra: np.ndarray, p: int) -> tuple[float, float]:
    v_imb = float(verts.max() * p / g.num_vertices) if g.num_vertices else 0.0
    e_imb = float(intra.max() * p / g.num_edges) if g.num_edges else 0.0
    return v_imb, e_imb


def imbalance(g: GlobalGraph, parts, num_parts: int | None = None) -> tuple[float, float]:
    """(vertex imbalance, edge imbalance): max part size over the p-way average.

    Edge imbalance counts intra-part edges; with no edges it is 0.  Without
    ``num_parts``, p is the largest label + 1, or 1 for an empty partition.
    """
    parts = _check_parts(g, parts)
    if num_parts is None:
        num_parts = int(parts.max()) + 1 if len(parts) else 1
    verts, intra, _ = part_counts(g, parts, num_parts)
    return _imbalances(g, verts, intra, num_parts)


def _tally(vert_parts: np.ndarray, a: np.ndarray, b: np.ndarray, num_parts: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(vertices, intra edges, cut incidence) per part from the parts of the
    counted vertices and the parts ``a``, ``b`` at the two ends of each counted
    edge.  Every label must lie in [0, num_parts): ``a * p + b`` would alias an
    out-of-range end into another pair's bin."""
    p = num_parts
    verts = np.bincount(vert_parts, minlength=p)
    if p * p > len(a):
        # the p x p pair table would outgrow the edges it tallies
        intra = np.bincount(a[a == b], minlength=p)
        ends = np.bincount(a, minlength=p) + np.bincount(b, minlength=p)
    else:
        pair = np.bincount(a * p + b, minlength=p * p).reshape(p, p)
        intra = pair.diagonal().copy()
        ends = pair.sum(axis=0) + pair.sum(axis=1)
    # an edge inside part k puts k at both ends; every other end is one cut incidence
    return verts, intra, ends - 2 * intra


def part_counts(g: GlobalGraph, parts, num_parts: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(vertices, intra edges, cut incidence) per part of the whole graph.

    Raises ``InputError`` naming the first vertex whose label is outside
    [0, num_parts).
    """
    parts = _check_parts(g, parts)
    bad = (parts < 0) | (parts >= num_parts)
    if bad.any():
        vertex = int(bad.argmax())
        raise InputError(f"part labels must lie in [0, {num_parts}), got {parts[vertex]} at vertex {vertex}")
    u, v = g.edge_list
    return _tally(parts, parts[u], parts[v], num_parts)


# ---------------------------------------------------------------------------
# distributed counterparts (every adjacency entry: each edge from both ends)


def per_task_counts(lg: LocalGraph, parts: np.ndarray, num_parts: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """This task's (vertices, intra edges, cut incidence) per part, tallied
    over every adjacency entry of its owned rows, so each edge once from
    each end this task owns: summed over tasks, the vertices are the part
    sizes and the edge tallies twice the part counts.

    Raises ``InputError`` naming the first owned or ghost slot whose label is
    outside [0, num_parts).
    """
    if len(parts) and (parts.min() < 0 or parts.max() >= num_parts):
        slot = int(((parts < 0) | (parts >= num_parts)).argmax())
        raise InputError(
            f"part labels must lie in [0, {num_parts}), got {parts[slot]} at slot {slot} (vertex {lg.local_to_global[slot]})"
        )
    return _tally(parts[: lg.num_owned], parts[lg.edge_src], parts[lg.nbr_slots], num_parts)


def edge_cut_distributed(local_graphs: Sequence[LocalGraph], parts_arrays: Sequence[np.ndarray]) -> int:
    """The edge cut from per-task labels: each task counts its cut adjacency
    entries, so the sum counts every cut edge twice."""
    total = 0
    for lg, parts in zip(local_graphs, parts_arrays):
        total += int((parts[lg.edge_src] != parts[lg.nbr_slots]).sum())
    return total // 2


# ---------------------------------------------------------------------------
# diameter estimation

# A level goes bottom-up when this many times its frontier's edges exceed the
# edges left to visit.  Re-measured with staged bottom-up levels, sweeps only,
# the values alternated in one process (ratios of median times to 4's): on
# rmat scale 16 (graph seed 5) 1 ran 1.65, 2 1.00, 8 1.11 and 16 1.67; with
# graph seed 7 2 ran 1.03 and 8 1.06; rmat scale 14, er 2^14 and 2^16 and
# randhd 2^15 ran 0.87-0.97 at 2 and 1.00-1.24 at 8.  Below 4 no graph gained
# on rmat scale 16, where the diameter estimate is benchmarked.
BOTTOM_UP_ALPHA = 4

# A bottom-up level reads each unvisited row first 1 entry, then 2, then 8,
# then the rest, and drops the row at the first stage that meets the frontier.
# Over the ten sweeps on rmat scale 16 (graph seed 5), bottom-up levels visit
# 357k rows, 312k of which find a parent: whole rows are 3.74M entries, these
# stages read 0.65M, and a scan stopping at the exact entry would read 0.53M.
BOTTOM_UP_STAGES = (1, 2, 8)


def _bfs_levels(g: GlobalGraph, start: int, component: tuple[np.ndarray, int]) -> np.ndarray:
    """Distance from ``start`` (-1 where unreachable), one level per array pass.

    Each level takes one of two directions (Beamer, Asanović & Patterson,
    SC'12): top-down from the frontier, or bottom-up from the unvisited
    vertices that have an edge.  A level goes bottom-up only when
    ``BOTTOM_UP_ALPHA`` times the frontier's edges exceeds the edges of the
    unvisited vertices, which bound what that level scans, so either
    direction costs O(frontier edges).  The list of unvisited vertices starts
    as the component's and is shrunk only on bottom-up levels, so a sweep
    costs O(n + m) however many levels the graph has.

    ``component`` is ``(vertices, entries)``: the vertices with an edge in
    ``start``'s component, ascending, and the sum of their degrees.  Only
    that component's edges count as left to visit and only its vertices are
    scanned bottom-up.  ``(np.flatnonzero(g.degrees), 2 * g.num_edges)``
    searches the whole graph.

    The distances, and the scratch that drops repeated top-down entries, are
    int32 while the graph has fewer than 2^31 adjacency entries, which bound
    both a distance and a position; otherwise int64.
    """
    degrees = g.degrees
    index = np.int32 if len(g.nbrs) < 2**31 else np.int64
    dist = np.full(g.num_vertices, -1, dtype=index)
    position = np.empty(g.num_vertices, dtype=index)
    dist[start] = 0
    frontier = np.array([start], dtype=np.int64)
    counts = degrees[frontier]
    frontier_edges = int(counts[0])
    unvisited, entries = component
    unvisited_edges = entries - frontier_edges
    level = 0
    # once no unvisited vertex has an edge, none can be reached
    while frontier_edges and unvisited_edges:
        if BOTTOM_UP_ALPHA * frontier_edges > unvisited_edges:
            unvisited = unvisited[np.flatnonzero(dist[unvisited] < 0)]
            frontier = _bottom_up(g, degrees[unvisited], unvisited_edges, dist, unvisited, level)
        else:
            frontier = _top_down(g, counts, frontier_edges, dist, position, frontier)
        level += 1
        dist[frontier] = level
        counts = degrees[frontier]
        frontier_edges = int(counts.sum())
        unvisited_edges -= frontier_edges
    return dist


def _top_down(g: GlobalGraph, counts: np.ndarray, total: int, dist: np.ndarray, position: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """The unvisited neighbors of ``frontier``, whose degrees are ``counts``
    summing to ``total``, each once.

    Repeats drop without a sort: every reached entry writes its position
    into the scratch array ``position``, and the one entry per vertex that
    reads its own position back stays.
    """
    reached = g.nbrs[_row_entries(g.offsets[frontier], counts, total)[0]]
    reached = reached[np.flatnonzero(dist[reached] < 0)]
    order = np.arange(len(reached), dtype=position.dtype)
    position[reached] = order
    return reached[np.flatnonzero(position[reached] == order)]


def _bottom_up(g: GlobalGraph, counts: np.ndarray, total: int, dist: np.ndarray, unvisited: np.ndarray, level: int) -> np.ndarray:
    """The vertices of ``unvisited``, whose degrees are ``counts`` (none 0)
    summing to ``total``, that have a neighbor at ``level``, in the order of
    ``unvisited``.

    The rows are read in stages, ``BOTTOM_UP_STAGES`` entries each and then
    the rest (Beamer, Asanović & Patterson's early exit, a stage at a time).
    After each stage a row leaves the scan once it has met a neighbor at
    ``level`` or has no entries left.  No entry is read twice and only a row
    with no such neighbor is read to its end, so a level reads at most
    ``total`` entries, and on rmat graphs about a sixth of them.
    """
    found = np.zeros(len(unvisited), dtype=bool)
    rows = np.arange(len(unvisited), dtype=np.int64)  # positions in ``unvisited`` still scanning
    starts, left = g.offsets[unvisited], counts
    for width in BOTTOM_UP_STAGES + (total,):
        take = np.minimum(left, width)
        entries, begins = _row_entries(starts, take, int(take.sum()))
        near = dist[g.nbrs[entries]] == level
        # a stage of one entry per row needs no reduction
        hit = near if len(entries) == len(rows) else np.logical_or.reduceat(near, begins)
        # no row that reaches this stage was found before
        found[rows] = hit
        # the rows that go on have entries left, so no later segment is empty
        going_on = np.flatnonzero((left > take) & ~hit)
        if not len(going_on):
            break
        rows, starts, left = rows[going_on], starts[going_on] + take[going_on], left[going_on] - take[going_on]
    return unvisited[np.flatnonzero(found)]


def _row_entries(starts: np.ndarray, counts: np.ndarray, total: int) -> tuple[np.ndarray, np.ndarray]:
    """(indices into ``nbrs`` of the rows beginning at ``starts`` with
    ``counts`` entries summing to ``total``, concatenated; where each row
    begins among them).  No row may be empty: every caller hands over rows
    of vertices with an edge, or the unread part of one."""
    if total == len(counts):
        # with no row empty, each holds one entry
        return starts, np.arange(total, dtype=np.int64)
    begins = np.cumsum(counts) - counts
    return np.repeat(starts - begins, counts) + np.arange(total, dtype=np.int64), begins


def connected_components(g: GlobalGraph) -> np.ndarray:
    """Component label per vertex, numbered in order of each component's smallest vertex.

    Hook and shortcut (Shiloach & Vishkin 1982) over each undirected edge
    once: every round drops the edges whose endpoints already share a root,
    hooks the larger root of each remaining edge under the smallest root it
    meets, then jumps pointers until every vertex points at its root.  A
    parent is never larger than its child, so every root is the smallest
    vertex of its tree.  The roots that still have an edge to another tree
    at least halve every two rounds, so the number of rounds grows with
    log n, not with the diameter.

    The first round needs no lookups: every vertex is still its own root and
    ``edge_list`` holds each edge as ``u < v`` with no self-loops, so every
    edge is live and hooks ``v`` under ``u``.
    """
    n = g.num_vertices
    u, v = g.edge_list
    parent = np.arange(n, dtype=np.int64)
    np.minimum.at(parent, v, u)
    while True:
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        ru, rv = parent[u], parent[v]
        live = ru != rv
        if not live.any():
            break
        u, v, ru, rv = u[live], v[live], ru[live], rv[live]
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
    # roots ascend with their components' smallest vertices: number them by rank
    is_root = parent == np.arange(n, dtype=np.int64)
    return (np.cumsum(is_root) - 1)[parent]


def approx_diameter(g: GlobalGraph, iterations: int = 10, seed: int = 0) -> int:
    """Lower bound on the diameter from iterative sweeps on the largest component.

    Each sweep runs a breadth-first search and restarts from a random vertex
    of the farthest level; the maximum eccentricity seen is returned.
    """
    if g.num_vertices == 0:
        raise InputError("cannot estimate the diameter of an empty graph")
    labels = connected_components(g)
    largest = int(np.bincount(labels).argmax())
    members = np.nonzero(labels == largest)[0]
    degrees = g.degrees[members]
    with_edges = members[degrees > 0]
    component = (with_edges, int(degrees.sum()))
    rng = rng_for(seed, "diameter")
    start = int(members[rng.integers(len(members))])
    best = 0
    for _ in range(iterations):
        # a search from a vertex of the largest component stays in it
        dist = _bfs_levels(g, start, component)
        ecc = int(dist.max())
        best = max(best, ecc)
        farthest = np.nonzero(dist == ecc)[0]
        start = int(farthest[rng.integers(len(farthest))])
    return best


# ---------------------------------------------------------------------------
# cross-method comparison


def performance_ratio(results: Mapping[str, Mapping[str, float]]) -> dict[str, float]:
    """Geometric mean, per method, of its metric divided by the row best.

    ``results`` maps graph -> method -> metric (lower is better).  Missing
    cells are excluded pairwise with a warning; the row best is taken over
    the methods present in that row.
    """
    methods: list[str] = []
    for row in results.values():
        for m in row:
            if m not in methods:
                methods.append(m)
    logsums = {m: 0.0 for m in methods}
    counts = {m: 0 for m in methods}
    for graph, row in results.items():
        present = {m: v for m, v in row.items() if v is not None}
        missing = [m for m in methods if m not in present]
        if missing:
            warnings.warn(f"{graph}: no result for {', '.join(missing)}; excluded from their ratios", stacklevel=2)
        if not present:
            continue
        best = min(present.values())
        for m, v in present.items():
            # a zero-cut row contributes ratio 1 to every method that achieved it
            ratio = 1.0 if best == 0 and v == 0 else (math.inf if best == 0 else v / best)
            logsums[m] += math.log(ratio)
            counts[m] += 1
    return {m: math.exp(logsums[m] / counts[m]) if counts[m] else math.nan for m in methods}


# ---------------------------------------------------------------------------
# reports


@dataclass
class QualityReport:
    """Machine-readable summary of one partition of one graph."""

    num_vertices: int
    num_edges: int
    num_parts: int
    edge_cut: int
    cut_ratio: float
    max_part_cut: int
    max_part_cut_part: int
    scaled_max_cut: float
    scaled_max_cut_alt: float
    vertex_imbalance: float
    edge_imbalance: float
    parts_vertices: list[int]
    parts_intra_edges: list[int]
    parts_cut_edges: list[int]
    metadata: dict = field(default_factory=dict)
    schema_version: int = REPORT_SCHEMA_VERSION

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(asdict(self), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "QualityReport":
        data = json.loads(text)
        version = data.get("schema_version")
        if version != REPORT_SCHEMA_VERSION:
            raise InputError(f"unsupported report schema version {version}")
        return cls(**data)


def build_report(g: GlobalGraph, parts, num_parts: int, metadata: dict | None = None) -> QualityReport:
    verts, intra, per_cut = part_counts(g, parts, num_parts)
    cut = int(per_cut.sum()) // 2
    winner = int(per_cut.argmax())
    v_imb, e_imb = _imbalances(g, verts, intra, num_parts)
    max_cut = int(per_cut[winner])
    return QualityReport(
        num_vertices=g.num_vertices,
        num_edges=g.num_edges,
        num_parts=num_parts,
        edge_cut=cut,
        cut_ratio=cut / g.num_edges if g.num_edges else 0.0,
        max_part_cut=max_cut,
        max_part_cut_part=winner,
        scaled_max_cut=max_cut / (cut / num_parts) if cut else 0.0,
        scaled_max_cut_alt=max_cut / (g.num_edges / num_parts) if g.num_edges else 0.0,
        vertex_imbalance=v_imb,
        edge_imbalance=e_imb,
        parts_vertices=verts.tolist(),
        parts_intra_edges=intra.tolist(),
        parts_cut_edges=per_cut.tolist(),
        metadata=metadata or {},
    )


CSV_FIELDS = [
    "method",
    "edge_cut",
    "cut_ratio",
    "max_part_cut",
    "scaled_max_cut",
    "scaled_max_cut_alt",
    "vertex_imbalance",
    "edge_imbalance",
    "cut_performance_ratio",
    "max_cut_performance_ratio",
]


def write_method_table(path: str, reports: Mapping[str, QualityReport], ratios: Mapping[str, Mapping[str, float]]) -> None:
    """CSV table comparing methods on one graph."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        for method, rep in reports.items():
            own = {
                "method": method,
                "cut_performance_ratio": ratios.get("edge_cut", {}).get(method, math.nan),
                "max_cut_performance_ratio": ratios.get("max_part_cut", {}).get(method, math.nan),
            }
            values = (own[name] if name in own else getattr(rep, name) for name in CSV_FIELDS)
            writer.writerow(f"{v:.6f}" if isinstance(v, float) else v for v in values)
