"""Multi-constraint, multi-objective label-propagation partitioner.

The driver runs three stages over distributed local graphs:

1. initialization: under ``bfs-lp``, seed one root vertex per part, then
   flood labels outward, each unlabeled vertex adopting a uniformly random
   label from its labeled neighbors.  In every mode one closing superstep
   then labels each vertex still unlabeled: by contiguous id blocks under
   ``block``, else uniformly at random (the vertices a flood left
   unreached, or all of them under ``random``).
2. vertex stage: ``outer_iters`` rounds of degree-weighted balancing followed
   by plurality refinement, constrained by the target max vertices per part.
3. edge stage: the same skeleton re-weighted to balance intra-part edges and
   per-part cut incidence, with refinement additionally capped by the current
   max edges and max cut per part.

Every iteration is one superstep: each task sweeps its owned vertices and
queues part changes, changed labels are exchanged so ghost copies stay
coherent, and integer per-part deltas are all-reduced into the global ledger.

Neighbor counts are kept for the whole job, in one form, from the first
initialization superstep.  Each task counts, for every owned row, its
neighbors in each part and the sums of those neighbors' degrees
(``NeighborCounts``); a neighbor not yet labelled counts nowhere, so the
counts start at zero on the all-unlabelled state.  Every label change, a
root, a flood move, a closing label, a phase move or a ghost label a task
receives, is noted and folded in before the next read: the rows next to the
changed slots are shifted from the old part's bin to the new one (a first
label only adds to the new one), or, when the changes touch more than
``RECOUNT_FRACTION`` of the task's adjacency entries, recounted; both give
the same arrays.  ``init_parts`` builds them once and returns them, and
``xtrapulp`` hands them to ``_run_phase``, the one way into a phase; no
stage builds its own.  Every sweep, the flood included, reads its graph,
labels and chunk rows from these counts instead of gathering labels.
Every per-task tally, ``NeighborCounts.tally`` and the
``metrics.per_task_counts`` recount alike, counts each adjacency entry, so
each edge from both ends, and one helper (``_global_counts``) all-reduces
the tallies and halves the edge counts.  The ledger's edge counts come from
the kept counts in O(owned) per task: each row's count in its own part gives
its intra-part entries, and its degree minus that count its cut entries.
The vertex sizes folded from the per-task deltas are checked against the
owned labels every superstep, and the full recount checks the whole ledger
once per phase, before its last superstep is announced; either raises
``ProtocolError``.

Movement damping: the attraction weights see part sizes as the *ramped*
estimate ``size + mult * delta``, where ``delta`` counts this task's moves so
far this iteration and ``mult = nprocs * ((x - y) * iter_tot / total_iters +
y)`` grows linearly over a stage.  Early iterations (small ``y``) therefore
let each task place several times its fair share of moves before a part stops
looking attractive, which is where the ramp buys cut quality; by the last
iteration each task is held to roughly ``1/nprocs`` of the remaining
headroom.  The hard size caps, by contrast, test a *guard* estimate that
always charges a task its full share (``size + nprocs * delta``): if every
task fills its guard, a part lands exactly on its cap instead of overshooting
by ``nprocs / mult``, which would ratchet the caps upward every iteration.
Weight estimates damp only additions: removals are charged in full, so a
draining part regains its pull before the tasks collectively empty it.  A
step keeps the vertex guard list; each sweep builds the other estimates it
reads.  The sweeps and the water-fill return their moved rows with the old
labels, and the step alone folds them into its net vertex change per part,
``c_v = bincount(parts[rows]) - bincount(old)`` (each row moves at most once
per step), which the all-reduce folds into the ledger.

Every sweep, the flood and the weighted balance and refine, runs on one
skeleton (``_sweep``).  It walks a task's owned rows in chunks of
``CHUNK_ROWS`` and reads each chunk's neighbor counts, with the moves of the
earlier chunks folded in, so labels written earlier in the same chunk are
not yet visible, as with concurrent workers.  It hands them to the sweep's
``pick``, which returns the chunk's moved rows and new labels; the skeleton
writes those labels once, after the chunk's last candidate, and notes them
in the counts (nothing in the chunk reads them).  The flood's ``pick`` is
array code.  Inside a weighted sweep's ``pick`` one sequential loop passes
the candidates through the per-part guards, in both stages, applying
guard, estimate and score updates move by move so every decision sees the
latest estimates.  The loop keeps only that state, which its next decision
reads, and records one winner per candidate; the rows and labels follow
from the winners with array code.  The vertex guard is charged at three
sites: once per move in each weighted sweep's loop and in the water-fill.
Chunk boundaries are deterministic, making runs bit-reproducible for a fixed
seed and task count.

Every choice among parts takes the first maximum: a vertex keeps its part
when that part ties for the best score, and otherwise the lowest part index
wins.  Because counts are frozen per chunk, refinement finds each vertex's
plurality part with array code, and only the vertices whose plurality
differs from their part (the movers) pass one by one through the caps.
Balancing scores a vertex only over its support, the other parts its
neighbors are in, which each chunk gathers with array code into flat lists
of parts and neighbor weights.  A move must beat the score of staying, which
is never below zero, and a part no neighbor is in weighs zero, so no part
outside the support can win.  Guard-closed parts score -1.0, and a move
rescores only the two parts it touches.  The isolated-vertex water-fill
keeps its destination until a move changes it and writes its labels once
per call; a degree-zero row is in no adjacency, so its moves change no
count.
Every task step, in every stage, returns the local rows it changed, in the
order it changed them, as one int64 array; the exchange reads their global
ids and new labels, so only the wire carries global ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Sequence

import numpy as np

from . import metrics
from .bsp import Runtime, allreduce_sum, apply_updates, broadcast, exchange_updates
from .errors import ConfigError, ProtocolError
from .graph import LocalGraph, block_cuts
from .seeds import rng_for

INIT_MODES = ("bfs-lp", "random", "block")

PHASE_INIT = "init"
PHASE_VERT_BALANCE = "vertex-balance"
PHASE_VERT_REFINE = "vertex-refine"
PHASE_EDGE_BALANCE = "edge-balance"
PHASE_EDGE_REFINE = "edge-refine"

CHUNK_ROWS = 4096  # owned rows per sweep chunk: the counts a chunk reads omit its own moves


@dataclass
class Config:
    """Partitioner parameters; defaults follow the standard tuning."""

    num_parts: int
    num_tasks: int = 1
    vert_imb: float = 0.10  # allowed fractional vertex overage per part
    edge_imb: float = 0.10  # allowed fractional edge overage per part
    x: float = 1.0  # update-limit ramp end (CLI -X): final mult is nprocs * x
    y: float = 0.25  # update-limit ramp start (CLI -Y): initial mult is nprocs * y
    outer_iters: int = 3
    balance_iters: int = 5
    refine_iters: int = 10
    seed: int = 0
    init_mode: str = "bfs-lp"

    @property
    def total_iters(self) -> int:
        return self.outer_iters * (self.balance_iters + self.refine_iters)

    def validate(self) -> None:
        if self.num_parts < 1:
            raise ConfigError(f"part count must be >= 1, got {self.num_parts}")
        if self.num_tasks < 1:
            raise ConfigError(f"task count must be >= 1, got {self.num_tasks}")
        # NaN fails every comparison, so each test is written to pass only on good values
        if not (0.0 < self.y <= self.x < math.inf):
            raise ConfigError(f"need finite 0 < y <= x (-Y, -X), got x={self.x}, y={self.y}")
        if min(self.outer_iters, self.balance_iters, self.refine_iters) < 1:
            raise ConfigError("iteration counts must be >= 1")
        for flag, ratio in (("--vert-imb", self.vert_imb), ("--edge-imb", self.edge_imb)):
            if not 0.0 <= ratio < math.inf:
                raise ConfigError(f"imbalance ratio {flag} must be finite and >= 0, got {ratio}")
        if self.init_mode not in INIT_MODES:
            raise ConfigError(f"unknown init mode {self.init_mode!r}")


@dataclass
class PartitionState:
    """Per-task part labels over owned-then-ghost slots; -1 means unassigned."""

    num_parts: int
    parts: list[np.ndarray]

    def to_global(self, local_graphs: Sequence[LocalGraph], num_vertices: int) -> np.ndarray:
        out = np.full(num_vertices, -1, dtype=np.int64)
        for lg, parts in zip(local_graphs, self.parts):
            out[lg.owned] = parts[: lg.num_owned]
        return out


def make_state(local_graphs: Sequence[LocalGraph], num_parts: int) -> PartitionState:
    return PartitionState(num_parts, [np.full(lg.num_slots, -1, dtype=np.int64) for lg in local_graphs])


@dataclass
class PartLedger:
    """Global per-part bookkeeping, exact at every superstep boundary.

    ``verts`` / ``intra_edges`` / ``cut_edges`` are the current global part
    sizes in vertices, intra-part edges, and incident cut edges;
    ``cut_deltas`` holds the last superstep's change to ``cut_edges``, so
    observers can read the cut on entry as ``cut_edges - cut_deltas``.
    Targets are the configured caps ``(1 + ratio) * total / num_parts``.
    """

    num_parts: int
    verts: np.ndarray
    intra_edges: np.ndarray
    cut_edges: np.ndarray
    vert_target: float
    edge_target: float
    total_iters: int
    iter_tot: int = 0
    cut_deltas: np.ndarray = None
    edge_balance_hit: int | None = None  # iter_tot when max intra_edges first met the target

    def max_verts(self) -> float:
        return max(float(self.verts.max()), self.vert_target)

    def max_edges(self) -> float:
        return max(float(self.intra_edges.max()), self.edge_target)

    def max_cut(self) -> float:
        return float(self.cut_edges.max())


@dataclass
class SuperstepEvent:
    """Passed to observers after every superstep boundary."""

    phase: str
    iteration: int  # counted from 0 in each phase
    superstep: int  # global runtime counter
    local_graphs: Sequence[LocalGraph]
    state: PartitionState
    ledger: PartLedger | None  # None during initialization
    pairs_sent: list[int]  # (vertex, part) pairs each task sent in the superstep's exchange


Observer = Callable[[SuperstepEvent], None]


def compute_mult(iter_tot: int, total_iters: int, nprocs: int, x: float, y: float) -> float:
    """Update-limit multiplier: linear from nprocs * y (start) to nprocs * x (end)."""
    if total_iters <= 0:
        raise ConfigError(f"total iteration count must be positive, got {total_iters}")
    if nprocs < 1:
        raise ConfigError(f"nprocs must be >= 1, got {nprocs}")
    if not 0 <= iter_tot <= total_iters:
        raise ConfigError(f"iter_tot {iter_tot} outside [0, {total_iters}]")
    return nprocs * _ramp(iter_tot, total_iters, x, y)


def _ramp(t: float, total: int, x: float, y: float) -> float:
    return (x - y) * (t / total) + y


def _weight(target: float, estimate: float) -> float:
    # parts at or above target have zero pull; denominator floored at one
    # vertex/edge so emptied parts get a large finite weight.  The
    # conditionals pick what two-argument max() picks (its first argument
    # unless the second is larger), so the weights are bit-identical to
    # max(target / max(estimate, 1.0) - 1.0, 0.0)
    w = target / (1.0 if 1.0 > estimate else estimate) - 1.0
    return 0.0 if 0.0 > w else w


def _global_counts(tallies):
    """(vertices, intra edges, cut incidence) per part, all-reduced from
    per-task tallies that count each edge from both ends, so the edge counts
    are halved."""
    verts, intra, cut = (allreduce_sum(terms) for terms in zip(*tallies))
    return verts, intra // 2, cut // 2


def make_ledger(local_graphs: Sequence[LocalGraph], state: PartitionState, cfg: Config) -> PartLedger:
    p = state.num_parts
    verts, intra, cut = _global_counts(metrics.per_task_counts(lg, parts, p) for lg, parts in zip(local_graphs, state.parts))
    n = int(verts.sum())
    m = sum(len(lg.nbr_slots) for lg in local_graphs) // 2
    return PartLedger(
        num_parts=p,
        verts=verts.astype(np.int64),
        intra_edges=intra.astype(np.int64),
        cut_edges=cut.astype(np.int64),
        vert_target=(1.0 + cfg.vert_imb) * n / p,
        edge_target=(1.0 + cfg.edge_imb) * m / p,
        total_iters=cfg.total_iters,
        cut_deltas=np.zeros(p, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# initialization


def _label_roots(counts: NeighborCounts, roots: np.ndarray) -> np.ndarray:
    """Give root i part i on the task owning it; returns the rows labeled here."""
    lg = counts.lg
    rows = np.searchsorted(lg.owned, roots)
    mine = np.nonzero(rows < lg.num_owned)[0]
    mine = mine[lg.owned[rows[mine]] == roots[mine]]
    counts.relabel(rows[mine], mine)
    return rows[mine]


def _exchange_round(local_graphs, state, moved, counts) -> list[int]:
    """Exchange the moved labels into the ghost copies; returns the pairs each task sent.

    One all-to-all orders every task's plan entries by receiver, and the
    counts are in (global id, part) pairs.  Each task takes its pairs by
    sending task, then queue position, and writes them into the ghost slots
    that came with them once ``apply_updates`` has checked each slot holds
    the pair's id; its kept neighbor counts note the labels and fold them in.
    """
    received, sent = exchange_updates(local_graphs, state.parts, moved)
    pairs_sent = [s.pairs_sent for s in sent]
    for c, recv in zip(counts, received):
        c.note(recv[2], apply_updates(c.lg, c.parts, recv), recv[1])
    del received
    for c in counts:
        c.flush()
    return pairs_sent


def init_parts(
    runtime: Runtime,
    local_graphs: Sequence[LocalGraph],
    state: PartitionState,
    cfg: Config,
    observer: Observer | None = None,
) -> list[NeighborCounts]:
    """Assign every owned vertex an initial part and synchronize ghosts;
    returns each task's neighbor counts, exact for the labels it leaves.

    The counts are built on the all-unlabeled state, where they are zero,
    and every label written after that, a root, a flood move, a closing
    label or a received ghost label, is noted in them as a phase notes its
    moves.  Under bfs-lp the flood runs first, one superstep per iteration,
    as a ``_sweep`` whose ``pick`` is ``_flood``.  Then, in every mode, one
    closing superstep labels each owned row still unlabeled: by the block
    rule under block, else uniformly at random.
    """
    p = state.num_parts
    n = sum(lg.num_owned for lg in local_graphs)
    if p > n:
        raise ConfigError(f"part count {p} exceeds vertex count {n}")
    for parts in state.parts:
        parts[:] = -1
    counts = [NeighborCounts(lg, parts, p) for lg, parts in zip(local_graphs, state.parts)]
    flooding = cfg.init_mode == "bfs-lp"
    if flooding:
        # master task draws the roots; every task receives the same array
        roots = broadcast(_draw_roots(local_graphs, p, cfg.seed), runtime.num_tasks)
        rngs = [rng_for(cfg.seed, "init", t) for t in range(runtime.num_tasks)]
    cuts = block_cuts(n, p)

    def step(t):
        c = counts[t]
        if flooding:
            # superstep 0 labels each task's roots first; no task sees another's before the exchange
            rows = [_label_roots(c, roots[t])] if iteration == 0 else []
            return np.concatenate(rows + [_sweep(c, CHUNK_ROWS, _flood(rngs[t]))[0]])
        lg = c.lg
        open_rows = np.nonzero(c.parts[: lg.num_owned] == -1)[0]
        if cfg.init_mode == "block":
            c.relabel(open_rows, np.searchsorted(cuts, lg.owned[open_rows], side="right") - 1)
        else:  # the rows a flood left unreached, or every row under random
            c.relabel(open_rows, rng_for(cfg.seed, "fallback" if iteration else "init", t).integers(p, size=len(open_rows)))
        return open_rows

    iteration = 0
    while True:
        results = runtime.run_superstep(step)
        pairs_sent = _exchange_round(local_graphs, state, results, counts)
        if observer is not None:
            observer(SuperstepEvent(PHASE_INIT, iteration, runtime.superstep, local_graphs, state, None, pairs_sent))
        if not flooding:
            return counts
        # the flood stops when a superstep labels nothing beyond the p roots
        flooding = int(allreduce_sum([np.array([len(rows)]) for rows in results])[0]) > (p if iteration == 0 else 0)
        iteration += 1


def _draw_roots(local_graphs, num_parts: int, seed: int) -> np.ndarray:
    """p unique root vertices, preferring ones with at least one edge.

    A root on a degree-zero vertex can never propagate its label, which
    permanently wastes the part on graphs with a large isolated population;
    isolated vertices are drawn only when there are not enough others.
    """
    n = sum(lg.num_owned for lg in local_graphs)
    degrees = np.zeros(n, dtype=np.int64)
    for lg in local_graphs:
        degrees[lg.owned] = lg.degrees[: lg.num_owned]
    rng = rng_for(seed, "roots")
    connected = np.nonzero(degrees > 0)[0]
    if len(connected) >= num_parts:
        return rng.choice(connected, size=num_parts, replace=False).astype(np.int64)
    rest = np.nonzero(degrees == 0)[0]
    extra = rng.choice(rest, size=num_parts - len(connected), replace=False)
    return np.sort(np.concatenate([connected, extra])).astype(np.int64)


# ---------------------------------------------------------------------------
# neighbor counts kept for the job

# A flush shifts the kept counts entry by entry while the adjacency entries
# its label changes touch are at most this fraction of the task's entries,
# and recounts every entry above it; both give the same arrays.  A shifted
# entry costs a few times a recounted one.  On er 2^14 at 16 tasks (about 16k
# entries each) the upkeep of one job took 0.31 s at 1/4, 0.32 s at 1/8,
# 0.35-0.36 s at 3/8 and 1/2, 0.39 s recounting always and 0.47 s never.
RECOUNT_FRACTION = 0.25


class NeighborCounts:
    """One task's owned-row x part neighbor counts and degree sums, exact for its current labels.

    ``counts[r * p + q]`` is the number of adjacency entries of owned row r
    whose slot is labelled q, and ``sums[r * p + q]`` adds up those slots'
    global degrees; a slot labelled -1 (not yet labelled) counts nowhere.
    ``init_parts`` builds one per task on the all-unlabelled state and keeps
    both exact from its first superstep; ``xtrapulp`` takes them from it and
    keeps them exact for the whole job, in every phase.  Every label change
    is noted with its old and new label and folded in before the next read,
    either by shifting the entries of the rows next to the changed slots
    (``LocalGraph.slot_rows``; a first label, old -1, only adds) or, past
    ``RECOUNT_FRACTION`` of the task's entries, by recounting.  A recount
    reads the entries' row keys (``edge_src * p``) and neighbor degrees,
    both built with the object and released with it.  The counts are int32 where no count can reach 2^31.
    The sums are whole numbers held in float64, as the balance sweep
    multiplies them by float scores, so every way of keeping them gives the
    same bytes.
    """

    def __init__(self, lg: LocalGraph, parts: np.ndarray, num_parts: int):
        self.lg = lg
        self.parts = parts
        self.num_parts = num_parts
        self.offsets, self.slot_rows = lg.slot_rows
        entries = len(lg.nbr_slots)
        self.limit = RECOUNT_FRACTION * entries
        self.dtype = np.int32 if entries < 2**31 else np.int64  # no count exceeds the entries
        key = np.int32 if lg.num_owned * num_parts < 2**31 else np.int64
        self.row_keys = lg.edge_src.astype(key) * key(num_parts)
        self.nbr_degrees = lg.degrees[lg.nbr_slots].astype(np.float64)
        self.pending: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.recount()

    def recount(self) -> None:
        # ``row * p + label`` for every adjacency entry whose slot is labelled
        keys = self.parts[self.lg.nbr_slots]
        labelled = keys >= 0
        keys += self.row_keys
        weights = self.nbr_degrees
        if not labelled.all():
            keys, weights = keys[labelled], weights[labelled]
        size = self.lg.num_owned * self.num_parts
        self.counts = np.bincount(keys, minlength=size).astype(self.dtype)
        # (bincount gives int64 zeros when there are no entries)
        self.sums = np.bincount(keys, weights=weights, minlength=size).astype(np.float64, copy=False)

    def note(self, slots: np.ndarray, old: np.ndarray, new: np.ndarray) -> None:
        """Record that ``slots`` changed from labels ``old`` to ``new``."""
        if len(slots):
            self.pending.append((slots, old, new))

    def relabel(self, rows: np.ndarray, new: np.ndarray) -> np.ndarray:
        """Write labels ``new`` to owned ``rows`` and note the change; returns the old labels."""
        old = self.parts[rows]
        self.parts[rows] = new
        self.note(rows, old, new)
        return old

    def flush(self) -> None:
        """Fold every noted change into the counts."""
        if not self.pending:
            return
        pending, self.pending = self.pending, []
        slots, old, new = pending[0] if len(pending) == 1 else (np.concatenate(c) for c in zip(*pending))
        starts = self.offsets[slots]
        sizes = self.offsets[slots + 1] - starts  # the entries pointing at each changed slot
        total = int(sizes.sum())
        if total > self.limit:
            self.recount()
        elif total:
            self._shift(slots, old, new, starts, sizes, total)

    def _shift(self, slots, old, new, starts, sizes, total) -> None:
        # every entry pointing at a changed slot moves from its old label's
        # bin to its new one; a first label (old -1) leaves no bin
        entries = np.repeat(starts - np.cumsum(sizes) + sizes, sizes) + np.arange(total)
        base = self.slot_rows[entries].astype(np.int64)
        base *= self.num_parts
        left = np.repeat(old >= 0, sizes)
        out_keys = (base + np.repeat(old, sizes))[left]
        base += np.repeat(new, sizes)
        one = self.counts.dtype.type(1)
        np.subtract.at(self.counts, out_keys, one)
        np.add.at(self.counts, base, one)
        degree = np.repeat(self.lg.degrees[slots].astype(np.float64), sizes)
        np.subtract.at(self.sums, out_keys, degree[left])
        np.add.at(self.sums, base, degree)

    def rows(self, b0: int, b1: int) -> tuple[np.ndarray, np.ndarray]:
        """The counts and degree sums of rows ``b0:b1`` as (rows x parts) views."""
        self.flush()
        p = self.num_parts
        return self.counts[b0 * p : b1 * p].reshape(b1 - b0, p), self.sums[b0 * p : b1 * p].reshape(b1 - b0, p)

    def tally(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(vertices, intra edges, cut incidence) per part over the owned rows,
        each edge from both ends, as ``metrics.per_task_counts`` tallies them.

        A row's count in its own part is its intra entries, and its degree
        minus that its cut entries.  Summed over tasks, the intra entries
        count each intra-part edge from both ends; a cut edge has one entry
        per end part, and ``per_task_counts`` tallies each entry at its far
        end too, so the cut entries are doubled to match.
        """
        self.flush()
        lg, p = self.lg, self.num_parts
        labels = self.parts[: lg.num_owned]
        own = self.counts[np.arange(0, lg.num_owned * p, p) + labels]
        intra = np.bincount(labels, weights=own, minlength=p).astype(np.int64)
        ends = np.bincount(labels, weights=lg.degrees[: lg.num_owned], minlength=p).astype(np.int64)
        return np.bincount(labels, minlength=p), intra, 2 * (ends - intra)


# ---------------------------------------------------------------------------
# sweeps

_NO_ROWS = np.empty(0, dtype=np.int64)


def _sweep(counts: NeighborCounts, chunk: int, pick: Callable) -> tuple[np.ndarray, np.ndarray]:
    """The chunk walk every sweep shares; returns the moved rows and their old labels.

    For every chunk of owned rows with adjacency entries it reads the kept
    counts and degree sums as (rows x parts) views, and hands
    ``pick(b0, raw, sums, cur)`` those and the chunk's labels.  ``pick``
    returns the chunk-relative rows that move and their new labels; the walk
    writes them and notes them in ``counts`` after the chunk (nothing in the
    chunk reads them).
    """
    lg, parts = counts.lg, counts.parts
    moved, left = [_NO_ROWS], [_NO_ROWS]  # per chunk: the moved rows, their old labels
    for b0 in range(0, lg.num_owned, chunk):
        b1 = min(b0 + chunk, lg.num_owned)
        if lg.offsets[b0] == lg.offsets[b1]:
            continue
        raw, sums = counts.rows(b0, b1)
        r, new = pick(b0, raw, sums, parts[b0:b1])
        if len(r):
            rows = b0 + r
            moved.append(rows)
            left.append(counts.relabel(rows, new))
    return np.concatenate(moved), np.concatenate(left)


def _flood(rng: np.random.Generator) -> Callable:
    """The flood's ``pick``: each unlabelled row of a chunk with a labelled
    neighbor adopts its k-th present part, k drawn uniform over the present
    ones, one ``rng`` draw per chunk."""

    def pick(b0, raw, sums, cur):
        open_rows = np.flatnonzero(cur == -1)
        cand = open_rows[raw[open_rows].any(axis=1)]
        present = raw[cand] > 0
        k = rng.integers(present.sum(axis=1))
        return cand, (present.cumsum(axis=1) > k[:, None]).argmax(axis=1)

    return pick


def _sweep_balance(
    counts: NeighborCounts,  # this task's counts, labels and graph
    chunk: int,
    ledger: PartLedger,
    mult: float,
    guard_v: list[float],
    max_v: float,
    score_w: list[float],  # per-part attraction multipliers at iteration start
    edge_weights: tuple[float, float, float] | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Degree-weighted sweep: counts scaled by the part scores, vertex guard on
    destinations; returns the moved rows and their old labels, and notes
    the moves in ``counts``.

    A part's score is its vertex weight against the vertex target, or in the
    edge stage, with ``edge_weights = (max_c, r_e, r_c)``, ``r_e`` times its
    intra-edge weight plus ``r_c`` times its cut weight.

    The rows of a chunk that have a neighbor outside their part are the
    candidates.  Each is scored only over its support, in ascending part
    order with a strict ``>``, which keeps the first maximum (see the module
    notes for why no other part can win).  One loop serves both stages: a
    win charges the vertex guards, then the stage's estimates rescore the
    two touched parts.  The loop records each mover's winning support entry;
    its row and part follow from those with array code.
    """
    p = ledger.num_parts
    lg = counts.lg
    owned_deg = lg.degrees[: lg.num_owned]
    nprocs = float(lg.num_tasks)
    edge_stage = edge_weights is not None
    if edge_stage:
        max_c, r_e, r_c = edge_weights
        edge_target = ledger.edge_target
        est_e = ledger.intra_edges.astype(np.float64).tolist()
        est_c = ledger.cut_edges.astype(np.float64).tolist()
    else:
        vert_target = ledger.vert_target
        est_v = ledger.verts.astype(np.float64).tolist()
    # the score of every part the vertex guard admits, -1.0 for the others
    sw = [-1.0 if g + 1.0 > max_v else s for s, g in zip(score_w, guard_v)]

    # the loop's lists and constants are bound as default arguments, so it
    # reads them as local names, not as closure cells
    def pick(b0, raw, wmat, cur, sw=sw, guard_v=guard_v, nprocs=nprocs, max_v=max_v, mult=mult, edge_stage=edge_stage):
        k_cur = raw[np.arange(len(cur)), cur]  # each row's count in its own part
        cand = np.flatnonzero(owned_deg[b0 : b0 + len(cur)] > k_cur)
        C = len(cand)
        # the candidates' supports, one after another in one flat list of
        # parts, with their neighbor weights; wmat > 0 exactly where raw > 0,
        # since every neighbor slot carries its global degree.  The flat
        # indices ascend, so candidate j's entries end where j + 1's begin
        x_c = cur[cand]
        raw_c = raw[cand]
        border = raw_c > 0
        border[np.arange(C), x_c] = False
        at = np.flatnonzero(border)
        j_at = at // p
        sup_a = at - j_at * p
        sup = sup_a.tolist()
        w_c = wmat[cand]
        sup_w = w_c.ravel()[at].tolist()
        ends = np.bincount(j_at, minlength=C).cumsum().tolist()
        own_w = w_c[np.arange(C), x_c].tolist()
        # the edge estimates read each candidate's own-part count and degree
        # and each support entry's count; the vertex estimates read none
        if edge_stage:
            kx_c, deg_c, sup_k = k_cur[cand].tolist(), owned_deg[b0 + cand].tolist(), raw_c.ravel()[at].tolist()
        else:
            kx_c = deg_c = repeat(0)
        wins: list[int] = []  # the winning support entry of each mover
        s0 = 0
        for x, ow, s1, kx, dv in zip(x_c.tolist(), own_w, ends, kx_c, deg_c):
            # staying scores zero when the guard closes the current part;
            # closed parts score at most zero, so they never beat it
            top = ow * sw[x]
            if top < 0.0:
                top = 0.0
            win = -1
            for i in range(s0, s1):
                v = sup_w[i] * sw[sup[i]]
                if v > top:
                    top = v
                    win = i
            s0 = s1
            if win < 0:
                continue
            wins.append(win)
            w = sup[win]
            gx = guard_v[x] = guard_v[x] - nprocs
            gw = guard_v[w] = guard_v[w] + nprocs
            # rescore the two touched parts: _weight inlined, same operations
            if edge_stage:
                kw = sup_k[win]  # > 0: w is in the support
                ko = dv - kx - kw
                dcx = kx - kw - ko
                dcw = kx - kw + ko
                e = est_e[x] = est_e[x] - nprocs * kx
                c = est_c[x] = est_c[x] + (mult if dcx > 0 else nprocs) * dcx
                we = edge_target / (1.0 if 1.0 > e else e) - 1.0
                wc = max_c / (1.0 if 1.0 > c else c) - 1.0
                sw[x] = -1.0 if gx + 1.0 > max_v else r_e * (0.0 if 0.0 > we else we) + r_c * (0.0 if 0.0 > wc else wc)
                e = est_e[w] = est_e[w] + mult * kw
                c = est_c[w] = est_c[w] + (mult if dcw > 0 else nprocs) * dcw
                we = edge_target / (1.0 if 1.0 > e else e) - 1.0
                wc = max_c / (1.0 if 1.0 > c else c) - 1.0
                sw[w] = -1.0 if gw + 1.0 > max_v else r_e * (0.0 if 0.0 > we else we) + r_c * (0.0 if 0.0 > wc else wc)
            else:
                e = est_v[x] = est_v[x] - nprocs
                s = vert_target / (1.0 if 1.0 > e else e) - 1.0
                sw[x] = -1.0 if gx + 1.0 > max_v else (0.0 if 0.0 > s else s)
                e = est_v[w] = est_v[w] + mult
                s = vert_target / (1.0 if 1.0 > e else e) - 1.0
                sw[w] = -1.0 if gw + 1.0 > max_v else (0.0 if 0.0 > s else s)
        won = np.array(wins, dtype=np.int64)
        return cand[j_at[won]], sup_a[won]

    return _sweep(counts, chunk, pick)


def _sweep_refine(
    counts: NeighborCounts,  # this task's counts, labels and graph
    chunk: int,
    ledger: PartLedger,
    add_v: float,  # what each addition charges the vertex caps
    cap_v: list[float],
    max_v: float,
    edge_caps: tuple[float, float] | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Plurality sweep: move to the raw-count argmax, vetoed (vertex stays)
    when the destination's estimated size would exceed the vertex cap or, in
    the edge stage, with ``edge_caps = (max_e, max_c)``, the max intra-edge or
    max cut sizes at phase entry; returns the moved rows and their old
    labels, and notes the moves in ``counts``.

    A tie with the current part keeps it, so only the rows of a chunk whose
    own count is below the maximum are movers, each to its first maximum.
    One loop passes the movers through the vertex cap and, in the edge
    stage, the edge and cut caps, in that order; it keeps the caps and
    records which movers pass.  A removal charges the caps a full share; an
    addition charges ``add_v``."""
    lg = counts.lg
    owned_deg = lg.degrees[: lg.num_owned]
    nprocs = float(lg.num_tasks)
    edge_stage = edge_caps is not None
    if edge_stage:
        max_e, max_c = edge_caps
        guard_e = ledger.intra_edges.astype(np.float64).tolist()
        guard_c = ledger.cut_edges.astype(np.float64).tolist()

    # (the loop's list and constants as local names, as in _sweep_balance)
    def pick(b0, raw, sums, cur, cap_v=cap_v, nprocs=nprocs, max_v=max_v, add_v=add_v, edge_stage=edge_stage):
        k_cur = raw[np.arange(len(cur)), cur]  # each row's count in its own part
        movers = np.flatnonzero(k_cur < raw.max(axis=1))
        dest = raw[movers].argmax(axis=1)
        if edge_stage:  # the edge caps read each mover's counts in its two parts and its degree
            kx_m, kw_m, deg_m = k_cur[movers].tolist(), raw[movers, dest].tolist(), owned_deg[b0 + movers].tolist()
        kept: list[int] = []  # the movers that pass the caps
        for j, (x, w) in enumerate(zip(cur[movers].tolist(), dest.tolist())):
            if cap_v[w] + 1.0 > max_v:
                continue
            if edge_stage:
                dv = deg_m[j]
                if guard_e[w] + dv > max_e or guard_c[w] + dv > max_c:
                    continue
                kx, kw = kx_m[j], kw_m[j]
                ko = dv - kx - kw
                guard_e[x] -= nprocs * kx
                guard_e[w] += nprocs * kw
                guard_c[x] += nprocs * (kx - kw - ko)
                guard_c[w] += nprocs * (kx - kw + ko)
            kept.append(j)
            cap_v[x] -= nprocs
            cap_v[w] += add_v
        j = np.array(kept, dtype=np.int64)
        return movers[j], dest[j]

    return _sweep(counts, chunk, pick)


def _place_isolated(lg: LocalGraph, parts: np.ndarray, guard_v: list[float], max_v: float, mean_size: float) -> tuple[np.ndarray, np.ndarray]:
    """Water-fill degree-zero vertices toward parts below the mean size;
    returns the moved rows and their old labels.

    Neighbor counts carry no signal for an isolated vertex, so it would
    otherwise be pinned to its initial random part forever; moving it is
    cut-neutral, and balance is unreachable on graphs with a large isolated
    population unless this mass can flow to wherever vertices are missing.
    Weighted against the mean rather than the cap so the balance headroom
    stays available to vertices whose moves do affect the cut.

    Every isolated vertex sees the same fills, so the destination ``k`` (the
    first open part with the largest fill) changes only after a move: a
    vertex in ``k`` stays, any other moves to ``k`` iff ``k``'s fill beats
    its own part's (zero when the guard closes it).  The loop keeps the
    guards, the fills, ``top`` and ``k``, and records each vertex's part.
    """
    rows = np.flatnonzero(lg.degrees[: lg.num_owned] == 0)
    nprocs = float(lg.num_tasks)
    # the fill of every part the vertex guard admits, -1.0 for the others
    fill = [-1.0 if g + 1.0 > max_v else _weight(mean_size, g) for g in guard_v]
    top = max(fill)
    k = fill.index(top)
    old = parts[rows]
    dests: list[int] = []  # each vertex's part after its turn
    for x in old.tolist():
        # a vertex in k stays: its own fill is top
        f = fill[x]
        if not top > (0.0 if 0.0 > f else f):
            dests.append(x)
            continue
        dests.append(k)
        # rescore the two touched parts: _weight inlined, same operations
        g = guard_v[x] = guard_v[x] - nprocs
        f = mean_size / (1.0 if 1.0 > g else g) - 1.0
        fill[x] = -1.0 if g + 1.0 > max_v else (0.0 if 0.0 > f else f)
        g = guard_v[k] = guard_v[k] + nprocs
        f = mean_size / (1.0 if 1.0 > g else g) - 1.0
        fill[k] = -1.0 if g + 1.0 > max_v else (0.0 if 0.0 > f else f)
        top = max(fill)
        k = fill.index(top)
    # the loop never reads a label, so they are written once; a degree-zero
    # row is in no adjacency, so no neighbor count changes
    new = np.array(dests, dtype=np.int64)
    changed = new != old
    rows = rows[changed]
    parts[rows] = new[changed]
    return rows, old[changed]


# ---------------------------------------------------------------------------
# phase driver


def _run_phase(runtime, local_graphs, state, ledger, cfg, counts, phase, iters, observer=None, closing_round=True):
    """Run ``iters`` supersteps of ``phase`` on ``counts``, the tasks' kept
    neighbor counts, exact for the current labels."""
    p = state.num_parts
    T = runtime.num_tasks
    balance = phase in (PHASE_VERT_BALANCE, PHASE_EDGE_BALANCE)
    edge_stage = phase in (PHASE_EDGE_BALANCE, PHASE_EDGE_REFINE)
    mean_size = float(ledger.verts.sum()) / p

    for it in range(iters):
        # caps: balance phases track the current max each iteration; refine
        # phases pin the caps at phase entry so the ramped destination test
        # cannot ratchet them upward, and edge balancing tests the vertex
        # target itself so it cannot create new vertex imbalance
        if balance:
            max_v = ledger.vert_target if phase == PHASE_EDGE_BALANCE else ledger.max_verts()
        elif it == 0:
            max_v = ledger.max_verts()
            edge_caps = (ledger.max_edges(), ledger.max_cut()) if edge_stage else None
        mult = compute_mult(ledger.iter_tot, ledger.total_iters, T, cfg.x, cfg.y)
        # early vertex-stage refinement mobility scales with the update-limit
        # ramp (ramped destination test: small x/y admit more moves, which is
        # where the ramp buys cut quality, and the next balancing round repairs
        # any overshoot); the closing round of each stage charges full shares so
        # transient overage cannot outlive the stage
        add_v = float(T) if edge_stage or closing_round else mult
        if phase == PHASE_EDGE_BALANCE:
            max_c = ledger.max_cut()
            # bias toward edge balance first; once met, freeze the edge ramp
            # and let the cut weighting grow from the same starting point
            if ledger.edge_balance_hit is None and float(ledger.intra_edges.max()) <= ledger.edge_target:
                ledger.edge_balance_hit = ledger.iter_tot
            hit = ledger.edge_balance_hit
            r_e = _ramp(ledger.iter_tot if hit is None else hit, ledger.total_iters, cfg.x, cfg.y)
            r_c = cfg.y if hit is None else _ramp(ledger.iter_tot - hit, ledger.total_iters, cfg.x, cfg.y)
            w_e = [_weight(ledger.edge_target, float(s)) for s in ledger.intra_edges]
            w_c = [_weight(max_c, float(s)) for s in ledger.cut_edges]
            score_w = [r_e * w_e[i] + r_c * w_c[i] for i in range(p)]
            edge_weights = (max_c, r_e, r_c)
        elif phase == PHASE_VERT_BALANCE:
            score_w = [_weight(ledger.vert_target, float(s)) for s in ledger.verts]
            edge_weights = None
        task_cv = [None] * T

        def step(t):
            c = counts[t]
            guard_v = ledger.verts.astype(np.float64).tolist()
            if balance:
                rows, old = _sweep_balance(c, CHUNK_ROWS, ledger, mult, guard_v, max_v, score_w, edge_weights)
                if phase == PHASE_VERT_BALANCE:
                    isolated, was = _place_isolated(c.lg, c.parts, guard_v, max_v, mean_size)
                    rows, old = np.concatenate([rows, isolated]), np.concatenate([old, was])
            else:
                rows, old = _sweep_refine(c, CHUNK_ROWS, ledger, add_v, guard_v, max_v, edge_caps)
            # c_v: the task's net vertex change per part (each row moved once)
            task_cv[t] = np.bincount(c.parts[rows], minlength=p) - np.bincount(old, minlength=p)
            return rows

        results = runtime.run_superstep(step)
        pairs_sent = _exchange_round(local_graphs, state, results, counts)

        old_cut = ledger.cut_edges
        ledger.verts = ledger.verts + allreduce_sum(task_cv)
        verts, ledger.intra_edges, ledger.cut_edges = _global_counts(c.tally() for c in counts)
        if not np.array_equal(verts, ledger.verts):
            raise ProtocolError(f"{phase} iteration {it}: folded vertex sizes disagree with the owned labels")
        ledger.cut_deltas = ledger.cut_edges - old_cut
        ledger.iter_tot += 1
        if it == iters - 1:
            # the edge counts came from the kept counts; the full recount checks
            # them once per phase, before its last superstep is announced
            recount = _global_counts(metrics.per_task_counts(lg, parts, p) for lg, parts in zip(local_graphs, state.parts))
            if not all(map(np.array_equal, recount, (ledger.verts, ledger.intra_edges, ledger.cut_edges))):
                raise ProtocolError(f"{phase}: the ledger disagrees with the recount at phase exit")
        if observer is not None:
            observer(SuperstepEvent(phase, it, runtime.superstep, local_graphs, state, ledger, pairs_sent))


def xtrapulp(
    local_graphs: Sequence[LocalGraph],
    cfg: Config,
    runtime: Runtime | None = None,
    observer: Observer | None = None,
) -> PartitionState:
    """Full pipeline: init, vertex balance/refine rounds, edge balance/refine rounds."""
    cfg.validate()
    if cfg.num_tasks != len(local_graphs):
        raise ConfigError(f"config expects {cfg.num_tasks} tasks but {len(local_graphs)} local graphs were given")
    if runtime is None:
        runtime = Runtime(cfg.num_tasks)
    elif runtime.num_tasks != cfg.num_tasks:
        raise ConfigError(f"config expects {cfg.num_tasks} tasks but the runtime drives {runtime.num_tasks}")
    state = make_state(local_graphs, cfg.num_parts)
    # every phase keeps the counts init kept exact, so they are built once for the job
    counts = init_parts(runtime, local_graphs, state, cfg, observer)
    ledger = make_ledger(local_graphs, state, cfg)
    for stage in ((PHASE_VERT_BALANCE, PHASE_VERT_REFINE), (PHASE_EDGE_BALANCE, PHASE_EDGE_REFINE)):
        ledger.iter_tot = 0  # each stage ramps the update limit from its start
        for outer in range(cfg.outer_iters):
            for phase, iters in zip(stage, (cfg.balance_iters, cfg.refine_iters)):
                _run_phase(runtime, local_graphs, state, ledger, cfg, counts, phase, iters, observer, outer == cfg.outer_iters - 1)
    return state
