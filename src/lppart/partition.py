"""Multi-constraint, multi-objective label-propagation partitioner.

The driver runs three stages over distributed local graphs:

1. initialization: seed one root vertex per part, then flood labels outward,
   each unlabeled vertex adopting a uniformly random label from its labeled
   neighbors; unreached vertices get uniform random labels at the end.
2. vertex stage: ``outer_iters`` rounds of degree-weighted balancing followed
   by plurality refinement, constrained by the target max vertices per part.
3. edge stage: the same skeleton re-weighted to balance intra-part edges and
   per-part cut incidence, with refinement additionally capped by the current
   max edges and max cut per part.

Every iteration is one superstep: each task sweeps its owned vertices and
queues part changes, changed labels are exchanged so ghost copies stay
coherent, and integer per-part deltas are all-reduced into the global ledger.

Movement damping: the attraction weights see part sizes as the *ramped*
estimate ``size + mult * delta``, where ``delta`` counts this task's moves so
far this iteration and ``mult = nprocs * ((x - y) * iter_tot / total_iters +
y)`` grows linearly over a stage.  Early iterations (small ``y``) therefore
let each task place several times its fair share of moves before a part stops
looking attractive, which is where the ramp buys cut quality; by the last
iteration each task is held to roughly ``1/nprocs`` of the remaining
headroom.  The hard size caps, by contrast, always charge a task its full
share (``size + nprocs * delta``), so independently-deciding tasks cannot
collectively push a part past a cap no matter where the ramp stands (see
``_TaskCounters``).

Within a task the sweep walks fixed-size chunks: neighbor-label counts are
gathered per chunk (so labels written earlier in the same chunk are not yet
visible, as with concurrent workers), while delta and weight updates are
applied move-by-move so the per-part guards always see the latest estimates.
Chunk boundaries are deterministic, making runs bit-reproducible for a fixed
seed and task count.

Every choice among parts takes the first maximum: a vertex keeps its part
when that part ties for the best score, and otherwise the lowest part index
wins.  Because counts are frozen per chunk, refinement finds each vertex's
plurality part with array code, and only the vertices whose plurality
differs from their part (the movers) pass one by one through the guards.
Balancing scores every part of a vertex at once (a product list whose guard
closed parts read -1.0) and rescores only the two parts a move touches; the
isolated-vertex water-fill keeps its destination until a move changes it.
Each task's step returns the global ids it moved, in move order, as one
int64 array; the exchange reads their new labels from the parts arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
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
    chunk: int = 4096  # worker batch size for the vertex sweeps

    @property
    def total_iters(self) -> int:
        return self.outer_iters * (self.balance_iters + self.refine_iters)

    def validate(self) -> None:
        if self.num_parts < 1:
            raise ConfigError(f"part count must be >= 1, got {self.num_parts}")
        if self.num_tasks < 1:
            raise ConfigError(f"task count must be >= 1, got {self.num_tasks}")
        if not (0.0 < self.y <= self.x):
            raise ConfigError(f"need 0 < y <= x, got x={self.x}, y={self.y}")
        if min(self.outer_iters, self.balance_iters, self.refine_iters) < 1:
            raise ConfigError("iteration counts must be >= 1")
        if self.vert_imb < 0 or self.edge_imb < 0:
            raise ConfigError("imbalance ratios must be nonnegative")
        if self.init_mode not in INIT_MODES:
            raise ConfigError(f"unknown init mode {self.init_mode!r}")
        if self.chunk < 1:
            raise ConfigError("chunk size must be >= 1")


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
    sizes in vertices, intra-part edges, and incident cut edges; the
    ``*_deltas`` hold the last iteration's folded global changes.  Targets
    are the configured caps ``(1 + ratio) * total / num_parts``.
    """

    num_parts: int
    verts: np.ndarray
    intra_edges: np.ndarray
    cut_edges: np.ndarray
    vert_target: float
    edge_target: float
    total_iters: int
    iter_tot: int = 0
    vert_deltas: np.ndarray = None
    edge_deltas: np.ndarray = None
    cut_deltas: np.ndarray = None
    edge_balance_hit: int | None = None  # iter_tot when max intra_edges first met the target
    weights_vert: np.ndarray = None  # iteration-start weights, for inspection
    weights_edge: np.ndarray = None
    weights_cut: np.ndarray = None
    ramp_edge: float = 0.0
    ramp_cut: float = 0.0

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
    iteration: int  # within the phase
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
    return nprocs * ((x - y) * (iter_tot / total_iters) + y)


def _weight(target: float, estimate: float) -> float:
    # parts at or above target have zero pull; denominator floored at one
    # vertex/edge so emptied parts get a large finite weight.  The
    # conditionals pick what two-argument max() picks (its first argument
    # unless the second is larger), so the weights are bit-identical to
    # max(target / max(estimate, 1.0) - 1.0, 0.0)
    w = target / (1.0 if 1.0 > estimate else estimate) - 1.0
    return 0.0 if 0.0 > w else w


def _global_counts(local_graphs, parts_arrays, num_parts):
    per_task = [metrics.per_task_counts(lg, parts, num_parts) for lg, parts in zip(local_graphs, parts_arrays)]
    verts = allreduce_sum([c[0] for c in per_task])
    intra = allreduce_sum([c[1] for c in per_task])
    cut = allreduce_sum([c[2] for c in per_task])
    return verts, intra, cut


def make_ledger(local_graphs: Sequence[LocalGraph], state: PartitionState, cfg: Config) -> PartLedger:
    p = state.num_parts
    verts, intra, cut = _global_counts(local_graphs, state.parts, p)
    n = int(verts.sum())
    m = sum(len(lg.scan_src) for lg in local_graphs)
    zero = np.zeros(p, dtype=np.int64)
    return PartLedger(
        num_parts=p,
        verts=verts.astype(np.int64),
        intra_edges=intra.astype(np.int64),
        cut_edges=cut.astype(np.int64),
        vert_target=(1.0 + cfg.vert_imb) * n / p,
        edge_target=(1.0 + cfg.edge_imb) * m / p,
        total_iters=cfg.total_iters,
        vert_deltas=zero.copy(),
        edge_deltas=zero.copy(),
        cut_deltas=zero.copy(),
        weights_vert=np.zeros(p),
        weights_edge=np.zeros(p),
        weights_cut=np.zeros(p),
    )


# ---------------------------------------------------------------------------
# initialization


def _label_roots(lg: LocalGraph, parts: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Give root i part i on the task owning it; returns the roots labeled here."""
    slots = lg.global_to_local[roots]
    mine = np.nonzero((slots >= 0) & (slots < lg.num_owned))[0]
    parts[slots[mine]] = mine
    return roots[mine]


def _sweep_init(lg: LocalGraph, parts: np.ndarray, rng: np.random.Generator, num_parts: int, chunk: int):
    """One superstep of label flooding; returns (moved global ids, assigned count)."""
    p1 = num_parts + 1  # column 0 counts unlabeled neighbors
    moved = [np.empty(0, dtype=np.int64)]
    owned_deg = lg.degrees[: lg.num_owned]
    for b0 in range(0, lg.num_owned, chunk):
        b1 = min(b0 + chunk, lg.num_owned)
        cur = parts[b0:b1]
        open_rows = cur == -1
        if not open_rows.any():
            continue
        e0, e1 = lg.offsets[b0], lg.offsets[b1]
        rows = lg.edge_src[e0:e1] - b0
        nbr_parts = parts[lg.nbr_slots[e0:e1]]
        counts = np.bincount(rows * p1 + (nbr_parts + 1), minlength=(b1 - b0) * p1).reshape(b1 - b0, p1)
        labeled = owned_deg[b0:b1] - counts[:, 0]
        cand = np.nonzero(open_rows & (labeled > 0))[0]
        if not len(cand):
            continue
        labels = []
        for row in counts[cand, 1:].tolist():
            present = [i for i, c in enumerate(row) if c > 0]
            labels.append(present[int(rng.integers(len(present)))])
        parts[b0 + cand] = labels
        moved.append(lg.owned[b0 + cand])
    gids = np.concatenate(moved)
    return gids, len(gids)


def _exchange_round(local_graphs, state, moved) -> list[int]:
    """Exchange the moved labels into the ghost copies; returns the pairs each task sent."""
    received, buffers = exchange_updates(local_graphs, state.parts, moved)
    for lg, parts, recv in zip(local_graphs, state.parts, received):
        apply_updates(lg, parts, recv)
    return [b.pairs_sent for b in buffers]


def init_parts(
    runtime: Runtime,
    local_graphs: Sequence[LocalGraph],
    state: PartitionState,
    cfg: Config,
    observer: Observer | None = None,
) -> None:
    """Assign every owned vertex an initial part and synchronize ghosts."""
    p = state.num_parts
    n = sum(lg.num_owned for lg in local_graphs)
    if p > n:
        raise ConfigError(f"cannot draw {p} unique roots from {n} vertices")
    for parts in state.parts:
        parts[:] = -1

    def notify(iteration, pairs_sent):
        if observer is not None:
            observer(SuperstepEvent(PHASE_INIT, iteration, runtime.superstep, local_graphs, state, None, pairs_sent))

    if cfg.init_mode == "bfs-lp":
        _init_bfs_lp(runtime, local_graphs, state, cfg, notify)
    else:
        _init_direct(runtime, local_graphs, state, cfg, notify)


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


def _init_bfs_lp(runtime, local_graphs, state, cfg, notify):
    p = state.num_parts
    # master task draws the roots; every task receives the same array
    roots_master = _draw_roots(local_graphs, p, cfg.seed)
    roots = broadcast(roots_master, runtime.num_tasks)
    pending = [
        _label_roots(lg, parts, task_roots)
        for lg, parts, task_roots in zip(local_graphs, state.parts, roots)
    ]
    rngs = [rng_for(cfg.seed, "init", t) for t in range(runtime.num_tasks)]

    iteration = 0
    while True:
        def step(t):
            gids, assigned = _sweep_init(local_graphs[t], state.parts[t], rngs[t], p, cfg.chunk)
            return np.concatenate([pending[t], gids]), assigned

        results = runtime.run_superstep(step)
        pending = [np.empty(0, dtype=np.int64)] * len(local_graphs)
        notify(iteration, _exchange_round(local_graphs, state, [gids for gids, _ in results]))
        updates = int(allreduce_sum([np.array([assigned]) for _, assigned in results])[0])
        iteration += 1
        if updates == 0:
            break

    # unreached vertices get uniform random labels, then one closing exchange
    fallback_rngs = [rng_for(cfg.seed, "fallback", t) for t in range(runtime.num_tasks)]

    def fallback(t):
        lg, parts = local_graphs[t], state.parts[t]
        open_rows = np.nonzero(parts[: lg.num_owned] == -1)[0]
        parts[open_rows] = [int(fallback_rngs[t].integers(p)) for _ in range(len(open_rows))]
        return lg.owned[open_rows]

    results = runtime.run_superstep(fallback)
    notify(iteration, _exchange_round(local_graphs, state, results))


def _init_direct(runtime, local_graphs, state, cfg, notify):
    """random or block assignment followed by one synchronizing exchange."""
    p = state.num_parts
    n = sum(lg.num_owned for lg in local_graphs)
    cuts = block_cuts(n, p)

    def step(t):
        lg, parts = local_graphs[t], state.parts[t]
        if cfg.init_mode == "random":
            labels = rng_for(cfg.seed, "init", t).integers(0, p, size=lg.num_owned)
        else:
            labels = np.searchsorted(cuts, lg.owned, side="right") - 1
        parts[: lg.num_owned] = labels
        return lg.owned

    results = runtime.run_superstep(step)
    notify(0, _exchange_round(local_graphs, state, results))


# ---------------------------------------------------------------------------
# weighted sweeps


class _TaskCounters:
    """One task's intra-iteration per-part accounting.

    Two size estimates are kept for every quantity.  The *weight* estimate
    ``size + mult * delta`` ramps with the stage (optimistic early, which is
    what lets low ramp values move more mass and improve the cut), and feeds
    the attraction weights only.  The *guard* estimate ``size + nprocs *
    delta`` charges this task its full share of every move, and feeds the
    hard caps: if every task fills its guard, the global size lands exactly
    on the cap instead of overshooting by nprocs/mult, which at desk scale
    would ratchet the caps upward every iteration.

    Only additions to a weight estimate are damped by the ramp; removals are
    charged at the full share so a draining part regains its pull before the
    tasks collectively empty it out (a damped charge leaves it looking
    overweight while its last vertices leave).  The sweeps update the lists
    in place, each keeping current the ones it reads and ``c_v``, this task's
    net vertex change per part, which `_run_phase` folds into the ledger.
    """

    def __init__(self, ledger: PartLedger, mult: float, nprocs: int, edge_stage: bool):
        p = ledger.num_parts
        self.mult = mult
        self.nprocs = float(nprocs)
        self.c_v = [0] * p
        self.est_v = ledger.verts.astype(np.float64).tolist()
        self.guard_v = ledger.verts.astype(np.float64).tolist()
        if edge_stage:
            self.est_e = ledger.intra_edges.astype(np.float64).tolist()
            self.guard_e = ledger.intra_edges.astype(np.float64).tolist()
            self.est_c = ledger.cut_edges.astype(np.float64).tolist()
            self.guard_c = ledger.cut_edges.astype(np.float64).tolist()


def _sweep_balance(
    lg: LocalGraph,
    parts: np.ndarray,
    p: int,
    chunk: int,
    tc: _TaskCounters,
    max_v: float,
    score_w: list[float],  # per-part attraction multipliers at iteration start
    vert_target: float,
    edge_weights: tuple[float, float, float, float] | None,
) -> np.ndarray:
    """Degree-weighted sweep: counts scaled by the part scores, vertex guard on
    destinations; returns the moved global ids.

    A part's score is its vertex weight against ``vert_target``, or in the
    edge stage, with ``edge_weights = (edge_target, max_c, r_e, r_c)``,
    ``r_e`` times its intra-edge weight plus ``r_c`` times its cut weight.
    """
    moved: list[int] = []
    owned_deg = lg.degrees[: lg.num_owned]
    deg_f = lg.degrees.astype(np.float64)
    c_v, est_v, guard_v = tc.c_v, tc.est_v, tc.guard_v
    mult, nprocs = tc.mult, tc.nprocs
    edge_stage = edge_weights is not None
    if edge_stage:
        edge_target, max_c, r_e, r_c = edge_weights
        est_e, est_c = tc.est_e, tc.est_c
    # the score of every part the vertex guard admits, -1.0 for the others
    sw = [-1.0 if g + 1.0 > max_v else s for s, g in zip(score_w, guard_v)]
    for b0 in range(0, lg.num_owned, chunk):
        b1 = min(b0 + chunk, lg.num_owned)
        B = b1 - b0
        e0, e1 = lg.offsets[b0], lg.offsets[b1]
        if e0 == e1:
            continue
        rows = lg.edge_src[e0:e1] - b0
        nbr = lg.nbr_slots[e0:e1]
        flat = rows * p + parts[nbr]
        raw = np.bincount(flat, minlength=B * p).reshape(B, p)
        cur = parts[b0:b1]
        cand = np.nonzero(owned_deg[b0:b1] > raw[np.arange(B), cur])[0]
        if not len(cand):
            continue
        wmat = np.bincount(flat, weights=deg_f[nbr], minlength=B * p).reshape(B, p)
        w_rows = wmat[cand].tolist()
        cur_rows = cur[cand].tolist()
        if edge_stage:
            raw_rows = raw[cand].tolist()
            deg_rows = owned_deg[b0 + cand].tolist()
        for j, r in enumerate(cand.tolist()):
            x = cur_rows[j]
            prods = list(map(mul, w_rows[j], sw))
            # staying scores zero when the guard closes the current part;
            # closed parts score at most zero, so they never beat it
            base = prods[x]
            if base < 0.0:
                base = prods[x] = 0.0
            top = max(prods)
            if not top > base:
                continue
            w = prods.index(top)
            parts[b0 + r] = w
            moved.append(b0 + r)
            c_v[x] -= 1
            c_v[w] += 1
            guard_v[x] -= nprocs
            guard_v[w] += nprocs
            # rescore the two touched parts: _weight inlined, same operations
            if edge_stage:
                raw_row = raw_rows[j]
                kx = raw_row[x]
                kw = raw_row[w]
                ko = deg_rows[j] - kx - kw
                dcx = kx - kw - ko
                dcw = kx - kw + ko
                est_e[x] -= nprocs * kx
                est_e[w] += (mult if kw > 0 else nprocs) * kw
                est_c[x] += (mult if dcx > 0 else nprocs) * dcx
                est_c[w] += (mult if dcw > 0 else nprocs) * dcw
                for i in (x, w):
                    e, c = est_e[i], est_c[i]
                    we = edge_target / (1.0 if 1.0 > e else e) - 1.0
                    wc = max_c / (1.0 if 1.0 > c else c) - 1.0
                    s = r_e * (0.0 if 0.0 > we else we) + r_c * (0.0 if 0.0 > wc else wc)
                    sw[i] = -1.0 if guard_v[i] + 1.0 > max_v else s
            else:
                est_v[x] -= nprocs
                est_v[w] += mult
                for i in (x, w):
                    e = est_v[i]
                    s = vert_target / (1.0 if 1.0 > e else e) - 1.0
                    sw[i] = -1.0 if guard_v[i] + 1.0 > max_v else (0.0 if 0.0 > s else s)
    return lg.owned[np.asarray(moved, dtype=np.int64)]


def _sweep_refine(
    lg: LocalGraph,
    parts: np.ndarray,
    p: int,
    chunk: int,
    tc: _TaskCounters,
    max_v: float,
    max_e: float,
    max_c: float,
    edge_stage: bool,
    exact_caps: bool,
) -> np.ndarray:
    """Plurality sweep: move to the raw-count argmax, vetoed (vertex stays)
    when the destination's estimated size would exceed the vertex cap or, in
    the edge stage, the current max intra-edge or max cut sizes; returns the
    moved global ids."""
    moved: list[int] = []
    owned_deg = lg.degrees[: lg.num_owned]
    c_v, est_v, guard_v = tc.c_v, tc.est_v, tc.guard_v
    mult, nprocs = tc.mult, tc.nprocs
    if edge_stage:
        guard_e, guard_c = tc.guard_e, tc.guard_c
    # early vertex-stage refinement mobility scales with the update-limit
    # ramp (ramped destination test: small x/y admit more moves, which is
    # where the ramp buys cut quality, and the next balancing round repairs
    # any overshoot); the closing round of each stage charges full shares so
    # transient overage cannot outlive the stage
    cap_v = guard_v if exact_caps else est_v
    for b0 in range(0, lg.num_owned, chunk):
        b1 = min(b0 + chunk, lg.num_owned)
        B = b1 - b0
        e0, e1 = lg.offsets[b0], lg.offsets[b1]
        if e0 == e1:
            continue
        rows = lg.edge_src[e0:e1] - b0
        flat = rows * p + parts[lg.nbr_slots[e0:e1]]
        raw = np.bincount(flat, minlength=B * p).reshape(B, p)
        cur = parts[b0:b1]
        k_cur = raw[np.arange(B), cur]
        # a tie with the current part keeps it, so only rows whose current
        # count is below the maximum move, to their first maximum
        movers = np.nonzero(k_cur < raw.max(axis=1))[0]
        if not len(movers):
            continue
        dest = raw[movers].argmax(axis=1)
        for r, x, w, kx, kw, dv in zip(
            movers.tolist(),
            cur[movers].tolist(),
            dest.tolist(),
            k_cur[movers].tolist(),
            raw[movers, dest].tolist(),
            owned_deg[b0 + movers].tolist(),
        ):
            if cap_v[w] + 1.0 > max_v:
                continue
            if edge_stage and (guard_e[w] + dv > max_e or guard_c[w] + dv > max_c):
                continue
            parts[b0 + r] = w
            moved.append(b0 + r)
            c_v[x] -= 1
            c_v[w] += 1
            est_v[x] -= nprocs
            est_v[w] += mult
            guard_v[x] -= nprocs
            guard_v[w] += nprocs
            if edge_stage:
                ko = dv - kx - kw
                guard_e[x] -= nprocs * kx
                guard_e[w] += nprocs * kw
                guard_c[x] += nprocs * (kx - kw - ko)
                guard_c[w] += nprocs * (kx - kw + ko)
    return lg.owned[np.asarray(moved, dtype=np.int64)]


def _place_isolated(
    lg: LocalGraph,
    parts: np.ndarray,
    p: int,
    tc: _TaskCounters,
    max_v: float,
    mean_size: float,
) -> np.ndarray:
    """Water-fill degree-zero vertices toward parts below the mean size;
    returns the moved global ids.

    Neighbor counts carry no signal for an isolated vertex, so it would
    otherwise be pinned to its initial random part forever; moving it is
    cut-neutral, and balance is unreachable on graphs with a large isolated
    population unless this mass can flow to wherever vertices are missing.
    Weighted against the mean rather than the cap so the balance headroom
    stays available to vertices whose moves do affect the cut.

    Every isolated vertex sees the same fills, so the destination ``k`` (the
    first open part with the largest fill) changes only after a move: a
    vertex in ``k`` stays, any other moves to ``k`` iff ``k``'s fill beats
    its own part's (zero when the guard closes it).
    """
    rows = np.nonzero(lg.degrees[: lg.num_owned] == 0)[0]
    c_v, guard_v, nprocs = tc.c_v, tc.guard_v, tc.nprocs
    # the fill of every part the vertex guard admits, -1.0 for the others
    fill = [-1.0 if g + 1.0 > max_v else _weight(mean_size, g) for g in guard_v]
    top = max(fill)
    k = fill.index(top)
    moved: list[int] = []
    for v, x in zip(rows.tolist(), parts[rows].tolist()):
        if x == k or not top > (0.0 if 0.0 > fill[x] else fill[x]):
            continue
        parts[v] = k
        moved.append(v)
        c_v[x] -= 1
        c_v[k] += 1
        guard_v[x] -= nprocs
        guard_v[k] += nprocs
        for i in (x, k):
            g = guard_v[i]
            fill[i] = -1.0 if g + 1.0 > max_v else _weight(mean_size, g)
        top = max(fill)
        k = fill.index(top)
    return lg.owned[np.asarray(moved, dtype=np.int64)]


# ---------------------------------------------------------------------------
# phase driver


def _ramp(t: float, total: int, x: float, y: float) -> float:
    return (x - y) * (t / total) + y


def _run_phase(runtime, local_graphs, state, ledger, cfg, iters, phase, observer, closing_round=True):
    p = state.num_parts
    T = runtime.num_tasks
    balance = phase in (PHASE_VERT_BALANCE, PHASE_EDGE_BALANCE)
    edge_stage = phase in (PHASE_EDGE_BALANCE, PHASE_EDGE_REFINE)
    exact_caps = edge_stage or closing_round

    for it in range(iters):
        # caps: balance phases track the current max each iteration; refine
        # phases pin the caps at phase entry so the ramped destination test
        # cannot ratchet them upward, and edge balancing tests the vertex
        # target itself so it cannot create new vertex imbalance
        if balance:
            max_v = ledger.vert_target if phase == PHASE_EDGE_BALANCE else ledger.max_verts()
        elif it == 0:
            max_v = ledger.max_verts()
        mult = compute_mult(ledger.iter_tot, ledger.total_iters, T, cfg.x, cfg.y)
        w_v0 = np.array([_weight(ledger.vert_target, float(s)) for s in ledger.verts])
        ledger.weights_vert = w_v0
        if edge_stage:
            if balance or it == 0:
                max_e = ledger.max_edges()
                max_c = ledger.max_cut()
            w_e0 = np.array([_weight(ledger.edge_target, float(s)) for s in ledger.intra_edges])
            w_c0 = np.array([_weight(max_c, float(s)) for s in ledger.cut_edges])
            ledger.weights_edge = w_e0
            ledger.weights_cut = w_c0
        if phase == PHASE_EDGE_BALANCE:
            # bias toward edge balance first; once met, freeze the edge ramp
            # and let the cut weighting grow from the same starting point
            if ledger.edge_balance_hit is None and float(ledger.intra_edges.max()) <= ledger.edge_target:
                ledger.edge_balance_hit = ledger.iter_tot
            hit = ledger.edge_balance_hit
            r_e = _ramp(ledger.iter_tot if hit is None else hit, ledger.total_iters, cfg.x, cfg.y)
            r_c = cfg.y if hit is None else _ramp(ledger.iter_tot - hit, ledger.total_iters, cfg.x, cfg.y)
            ledger.ramp_edge, ledger.ramp_cut = r_e, r_c

        if balance and edge_stage:
            w_e, w_c = w_e0.tolist(), w_c0.tolist()
            score_w = [r_e * w_e[i] + r_c * w_c[i] for i in range(p)]
            edge_weights = (ledger.edge_target, max_c, r_e, r_c)
        elif balance:
            score_w = w_v0.tolist()
            edge_weights = None
        task_cv = [None] * T

        def step(t):
            lg, parts = local_graphs[t], state.parts[t]
            tc = _TaskCounters(ledger, mult, T, edge_stage)
            if balance:
                moved = _sweep_balance(lg, parts, p, cfg.chunk, tc, max_v, score_w, ledger.vert_target, edge_weights)
                if phase == PHASE_VERT_BALANCE:
                    isolated = _place_isolated(lg, parts, p, tc, max_v, float(ledger.verts.sum()) / p)
                    moved = np.concatenate([moved, isolated])
            else:
                moved = _sweep_refine(
                    lg, parts, p, cfg.chunk, tc, max_v,
                    max_e if edge_stage else 0.0, max_c if edge_stage else 0.0, edge_stage, exact_caps,
                )
            task_cv[t] = np.array(tc.c_v, dtype=np.int64)
            return moved

        results = runtime.run_superstep(step)
        pairs_sent = _exchange_round(local_graphs, state, results)

        c_v_global = allreduce_sum(task_cv)
        old_intra = ledger.intra_edges
        old_cut = ledger.cut_edges
        ledger.verts = ledger.verts + c_v_global
        verts_check, intra, cut = _global_counts(local_graphs, state.parts, p)
        if not np.array_equal(verts_check, ledger.verts):
            raise ProtocolError(f"{phase} iteration {it}: folded vertex sizes disagree with recount")
        ledger.intra_edges = intra.astype(np.int64)
        ledger.cut_edges = cut.astype(np.int64)
        ledger.vert_deltas = c_v_global
        ledger.edge_deltas = ledger.intra_edges - old_intra
        ledger.cut_deltas = ledger.cut_edges - old_cut
        ledger.iter_tot += 1
        if observer is not None:
            observer(SuperstepEvent(phase, it, runtime.superstep, local_graphs, state, ledger, pairs_sent))


def vert_balance(runtime, local_graphs, state, ledger, cfg, iters=None, observer=None):
    _run_phase(runtime, local_graphs, state, ledger, cfg, iters or cfg.balance_iters, PHASE_VERT_BALANCE, observer)


def vert_refine(runtime, local_graphs, state, ledger, cfg, iters=None, observer=None, closing_round=True):
    _run_phase(runtime, local_graphs, state, ledger, cfg, iters or cfg.refine_iters, PHASE_VERT_REFINE, observer, closing_round)


def edge_balance(runtime, local_graphs, state, ledger, cfg, iters=None, observer=None):
    _run_phase(runtime, local_graphs, state, ledger, cfg, iters or cfg.balance_iters, PHASE_EDGE_BALANCE, observer)


def edge_refine(runtime, local_graphs, state, ledger, cfg, iters=None, observer=None):
    _run_phase(runtime, local_graphs, state, ledger, cfg, iters or cfg.refine_iters, PHASE_EDGE_REFINE, observer)


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
    init_parts(runtime, local_graphs, state, cfg, observer)
    ledger = make_ledger(local_graphs, state, cfg)
    for outer in range(cfg.outer_iters):
        vert_balance(runtime, local_graphs, state, ledger, cfg, observer=observer)
        vert_refine(runtime, local_graphs, state, ledger, cfg, observer=observer,
                    closing_round=outer == cfg.outer_iters - 1)
    ledger.iter_tot = 0
    for _ in range(cfg.outer_iters):
        edge_balance(runtime, local_graphs, state, ledger, cfg, observer=observer)
        edge_refine(runtime, local_graphs, state, ledger, cfg, observer=observer)
    return state
