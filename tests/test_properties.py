"""Property tests over small drawn multigraphs (self-loops, duplicate edges and
isolated vertices included) against the brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import kept_counts, recount
from lppart import metrics, partition
from lppart.bsp import Runtime, apply_updates, exchange_updates
from lppart.graph import BLOCK, RANDOM_HASH, build_csr, distribute, make_distribution
from lppart.io import relabel_pairs
from lppart.metrics import QualityReport, _bfs_levels, build_report, connected_components, part_counts, per_task_counts
from lppart.partition import (
    PHASE_EDGE_BALANCE,
    PHASE_EDGE_REFINE,
    PHASE_VERT_BALANCE,
    PHASE_VERT_REFINE,
    INIT_MODES,
    Config,
    NeighborCounts,
    _global_counts,
    _place_isolated,
    _run_phase,
    _sweep_balance,
    _sweep_refine,
    init_parts,
    make_ledger,
    make_state,
)

PROPERTY_SETTINGS = settings(deadline=None, max_examples=60)


@st.composite
def partitioned_multigraphs(draw):
    """(pairs, n, p, parts): edges drawn with replacement over the first
    vertices, so loops and duplicates occur, plus 0-3 vertices no edge touches."""
    touched = draw(st.integers(1, 10))
    n = touched + draw(st.integers(0, 3))
    vertex = st.integers(0, touched - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=30))
    p = draw(st.integers(1, 4))
    parts = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    return pairs, n, p, parts


@PROPERTY_SETTINGS
@given(partitioned_multigraphs())
def test_report_matches_oracles(case):
    pairs, n, p, parts = case
    rep = build_report(build_csr(pairs, n), np.asarray(parts), p)
    cut = oracles.edge_cut(pairs, parts)
    per_cut = oracles.per_part_cut(pairs, parts, p)
    verts, intra = oracles.part_sizes(pairs, parts, n, p)
    m = len(oracles.undirected_pairs(pairs))
    assert (rep.num_vertices, rep.num_edges, rep.num_parts) == (n, m, p)
    assert rep.edge_cut == cut
    assert rep.cut_ratio == (cut / m if m else 0.0)
    assert rep.parts_cut_edges == per_cut
    assert (rep.max_part_cut, rep.max_part_cut_part) == (max(per_cut), per_cut.index(max(per_cut)))
    assert rep.parts_vertices == verts and rep.parts_intra_edges == intra
    assert (rep.vertex_imbalance, rep.edge_imbalance) == oracles.imbalance(pairs, parts, n, p)


@PROPERTY_SETTINGS
@given(partitioned_multigraphs(), st.integers(0, 2**63 - 1))
def test_report_survives_json_round_trip(case, seed):
    pairs, n, p, parts = case
    metadata = {"seed": seed, "pairs": [list(e) for e in pairs]}
    rep = build_report(build_csr(pairs, n), np.asarray(parts), p, metadata=metadata)
    assert QualityReport.from_json(rep.to_json()) == rep
    assert QualityReport.from_json(rep.to_json(indent=None)) == rep


@PROPERTY_SETTINGS
@given(partitioned_multigraphs(), st.data())
def test_tallies_on_one_graph_match_fresh_graphs(case, data):
    """Reports for two partitions, then components, all read the edge list
    the first report caches on the graph; each must equal its value on a
    freshly built graph."""
    pairs, n, p, parts = case
    other = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    g = build_csr(pairs, n)
    first, second = build_report(g, np.asarray(parts), p), build_report(g, np.asarray(other), p)
    labels = connected_components(g)
    assert first == build_report(build_csr(pairs, n), np.asarray(parts), p)
    assert second == build_report(build_csr(pairs, n), np.asarray(other), p)
    assert np.array_equal(labels, connected_components(build_csr(pairs, n)))
    u, v = g.edge_list
    assert (u < v).all() and not (u.flags.writeable or v.flags.writeable)
    assert sorted(zip(u.tolist(), v.tolist())) == sorted((min(e), max(e)) for e in oracles.undirected_pairs(pairs))


@PROPERTY_SETTINGS
@given(partitioned_multigraphs(), st.integers(1, 3), st.sampled_from([BLOCK, RANDOM_HASH]), st.integers(0, 9))
def test_per_task_tallies_sum_to_part_counts(case, num_tasks, kind, seed):
    pairs, n, p, parts = case
    g = build_csr(pairs, n)
    T = min(num_tasks, n)
    glob = np.asarray(parts, dtype=np.int64)
    totals = [np.zeros(p, dtype=np.int64) for _ in range(3)]
    for lg in distribute(g, make_distribution(kind, n, T, seed=seed)):
        for total, count in zip(totals, per_task_counts(lg, glob[lg.local_to_global], p)):
            total += count
    # each task counts its edges from both ends: the edge tallies sum to twice the part counts
    verts, intra, cut = part_counts(g, glob, p)
    assert [t.tolist() for t in totals] == [verts.tolist(), (2 * intra).tolist(), (2 * cut).tolist()]


@st.composite
def exchange_cases(draw):
    """(pairs, n, T, p, seed): up to 200 vertices and 64 tasks, T <= n.  The
    endpoints are skewed toward low ids, so a few hub rows reach dozens of
    tasks while most (sender, receiver) blocks stay empty; loops and
    duplicate edges occur.  ``seed`` draws the labels and queues."""
    n = draw(st.integers(1, 200))
    T = draw(st.integers(1, min(64, n)))
    m = draw(st.integers(0, 4 * n))
    seed = draw(st.integers(0, 2**32 - 1))
    pairs = (n * np.random.default_rng(seed).random((m, 2)) ** 3).astype(np.int64)
    return pairs, n, T, draw(st.integers(1, 4)), seed


@PROPERTY_SETTINGS
@given(exchange_cases(), st.sampled_from([BLOCK, RANDOM_HASH]), st.integers(0, 9))
def test_exchange_matches_oracle_plan(case, kind, dist_seed):
    """Each task relabels a drawn subset of its rows and queues them, in drawn order."""
    pairs, n, T, p, seed = case
    rng = np.random.default_rng(seed + 1)
    local_graphs = distribute(build_csr(pairs, n), make_distribution(kind, n, T, seed=dist_seed))
    glob = rng.integers(0, p, size=n)
    task_parts = [glob[lg.local_to_global] for lg in local_graphs]  # ghosts start coherent
    queues, plan = [], []
    for lg, tp in zip(local_graphs, task_parts):
        rows = rng.permutation(lg.num_owned)[: rng.integers(0, lg.num_owned + 1)]
        labels = rng.integers(0, p, size=len(rows))
        tp[rows] = labels
        glob[lg.owned[rows]] = labels
        queues.append(rows)
        plan.append(list(zip(lg.owned[rows].tolist(), labels.tolist())))

    expected, total_sent, per_sender = oracles.exchange_plan(local_graphs, plan)
    received, sent = exchange_updates(local_graphs, task_parts, queues)
    assert sum(s.pairs_sent for s in sent) == total_sent
    for s, buckets in zip(sent, per_sender):
        assert s.send_counts.tolist() == [len(bucket) for bucket in buckets]
        assert s.pairs_sent == sum(len(bucket) for bucket in buckets)
    for lg, tp, recv, want in zip(local_graphs, task_parts, received, expected):
        gids, labels, slots = recv
        assert list(zip(gids.tolist(), labels.tolist())) == want  # by sender, then queue order
        assert np.array_equal(lg.local_to_global[slots], gids)
        assert len(set(gids.tolist())) == len(gids)
        apply_updates(lg, tp, recv)
        assert np.array_equal(tp, glob[lg.local_to_global])


@PROPERTY_SETTINGS
@given(partitioned_multigraphs(), st.integers(1, 4), st.sampled_from([BLOCK, RANDOM_HASH]), st.integers(0, 9))
def test_send_plan_names_every_ghosting_task(case, num_tasks, kind, seed):
    """Each row's plan lists the distinct remote owners of its neighbors, each
    with the slot where that task ghosts the row."""
    pairs, n, _, _ = case
    T = min(num_tasks, n)
    local_graphs = distribute(build_csr(pairs, n), make_distribution(kind, n, T, seed=seed))
    owner = {gid: lg.task for lg in local_graphs for gid in lg.owned.tolist()}
    adj = oracles.adjacency(pairs, n)
    slots_to = [[] for _ in range(T)]
    for lg in local_graphs:
        assert len(lg.plan_offsets) == lg.num_owned + 1 and lg.plan_offsets[0] == 0
        for row, gid in enumerate(lg.owned.tolist()):
            entries = slice(lg.plan_offsets[row], lg.plan_offsets[row + 1])
            dests, slots = lg.plan_dest[entries].tolist(), lg.plan_slot[entries].tolist()
            assert dests == sorted({owner[v] for v in adj[gid]} - {lg.task})
            for d, slot in zip(dests, slots):
                assert local_graphs[d].local_to_global[slot] == gid
                slots_to[d].append(slot)
    assert sum(len(lg.plan_dest) for lg in local_graphs) == sum(lg.num_ghosts for lg in local_graphs)
    for lg, slots in zip(local_graphs, slots_to):
        assert sorted(slots) == list(range(lg.num_owned, lg.num_slots))


@st.composite
def hub_graphs(draw):
    """(pairs, n): 1-3 hubs, each with 1-20 edges to 1-6 leaves, so repeats are
    common and hub rows end inside and past every stage of a bottom-up scan
    (``BOTTOM_UP_STAGES``), plus up to 10 pairs over all the vertices (loops
    included) and 0-2 vertices no edge touches."""
    hubs = draw(st.integers(1, 3))
    touched = hubs + draw(st.integers(1, 6))
    n = touched + draw(st.integers(0, 2))
    leaf = st.integers(hubs, touched - 1)
    pairs = [(hub, draw(leaf)) for hub in range(hubs) for _ in range(draw(st.integers(1, 20)))]
    vertex = st.integers(0, touched - 1)
    pairs += draw(st.lists(st.tuples(vertex, vertex), max_size=10))
    # shuffle the pairs so a hub's edges interleave with the rest in every row
    return draw(st.permutations(pairs)), n


@PROPERTY_SETTINGS
@given(hub_graphs(), st.data())
def test_bottom_up_level_matches_the_oracle(graph, data):
    """``_bottom_up`` returns exactly the given unvisited vertices that have a
    neighbor at ``level``, in the order they were given, whatever the
    distances elsewhere."""
    pairs, n = graph
    g = build_csr(pairs, n)
    adj = oracles.adjacency(pairs, n)
    with_edges = [v for v in range(n) if adj[v]]
    order = data.draw(st.permutations(with_edges))
    unvisited = order[: data.draw(st.integers(1, len(order)))]
    dist = np.array(data.draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n)), dtype=np.int64)
    level = data.draw(st.integers(0, 3))
    counts = g.degrees[unvisited]
    found = metrics._bottom_up(g, counts, int(counts.sum()), dist, np.array(unvisited, dtype=np.int64), level)
    assert found.tolist() == [v for v in unvisited if any(dist[w] == level for w in adj[v])]


@settings(PROPERTY_SETTINGS, max_examples=2 * PROPERTY_SETTINGS.max_examples)
@given(st.one_of(partitioned_multigraphs().map(lambda case: case[:2]), hub_graphs()))
def test_components_and_bfs_match_oracles(graph):
    pairs, n = graph
    g = build_csr(pairs, n)
    labels = connected_components(g)
    assert labels.dtype == np.int64
    assert labels.tolist() == oracles.connected_components(pairs, n)
    adj = oracles.adjacency(pairs, n)
    for start in range(n):
        dist = oracles.bfs_distances(adj, start)
        assert _bfs_levels(g, start, (np.flatnonzero(g.degrees), 2 * g.num_edges)).tolist() == [dist.get(v, -1) for v in range(n)]


@st.composite
def swept_task_graphs(draw):
    """A partitioned multigraph distributed over 1-3 tasks, with its ledger
    and the sweep inputs both sweeps share: a ramp ``mult`` and a vertex cap
    that may close any part."""
    touched = draw(st.integers(1, 24))
    n = touched + draw(st.integers(0, 3))
    vertex = st.integers(0, touched - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=80))
    p = draw(st.integers(1, 5))
    parts = np.asarray(draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)), dtype=np.int64)
    T = min(draw(st.integers(1, 3)), n)
    dist = make_distribution(draw(st.sampled_from([BLOCK, RANDOM_HASH])), n, T, seed=draw(st.integers(0, 9)))
    local_graphs = distribute(build_csr(pairs, n), dist)
    state = make_state(local_graphs, p)
    for lg, tp in zip(local_graphs, state.parts):
        tp[:] = parts[lg.local_to_global]
    ledger = make_ledger(local_graphs, state, Config(num_parts=p, num_tasks=T))
    max_v = float(draw(st.integers(0, int(ledger.verts.max()) + 2)))
    mult = T * draw(st.sampled_from([0.25, 0.5, 1.0, 3.0]))
    return n, local_graphs, state, ledger, mult, max_v


@st.composite
def balance_sweeps(draw):
    """The inputs of one balance sweep: scores on a few values (zero
    included), so equal integer degree sums tie, in either stage."""
    n, local_graphs, state, ledger, mult, max_v = draw(swept_task_graphs())
    p = ledger.num_parts
    score_w = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]), min_size=p, max_size=p))
    edge_weights = draw(st.none() | st.tuples(st.just(ledger.max_cut()), st.sampled_from([0.25, 1.0]), st.sampled_from([0.25, 1.0])))
    return n, local_graphs, state, ledger, mult, max_v, score_w, edge_weights


def _moves_and_delta(before, after, rows, old, p):
    """A library sweep's moved rows, with the old labels it returns checked
    against the labels ``before`` it, and the net vertex change per part
    derived from those rows, old labels and the labels ``after`` it."""
    assert rows.dtype == np.int64 and old.tolist() == before[rows].tolist()
    return rows.tolist(), (np.bincount(after[rows], minlength=p) - np.bincount(old, minlength=p)).tolist()


@settings(deadline=None, max_examples=150)
@given(balance_sweeps())
def test_balance_sweep_matches_dense_oracle(case):
    """Support-only scoring moves the same rows, in the same order, to the
    same parts, and leaves the same vertex deltas and guards, bit for bit, as
    scoring every part, in both stages and at every chunk size.  The sweep's
    deltas come from the rows and old labels it returns, the oracle's move by
    move.  Each sweep reads its own kept counts; the oracle checks them
    against the labels at every chunk."""
    n, local_graphs, state, ledger, mult, max_v, score_w, edge_weights = case
    p = ledger.num_parts
    for lg, task_parts in zip(local_graphs, state.parts):
        for chunk in (1, 3, 64, n + 1):
            results = []
            for library in (True, False):
                parts, guard_v = task_parts.copy(), ledger.verts.astype(np.float64).tolist()
                args = (NeighborCounts(lg, parts, p), chunk, ledger, mult, guard_v, max_v, list(score_w), edge_weights)
                if library:
                    moved, c_v = _moves_and_delta(task_parts, parts, *_sweep_balance(*args), p)
                else:
                    c_v = [0] * p
                    moved = oracles.sweep_balance_dense(*args, c_v).tolist()
                results.append((moved, parts.tolist(), c_v, np.asarray(guard_v).tobytes()))
            assert results[0] == results[1], chunk


@st.composite
def refine_sweeps(draw):
    """The inputs of one refine sweep: in the edge stage, edge and cut caps
    that may close any part, and the ramped or full vertex charge."""
    n, local_graphs, state, ledger, mult, max_v = draw(swept_task_graphs())
    max_e = float(draw(st.integers(0, int(ledger.intra_edges.max()) + 4)))
    max_c = float(draw(st.integers(0, int(ledger.cut_edges.max()) + 4)))
    edge_caps = draw(st.none() | st.just((max_e, max_c)))
    add_v = float(len(local_graphs)) if draw(st.booleans()) else mult
    return n, local_graphs, state, ledger, add_v, max_v, edge_caps


@settings(deadline=None, max_examples=400)  # about one drawn sweep in seven moves a row
@given(refine_sweeps())
def test_refine_sweep_matches_move_by_move_oracle(case):
    """The refine sweep moves the same rows, in the same order, to the same
    parts, and leaves the same vertex deltas and caps, bit for bit, as
    moving rows one at a time through the caps, in both stages, with either
    vertex charge and at every chunk size.  The sweep's deltas come from the
    rows and old labels it returns, the oracle's move by move.  The oracle
    checks the kept counts against the labels at every chunk."""
    n, local_graphs, state, ledger, add_v, max_v, edge_caps = case
    p = ledger.num_parts
    for lg, task_parts in zip(local_graphs, state.parts):
        for chunk in (1, 3, 64, n + 1):
            results = []
            for library in (True, False):
                parts, cap_v = task_parts.copy(), ledger.verts.astype(np.float64).tolist()
                args = (NeighborCounts(lg, parts, p), chunk, ledger, add_v, cap_v, max_v, edge_caps)
                if library:
                    moved, c_v = _moves_and_delta(task_parts, parts, *_sweep_refine(*args), p)
                else:
                    c_v = [0] * p
                    moved = oracles.sweep_refine_dense(*args, c_v).tolist()
                results.append((moved, parts.tolist(), c_v, np.asarray(cap_v).tobytes()))
            assert results[0] == results[1], chunk


@st.composite
def water_fills(draw, num_tasks):
    """One task of a sparse graph over ``num_tasks`` tasks, most of its rows
    isolated, with the inputs of one water-fill: labels, guards on a few
    whole values (so fills tie, at zero too, where a guard
    reaches the mean), and a cap that may close any part."""
    n = draw(st.integers(num_tasks, 3 * num_tasks + 8))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=n // 2))
    kind = draw(st.sampled_from([BLOCK, RANDOM_HASH]))
    local_graphs = distribute(build_csr(pairs, n), make_distribution(kind, n, num_tasks, seed=draw(st.integers(0, 9))))
    lg = local_graphs[draw(st.integers(0, num_tasks - 1))]
    p = draw(st.integers(1, 6))
    parts = np.asarray(draw(st.lists(st.integers(0, p - 1), min_size=lg.num_slots, max_size=lg.num_slots)), dtype=np.int64)
    guard_v = [float(g) for g in draw(st.lists(st.integers(-2 * num_tasks, 12), min_size=p, max_size=p))]
    mean_size = draw(st.sampled_from([1.0, 2.5, 4.0, 6.0, 8.0]))
    max_v = draw(st.sampled_from([0.0, 3.0, 6.5, 9.0, 13.0, 1e9]))
    return lg, parts, guard_v, max_v, mean_size


@pytest.mark.parametrize("num_tasks", [2, 4, 16])
@settings(deadline=None, max_examples=80)
@given(data=st.data())
def test_water_fill_matches_the_move_by_move_loop(num_tasks, data):
    """The water-fill moves the same rows, in the same order, to the same
    parts, and leaves the same vertex deltas and guards, bit for bit, as the
    loop that updated them move by move, at T >= 2 (guards charged
    ``nprocs`` per move), with closed parts and fills tied at zero drawn.
    The water-fill's deltas come from the rows and old labels it returns."""
    lg, parts, guard_v, max_v, mean_size = data.draw(water_fills(num_tasks))
    p = len(guard_v)
    results = []
    for library in (True, False):
        labels, guards = parts.copy(), list(guard_v)
        if library:
            moved, deltas = _moves_and_delta(parts, labels, *_place_isolated(lg, labels, guards, max_v, mean_size), p)
        else:
            deltas = [0] * p
            moved = oracles.place_isolated(lg, labels, guards, max_v, mean_size, deltas).tolist()
        results.append((moved, labels.tobytes(), deltas, np.asarray(guards).tobytes()))
    assert results[0] == results[1]


class RecordingCounts(NeighborCounts):
    """Kept counts that log which way each flush folded its changes in."""

    def __init__(self, *args):
        self.branches = []
        super().__init__(*args)
        self.branches.clear()  # the build in __init__ is not a flush

    def recount(self):
        self.branches.append("recount")
        super().recount()

    def _shift(self, *args):
        self.branches.append("shift")
        super()._shift(*args)


def _assert_counts_are_fresh(local_graphs, state, counts, p):
    """Every task's kept counts and degree sums equal a count of its labels,
    byte for byte, and once every slot is labelled, the ledger derived from
    them equals the recount."""
    for lg, parts, c in zip(local_graphs, state.parts, counts):
        c.flush()
        fresh, sums = oracles.neighbor_counts(lg, parts, p)
        assert c.counts.dtype == np.int32 and c.counts.tobytes() == fresh.astype(np.int32).tobytes()
        assert c.sums.dtype == np.float64 and c.sums.tobytes() == sums.astype(np.float64).tobytes()
    if any((parts < 0).any() for parts in state.parts):
        return
    kept = _global_counts(c.tally() for c in counts)
    assert [k.tolist() for k in kept] == [e.tolist() for e in recount(local_graphs, state.parts, p)]


def _upkeep_round(local_graphs, state, counts, chunk, draw_moves):
    """One superstep's label changes: each task walks its chunks, reading the
    kept counts before a chunk and noting the moves ``draw_moves(rows, p)``
    returns for it, as the sweeps do; then a real exchange."""
    queues = []
    for lg, parts, c in zip(local_graphs, state.parts, counts):
        moved = [np.empty(0, dtype=np.int64)]
        for b0 in range(0, lg.num_owned, chunk):
            b1 = min(b0 + chunk, lg.num_owned)
            c.rows(b0, b1)
            rows, labels = draw_moves(np.arange(b0, b1, dtype=np.int64), c.num_parts)
            old = parts[rows]
            parts[rows] = labels
            c.note(rows, old, labels)
            moved.append(rows)
        queues.append(np.concatenate(moved))
    partition._exchange_round(local_graphs, state, queues, counts)


@st.composite
def labelled_task_graphs(draw):
    """A multigraph distributed over 1-4 block or hash tasks, with coherent labels."""
    touched = draw(st.integers(1, 24))
    n = touched + draw(st.integers(0, 3))
    vertex = st.integers(0, touched - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=80))
    p = draw(st.integers(1, 5))
    labels = np.asarray(draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)), dtype=np.int64)
    T = min(draw(st.integers(1, 4)), n)
    dist = make_distribution(draw(st.sampled_from([BLOCK, RANDOM_HASH])), n, T, seed=draw(st.integers(0, 9)))
    local_graphs = distribute(build_csr(pairs, n), dist)
    state = make_state(local_graphs, p)
    for lg, parts in zip(local_graphs, state.parts):
        parts[:] = labels[lg.local_to_global]
    return n, local_graphs, state


@PROPERTY_SETTINGS
@given(labelled_task_graphs(), st.data())
def test_kept_counts_match_a_fresh_count(case, data):
    """Drawn owned moves at chunk 1, 3, 64 and n+1, each superstep followed
    by a real exchange: small change sets take the shift and large ones the
    recount, and either way the counts stay equal to a fresh count and the
    ledger they give to the recount's."""
    n, local_graphs, state = case
    p = state.num_parts
    counts = kept_counts(local_graphs, state)
    _assert_counts_are_fresh(local_graphs, state, counts, p)

    def draw_moves(rows, p):
        if data.draw(st.booleans(), label="every row moves"):
            picked = rows
        else:
            picked = np.asarray(data.draw(st.lists(st.sampled_from(rows.tolist()), unique=True, max_size=2)), dtype=np.int64)
        labels = data.draw(st.lists(st.integers(0, p - 1), min_size=len(picked), max_size=len(picked)))
        return picked, np.asarray(labels, dtype=np.int64)

    for _ in range(3):
        _upkeep_round(local_graphs, state, counts, data.draw(st.sampled_from([1, 3, 64, n + 1])), draw_moves)
        _assert_counts_are_fresh(local_graphs, state, counts, p)


STAGES = (PHASE_VERT_BALANCE, PHASE_VERT_REFINE, PHASE_EDGE_BALANCE, PHASE_EDGE_REFINE)


@PROPERTY_SETTINGS
@given(labelled_task_graphs(), st.lists(st.sampled_from(sorted(STAGES)), min_size=1, max_size=5), st.integers(1, 3))
def test_counts_carried_across_phases_stay_exact(case, phases, iters):
    """Phases run back to back on one set of kept counts, as ``xtrapulp``
    runs them: after every phase the counts and degree sums equal a fresh
    count of the labels, and the labels and ledger at the end equal those of
    the same phases each given counts built for it."""
    n, local_graphs, state = case
    p, T = state.num_parts, len(local_graphs)
    cfg = Config(num_parts=p, num_tasks=T)
    fresh_state = make_state(local_graphs, p)
    for parts, fresh in zip(state.parts, fresh_state.parts):
        fresh[:] = parts
    ledger, fresh_ledger = make_ledger(local_graphs, state, cfg), make_ledger(local_graphs, fresh_state, cfg)
    counts = kept_counts(local_graphs, state)
    for phase in phases:
        _run_phase(Runtime(T), local_graphs, state, ledger, cfg, counts, phase, iters)
        _assert_counts_are_fresh(local_graphs, state, counts, p)
        _run_phase(Runtime(T), local_graphs, fresh_state, fresh_ledger, cfg, kept_counts(local_graphs, fresh_state), phase, iters)
    assert [parts.tobytes() for parts in state.parts] == [parts.tobytes() for parts in fresh_state.parts]
    for field in ("verts", "intra_edges", "cut_edges"):
        assert getattr(ledger, field).tolist() == getattr(fresh_ledger, field).tolist()


@pytest.mark.parametrize("kind", [BLOCK, RANDOM_HASH])
def test_kept_counts_take_both_branches(kind):
    """On one graph, a superstep moving one row per chunk shifts the counts,
    and one moving every row recounts them; both leave them fresh.  The same
    holds from the all-unlabelled state, where the moves are first labels:
    the shift only adds them, and the recount skips the slots still
    unlabelled."""
    n, p = 256, 5
    rng = np.random.default_rng(7)
    local_graphs = distribute(build_csr(rng.integers(0, n, size=(1024, 2)), n), make_distribution(kind, n, 3, seed=2))
    for labels in (rng.integers(0, p, size=n), np.full(n, -1)):
        state = make_state(local_graphs, p)
        for lg, parts in zip(local_graphs, state.parts):
            parts[:] = labels[lg.local_to_global]
        counts = [RecordingCounts(lg, parts, p) for lg, parts in zip(local_graphs, state.parts)]
        _upkeep_round(local_graphs, state, counts, 64, lambda rows, p: (rows[:1], rng.integers(0, p, size=1)))
        assert all(c.branches and set(c.branches) == {"shift"} for c in counts)
        _assert_counts_are_fresh(local_graphs, state, counts, p)
        for c in counts:
            c.branches.clear()
        _upkeep_round(local_graphs, state, counts, 64, lambda rows, p: (rows, rng.integers(0, p, size=len(rows))))
        assert all("recount" in c.branches for c in counts)
        _assert_counts_are_fresh(local_graphs, state, counts, p)


@PROPERTY_SETTINGS
@given(labelled_task_graphs(), st.sampled_from(INIT_MODES), st.integers(0, 9))
def test_counts_kept_through_init_stay_exact(case, mode, seed):
    """Under every init mode, on 1-4 block or hash tasks, every task's kept
    counts and degree sums equal a count of its labels after every init
    superstep (unlabelled slots counting nowhere), and the counts
    ``init_parts`` returns equal counts built fresh on its labels, byte for
    byte."""
    n, local_graphs, drawn = case
    p, T = min(drawn.num_parts, n), len(local_graphs)
    state = make_state(local_graphs, p)
    exchange_round = partition._exchange_round
    rounds = []

    def checked_round(local_graphs, state, moved, counts):
        pairs_sent = exchange_round(local_graphs, state, moved, counts)
        _assert_counts_are_fresh(local_graphs, state, counts, p)
        rounds.append(pairs_sent)
        return pairs_sent

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partition, "_exchange_round", checked_round)
        counts = init_parts(Runtime(T), local_graphs, state, Config(num_parts=p, num_tasks=T, seed=seed, init_mode=mode))
    assert rounds and all((parts >= 0).all() for parts in state.parts)
    for c, fresh in zip(counts, kept_counts(local_graphs, state)):
        assert c.counts.dtype == fresh.counts.dtype and c.counts.tobytes() == fresh.counts.tobytes()
        assert c.sums.dtype == fresh.sums.dtype and c.sums.tobytes() == fresh.sums.tobytes()


vertex_ids = st.one_of(st.integers(-3, 3), st.integers(-(2**63), 2**63 - 1))


@PROPERTY_SETTINGS
@given(st.lists(st.tuples(vertex_ids, vertex_ids), max_size=30))
def test_relabel_round_trips(raw):
    pairs = np.asarray(raw, dtype=np.int64).reshape(-1, 2)
    dense, id_map = relabel_pairs(pairs)
    assert np.array_equal(id_map[dense], pairs)
    assert (id_map[1:] > id_map[:-1]).all()  # np.diff would overflow across the int64 range
    assert len(id_map) == len(set(pairs.ravel().tolist()))
    assert ((dense >= 0) & (dense < len(id_map))).all()
