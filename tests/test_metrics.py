import hashlib
import json

import numpy as np
import pytest

import oracles
from conftest import cycle_pairs, path_pairs, random_pairs
from lppart.baselines import random_partition
from lppart.errors import InputError
from lppart.gen import GenSpec, gen_er, generate
from lppart.graph import BLOCK, RANDOM_HASH, build_csr, distribute, make_distribution
from lppart import metrics
from lppart.metrics import (
    QualityReport,
    _bfs_levels,
    approx_diameter,
    build_report,
    connected_components,
    edge_cut,
    edge_cut_distributed,
    imbalance,
    max_part_cut,
    per_part_cut,
    per_task_counts,
    performance_ratio,
    write_method_table,
)


def test_single_part_zero_cut(rng):
    g = build_csr(random_pairs(rng, 50, 120), 50)
    assert edge_cut(g, np.zeros(50, dtype=int)) == 0
    assert max_part_cut(g, np.zeros(50, dtype=int)) == (0, 0)


def test_path_cut_by_hand():
    g = build_csr([(0, 1), (1, 2), (2, 3)], 4)
    assert edge_cut(g, [0, 0, 1, 1]) == 1
    count, part = max_part_cut(g, [0, 0, 1, 1])
    assert count == 1 and part == 0  # tie broken to the lower index


def test_cut_against_brute_force_oracle(rng):
    for _ in range(10):
        n = int(rng.integers(20, 200))
        pairs = random_pairs(rng, n, int(rng.integers(50, 600)))
        g = build_csr(pairs, n)
        p = int(rng.integers(2, 8))
        parts = rng.integers(0, p, size=n)
        assert edge_cut(g, parts) == oracles.edge_cut(pairs, parts.tolist())
        count, _ = max_part_cut(g, parts)
        assert count == max(oracles.per_part_cut(pairs, parts.tolist(), p))


def test_empty_partition_takes_one_part():
    """With no vertices and no ``num_parts``, p is 1, as ``max_part_cut`` takes it."""
    g = build_csr([], 0)
    assert imbalance(g, []) == (0.0, 0.0)
    assert max_part_cut(g, []) == (0, 0)


def test_imbalance_examples(rng):
    g = build_csr([(0, 1), (1, 2), (2, 3)], 4)
    v, e = imbalance(g, [0, 0, 1, 1], 2)
    assert v == pytest.approx(1.0)
    v, e = imbalance(g, [0, 0, 0, 0], 2)
    assert v == pytest.approx(2.0)
    n = 100
    pairs = random_pairs(rng, n, 300)
    gg = build_csr(pairs, n)
    parts = rng.integers(0, 4, size=n)
    vi, ei = imbalance(gg, parts, 4)
    ov, oe = oracles.imbalance(pairs, parts.tolist(), n, 4)
    assert vi == pytest.approx(ov) and ei == pytest.approx(oe)


def test_length_mismatch_rejected(rng):
    g = build_csr([(0, 1)], 2)
    with pytest.raises(InputError):
        edge_cut(g, [0])


TALLIES = {
    "imbalance": lambda g, parts: imbalance(g, parts, 2),
    "imbalance-inferred-p": lambda g, parts: imbalance(g, parts),
    "max_part_cut": lambda g, parts: max_part_cut(g, parts),
    "per_part_cut": lambda g, parts: per_part_cut(g, parts, 2),
    "build_report": lambda g, parts: build_report(g, parts, 2),
}


@pytest.mark.parametrize("name", sorted(TALLIES))
def test_negative_label_is_named(name):
    g = build_csr([(0, 1), (1, 2), (2, 3)], 4)
    with pytest.raises(InputError, match=r"got -1 at vertex 2"):
        TALLIES[name](g, [0, 1, -1, 1])


@pytest.mark.parametrize("name", ["imbalance", "per_part_cut", "build_report"])
def test_label_past_the_part_count_is_named(name):
    g = build_csr([(0, 1), (1, 2), (2, 3)], 4)
    with pytest.raises(InputError, match=r"must lie in \[0, 2\), got 2 at vertex 3"):
        TALLIES[name](g, [0, 1, 0, 2])


@pytest.mark.parametrize("label", [-1, 2])
@pytest.mark.parametrize("where", ["owned", "ghost"])
def test_per_task_counts_rejects_a_label_outside_the_parts(label, where):
    """Task 0 owns vertices 0 and 1 and counts the edge (1, 2) into its ghost
    of vertex 2; a label there would alias into another pair of parts."""
    g = build_csr([(0, 1), (1, 2), (2, 3)], 4)
    lg = distribute(g, make_distribution(BLOCK, 4, 2))[0]
    assert lg.owned.tolist() == [0, 1] and lg.local_to_global[lg.num_owned :].tolist() == [2]
    assert lg.num_owned in lg.nbr_slots.tolist()
    parts = np.zeros(lg.num_slots, dtype=np.int64)
    slot = 1 if where == "owned" else lg.num_owned
    parts[slot] = label
    with pytest.raises(InputError, match=rf"must lie in \[0, 2\), got {label} at slot {slot} \(vertex {slot}\)"):
        per_task_counts(lg, parts, 2)


def test_distributed_metrics_match_sequential(rng):
    n = 150
    pairs = random_pairs(rng, n, 500)
    g = build_csr(pairs, n)
    p = 5
    parts_global = rng.integers(0, p, size=n)
    for kind, T in ((BLOCK, 3), (RANDOM_HASH, 4), (BLOCK, 1)):
        locals_ = distribute(g, make_distribution(kind, n, T, seed=2))
        per_task = [parts_global[lg.local_to_global] for lg in locals_]
        assert edge_cut_distributed(locals_, per_task) == edge_cut(g, parts_global)
        verts = np.zeros(p, dtype=np.int64)
        intra = np.zeros(p, dtype=np.int64)
        cut = np.zeros(p, dtype=np.int64)
        for lg, pl in zip(locals_, per_task):
            a, b, c = per_task_counts(lg, pl, p)
            verts += a
            intra += b
            cut += c
        # every task counts each of its edges from both ends, so the edge tallies sum to twice the global ones
        over, oi = oracles.part_sizes(pairs, parts_global.tolist(), n, p)
        assert verts.tolist() == over and intra.tolist() == [2 * e for e in oi]
        assert cut.tolist() == [2 * c for c in oracles.per_part_cut(pairs, parts_global.tolist(), p)]


# ---------------------------------------------------------------------------
# diameter


def test_diameter_path_exact():
    pairs, n = path_pairs(5)
    assert approx_diameter(build_csr(pairs, n)) == 4


def test_diameter_cycle_matches_all_pairs_bfs():
    pairs, n = cycle_pairs(8)
    assert oracles.exact_diameter(pairs, n) == 4
    assert approx_diameter(build_csr(pairs, n)) == 4


def test_diameter_runs_on_largest_component():
    pairs = [(0, 1), (1, 2), (2, 3), (5, 6)]  # vertex 4 isolated
    g = build_csr(pairs, 7)
    assert approx_diameter(g) == 3


def test_diameter_is_lower_bound(rng):
    for seed in range(5):
        r = np.random.default_rng(seed)
        n = 60
        pairs = random_pairs(r, n, 150)
        g = build_csr(pairs, n)
        est = approx_diameter(g, seed=seed)
        assert est <= oracles.exact_diameter(pairs, n)


@pytest.mark.parametrize("star_holds_zero", [True, False])
def test_diameter_ties_go_to_the_component_with_the_smaller_vertex(star_holds_zero):
    """Two 4-vertex components, a star (diameter 2) and a path (diameter 3),
    with interleaved ids; vertex 0 is a singleton, so labels alone decide."""
    a, b = (1, 2, 5, 6), (3, 4, 7, 8)
    star, path = (a, b) if star_holds_zero else (b, a)
    pairs = [(star[0], star[1]), (star[0], star[2]), (star[0], star[3])]
    pairs += [(path[0], path[1]), (path[1], path[2]), (path[2], path[3])]
    g = build_csr(pairs, 9)
    for seed in range(5):
        assert approx_diameter(g, seed=seed) == (2 if star_holds_zero else 3)


@pytest.fixture
def bfs_steps(monkeypatch):
    """(direction, level) of every level ``_bfs_levels`` expands."""
    steps = []
    top_down, bottom_up = metrics._top_down, metrics._bottom_up

    def record_top_down(g, counts, total, dist, position, frontier):
        steps.append(("top-down", int(dist[frontier[0]])))
        return top_down(g, counts, total, dist, position, frontier)

    def record_bottom_up(g, counts, total, dist, unvisited, level):
        steps.append(("bottom-up", level))
        return bottom_up(g, counts, total, dist, unvisited, level)

    monkeypatch.setattr(metrics, "_top_down", record_top_down)
    monkeypatch.setattr(metrics, "_bottom_up", record_bottom_up)
    return steps


def _start_component(g, pairs, n, start):
    """``_bfs_levels``' ``component`` argument for ``start``: the vertices with
    an edge in its component (from the oracle's labels) and their degree sum."""
    labels = np.asarray(oracles.connected_components(pairs, n))
    members = np.flatnonzero(labels == labels[start])
    degrees = g.degrees[members]
    return members[degrees > 0], int(degrees.sum())


def _assert_bfs_matches_oracle(pairs, n, starts, restrict=False):
    """Distances from each start equal the oracle's; with ``restrict``, the
    search is given the start's component, and otherwise the whole graph."""
    g = build_csr(pairs, n)
    adj = oracles.adjacency(pairs, n)
    for start in starts:
        want = oracles.bfs_distances(adj, start)
        component = _start_component(g, pairs, n, start) if restrict else (np.flatnonzero(g.degrees), 2 * g.num_edges)
        assert _bfs_levels(g, start, component).tolist() == [want.get(v, -1) for v in range(n)], start


def test_bfs_levels_match_the_oracle_in_both_directions(bfs_steps):
    for seed in range(6):
        r = np.random.default_rng(seed)
        pairs = random_pairs(r, 40, 70)
        pairs = np.concatenate([pairs, pairs[: 20 + seed]])  # repeated edges; loops occur too
        _assert_bfs_matches_oracle(pairs, 40, range(40))
    assert {kind for kind, _ in bfs_steps} == {"top-down", "bottom-up"}


def test_bfs_levels_path_goes_top_down_until_its_last_edges(bfs_steps):
    pairs, n = path_pairs(200)
    _assert_bfs_matches_oracle(pairs, n, [0])
    # a level goes bottom-up only once ALPHA times its 2 edges exceed the edges
    # left, which on a path happens in its last ALPHA levels
    top_down_levels = n - 1 - metrics.BOTTOM_UP_ALPHA
    assert {kind for kind, _ in bfs_steps[:top_down_levels]} == {"top-down"}
    assert len(bfs_steps) == n - 1
    _assert_bfs_matches_oracle(pairs, n, range(n))


def test_bfs_levels_star_from_a_leaf_goes_bottom_up_at_level_1(bfs_steps):
    pairs = [(0, leaf) for leaf in range(1, 20)]
    _assert_bfs_matches_oracle(pairs, 20, [7])
    assert bfs_steps == [("top-down", 0), ("bottom-up", 1)]
    _assert_bfs_matches_oracle(pairs, 20, range(20))


def test_bfs_levels_from_an_isolated_vertex_expand_nothing(bfs_steps):
    pairs, n = cycle_pairs(6)
    _assert_bfs_matches_oracle(pairs, n + 1, [n])
    assert bfs_steps == []


def test_bfs_levels_from_the_smaller_component_leave_the_other_unreached(bfs_steps):
    """A 7-vertex star and an 8-vertex path, searched from a leaf.  Given the
    star's component, the centre's level goes bottom-up over the star's
    leaves alone, and the search stops once they are reached.  Without it,
    the path's edges count among those left to visit, so the leaves' level
    goes bottom-up too and scans the path's vertices for nothing."""
    pairs = [(0, leaf) for leaf in range(1, 7)] + [(v, v + 1) for v in range(7, 14)]
    _assert_bfs_matches_oracle(pairs, 15, [3], restrict=True)
    assert bfs_steps == [("top-down", 0), ("bottom-up", 1)]
    bfs_steps.clear()
    _assert_bfs_matches_oracle(pairs, 15, [3])
    assert bfs_steps == [("top-down", 0), ("bottom-up", 1), ("bottom-up", 2)]
    _assert_bfs_matches_oracle(pairs, 15, range(15), restrict=True)
    _assert_bfs_matches_oracle(pairs, 15, range(15))


def test_bfs_levels_beside_a_component_with_most_edges(bfs_steps):
    """A 7-vertex star beside a 6-clique that holds most of the edges.  From
    a leaf, given the star's component, the centre's level goes bottom-up;
    counting the clique's edges too, every level stays top-down and a last
    one scans the leaves' rows for nothing."""
    clique = [(7 + a, 7 + b) for a in range(6) for b in range(a + 1, 6)]
    pairs = [(0, leaf) for leaf in range(1, 7)] + clique
    _assert_bfs_matches_oracle(pairs, 13, [3], restrict=True)
    assert bfs_steps == [("top-down", 0), ("bottom-up", 1)]
    bfs_steps.clear()
    _assert_bfs_matches_oracle(pairs, 13, [3])
    assert bfs_steps == [("top-down", 0), ("top-down", 1), ("top-down", 2)]
    _assert_bfs_matches_oracle(pairs, 13, range(13), restrict=True)


def test_diameter_sweeps_ignore_the_other_components_edges(bfs_steps):
    """``approx_diameter`` searches the largest component only, so a clique
    beside it with more edges changes no level's direction: the sweeps of a
    9-vertex path take the same steps with and without a 7-clique after it."""
    path, n = path_pairs(9)
    clique = [(n + a, n + b) for a in range(7) for b in range(a + 1, 7)]
    assert len(clique) > len(path)
    for seed in range(3):
        assert approx_diameter(build_csr(path, n), seed=seed) == 8
        alone = bfs_steps[:]
        bfs_steps.clear()
        assert approx_diameter(build_csr(path + clique, n + 7), seed=seed) == 8
        assert bfs_steps == alone
        bfs_steps.clear()


@pytest.fixture
def bottom_up_reads(monkeypatch):
    """Every index into ``nbrs`` that ``_row_entries`` hands out, in order."""
    reads = []
    row_entries = metrics._row_entries

    def record(starts, counts, total):
        entries, begins = row_entries(starts, counts, total)
        reads.extend(entries.tolist())
        return entries, begins

    monkeypatch.setattr(metrics, "_row_entries", record)
    return reads


def _bottom_up_level(g, unvisited, dist, level):
    unvisited = np.asarray(unvisited, dtype=np.int64)
    counts = g.degrees[unvisited]
    return metrics._bottom_up(g, counts, int(counts.sum()), dist, unvisited, level).tolist()


def test_bottom_up_stops_a_row_at_its_first_frontier_entry(bottom_up_reads):
    """Ten unvisited vertices of 1-25 entries each (repeats included) whose
    first neighbor is on the frontier: the level reads one entry per row."""
    r = np.random.default_rng(3)
    left, right = 10, 20
    pairs = [(u, left + int(w)) for u in range(left) for w in r.integers(0, right, size=r.integers(1, 26))]
    g = build_csr(pairs, left + right)
    level = 2
    dist = np.full(left + right, -1, dtype=np.int64)
    dist[left:] = r.integers(0, level, size=right)  # no other neighbor is on the frontier
    dist[g.nbrs[g.offsets[:left]]] = level
    assert _bottom_up_level(g, range(left), dist, level) == list(range(left))
    assert sorted(bottom_up_reads) == g.offsets[:left].tolist()


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 10, 11, 12, 25])
def test_bottom_up_reads_a_row_without_a_parent_once_in_full(bottom_up_reads, degree):
    """A hub of ``degree`` entries with no neighbor on the frontier, beside
    rows that find one in each stage: every hub entry is read exactly once
    and no entry is read twice."""
    hub, leaves = 0, list(range(1, 1 + min(degree, 5)))
    pairs = [(hub, 1 + i % 5) for i in range(degree)]
    # vertices 6-10 meet the frontier (vertex 11) at their 1st, 2nd, 4th, 12th
    # and 20th entry, 10 entries before their row ends
    seekers = [6, 7, 8, 9, 10]
    for seeker, at in zip(seekers, [1, 2, 4, 12, 20]):
        pairs += [(seeker, 12)] * (at - 1) + [(seeker, 11)] + [(seeker, 12)] * 10
    g = build_csr(pairs, 13)
    dist = np.full(13, -1, dtype=np.int64)
    dist[[11, 12]] = [1, 0]
    assert _bottom_up_level(g, [hub, *leaves, *seekers], dist, 1) == seekers
    assert len(bottom_up_reads) == len(set(bottom_up_reads))
    hub_row = range(g.offsets[hub], g.offsets[hub + 1])
    assert sorted(e for e in bottom_up_reads if e in hub_row) == list(hub_row)
    # the leaves' rows hold only the hub, so they are read in full too
    assert sum(1 for e in bottom_up_reads if g.offsets[1] <= e < g.offsets[6]) == degree
    # a seeker reads the stages of 1, 2 and 8 entries up to the one holding its
    # frontier entry, or, past them, its whole row
    assert metrics.BOTTOM_UP_STAGES == (1, 2, 8)
    assert [sum(1 for e in bottom_up_reads if g.offsets[v] <= e < g.offsets[v + 1]) for v in seekers] == [1, 3, 11, 22, 30]


def test_shuffled_long_path_is_one_component():
    n = 1 << 15
    ids = np.random.default_rng(7).permutation(n)
    g = build_csr(np.stack([ids[:-1], ids[1:]], axis=1), n)
    assert not connected_components(g).any()


# sha256 of the little-endian int64 component labels of two n=4096 graphs
# (average degree 16, graph seed 5) and approx_diameter for seeds 0-4.
COMPONENT_GOLDEN = [
    ("rmat", "0642cc24fb1cfee251f817644c1b904d2d9b463a87bf2260ff32a2cde1d1bd02", [6] * 5),
    ("randhd", "c35020473aed1b4642cd726cad727b63fff2824ad68cedd7ffb73c7cbd890479", [280] * 5),
]


@pytest.mark.parametrize("kind,digest,diameters", COMPONENT_GOLDEN, ids=[row[0] for row in COMPONENT_GOLDEN])
def test_components_and_diameter_golden(kind, digest, diameters):
    n = 1 << 12
    g = build_csr(generate(GenSpec(kind, n, 16, seed=5)), n)
    assert hashlib.sha256(connected_components(g).astype("<i8").tobytes()).hexdigest() == digest
    assert [approx_diameter(g, seed=seed) for seed in range(5)] == diameters


def test_diameter_empty_graph_rejected():
    with pytest.raises(InputError):
        approx_diameter(build_csr([], 0))


# ---------------------------------------------------------------------------
# performance ratios


def test_performance_ratio_single_method():
    assert performance_ratio({"g": {"a": 10}}) == {"a": 1.0}


def test_performance_ratio_two_methods():
    out = performance_ratio({"g": {"a": 10, "b": 20}})
    assert out["a"] == pytest.approx(1.0)
    assert out["b"] == pytest.approx(2.0)


def test_performance_ratio_matches_hand_geomean(rng):
    table = {}
    for gi in range(3):
        table[f"g{gi}"] = {m: float(rng.integers(10, 100)) for m in ("a", "b", "c")}
    out = performance_ratio(table)
    for m in ("a", "b", "c"):
        expected = oracles.geometric_mean([row[m] / min(row.values()) for row in table.values()])
        assert out[m] == pytest.approx(expected)
    best = min(out, key=out.get)
    assert out[best] >= 1.0


def test_performance_ratio_missing_cells_warn():
    table = {"g1": {"a": 10, "b": 20}, "g2": {"a": 5}}
    with pytest.warns(UserWarning, match="g2"):
        out = performance_ratio(table)
    assert out["b"] == pytest.approx(2.0)  # only g1 contributes
    assert out["a"] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# report / baseline law


def test_report_fields_and_roundtrip(rng):
    n = 80
    pairs = random_pairs(rng, n, 240)
    g = build_csr(pairs, n)
    parts = rng.integers(0, 4, size=n)
    rep = build_report(g, parts, 4, metadata={"note": "test"})
    assert rep.cut_ratio == pytest.approx(rep.edge_cut / g.num_edges)
    if rep.edge_cut:
        assert rep.scaled_max_cut == pytest.approx(rep.max_part_cut / (rep.edge_cut / 4))
    assert rep.scaled_max_cut_alt == pytest.approx(rep.max_part_cut / (g.num_edges / 4))
    assert sum(rep.parts_vertices) == n
    clone = QualityReport.from_json(rep.to_json())
    assert clone == rep
    bad = json.loads(rep.to_json())
    bad["schema_version"] = 99
    with pytest.raises(InputError):
        QualityReport.from_json(json.dumps(bad))


def test_report_zero_cut_defines_scaled_as_zero():
    g = build_csr([(0, 1), (2, 3)], 4)
    rep = build_report(g, [0, 0, 1, 1], 2)
    assert rep.edge_cut == 0
    assert rep.scaled_max_cut == 0.0


def test_method_table_csv(tmp_path, rng):
    g = build_csr(random_pairs(rng, 30, 90), 30)
    reports = {m: build_report(g, rng.integers(0, 3, size=30), 3) for m in ("a", "b")}
    ratios = {"edge_cut": {"a": 1.0, "b": 1.3}, "max_part_cut": {"a": 1.0, "b": 1.1}}
    path = tmp_path / "table.csv"
    write_method_table(path, reports, ratios)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("method,edge_cut,cut_ratio")


def test_random_baseline_law_small():
    n, p = 1 << 13, 8
    g = build_csr(gen_er(n, 16, seed=4), n)
    parts = random_partition(n, p, seed=9)
    ratio = edge_cut(g, parts) / g.num_edges
    assert abs(ratio - (p - 1) / p) < 0.02
