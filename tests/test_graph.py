import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import cycle_pairs, grid_pairs, path_pairs, random_pairs
from lppart import io
from lppart.errors import ConfigError, InputError
from lppart.gen import GenSpec, generate
from lppart.graph import BLOCK, RANDOM_HASH, build_csr, distribute, make_distribution, stable_order


def test_path_graph_by_hand():
    g = build_csr([(0, 1), (1, 2)], 3)
    assert g.offsets.tolist() == [0, 1, 3, 4]
    assert g.num_edges == 2
    assert sorted(g.neighbors(1).tolist()) == [0, 2]
    assert g.neighbors(0).tolist() == [1]
    assert g.neighbors(2).tolist() == [1]


def test_self_loop_dropped():
    g = build_csr([(0, 0)], 1)
    assert g.num_edges == 0
    assert g.offsets.tolist() == [0, 0]
    assert len(g.nbrs) == 0


def test_grid_edge_count():
    pairs, n = grid_pairs(32)
    assert len(pairs) == 2 * 32 * 31  # grid-edge count by formula
    g = build_csr(pairs, n)
    assert g.num_vertices == 1024
    assert g.num_edges == 1984


def test_duplicate_edges_kept():
    g = build_csr([(0, 1), (0, 1), (1, 0)], 2)
    assert g.num_edges == 3
    assert g.degrees.tolist() == [3, 3]


def test_id_out_of_range_names_pair():
    with pytest.raises(InputError, match=r"edge 1: .*\(1, 7\)"):
        build_csr([(0, 1), (1, 7)], 3)


def test_symmetry_property(rng):
    n = 200
    pairs = random_pairs(rng, n, 800)
    g = build_csr(pairs, n)
    # u appears in v's list as many times as v in u's
    for u, v in pairs[:50]:
        u, v = int(u), int(v)
        if u == v:
            continue
        assert (g.neighbors(u) == v).sum() == (g.neighbors(v) == u).sum()
    assert g.offsets[-1] == 2 * g.num_edges
    assert np.all(np.diff(g.offsets) >= 0)


# ---------------------------------------------------------------------------
# the stable radix order and the CSR built from it


@st.composite
def radix_keys(draw):
    """int64 keys whose span sits just below or above a 16-bit digit boundary,
    or anywhere in the int64 range, with repeats."""
    span = draw(st.sampled_from([0, 1, 2**16 - 1, 2**16, 2**16 + 1, 2**32 - 1, 2**32, 2**32 + 1,
                                 2**48 - 1, 2**48, 2**48 + 1, 2**64 - 1]))
    lo = draw(st.integers(-(2**63), 2**63 - 1 - span))
    ends = [lo, lo + span]
    values = draw(st.lists(st.one_of(st.sampled_from(ends), st.integers(lo, lo + span)), max_size=40))
    if len(values) >= 2 and draw(st.booleans()):
        values[:2] = ends  # the span is reached, so the digit count is the boundary case drawn
    return np.array(values, dtype=np.int64)


@settings(deadline=None, max_examples=300)
@given(radix_keys(), st.sampled_from([np.int64, np.uint64, np.uint32, np.uint16, np.uint8]))
def test_stable_order_is_stable_argsort(keys, dtype):
    if dtype is not np.int64:
        keys = (keys - keys.min()).astype(dtype) if len(keys) else keys.astype(dtype)
    order = stable_order(keys)
    expected = np.argsort(keys, kind="stable")
    assert order.dtype == expected.dtype and np.array_equal(order, expected)


def test_stable_order_of_no_and_one_key():
    for keys in ([], [5], [-(2**63)], [2**63 - 1]):
        keys = np.array(keys, dtype=np.int64)
        assert np.array_equal(stable_order(keys), np.argsort(keys, kind="stable"))
    limits = np.array([2**63 - 1, -(2**63), 0, 2**63 - 1, -(2**63)], dtype=np.int64)
    assert stable_order(limits).tolist() == [1, 4, 2, 0, 3]


@st.composite
def csr_inputs(draw):
    """Pairs over a few endpoints near the top and bottom of [0, n), so the
    vertex ids' digit boundaries come up, with loops and repeats."""
    n = draw(st.sampled_from([1, 2**16, 2**16 + 1, 2**17 + 3]))
    ids = draw(st.lists(st.one_of(st.integers(0, min(n - 1, 5)), st.integers(max(n - 6, 0), n - 1)),
                        min_size=1, max_size=8))
    vertex = st.sampled_from(ids)
    return draw(st.lists(st.tuples(vertex, vertex), max_size=40)), n


@settings(deadline=None, max_examples=80)
@given(csr_inputs())
def test_build_csr_matches_the_comparison_sort(case):
    pairs, n = case
    g = build_csr(pairs, n)
    offsets, nbrs = oracles.build_csr(pairs, n)
    assert g.offsets.dtype == g.nbrs.dtype == np.int64
    assert np.array_equal(g.offsets, offsets) and np.array_equal(g.nbrs, nbrs)
    assert g.num_edges == len(oracles.undirected_pairs(pairs))


@st.composite
def multigraphs(draw):
    """(pairs, n): edges drawn with replacement over [0, n), so loops and
    duplicates occur, and so do vertices no edge touches."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    return draw(st.lists(st.tuples(vertex, vertex), max_size=40)), n


@settings(deadline=None, max_examples=80)
@given(multigraphs())
@example(([], 3))
@example(([(0, 0), (2, 2), (2, 2)], 3))
def test_edge_list_holds_each_edge_once_in_row_order(case):
    pairs, n = case
    g = build_csr(pairs, n)
    u, v = g.edge_list
    assert u.dtype == v.dtype == np.int64
    for column in (u, v):
        with pytest.raises(ValueError):
            column[:1] = 0
    assert (u < v).all()
    # each input pair that is not a loop, once as (min, max), with multiplicity
    assert sorted(zip(u.tolist(), v.tolist())) == sorted((min(a, b), max(a, b)) for a, b in oracles.undirected_pairs(pairs))
    # by u, then by position in u's CSR row
    assert list(zip(u.tolist(), v.tolist())) == [(a, b) for a in range(n) for b in g.neighbors(a).tolist() if a < b]


# ---------------------------------------------------------------------------
# the CSR at every id width

INT_TYPES = [np.uint8, np.int8, np.uint16, np.int16, np.uint32, np.int32, np.uint64, np.int64]


@st.composite
def width_graphs(draw):
    """(pairs, n) with n at an id type's boundary: endpoints near the top and
    bottom of [0, n), with loops and repeats, and sometimes a path through
    every vertex, so that the text reader's ids are dense."""
    n = draw(st.sampled_from([255, 256, 257, 65535, 65536, 65537]))
    ids = draw(st.lists(st.one_of(st.integers(0, 5), st.integers(n - 6, n - 1)), min_size=1, max_size=8))
    vertex = st.sampled_from(ids)
    pairs = np.array(draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=40)), dtype=np.int64)
    if draw(st.booleans()):
        path = np.arange(n, dtype=np.int64)
        pairs = np.concatenate([pairs, np.stack([path[:-1], path[1:]], axis=1)])
    return pairs, n


@settings(deadline=None, max_examples=40)
@given(width_graphs())
def test_id_width_does_not_change_the_csr(tmp_path_factory, case):
    pairs, n = case
    want = build_csr(pairs, n)
    offsets, nbrs = oracles.build_csr(pairs, n)
    assert want.offsets.dtype == want.nbrs.dtype == np.int64
    assert np.array_equal(want.offsets, offsets) and np.array_equal(want.nbrs, nbrs)
    for ids in [pairs.tolist()] + [pairs.astype(t) for t in INT_TYPES if pairs.max() <= np.iinfo(t).max]:
        g = build_csr(ids, n)
        assert g.offsets.dtype == g.nbrs.dtype == np.int64
        assert g.offsets.tobytes() == want.offsets.tobytes() and g.nbrs.tobytes() == want.nbrs.tobytes()
    # the readers hand build_csr the narrowest type that holds their ids, with the values they always had
    path = tmp_path_factory.mktemp("width") / "g.npz"
    io.write_cache(path, pairs, n)
    got, id_map = io.load_pairs(path)
    assert got.dtype == oracles.id_dtype(pairs) and np.array_equal(got, pairs) and np.array_equal(id_map, np.arange(n))
    path = path.with_suffix(".txt")
    io.write_edge_list(path, pairs)
    got, id_map = io.load_pairs(path)
    want_dense, want_map = oracles.relabel_pairs(pairs)
    assert got.dtype == oracles.id_dtype(want_dense) and np.array_equal(got, want_dense) and np.array_equal(id_map, want_map)
    distinct = io.dedup_pairs(got)
    assert distinct.dtype == got.dtype and np.array_equal(distinct, oracles.dedup_pairs(want_dense))


@pytest.mark.parametrize("pairs", [np.array([[0.7, 1.2], [1.9, 2.0]]), np.array([[True, False]]), np.array([[0, 1]], dtype=object)],
                         ids=["float", "bool", "object"])
def test_build_csr_refuses_ids_that_are_not_integers(pairs):
    with pytest.raises(InputError, match=f"vertex ids must be integers, got dtype {pairs.dtype}"):
        build_csr(pairs, 3)


@pytest.mark.parametrize("pairs", [np.empty((0, 2)), np.empty((0, 2), dtype=bool), np.empty(0, dtype=object), []],
                         ids=["float", "bool", "object", "list"])
def test_build_csr_of_no_pairs_of_any_dtype_is_edgeless(pairs):
    g = build_csr(pairs, 3)
    assert g.num_edges == 0 and g.offsets.tolist() == [0, 0, 0, 0]
    assert g.offsets.dtype == g.nbrs.dtype == np.int64 and len(g.nbrs) == 0


def test_set_up_peak_memory_is_within_three_csrs(tmp_path):
    """Reading a cache and building its CSR holds the ids at their stored
    width, so the traced peak stays within 3x the finished CSR's bytes."""
    n = 1 << 14
    path = tmp_path / "g.npz"
    io.write_cache(path, generate(GenSpec("rmat", n, 16, seed=5)), n)
    tracemalloc.start()
    try:
        pairs, id_map = io.load_pairs(path)
        g = build_csr(pairs, len(id_map))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * (g.offsets.nbytes + g.nbrs.nbytes)


# sha256 of the little-endian int64 ``offsets`` then ``nbrs`` of the CSR of each
# generated graph (average degree 16, graph seed 5), and of each LocalGraph
# array, task by task, of its distribution (seed 1): one digest per array, so
# a change to one array names it and leaves the others' digests standing
CSR_GOLDEN = [
    ("rmat", 1 << 16, "38b7c5ef95ab67e62279cfdb43b231ef47f04f979a021b172a99e310af41edc7"),
    ("er", 1 << 14, "a1d60aa72f9b96b29a5916a6777046e290fa059ebfab884c34eb67b5f9aff73e"),
]
LOCAL_GOLDEN = [
    ("er", RANDOM_HASH, 16, {
        "owned": "468416e6f976cdd51653e7106ec1164e4ce1bf2aac5d7e96d77359cdf560eb56",
        "offsets": "a73f714a6a6cda9f7a9a5700c5705666f0164b9e0d18a03ac2b5ea6da8f5c41c",
        "nbr_slots": "49c4e0209ec6eef2027eaf484add050fe34200c97d2a73ebc1d72cc9a807c038",
        "ghosts": "3ba8ab17804b63e2c15649c9d4bc71ef8fadb3c9a6bd4bea8b1fba923aa78413",
        "local_to_global": "65547e45d028ae6979dfa1917da160f0c244dabc82d62067a341422fd9f9e795",
        "degrees": "b1ded1b4e1e8e3781b97ac0db5a3eb098a5cd09e169a6052f41bd9d0a49d7da2",
        "edge_src": "6674cd56aff03a1604420c7aad14cf8d3ba0cf176031439101190fcf45d82c1c",
        "plan_offsets": "9f658de2f6650a6c769eba5a2d7ce5011253cc5e2da6129792caebf3d2e2b65c",
        "plan_dest": "67f0a392df2f381b0af41551788dd4977b69fb5a10c0e83b1c9c9a8c177e97e6",
        "plan_slot": "a7384fb591b90e314829e787976fa400da73990934327efa6ee0cafa5ac4d03d",
    }),
    ("rmat", BLOCK, 4, {
        "owned": "08063881d584e95e1734c94e92def2197295bb9d20f96d44852ce6fe37aa3687",
        "offsets": "cd90768c48bcd7d04d728940cee3ca4c14fc13f57056c662bcef499f3a36a274",
        "nbr_slots": "a3d0f02582622ddfd9143fd9ab8a5cdf6120ddea075b7c57018bdb94b3976fce",
        "ghosts": "4a3bf88722e14f6a2a8c8b722e2dd329c70f197eb101f688304e484643b98893",
        "local_to_global": "3c6e0b586da91cdbe3ccc60a76e6b5fed49507a883318e5495af76e7ad9369b8",
        "degrees": "d7737f42bd8973cfa9946e7fef874f6b1f2c3079ddd339eeeb32de270ca8084e",
        "edge_src": "8e51f62b41fd8cf2e081c8aa2500ec29cc08412141780e053af753c3f2b189ed",
        "plan_offsets": "7501df7d693eb579be65d97198fdeca4b6ce384afddd0e46e6cace6106a74354",
        "plan_dest": "8e56c33a4e718428c63443e0e9f35694314775404dc4460f0edfef8efafbe111",
        "plan_slot": "c56a646ab9e834deced99ac862418154682cc95345794d54df411693c0a11809",
    }),
]


@pytest.mark.parametrize("kind,n,digest", CSR_GOLDEN, ids=[row[0] for row in CSR_GOLDEN])
def test_csr_golden(kind, n, digest):
    g = build_csr(generate(GenSpec(kind, n, 16, seed=5)), n)
    assert hashlib.sha256(g.offsets.astype("<i8").tobytes() + g.nbrs.astype("<i8").tobytes()).hexdigest() == digest


@pytest.mark.parametrize("kind,dist,num_tasks,digests", LOCAL_GOLDEN, ids=[row[0] for row in LOCAL_GOLDEN])
def test_local_graphs_golden(kind, dist, num_tasks, digests):
    n = 1 << 14
    g = build_csr(generate(GenSpec(kind, n, 16, seed=5)), n)
    local_graphs = distribute(g, make_distribution(dist, n, num_tasks, seed=1))
    found = {}
    for name in digests:
        h = hashlib.sha256()
        for lg in local_graphs:
            h.update(getattr(lg, name).astype("<i8").tobytes())
        found[name] = h.hexdigest()
    assert found == digests


# ---------------------------------------------------------------------------
# distributions


def test_single_task_has_no_ghosts():
    g = build_csr([(0, 1), (1, 2), (2, 3)], 4)
    (lg,) = distribute(g, make_distribution(BLOCK, 4, 1))
    assert lg.num_ghosts == 0
    assert lg.owned.tolist() == [0, 1, 2, 3]


def test_block_path_ghosts_by_hand():
    g = build_csr([(0, 1), (1, 2), (2, 3)], 4)
    t0, t1 = distribute(g, make_distribution(BLOCK, 4, 2))
    assert t0.owned.tolist() == [0, 1] and t0.ghosts.tolist() == [2]
    assert t1.owned.tolist() == [2, 3] and t1.ghosts.tolist() == [1]


def test_block_sizes_differ_by_at_most_one():
    dist = make_distribution(BLOCK, 11, 3)
    owners = dist.owner_of(np.arange(11))
    sizes = np.bincount(owners, minlength=3)
    assert sizes.max() - sizes.min() <= 1
    assert np.all(np.diff(owners) >= 0)  # contiguous ranges


def test_random_hash_deterministic(rng):
    d1 = make_distribution(RANDOM_HASH, 500, 4, seed=9)
    d2 = make_distribution(RANDOM_HASH, 500, 4, seed=9)
    v = np.arange(500)
    assert np.array_equal(d1.owner_of(v), d2.owner_of(v))
    assert not np.array_equal(d1.owner_of(v), make_distribution(RANDOM_HASH, 500, 4, seed=10).owner_of(v))
    assert set(np.unique(d1.owner_of(v))) <= set(range(4))


def test_too_many_tasks_rejected():
    with pytest.raises(ConfigError):
        make_distribution(BLOCK, 3, 4)
    g = build_csr([(0, 1)], 2)
    with pytest.raises(ConfigError):
        distribute(g, make_distribution(BLOCK, 16, 3))


@pytest.mark.parametrize("kind", [BLOCK, RANDOM_HASH])
@pytest.mark.parametrize("num_tasks", [1, 3, 7])
def test_local_graph_invariants(rng, kind, num_tasks):
    n = 120
    pairs = random_pairs(rng, n, 400)
    g = build_csr(pairs, n)
    dist = make_distribution(kind, n, num_tasks, seed=4)
    locals_ = distribute(g, dist)

    owned_union = np.concatenate([lg.owned for lg in locals_])
    assert sorted(owned_union.tolist()) == list(range(n))

    rebuilt = {v: [] for v in range(n)}
    for lg in locals_:
        assert not set(lg.owned.tolist()) & set(lg.ghosts.tolist())
        # slots are owned ++ ghosts, each ascending, so every global id has one slot
        assert np.array_equal(lg.local_to_global, np.concatenate([lg.owned, lg.ghosts]))
        assert (np.diff(lg.owned) > 0).all() and (np.diff(lg.ghosts) > 0).all()
        for row, gid in enumerate(lg.owned.tolist()):
            nbrs = lg.local_to_global[lg.neighbors(row)]
            # neighbor slots resolve to the global neighbor list
            assert np.array_equal(nbrs, g.neighbors(gid))
            rebuilt[gid].extend(nbrs.tolist())
            # degree preservation
            assert len(nbrs) == g.degrees[gid]
        assert (dist.owner_of(lg.ghosts) != lg.task).all()
        # every ghost is adjacent to an owned vertex
        touched = set(lg.local_to_global[lg.nbr_slots].tolist())
        assert set(lg.ghosts.tolist()) <= touched
        # slot_rows lists, for every slot, the owned rows whose adjacency points at it
        offsets, rows = lg.slot_rows
        pointing = [[] for _ in range(lg.num_slots)]
        for row in range(lg.num_owned):
            for slot in lg.neighbors(row).tolist():
                pointing[slot].append(row)
        assert [rows[offsets[s] : offsets[s + 1]].tolist() for s in range(lg.num_slots)] == pointing

    # merging all owned adjacencies reproduces the global graph exactly
    for v in range(n):
        assert sorted(rebuilt[v]) == sorted(g.neighbors(v).tolist())


@st.composite
def distributed_multigraphs(draw):
    """(pairs, n, distribution): a drawn multigraph split over 1 to n tasks."""
    pairs, n = draw(multigraphs())
    kind = draw(st.sampled_from([BLOCK, RANDOM_HASH]))
    return pairs, n, make_distribution(kind, n, draw(st.integers(1, n)), seed=draw(st.integers(0, 3)))


@settings(deadline=None, max_examples=80)
@given(distributed_multigraphs())
@example(([(0, 1), (1, 2), (2, 0), (2, 3), (3, 1)], 4, make_distribution(BLOCK, 4, 4)))
@example(([], 5, make_distribution(RANDOM_HASH, 5, 2, seed=1)))
@example(([(1, 1), (3, 3)], 4, make_distribution(BLOCK, 4, 2)))
def test_distribute_selects_ghosts_by_their_definition(case):
    pairs, n, dist = case
    g = build_csr(pairs, n)
    owner = dist.owner_of(np.arange(n)).tolist()
    for lg in distribute(g, dist):
        # the distinct neighbor ids owned by other tasks, ascending
        ghosts = sorted({w for v in range(n) if owner[v] == lg.task for w in g.neighbors(v).tolist() if owner[w] != lg.task})
        assert lg.ghosts.dtype == np.int64
        assert lg.ghosts.tolist() == ghosts


@settings(deadline=None, max_examples=80)
@given(multigraphs(), st.integers(1, 4), st.sampled_from([BLOCK, RANDOM_HASH]), st.integers(0, 3))
@example(([], 3), 2, RANDOM_HASH, 1)
@example(([(0, 0), (2, 2), (2, 2)], 3), 3, BLOCK, 0)
def test_adjacency_entries_hold_each_edge_from_both_ends(case, num_tasks, kind, seed):
    """Across all tasks, the (row id, neighbor id) pairs of the adjacency
    entries are every input edge that is not a loop once in each
    orientation, with multiplicity: each edge is tallied from both ends, so
    the sums over tasks halve.  ``owned`` and ``ghosts`` are views of
    ``local_to_global``, which holds each slot's id once."""
    pairs, n = case
    local_graphs = distribute(build_csr(pairs, n), make_distribution(kind, n, min(num_tasks, n), seed=seed))
    entries = []
    for lg in local_graphs:
        entries += zip(lg.owned[lg.edge_src].tolist(), lg.local_to_global[lg.nbr_slots].tolist())
        assert lg.owned.base is lg.local_to_global and lg.ghosts.base is lg.local_to_global
        assert lg.num_ghosts == lg.num_slots - lg.num_owned
    edges = oracles.undirected_pairs(pairs)
    assert sorted(entries) == sorted(edges + [(b, a) for a, b in edges])


def test_local_graph_fields_grow_with_owned_and_ghosts():
    """No per-task array grows with n: a small core among many isolated vertices."""
    n, core = 4096, 64
    pairs, _ = cycle_pairs(core)
    g = build_csr(pairs + [(0, core // 2), (1, core // 3)], n)
    for lg in distribute(g, make_distribution(RANDOM_HASH, n, 4, seed=1)):
        limit = max(lg.num_slots + 1, len(lg.nbr_slots))
        for name, value in vars(lg).items():
            if isinstance(value, np.ndarray):
                assert len(value) <= limit, (lg.task, name, len(value), limit)
