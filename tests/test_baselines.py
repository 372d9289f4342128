import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_pairs
from lppart.baselines import edge_block_partition, random_partition, vertex_block_partition
from lppart.errors import ConfigError
from lppart.graph import build_csr


def test_random_single_part_all_zero():
    assert random_partition(10, 1, seed=0).tolist() == [0] * 10


def test_random_seed_determinism():
    assert np.array_equal(random_partition(100, 4, seed=5), random_partition(100, 4, seed=5))
    assert not np.array_equal(random_partition(100, 4, seed=5), random_partition(100, 4, seed=6))


def test_random_part_sizes_within_multinomial_bound():
    n, p = 1 << 16, 16
    parts = random_partition(n, p, seed=3)
    sizes = np.bincount(parts, minlength=p)
    sigma = (n * (1 / p) * (1 - 1 / p)) ** 0.5
    assert np.abs(sizes - n / p).max() <= 4 * sigma


def test_random_no_empty_parts_at_small_n():
    for seed in range(20):
        parts = random_partition(8, 8, seed=seed)
        assert sorted(parts.tolist()) == list(range(8))


def test_random_rejects_bad_part_count():
    with pytest.raises(ConfigError):
        random_partition(10, 0)
    with pytest.raises(ConfigError):
        random_partition(3, 4)


def test_vertex_block_by_hand():
    assert vertex_block_partition(4, 2).tolist() == [0, 0, 1, 1]
    sizes = np.bincount(vertex_block_partition(5, 2), minlength=2)
    assert sorted(sizes.tolist()) == [2, 3]


def test_vertex_block_imbalance_bound():
    for n, p in ((5, 2), (100, 7), (64, 64)):
        sizes = np.bincount(vertex_block_partition(n, p), minlength=p)
        assert sizes.max() * p / n <= 1 + p / n
        assert sizes.min() >= 1


def test_edge_block_regular_graph_reduces_to_vertex_block():
    # 8-cycle: all degrees equal
    pairs = [(i, (i + 1) % 8) for i in range(8)]
    g = build_csr(pairs, 8)
    assert edge_block_partition(g, 2).tolist() == vertex_block_partition(8, 2).tolist()


def test_edge_block_star_isolates_hub():
    pairs = [(0, i) for i in range(1, 5)]
    g = build_csr(pairs, 5)
    parts = edge_block_partition(g, 2)
    assert parts.tolist() == [0, 1, 1, 1, 1]  # cumulative-degree sweep by hand


def test_edge_block_every_part_nonempty(rng):
    for _ in range(10):
        n = int(rng.integers(8, 60))
        pairs = random_pairs(rng, n, int(rng.integers(0, 150)))
        g = build_csr(pairs, n)
        p = int(rng.integers(2, min(8, n)))
        parts = edge_block_partition(g, p)
        sizes = np.bincount(parts, minlength=p)
        assert sizes.min() >= 1
        assert np.all(np.diff(parts) >= 0)  # contiguous ranges


def test_edge_block_mass_within_factor_two_unless_hub_dominates(rng):
    n = 200
    pairs = random_pairs(rng, n, 1200)
    g = build_csr(pairs, n)
    p = 4
    parts = edge_block_partition(g, p)
    mass = np.zeros(p)
    for v in range(n):
        mass[parts[v]] += g.degrees[v]
    avg = 2 * g.num_edges / p
    if g.degrees.max() <= avg:
        assert mass.max() <= 2 * avg


def test_edge_block_adversarial_hub_exceeds_half_mass():
    # hub holds more than 2m/p incident mass; its block must then exceed the
    # factor-2 bound, and the remaining parts still come out nonempty
    pairs = [(0, i) for i in range(1, 12)]
    g = build_csr(pairs, 12)
    parts = edge_block_partition(g, 4)
    sizes = np.bincount(parts, minlength=4)
    assert sizes.min() >= 1
    assert parts[0] == 0


@st.composite
def degree_skewed_graphs(draw):
    """Small multigraphs whose edges may all sit among the highest ids, so the
    degree mass can run short and force the trailing parts."""
    n = draw(st.integers(1, 40))
    low = draw(st.integers(0, n - 1))
    ids = st.integers(low, n - 1)
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=60))
    return build_csr(pairs, n), draw(st.integers(1, n))


@settings(deadline=None, max_examples=300)
@given(degree_skewed_graphs())
def test_edge_block_matches_the_sweep(case):
    g, p = case
    assert edge_block_partition(g, p).tolist() == oracles.edge_block_partition(g.degrees, g.num_edges, p).tolist()


def test_edge_block_forced_tail_matches_the_sweep():
    # all mass on the last two vertices: parts 1..5 never reach their share in time
    g = build_csr([(8, 9)] * 3, 10)
    parts = edge_block_partition(g, 6)
    assert parts.tolist() == oracles.edge_block_partition(g.degrees, g.num_edges, 6).tolist()
    assert parts.tolist() == [0] * 5 + [1, 2, 3, 4, 5]
