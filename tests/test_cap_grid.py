"""The vertex and edge caps over a grid of graphs, part counts and task counts.

Each case partitions one fixed graph (graph seed 5, average degree 16, block
distribution) at the default tolerances and asserts the caps they set:
``vertex_imbalance <= 1 + vert_imb`` and ``edge_imbalance <= 1 + edge_imb``.
It prints the imbalances and the cut ratio it reached; run with ``-s`` to
see them.  Quality is deterministic, so every run reads the same values.

A case that misses the cap today is a strict expected failure whose reason
names the ROADMAP item expected to fix it.  The fix then shows as an XPASS,
which fails, and the change that fixes it drops the mark.  ``--init block``
gives the same partition for every partitioner seed, so it runs at one.
"""

import pytest

from lppart.gen import GenSpec, generate
from lppart.graph import BLOCK, build_csr, distribute, make_distribution
from lppart.metrics import edge_cut, imbalance
from lppart.partition import Config, xtrapulp

GRAPH_SEED = 5
AVG_DEGREE = 16

GUARDS = "ROADMAP item 1: the vertex guards admit past the cap at T > 1"
FLOOD = "ROADMAP item 2: the bfs-lp flood leaves a part far over the cap"
GUARDS_AND_FLOOD = "ROADMAP items 1 and 2: guards that admit past the cap at T > 1, from a flood part far over it"

# (kind, log2 n, parts, tasks, partitioner seed, init mode)
GRID = (
    [("rmat", 12, 16, T, seed, "bfs-lp") for T in (4, 8) for seed in (1, 2, 3, 4, 5)]
    + [("rmat", 12, 16, T, 1, "block") for T in (4, 8)]
    + [("rmat", 13, p, T, 1, init) for init in ("bfs-lp", "block") for p in (64, 256) for T in (1, 4)]
    + [("randhd", 13, 16, T, 1, "bfs-lp") for T in (1, 4)]
    + [("er", 13, p, 4, 1, "bfs-lp") for p in (64, 256)]
)
MEETS_CAP = {("rmat", 13, 64, 1, "bfs-lp"), ("rmat", 13, 64, 1, "block"), ("rmat", 13, 256, 1, "block")}
# bfs-lp cases that item 1's trial run (ROADMAP) brought under the cap without item 2
GUARDS_ALONE = {("rmat", 12, 16, 4, seed) for seed in (2, 4, 5)} | {("rmat", 12, 16, 8, seed) for seed in (1, 2, 3, 5)}


def _param(kind, scale, p, T, seed, init):
    marks = []
    if (kind, scale, p, T, init) not in MEETS_CAP:
        if init == "block" or (kind, scale, p, T, seed) in GUARDS_ALONE:
            reason = GUARDS
        else:
            reason = FLOOD if T == 1 else GUARDS_AND_FLOOD
        marks.append(pytest.mark.xfail(strict=True, reason=reason))
    return pytest.param(kind, scale, p, T, seed, init, marks=marks, id=f"{kind}{scale}-p{p}-T{T}-seed{seed}-{init}")


@pytest.fixture(scope="module")
def graphs():
    built = {}

    def graph(kind, scale):
        if (kind, scale) not in built:
            n = 1 << scale
            built[kind, scale] = build_csr(generate(GenSpec(kind, n, AVG_DEGREE, seed=GRAPH_SEED)), n)
        return built[kind, scale]

    return graph


@pytest.mark.parametrize("kind,scale,p,T,seed,init", [_param(*case) for case in GRID])
def test_partition_meets_the_caps(graphs, kind, scale, p, T, seed, init):
    g = graphs(kind, scale)
    cfg = Config(num_parts=p, num_tasks=T, seed=seed, init_mode=init)
    local_graphs = distribute(g, make_distribution(BLOCK, g.num_vertices, T))
    parts = xtrapulp(local_graphs, cfg).to_global(local_graphs, g.num_vertices)
    v_imb, e_imb = imbalance(g, parts, p)
    print(f"\n{kind}{scale} p={p} T={T} seed={seed} {init}: v_imb {v_imb:.4f} e_imb {e_imb:.4f} cut {edge_cut(g, parts) / g.num_edges:.4f}")
    assert v_imb <= 1 + cfg.vert_imb
    assert e_imb <= 1 + cfg.edge_imb
