"""Acceptance suite: one test per criterion, heaviest work shared via fixtures.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion; the standard invocation asserts everything as well.
"""

import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import conftest
import oracles
from conftest import grid_pairs, random_pairs, two_cliques_pairs
from lppart import io
from lppart.baselines import random_partition
from lppart.cli import main as cli_main
from lppart.gen import GenSpec, gen_er, gen_randhd, gen_rmat
from lppart.graph import BLOCK, RANDOM_HASH, build_csr, distribute, make_distribution
from lppart.metrics import approx_diameter, edge_cut, imbalance
from lppart.partition import Config, compute_mult, xtrapulp

def record(number, name):
    line = f"ACCEPTANCE {number} ({name}): PASS"
    conftest.ACCEPTANCE_RESULTS.append(line)
    print("\n" + line)


def make_graph(kind, seed):
    if kind == "rmat14":
        return build_csr(gen_rmat(GenSpec("rmat", 1 << 14, 16, seed=seed)), 1 << 14)
    if kind == "er14":
        return build_csr(gen_er(1 << 14, 16, seed=seed), 1 << 14)
    pairs, n = grid_pairs(64)
    return build_csr(pairs, n)


GRAPH_SEED = 5  # instance draw for the three test graphs
FAMILIES = ("rmat14", "er14", "grid64")
PART_COUNTS = (4, 8, 16)
SEEDS = range(10)


def _constraint_job(args):
    kind, p, seed = args
    g = make_graph(kind, GRAPH_SEED)
    locals_ = distribute(g, make_distribution(BLOCK, g.num_vertices, 1))
    state = xtrapulp(locals_, Config(num_parts=p, num_tasks=1, seed=seed))
    parts = state.to_global(locals_, g.num_vertices)
    v_imb, e_imb = imbalance(g, parts, p)
    cut_ratio = edge_cut(g, parts) / g.num_edges
    rand_ratio = edge_cut(g, random_partition(g.num_vertices, p, seed=seed)) / g.num_edges
    return {"kind": kind, "p": p, "seed": seed, "v_imb": v_imb, "e_imb": e_imb,
            "cut_ratio": cut_ratio, "rand_ratio": rand_ratio}


@pytest.fixture(scope="module")
def constraint_runs():
    jobs = [(kind, p, seed) for kind in FAMILIES for p in PART_COUNTS for seed in SEEDS]
    workers = max(1, min(8, os.cpu_count() or 1))
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        return list(pool.map(_constraint_job, jobs))


# ---------------------------------------------------------------------------


def test_criterion_01_ghost_coherence():
    """Every ghost equals its owner's label after every superstep (50 graphs)."""
    start = time.time()
    rng = np.random.default_rng(2024)
    task_counts = (1, 2, 4, 8)
    checked = 0
    for i in range(50):
        T = task_counts[i % 4]
        n = int(rng.integers(200, 1 << 12))
        m = int(rng.integers(2 * n, 4 * n))
        g = build_csr(random_pairs(rng, n, m), n)
        kind = BLOCK if i % 2 else RANDOM_HASH
        locals_ = distribute(g, make_distribution(kind, n, T, seed=i))
        p = (2, 4, 8)[i % 3]

        def observer(ev):
            nonlocal checked
            glob = np.full(n, -1, dtype=np.int64)
            for lg, parts in zip(locals_, ev.state.parts):
                glob[lg.owned] = parts[: lg.num_owned]
            for lg, parts in zip(locals_, ev.state.parts):
                assert np.array_equal(parts[lg.num_owned :], glob[lg.ghosts]), (
                    f"graph {i}: ghost desync at {ev.phase} iter {ev.iteration}"
                )
            checked += 1

        xtrapulp(locals_, Config(num_parts=p, num_tasks=T, seed=i), observer=observer)
    elapsed = time.time() - start
    assert checked > 50 * 90
    assert elapsed < 60, f"coherence suite took {elapsed:.1f}s"
    record(1, "ghost coherence")


def test_criterion_02_ledger_honesty():
    """Ledger part sizes equal brute-force recounts at every boundary."""
    rng = np.random.default_rng(7)
    for i in range(10):
        n = int(rng.integers(100, 800))
        m = int(rng.integers(n, min(4 * n, 10**4 // 2)))
        pairs = random_pairs(rng, n, m)
        g = build_csr(pairs, n)
        T = (1, 2, 4)[i % 3]
        p = (3, 5, 8)[i % 3]
        locals_ = distribute(g, make_distribution(BLOCK, n, T, seed=i))
        pair_list = pairs.tolist()

        def observer(ev):
            if ev.ledger is None:
                return
            glob = ev.state.to_global(locals_, n).tolist()
            verts, intra = oracles.part_sizes(pair_list, glob, n, p)
            assert ev.ledger.verts.tolist() == verts
            assert ev.ledger.intra_edges.tolist() == intra
            assert ev.ledger.cut_edges.tolist() == oracles.per_part_cut(pair_list, glob, p)

        xtrapulp(locals_, Config(num_parts=p, num_tasks=T, seed=i), observer=observer)
    record(2, "ledger honesty")


def test_criterion_03_constraint_satisfaction(constraint_runs):
    """Vertex and edge imbalance within 1.10 in >=80% of runs, 1.15 always."""
    within_110 = sum(1 for r in constraint_runs if r["v_imb"] <= 1.10 and r["e_imb"] <= 1.10)
    worst = max(max(r["v_imb"], r["e_imb"]) for r in constraint_runs)
    frac = within_110 / len(constraint_runs)
    print(f"\n  constraint satisfaction: {within_110}/{len(constraint_runs)} within 1.10, worst {worst:.3f}")
    assert frac >= 0.80, f"only {frac:.0%} of runs within 1.10"
    assert worst <= 1.15, f"worst imbalance {worst:.3f} exceeds 1.15"
    record(3, "constraint satisfaction")


def test_criterion_04_beats_random_baseline(constraint_runs):
    """Partitioner cut vs random: aggregate ratio <= 0.6; random ~ (p-1)/p.

    The cut comparison is asserted as the geometric mean over the (graph, p)
    cells of cut_ratio / random_cut_ratio; a per-instance bound is not
    attainable on the uniform random graph (its measured cut ratio is near
    the theoretical optimum already, see the decisions ledger).
    """
    for r in constraint_runs:
        assert abs(r["rand_ratio"] - (r["p"] - 1) / r["p"]) < 0.02, r
    logs = []
    for kind in FAMILIES:
        for p in PART_COUNTS:
            cell = [r for r in constraint_runs if r["kind"] == kind and r["p"] == p]
            ratio = np.mean([r["cut_ratio"] for r in cell]) / np.mean([r["rand_ratio"] for r in cell])
            logs.append(math.log(ratio))
            print(f"\n  {kind} p={p}: cut/random = {ratio:.3f}")
    aggregate = math.exp(sum(logs) / len(logs))
    print(f"  aggregate geomean cut/random = {aggregate:.3f}")
    assert aggregate <= 0.6
    record(4, "beats random baseline")


def test_criterion_05_optimal_on_separable_toys():
    """Two k-cliques joined by one edge split perfectly, 10/10 seeds."""
    for k in (4, 8):
        pairs, n = two_cliques_pairs(k)
        g = build_csr(pairs, n)
        for seed in range(10):
            locals_ = distribute(g, make_distribution(BLOCK, n, 1))
            state = xtrapulp(locals_, Config(num_parts=2, num_tasks=1, seed=seed))
            parts = state.to_global(locals_, n)
            assert edge_cut(g, parts) == 1, f"k={k} seed={seed}"
            assert np.bincount(parts, minlength=2).tolist() == [k, k], f"k={k} seed={seed}"
    record(5, "optimal on separable toys")


def test_criterion_06_multiplier_endpoints():
    """compute_mult endpoints exact for 100 random tuples; monotone for x >= y."""
    rng = np.random.default_rng(99)
    for _ in range(100):
        nprocs = int(rng.integers(1, 512))
        y = float(rng.uniform(1e-3, 2.0))
        x = y + float(rng.uniform(0.0, 2.0))
        total = int(rng.integers(1, 200))
        assert compute_mult(0, total, nprocs, x, y) == pytest.approx(nprocs * y, rel=1e-12)
        assert compute_mult(total, total, nprocs, x, y) == pytest.approx(nprocs * x, rel=1e-12)
        samples = [compute_mult(t, total, nprocs, x, y) for t in range(0, total + 1, max(1, total // 17))]
        assert all(b >= a - 1e-9 for a, b in zip(samples, samples[1:]))
    record(6, "multiplier endpoints")


def test_criterion_07_determinism(tmp_path):
    """Byte-identical partition files across 3 repeated runs."""
    instances = []
    pairs, n = grid_pairs(32)
    grid_file = tmp_path / "grid32.txt"
    io.write_edge_list(grid_file, np.asarray(pairs))
    instances.append(grid_file)
    rmat_file = tmp_path / "rmat12.txt"
    io.write_edge_list(rmat_file, gen_rmat(GenSpec("rmat", 1 << 12, 16, seed=3)))
    instances.append(rmat_file)
    er_file = tmp_path / "er12.txt"
    io.write_edge_list(er_file, gen_er(1 << 12, 16, seed=3))
    instances.append(er_file)
    cl_file = tmp_path / "cliques.txt"
    io.write_edge_list(cl_file, np.asarray(two_cliques_pairs(8)[0]))
    instances.append(cl_file)

    for path in instances:
        blobs = []
        for rep in range(3):
            out = tmp_path / f"{path.stem}-{rep}.parts"
            code = cli_main(["partition", "-i", str(path), "-p", "4", "-T", "2",
                             "--seed", "11", "-o", str(out)])
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2], path
    record(7, "determinism")


def test_criterion_08_metric_oracle_equivalence():
    """edge_cut / max_part_cut / imbalance agree exactly with brute force."""
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(8, 400))
        m = int(rng.integers(0, min(5 * n, 10**4)))
        pairs = random_pairs(rng, n, m)
        g = build_csr(pairs, n)
        p = int(rng.integers(1, 9))
        parts = rng.integers(0, p, size=n)
        plist = parts.tolist()
        assert edge_cut(g, parts) == oracles.edge_cut(pairs, plist)
        count, arg = max_part_cut_checked(g, parts, p)
        oracle_counts = oracles.per_part_cut(pairs, plist, p)
        assert count == max(oracle_counts)
        assert arg == oracle_counts.index(max(oracle_counts))
        vi, ei = imbalance(g, parts, p)
        ov, oe = oracles.imbalance(pairs, plist, n, p)
        assert vi == pytest.approx(ov) and ei == pytest.approx(oe)
    record(8, "metric oracle equivalence")


def max_part_cut_checked(g, parts, p):
    from lppart.metrics import per_part_cut

    counts = per_part_cut(g, parts, p)
    winner = int(counts.argmax())
    return int(counts[winner]), winner


def test_criterion_09_ramp_trend_directions():
    """Lower (x, y) should not hurt the cut; (2, 2) should not hurt balance."""
    g = build_csr(gen_rmat(GenSpec("rmat", 1 << 12, 16, seed=9)), 1 << 12)

    def averages(x, y):
        cuts, imbs = [], []
        for seed in range(5):
            locals_ = distribute(g, make_distribution(BLOCK, g.num_vertices, 1))
            state = xtrapulp(locals_, Config(num_parts=8, num_tasks=1, seed=seed, x=x, y=y))
            parts = state.to_global(locals_, g.num_vertices)
            cuts.append(edge_cut(g, parts))
            vi, ei = imbalance(g, parts, 8)
            imbs.append(max(vi, ei))
        return float(np.mean(cuts)), float(np.mean(imbs))

    cut_low, _ = averages(0.5, 0.25)
    cut_high, imb_tight = averages(2.0, 2.0)
    _, imb_loose = averages(0.25, 0.10)
    print(f"\n  cut(0.5,0.25)={cut_low:.0f} <= cut(2,2)={cut_high:.0f}; "
          f"imb(2,2)={imb_tight:.3f} <= imb(0.25,0.1)={imb_loose:.3f}")
    assert cut_low <= cut_high
    assert imb_tight <= imb_loose
    record(9, "ramp trend directions")


def test_criterion_10_generator_laws():
    """Pair-count formulas exact; randhd locality universal; diameter gap >= 10x."""
    n = 1 << 14
    assert gen_rmat(GenSpec("rmat", n, 16, seed=1)).shape == (n * 16 // 2, 2)
    assert gen_er(n, 16, seed=1).shape == (n * 16 // 2, 2)
    hd = gen_randhd(n, 16, seed=1)
    assert hd.shape == (n * 16, 2)
    assert np.all(np.abs(hd[:, 0] - hd[:, 1]) < 16)
    for arr in (gen_rmat(GenSpec("rmat", n, 16, seed=1)), gen_er(n, 16, seed=1), hd):
        assert arr.min() >= 0 and arr.max() < n

    d_hd = approx_diameter(build_csr(hd, n), seed=2)
    d_er = approx_diameter(build_csr(gen_er(n, 16, seed=1), n), seed=2)
    print(f"\n  approx diameters: randhd={d_hd}, er={d_er}")
    assert d_hd >= 10 * d_er
    record(10, "generator laws")


def test_criterion_11_suite_runtime():
    """The whole suite stays under the 15 minute budget."""
    elapsed = time.time() - conftest.SESSION_START
    print(f"\n  suite elapsed: {elapsed:.1f}s")
    assert elapsed < 15 * 60
    record(11, "suite runtime")
