import hashlib
import warnings

import numpy as np
import pytest

import oracles
from conftest import cycle_pairs, grid_pairs, path_pairs, random_pairs, two_cliques_pairs
from lppart.bsp import Runtime
from lppart.errors import ConfigError
from lppart.gen import GenSpec, gen_er, gen_rmat
from lppart.graph import BLOCK, RANDOM_HASH, build_csr, distribute, make_distribution
from lppart.metrics import edge_cut
from lppart.partition import (
    Config,
    compute_mult,
    edge_balance,
    edge_refine,
    init_parts,
    make_ledger,
    make_state,
    vert_balance,
    vert_refine,
    xtrapulp,
)


def single_task(pairs, n):
    g = build_csr(pairs, n)
    locals_ = distribute(g, make_distribution(BLOCK, n, 1))
    return g, locals_


def preset(locals_, num_parts, labels):
    """State with given owned labels, ghosts filled coherently (T=1: none)."""
    state = make_state(locals_, num_parts)
    state.parts[0][:] = np.asarray(labels)
    return state


def run_phase(phase, locals_, state, cfg, iters, **kw):
    rt = Runtime(1)
    ledger = make_ledger(locals_, state, cfg)
    phase(rt, locals_, state, ledger, cfg, iters=iters, **kw)
    return ledger


# ---------------------------------------------------------------------------
# multiplier


def test_mult_endpoints_by_hand():
    assert compute_mult(0, 45, 4, 1.0, 0.25) == pytest.approx(1.0)
    assert compute_mult(45, 45, 4, 1.0, 0.25) == pytest.approx(4.0)
    assert compute_mult(22, 44, 8, 1.0, 0.25) == pytest.approx(8 * 0.625)


def test_mult_linear_and_monotone(rng):
    for _ in range(50):
        nprocs = int(rng.integers(1, 64))
        y = float(rng.uniform(0.05, 1.5))
        x = y + float(rng.uniform(0, 1.5))
        total = int(rng.integers(1, 100))
        values = [compute_mult(t, total, nprocs, x, y) for t in range(total + 1)]
        assert values[0] == pytest.approx(nprocs * y)
        assert values[-1] == pytest.approx(nprocs * x)
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_mult_errors():
    with pytest.raises(ConfigError):
        compute_mult(0, 0, 1, 1.0, 0.25)
    with pytest.raises(ConfigError):
        compute_mult(5, 4, 1, 1.0, 0.25)
    with pytest.raises(ConfigError):
        compute_mult(0, 10, 0, 1.0, 0.25)


def test_config_validation():
    with pytest.raises(ConfigError):
        Config(num_parts=0).validate()
    with pytest.raises(ConfigError):
        Config(num_parts=2, y=0.5, x=0.25).validate()
    with pytest.raises(ConfigError):
        Config(num_parts=2, y=0.0).validate()
    with pytest.raises(ConfigError):
        Config(num_parts=2, outer_iters=0).validate()
    cfg = Config(num_parts=2)
    assert cfg.total_iters == 3 * (5 + 10)


# ---------------------------------------------------------------------------
# initialization


def test_init_every_vertex_rooted_is_permutation():
    pairs, n = path_pairs(6)
    g, locals_ = single_task(pairs, n)
    cfg = Config(num_parts=6, num_tasks=1, seed=3)
    state = make_state(locals_, 6)
    init_parts(Runtime(1), locals_, state, cfg)
    assert sorted(state.parts[0][:n].tolist()) == list(range(6))


def test_init_star_terminates_in_one_propagation_superstep():
    # star: center 0, leaves 1..8; find a seed whose roots include the center
    pairs = [(0, i) for i in range(1, 9)]
    g, locals_ = single_task(pairs, 9)
    for seed in range(50):
        cfg = Config(num_parts=2, num_tasks=1, seed=seed)
        state = make_state(locals_, 2)
        events = []
        init_parts(Runtime(1), locals_, state, cfg, observer=lambda ev: events.append(ev.iteration))
        parts = state.parts[0][:9]
        assert np.all(parts >= 0)
        roots_used = {int(parts[0])}
        if 0 in _roots_for(locals_, 2, seed):
            # all leaves adopt the center's part or carry their own root label
            center = int(parts[0])
            leaf_root = [v for v in _roots_for(locals_, 2, seed) if v != 0]
            for leaf in range(1, 9):
                assert parts[leaf] == center or leaf in leaf_root
            break
    else:
        pytest.fail("no seed put a root on the star center")


def _roots_for(locals_, p, seed):
    from lppart.partition import _draw_roots

    return _draw_roots(locals_, p, seed).tolist()


def test_init_isolated_vertex_gets_fallback_part():
    pairs = [(0, 1), (1, 2)]
    g, locals_ = single_task(pairs, 4)  # vertex 3 isolated
    seen = set()
    for seed in range(12):
        state = make_state(locals_, 2)
        init_parts(Runtime(1), locals_, state, Config(num_parts=2, num_tasks=1, seed=seed))
        assert state.parts[0][3] in (0, 1)
        seen.add(int(state.parts[0][3]))
    assert seen == {0, 1}  # uniform fallback hits both parts across seeds


def test_init_rejects_more_parts_than_vertices():
    pairs, n = path_pairs(3)
    g, locals_ = single_task(pairs, n)
    with pytest.raises(ConfigError):
        init_parts(Runtime(1), locals_, make_state(locals_, 4), Config(num_parts=4, num_tasks=1))


@pytest.mark.parametrize("mode", ["bfs-lp", "random", "block"])
def test_init_modes_cover_and_sync_ghosts(rng, mode):
    n = 60
    g = build_csr(random_pairs(rng, n, 150), n)
    locals_ = distribute(g, make_distribution(BLOCK, n, 3))
    state = make_state(locals_, 4)
    init_parts(Runtime(3), locals_, state, Config(num_parts=4, num_tasks=3, seed=2, init_mode=mode))
    glob = state.to_global(locals_, n)
    assert np.all((glob >= 0) & (glob < 4))
    for lg, parts in zip(locals_, state.parts):
        assert np.array_equal(parts[lg.num_owned :], glob[lg.ghosts])
    if mode == "block":
        assert np.all(np.diff(glob) >= 0)  # contiguous label ranges


# ---------------------------------------------------------------------------
# vertex balance


def test_vert_balance_fixed_point_when_balanced_and_plurality_stable():
    pairs, n = two_cliques_pairs(4)
    g, locals_ = single_task(pairs, n)
    # generous ratio so the size guard is slack; stability must come from
    # the weights and plurality
    cfg = Config(num_parts=2, num_tasks=1, vert_imb=0.5)
    state = preset(locals_, 2, [0] * 4 + [1] * 4)
    ledger = run_phase(vert_balance, locals_, state, cfg, iters=3)
    assert state.parts[0].tolist() == [0] * 4 + [1] * 4
    assert ledger.verts.tolist() == [4, 4]


def test_vert_balance_empty_part_is_a_fixed_point():
    # two triangles joined by one edge, everything in part 0: an empty part
    # accumulates no neighbor counts, so no score is ever positive and the
    # state cannot move (documented limitation of count-driven balancing)
    pairs = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]
    g, locals_ = single_task(pairs, 6)
    cfg = Config(num_parts=2, num_tasks=1, vert_imb=0.10)
    state = preset(locals_, 2, [0] * 6)
    ledger = run_phase(vert_balance, locals_, state, cfg, iters=5)
    assert ledger.verts.tolist() == [6, 0]
    # the full pipeline (roots seed both parts) does reach the balanced split
    outcomes = set()
    for seed in range(6):
        locals2 = distribute(g, make_distribution(BLOCK, 6, 1))
        st = xtrapulp(locals2, Config(num_parts=2, num_tasks=1, seed=seed))
        sizes = tuple(sorted(np.bincount(st.to_global(locals2, 6), minlength=2).tolist()))
        outcomes.add(sizes)
    assert (3, 3) in outcomes


def test_vert_balance_weight_clamps_to_zero_for_overweight():
    from lppart.partition import _weight

    assert _weight(10.0, 12.0) == 0.0
    assert _weight(10.0, 10.0) == 0.0
    assert _weight(10.0, 4.0) == pytest.approx(1.5)
    assert _weight(10.0, 0.0) == pytest.approx(9.0)  # floored denominator

    pairs, n = two_cliques_pairs(4)
    g, locals_ = single_task(pairs, n)
    cfg = Config(num_parts=2, num_tasks=1)
    state = preset(locals_, 2, [0] * 5 + [1] * 3)
    rt = Runtime(1)
    ledger = make_ledger(locals_, state, cfg)
    vert_balance(rt, locals_, state, ledger, cfg, iters=1)
    assert ledger.weights_vert[0] == 0.0  # 5 vertices >= 4.4 target
    assert ledger.weights_vert[1] > 0.0


def test_vert_balance_drains_overweight_part(rng):
    n = 64
    g = build_csr(random_pairs(rng, n, 400), n)
    locals_ = distribute(g, make_distribution(BLOCK, n, 1))
    cfg = Config(num_parts=2, num_tasks=1)
    state = preset(locals_, 2, [0] * 48 + [1] * 16)
    ledger = run_phase(vert_balance, locals_, state, cfg, iters=5)
    assert ledger.verts.max() <= 48
    assert ledger.verts.min() >= 16
    assert abs(int(ledger.verts[0]) - int(ledger.verts[1])) < 32


# ---------------------------------------------------------------------------
# vertex refinement


def test_vert_refine_fixed_point_when_plurality_satisfied():
    pairs, n = two_cliques_pairs(4)
    g, locals_ = single_task(pairs, n)
    cfg = Config(num_parts=2, num_tasks=1, vert_imb=0.5)
    state = preset(locals_, 2, [0] * 4 + [1] * 4)
    run_phase(vert_refine, locals_, state, cfg, iters=3)
    assert state.parts[0].tolist() == [0] * 4 + [1] * 4


def test_vert_refine_alternating_cycle_is_frozen_by_size_guard():
    # 6-cycle alternating 0,1,0,1,0,1 with Imb_v = 3.3: any move makes the
    # destination 4 > Max_v, so the cap freezes the preset state even though
    # two contiguous arcs (cut 2) would be better; brute-force optimum is 2
    pairs, n = cycle_pairs(6)
    g, locals_ = single_task(pairs, n)
    labels = [0, 1, 0, 1, 0, 1]
    assert oracles.edge_cut(pairs, labels) == 6
    assert _min_balanced_bisection_cut(pairs, n) == 2
    state = preset(locals_, 2, labels)
    cfg = Config(num_parts=2, num_tasks=1, vert_imb=0.10)
    run_phase(vert_refine, locals_, state, cfg, iters=10)
    assert state.parts[0].tolist() == labels
    # from an unbalanced start the cap leaves room and refinement reaches
    # the two-arc optimum
    state2 = preset(locals_, 2, [0, 0, 0, 0, 1, 1])
    cfg2 = Config(num_parts=2, num_tasks=1, vert_imb=0.10)
    run_phase(vert_refine, locals_, state2, cfg2, iters=10)
    final = state2.parts[0].tolist()
    assert oracles.edge_cut(pairs, final) == 2


def test_vert_refine_full_part_rejects_plurality_move():
    # vertex 3's plurality is part 0, but part 0 sits at Max_v with no
    # headroom, so the move is vetoed; the triangle keeps 0,1,2 at home
    pairs = [(0, 1), (0, 2), (1, 2), (3, 0), (3, 1), (3, 2), (3, 4)]
    g, locals_ = single_task(pairs, 5)
    state = preset(locals_, 2, [0, 0, 0, 1, 1])
    cfg = Config(num_parts=2, num_tasks=1, vert_imb=0.10)  # Imb_v = 2.75 < 4
    run_phase(vert_refine, locals_, state, cfg, iters=5)
    assert state.parts[0].tolist() == [0, 0, 0, 1, 1]


def test_refine_reaches_plurality_in_slack_instances(rng):
    pairs, n = two_cliques_pairs(8)
    g, locals_ = single_task(pairs, n)
    # one B vertex mislabeled; plenty of slack
    labels = [0] * 8 + [1] * 8
    labels[12] = 0
    state = preset(locals_, 2, labels)
    cfg = Config(num_parts=2, num_tasks=1, vert_imb=0.5)
    run_phase(vert_refine, locals_, state, cfg, iters=5)
    assert state.parts[0].tolist() == [0] * 8 + [1] * 8


# ---------------------------------------------------------------------------
# sweep semantics oracle (move legality, chunk=1 asynchronous reference)


def _refine_reference(g, labels, p, imb_v):
    """Literal per-vertex refinement pass: raw plurality, keep-current ties,
    smallest index wins, destination vetoed at the size cap (exact sizes)."""
    labels = list(labels)
    sizes = [0] * p
    for x in labels:
        sizes[x] += 1
    max_v = max(max(sizes), imb_v)
    for v in range(g.num_vertices):
        counts = [0] * p
        for u in g.neighbors(v):
            counts[labels[u]] += 1
        x = labels[v]
        best, w = counts[x], x
        for i in range(p):
            if i != x and counts[i] > best:
                best, w = counts[i], i
        if w == x or sizes[w] + 1 > max_v:
            continue
        sizes[x] -= 1
        sizes[w] += 1
        labels[v] = w
    return labels


def test_refine_iteration_matches_async_reference(rng):
    for trial in range(5):
        n = 50
        g = build_csr(random_pairs(rng, n, 160), n)
        locals_ = distribute(g, make_distribution(BLOCK, n, 1))
        p = 4
        labels = rng.integers(0, p, size=n).tolist()
        state = preset(locals_, p, labels)
        cfg = Config(num_parts=p, num_tasks=1, chunk=1)
        imb_v = 1.1 * n / p
        expected = _refine_reference(g, labels, p, imb_v)
        run_phase(vert_refine, locals_, state, cfg, iters=1)
        assert state.parts[0].tolist() == expected, f"trial {trial}"


def _balance_reference(g, labels, p, imb_v, mult):
    """Literal per-vertex balance pass at T=1: degree-weighted counts scaled
    by the ramped weights, destination guard at exact sizes, per-move weight
    recomputation with the asymmetric estimate."""
    labels = list(labels)
    sizes = [0] * p
    for x in labels:
        sizes[x] += 1
    max_v = max(max(sizes), imb_v)
    guard = [float(s) for s in sizes]
    est = [float(s) for s in sizes]
    weights = [max(imb_v / max(e, 1.0) - 1.0, 0.0) for e in est]
    deg = g.degrees
    for v in range(g.num_vertices):
        if deg[v] == 0:
            continue
        counts = [0.0] * p
        for u in g.neighbors(v):
            counts[labels[u]] += deg[u]
        x = labels[v]
        best = 0.0 if guard[x] + 1.0 > max_v else counts[x] * weights[x]
        w = x
        for i in range(p):
            if i == x or guard[i] + 1.0 > max_v:
                continue
            s = counts[i] * weights[i]
            if s > best:
                best, w = s, i
        if w == x:
            continue
        labels[v] = w
        guard[x] -= 1.0
        guard[w] += 1.0
        est[x] -= 1.0  # removals charged in full at T=1
        est[w] += mult
        weights[x] = max(imb_v / max(est[x], 1.0) - 1.0, 0.0)
        weights[w] = max(imb_v / max(est[w], 1.0) - 1.0, 0.0)
    return labels


def test_balance_iteration_matches_async_reference(rng):
    for trial in range(5):
        n = 50
        g = build_csr(random_pairs(rng, n, 160), n)
        locals_ = distribute(g, make_distribution(BLOCK, n, 1))
        p = 4
        labels = rng.integers(0, p, size=n).tolist()
        state = preset(locals_, p, labels)
        cfg = Config(num_parts=p, num_tasks=1, chunk=1)
        imb_v = 1.1 * n / p
        mult = compute_mult(0, cfg.total_iters, 1, cfg.x, cfg.y)
        expected = _balance_reference(g, labels, p, imb_v, mult)
        run_phase(vert_balance, locals_, state, cfg, iters=1)
        assert state.parts[0].tolist() == expected, f"trial {trial}"


def _water_fill_reference(labels, deg, p, max_v):
    """Literal isolated-vertex pass at T=1: each degree-zero vertex in turn
    moves to the eligible part pulling hardest toward the mean size (its own
    part wins ties, then the smallest index), sizes updated after every move."""
    labels = list(labels)
    sizes = [0.0] * p
    for x in labels:
        sizes[x] += 1.0
    mean = len(labels) / p
    fill = [max(mean / max(s, 1.0) - 1.0, 0.0) for s in sizes]
    for v in range(len(labels)):
        if deg[v] != 0:
            continue
        x = labels[v]
        best = 0.0 if sizes[x] + 1.0 > max_v else fill[x]
        w = x
        for i in range(p):
            if i == x or sizes[i] + 1.0 > max_v:
                continue
            if fill[i] > best:
                best, w = fill[i], i
        if w == x:
            continue
        labels[v] = w
        sizes[x] -= 1.0
        sizes[w] += 1.0
        fill[x] = max(mean / max(sizes[x], 1.0) - 1.0, 0.0)
        fill[w] = max(mean / max(sizes[w], 1.0) - 1.0, 0.0)
    return labels


def test_isolated_water_fill_matches_async_reference(rng):
    # the vertex-balance superstep is the balance sweep over connected
    # vertices followed by the water-fill over degree-zero ones
    for trial in range(5):
        n, p = 60, 4
        ids = rng.permutation(n)[:40]
        g = build_csr(ids[random_pairs(rng, 40, 120)], n)
        locals_ = distribute(g, make_distribution(BLOCK, n, 1))
        labels = rng.choice(p, size=n, p=[0.4, 0.3, 0.2, 0.1]).tolist()
        state = preset(locals_, p, labels)
        cfg = Config(num_parts=p, num_tasks=1, chunk=1)
        imb_v = 1.1 * n / p
        mult = compute_mult(0, cfg.total_iters, 1, cfg.x, cfg.y)
        max_v = max(max(np.bincount(labels, minlength=p)), imb_v)
        balanced = _balance_reference(g, labels, p, imb_v, mult)
        expected = _water_fill_reference(balanced, g.degrees, p, max_v)
        assert expected != balanced, f"trial {trial}: the water-fill moved nothing"
        run_phase(vert_balance, locals_, state, cfg, iters=1)
        assert state.parts[0].tolist() == expected, f"trial {trial}"


def _edge_balance_reference(g, labels, p, imb_v, imb_e, mult, r_e, r_c):
    """Literal per-vertex edge-balance pass at T=1: degree-weighted counts
    scaled by ``r_e`` times the intra-edge weight plus ``r_c`` times the cut
    weight, destination guard at the vertex target, and per-move intra-edge
    and cut estimates (additions damped by ``mult``, removals in full)."""
    labels = list(labels)
    deg = g.degrees
    sizes = [0.0] * p
    intra = [0] * p
    cut = [0] * p
    for v in range(g.num_vertices):
        sizes[labels[v]] += 1.0
        for u in g.neighbors(v):
            if labels[u] == labels[v]:
                intra[labels[v]] += 1
            else:
                cut[labels[v]] += 1
    est_e = [s / 2 for s in intra]  # every intra edge was seen from both ends
    est_c = [float(c) for c in cut]
    max_c = float(max(cut))

    def weight(target, e):
        return max(target / max(e, 1.0) - 1.0, 0.0)

    def score(i):
        return r_e * weight(imb_e, est_e[i]) + r_c * weight(max_c, est_c[i])

    scores = [score(i) for i in range(p)]
    for v in range(g.num_vertices):
        counts = [0] * p
        wcounts = [0.0] * p
        for u in g.neighbors(v):
            counts[labels[u]] += 1
            wcounts[labels[u]] += deg[u]
        x = labels[v]
        best = 0.0 if sizes[x] + 1.0 > imb_v else wcounts[x] * scores[x]
        w = x
        for i in range(p):
            if i == x or sizes[i] + 1.0 > imb_v:
                continue
            s = wcounts[i] * scores[i]
            if s > best:
                best, w = s, i
        if w == x:
            continue
        labels[v] = w
        sizes[x] -= 1.0
        sizes[w] += 1.0
        kx, kw = counts[x], counts[w]
        ko = deg[v] - kx - kw
        est_e[x] -= kx
        est_e[w] += mult * kw
        dcx, dcw = kx - kw - ko, kx - kw + ko
        est_c[x] += (mult if dcx > 0 else 1.0) * dcx
        est_c[w] += (mult if dcw > 0 else 1.0) * dcw
        scores[x], scores[w] = score(x), score(w)
    return labels


def test_edge_balance_iteration_matches_async_reference(rng):
    for trial in range(5):
        n, p = 80, 6
        g = build_csr(random_pairs(rng, n, 240), n)
        locals_ = distribute(g, make_distribution(BLOCK, n, 1))
        labels = rng.integers(0, p, size=n).tolist()
        state = preset(locals_, p, labels)
        cfg = Config(num_parts=p, num_tasks=1, chunk=1)
        ledger = make_ledger(locals_, state, cfg)
        # late in the stage: the edge ramp froze at iteration 3 and the cut
        # ramp has grown for 27 iterations since, so the two terms differ
        ledger.iter_tot, ledger.edge_balance_hit = 30, 3
        mult = compute_mult(30, cfg.total_iters, 1, cfg.x, cfg.y)
        r_e = (cfg.x - cfg.y) * (3 / cfg.total_iters) + cfg.y
        r_c = (cfg.x - cfg.y) * (27 / cfg.total_iters) + cfg.y
        expected = _edge_balance_reference(g, labels, p, 1.1 * n / p, 1.1 * g.num_edges / p, mult, r_e, r_c)
        assert expected != labels, f"trial {trial}: the reference moved nothing"
        edge_balance(Runtime(1), locals_, state, ledger, cfg, iters=1)
        assert state.parts[0].tolist() == expected, f"trial {trial}"


def test_refine_tie_with_current_part_keeps_it():
    # vertex 0 (part 1) sees two neighbors in part 0 and two in part 1: the
    # first maximum is part 0, but a tie with the current part never moves
    pairs = [(0, 1), (0, 2), (0, 3), (0, 4)]
    g, locals_ = single_task(pairs, 5)
    state = preset(locals_, 2, [1, 0, 0, 1, 1])
    run_phase(vert_refine, locals_, state, Config(num_parts=2, num_tasks=1, vert_imb=3.0), iters=1)
    assert state.parts[0][0] == 1


def test_refine_tie_between_other_parts_takes_lower_index():
    # vertex 0 (part 0) sees one neighbor in part 0 and two each in parts 3
    # and 1: it moves to part 1
    pairs = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]
    g, locals_ = single_task(pairs, 6)
    state = preset(locals_, 4, [0, 0, 3, 3, 1, 1])
    run_phase(vert_refine, locals_, state, Config(num_parts=4, num_tasks=1, vert_imb=3.0), iters=1)
    assert state.parts[0][0] == 1


# ---------------------------------------------------------------------------
# edge stage


def test_edge_balance_fixed_point_when_everything_equal():
    pairs, n = two_cliques_pairs(4)
    g, locals_ = single_task(pairs, n)
    cfg = Config(num_parts=2, num_tasks=1, vert_imb=0.5, edge_imb=0.5)
    state = preset(locals_, 2, [0] * 4 + [1] * 4)
    ledger = run_phase(edge_balance, locals_, state, cfg, iters=3)
    assert state.parts[0].tolist() == [0] * 4 + [1] * 4
    assert ledger.intra_edges.tolist() == [6, 6]


def test_edge_balance_migrates_until_edge_constraint_met():
    pairs, n = two_cliques_pairs(4)
    g, locals_ = single_task(pairs, n)
    # nearly everything in part 0 (only one B vertex seeds part 1):
    # part 0 holds almost all edges and must shed until max S_e <= Imb_e
    labels = [0] * 7 + [1]
    cfg = Config(num_parts=2, num_tasks=1, vert_imb=0.5, edge_imb=0.10)
    state = preset(locals_, 2, labels)
    ledger = run_phase(edge_balance, locals_, state, cfg, iters=5)
    assert ledger.intra_edges.max() <= ledger.edge_target
    from lppart.partition import _weight

    # an over-target part would attract nothing through the edge weight
    assert _weight(ledger.edge_target, ledger.edge_target + 1) == 0.0


def test_edge_ledger_matches_brute_force_recount(rng):
    n = 80
    pairs = random_pairs(rng, n, 320)
    g = build_csr(pairs, n)
    locals_ = distribute(g, make_distribution(BLOCK, n, 1))
    p = 4
    state = preset(locals_, p, rng.integers(0, p, size=n).tolist())
    cfg = Config(num_parts=p, num_tasks=1)
    rt = Runtime(1)
    ledger = make_ledger(locals_, state, cfg)

    def check(ev):
        glob = ev.state.to_global(locals_, n).tolist()
        verts, intra = oracles.part_sizes(pairs, glob, n, p)
        per_cut = oracles.per_part_cut(pairs, glob, p)
        assert ev.ledger.verts.tolist() == verts
        assert ev.ledger.intra_edges.tolist() == intra
        assert ev.ledger.cut_edges.tolist() == per_cut

    edge_balance(rt, locals_, state, ledger, cfg, iters=3, observer=check)
    edge_refine(rt, locals_, state, ledger, cfg, iters=3, observer=check)


def test_edge_refine_no_moves_when_slack_and_plurality_stable():
    pairs, n = two_cliques_pairs(4)
    g, locals_ = single_task(pairs, n)
    cfg = Config(num_parts=2, num_tasks=1, vert_imb=0.5, edge_imb=0.5)
    state = preset(locals_, 2, [0] * 4 + [1] * 4)
    run_phase(edge_refine, locals_, state, cfg, iters=3)
    assert state.parts[0].tolist() == [0] * 4 + [1] * 4


def test_edge_refine_rejects_move_past_edge_cap():
    # vertex 2's plurality points into the clique part, but the destination's
    # estimated intra-edge size would blow past Max_e, so the move is vetoed
    triangle = [(0, 1), (0, 2), (1, 2)]
    clique = [(3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)]
    bridges = [(2, 3), (2, 4), (2, 5)]
    pairs = triangle + clique + bridges
    g, locals_ = single_task(pairs, 7)
    labels = [0, 0, 0, 1, 1, 1, 1]
    state = preset(locals_, 2, labels)
    cfg = Config(num_parts=2, num_tasks=1, vert_imb=1.0, edge_imb=0.10)
    run_phase(edge_refine, locals_, state, cfg, iters=3)
    assert state.parts[0].tolist() == labels


def test_edge_refine_cut_trend_measured_not_asserted(rng):
    # whether refinement can transiently increase the cut is measured and
    # reported; increases are flagged for inspection rather than failed
    increases = []
    for seed in range(20):
        r = np.random.default_rng(seed)
        n = 48
        pairs = random_pairs(r, n, 150)
        g = build_csr(pairs, n)
        locals_ = distribute(g, make_distribution(BLOCK, n, 1))
        p = 3
        state = preset(locals_, p, r.integers(0, p, size=n).tolist())
        cfg = Config(num_parts=p, num_tasks=1)
        rt = Runtime(1)
        ledger = make_ledger(locals_, state, cfg)
        before = edge_cut(g, state.to_global(locals_, n))
        edge_refine(rt, locals_, state, ledger, cfg, iters=10)
        after = edge_cut(g, state.to_global(locals_, n))
        if after > before:
            increases.append((seed, before, after))
    if increases:
        warnings.warn(f"edge_refine increased the cut on {len(increases)}/20 seeds: {increases}")


# ---------------------------------------------------------------------------
# driver


def test_single_part_everything_zero_cut(rng):
    n = 40
    g = build_csr(random_pairs(rng, n, 100), n)
    locals_ = distribute(g, make_distribution(BLOCK, n, 1))
    st = xtrapulp(locals_, Config(num_parts=1, num_tasks=1, seed=0))
    parts = st.to_global(locals_, n)
    assert np.all(parts == 0)
    assert edge_cut(g, parts) == 0


def _min_balanced_bisection_cut(pairs, n):
    """Enumerate all half/half splits (oracle for the optimum)."""
    from itertools import combinations

    best = None
    for left in combinations(range(n), n // 2):
        mask = set(left)
        labels = [0 if v in mask else 1 for v in range(n)]
        cut = oracles.edge_cut(pairs, labels)
        best = cut if best is None else min(best, cut)
    return best


def test_two_cliques_reach_optimum_all_seeds():
    pairs, n = two_cliques_pairs(4)
    g = build_csr(pairs, n)
    assert _min_balanced_bisection_cut(pairs, n) == 1  # the heuristic's target
    for seed in range(10):
        locals_ = distribute(g, make_distribution(BLOCK, n, 1))
        st = xtrapulp(locals_, Config(num_parts=2, num_tasks=1, seed=seed))
        parts = st.to_global(locals_, n)
        assert edge_cut(g, parts) == 1
        assert np.bincount(parts, minlength=2).tolist() == [4, 4]


def test_grid_quality_example():
    pairs, n = grid_pairs(32)
    g = build_csr(pairs, n)
    locals_ = distribute(g, make_distribution(BLOCK, n, 1))
    st = xtrapulp(locals_, Config(num_parts=4, num_tasks=1, seed=1))
    parts = st.to_global(locals_, n)
    v_imb = np.bincount(parts, minlength=4).max() * 4 / n
    assert v_imb <= 1.10
    assert edge_cut(g, parts) / g.num_edges < 0.30


def test_validity_and_conservation_invariants(rng):
    n = 120
    pairs = random_pairs(rng, n, 500)
    g = build_csr(pairs, n)
    locals_ = distribute(g, make_distribution(BLOCK, n, 3))
    p = 5
    seen = []

    def observer(ev):
        if ev.ledger is None:
            return
        glob = ev.state.to_global(locals_, n)
        assert np.all((glob >= 0) & (glob < p))
        assert ev.ledger.verts.sum() == n
        cut = edge_cut(g, glob)
        assert ev.ledger.intra_edges.sum() == g.num_edges - cut
        seen.append(1)

    xtrapulp(locals_, Config(num_parts=p, num_tasks=3, seed=8), observer=observer)
    assert len(seen) == 2 * 3 * (5 + 10)


def test_sequential_determinism(rng):
    n = 100
    g = build_csr(random_pairs(rng, n, 350), n)

    def run():
        locals_ = distribute(g, make_distribution(BLOCK, n, 2))
        st = xtrapulp(locals_, Config(num_parts=4, num_tasks=2, seed=21))
        return st.to_global(locals_, n)

    a, b = run(), run()
    assert np.array_equal(a, b)


# sha256 of the little-endian int64 labels of n=1024 partitions into 8 parts;
# rmat scale 10 has 308 isolated vertices, so every stage and the water-fill
# run, and the hashes pin every label of every sweep
GOLDEN = [
    ("rmat", 1, BLOCK, {}, "c95cc5f68d8835d51598403be60b903ad294fbb5ed51fd138c95f381b30e8916"),
    ("rmat", 3, BLOCK, {}, "a7da8d554ca035981c2a7220a1293ac8ed836e02f31c57154e99974a035f6fe1"),
    ("rmat", 4, RANDOM_HASH, {}, "fd85169ae3000530c5cd7ca46c101a2d890dbee3d92eed83be52dcb03eaddadf"),
    ("rmat", 2, BLOCK, {"chunk": 64}, "e8d8b9d0aeaab7cadde96ce75efca74aafcf5f1a9cf7b22cbaca77e0a447e400"),
    ("er", 3, BLOCK, {"init_mode": "random"}, "10c945d8e1e6fa85a4ea61dbe84ca20eb6efbf322b4f5ba3d09f7c3ef1c42a76"),
]


@pytest.mark.parametrize("kind,T,dist,extra,digest", GOLDEN, ids=["rmat-T1", "rmat-T3", "rmat-hash-T4", "rmat-chunk64", "er-random-init"])
def test_partition_matches_golden_hash(kind, T, dist, extra, digest):
    n = 1 << 10
    pairs = gen_rmat(GenSpec("rmat", n, 8, seed=4)) if kind == "rmat" else gen_er(n, 8, seed=4)
    g = build_csr(pairs, n)
    locals_ = distribute(g, make_distribution(dist, n, T, seed=2))
    st = xtrapulp(locals_, Config(num_parts=8, num_tasks=T, seed=3, **extra))
    parts = st.to_global(locals_, n)
    assert hashlib.sha256(parts.astype("<i8").tobytes()).hexdigest() == digest


def test_task_count_mismatch_rejected(rng):
    g = build_csr(random_pairs(rng, 20, 40), 20)
    for graph_tasks, runtime in ((2, None), (3, Runtime(2))):
        locals_ = distribute(g, make_distribution(BLOCK, 20, graph_tasks))
        with pytest.raises(ConfigError):
            xtrapulp(locals_, Config(num_parts=2, num_tasks=3), runtime=runtime)


def test_ledger_targets_match_configuration(rng):
    n = 90
    pairs = random_pairs(rng, n, 300)
    g = build_csr(pairs, n)
    locals_ = distribute(g, make_distribution(BLOCK, n, 2))
    cfg = Config(num_parts=4, num_tasks=2, vert_imb=0.07, edge_imb=0.21)
    state = preset_multi(locals_, 4, rng.integers(0, 4, size=n))
    ledger = make_ledger(locals_, state, cfg)
    assert ledger.vert_target == pytest.approx(1.07 * n / 4)
    assert ledger.edge_target == pytest.approx(1.21 * g.num_edges / 4)
    assert ledger.verts.sum() == n
    assert ledger.total_iters == cfg.total_iters


def preset_multi(locals_, num_parts, global_labels):
    state = make_state(locals_, num_parts)
    glob = np.asarray(global_labels)
    for lg, parts in zip(locals_, state.parts):
        parts[:] = glob[lg.local_to_global]
    return state
