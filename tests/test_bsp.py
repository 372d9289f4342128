import numpy as np
import pytest

import oracles
from conftest import random_pairs
from lppart import partition
from lppart.bsp import (
    Runtime,
    SuperstepError,
    allreduce_sum,
    apply_updates,
    broadcast,
    build_send_buffers,
    exchange_updates,
)
from lppart.errors import ProtocolError
from lppart.graph import BLOCK, RANDOM_HASH, build_csr, distribute, make_distribution
from lppart.partition import Config, xtrapulp


def _setup(rng, n=256, m=800, T=4, kind=RANDOM_HASH):
    g = build_csr(random_pairs(rng, n, m), n)
    locals_ = distribute(g, make_distribution(kind, n, T, seed=3))
    parts = [np.zeros(lg.num_slots, dtype=np.int64) for lg in locals_]
    return g, locals_, parts


def _queue(entries):
    """The int64 gid array a task queues for (gid, part) entries already in its parts array."""
    return np.array([gid for gid, _ in entries], dtype=np.int64)


# ---------------------------------------------------------------------------
# collectives


def test_allreduce_by_hand():
    assert allreduce_sum([np.array([1, 2]), np.array([3, 4])]).tolist() == [4, 6]
    assert allreduce_sum([np.zeros(3, dtype=int)] * 4).tolist() == [0, 0, 0]


def test_allreduce_matches_sequential_sum(rng):
    vectors = [rng.integers(0, 100, size=16) for _ in range(8)]
    expected = [sum(int(v[i]) for v in vectors) for i in range(16)]
    assert allreduce_sum(vectors).tolist() == expected


def test_allreduce_length_mismatch():
    with pytest.raises(ProtocolError):
        allreduce_sum([np.array([1, 2]), np.array([1, 2, 3])])


def test_broadcast_single_task():
    assert broadcast([7], 1) == [[7]]


def test_broadcast_all_tasks_identical(rng):
    roots = rng.integers(0, 100, size=5)
    copies = broadcast(roots, 4)
    assert len(copies) == 4
    for c in copies:
        assert np.array_equal(c, roots)
    copies[0][0] = -1  # private copies: mutation does not leak
    assert copies[1][0] == roots[0]


# ---------------------------------------------------------------------------
# exchange


def test_empty_queues_no_op(rng):
    g, locals_, parts = _setup(rng)
    received, buffers = exchange_updates(locals_, parts, [_queue([]) for _ in locals_])
    assert all(len(r[0]) == 0 for r in received)
    assert all(b.pairs_sent == 0 for b in buffers)


def test_single_cross_edge_delivery():
    g = build_csr([(0, 1), (1, 2), (2, 3)], 4)
    locals_ = distribute(g, make_distribution(BLOCK, 4, 2))
    parts = [np.zeros(lg.num_slots, dtype=np.int64) for lg in locals_]
    parts[0][locals_[0].global_to_local[1]] = 5
    received, _ = exchange_updates(locals_, parts, [_queue([(1, 5)]), _queue([])])
    gids, labels = received[1]
    assert gids.tolist() == [1] and labels.tolist() == [5]
    assert received[0][0].tolist() == []


def test_exchange_matches_brute_force_oracle(rng):
    g, locals_, parts = _setup(rng, T=4)
    rng2 = np.random.default_rng(77)
    queues = []
    plan_queues = []
    for lg, pl in zip(locals_, parts):
        take = rng2.random(lg.num_owned) < 0.4
        rows = np.nonzero(take)[0]
        labels = rng2.integers(0, 6, size=len(rows))
        pl[rows] = labels
        entries = list(zip(lg.owned[rows].tolist(), labels.tolist()))
        queues.append(_queue(entries))
        plan_queues.append(entries)

    expected, total_sent = oracles.exchange_plan(locals_, plan_queues)
    received, buffers = exchange_updates(locals_, parts, queues)
    assert sum(b.pairs_sent for b in buffers) == total_sent  # no phantom traffic
    assert sum(len(r[0]) for r in received) == total_sent  # conservation
    for t, (gids, labels) in enumerate(received):
        got = sorted(zip(gids.tolist(), labels.tolist()))
        assert got == sorted(expected[t])
        # at most one copy of each vertex per exchange
        assert len(set(gids.tolist())) == len(gids)


def test_buffer_layout_offsets_and_counts(rng):
    g, locals_, parts = _setup(rng, T=3)
    lg = locals_[0]
    rows = np.arange(min(10, lg.num_owned))
    entries = [(int(lg.owned[r]), 1) for r in rows]
    for r in rows:
        parts[0][r] = 1
    buf = build_send_buffers(lg, parts[0], np.array([g for g, _ in entries]))
    assert buf.send_offsets.tolist() == np.concatenate([[0], np.cumsum(buf.send_counts)[:-1]]).tolist()
    assert len(buf.send_buffer) == buf.send_counts.sum()
    assert buf.send_counts[lg.task] == 0


def test_unowned_vertex_rejected(rng):
    g, locals_, parts = _setup(rng, T=2)
    ghost_gid = int(locals_[0].ghosts[0])
    with pytest.raises(ProtocolError):
        exchange_updates(locals_, parts, [_queue([(ghost_gid, 1)]), _queue([])])


def test_ghost_coherence_after_apply(rng):
    g, locals_, parts = _setup(rng, n=400, m=1600, T=8)
    rng2 = np.random.default_rng(5)
    queues = []
    for lg, pl in zip(locals_, parts):
        rows = np.nonzero(rng2.random(lg.num_owned) < 0.5)[0]
        labels = rng2.integers(0, 4, size=len(rows))
        pl[rows] = labels
        queues.append(_queue(list(zip(lg.owned[rows].tolist(), labels.tolist()))))
    received, _ = exchange_updates(locals_, parts, queues)
    for lg, pl, recv in zip(locals_, parts, received):
        apply_updates(lg, pl, recv)
    # every ghost equals its owner's value
    glob = np.zeros(g.num_vertices, dtype=np.int64)
    for lg, pl in zip(locals_, parts):
        glob[lg.owned] = pl[: lg.num_owned]
    for lg, pl in zip(locals_, parts):
        assert np.array_equal(pl[lg.num_owned :], glob[lg.ghosts])


def test_apply_rejects_owned_updates(rng):
    g, locals_, parts = _setup(rng, T=2)
    gid = int(locals_[0].owned[0])
    with pytest.raises(ProtocolError):
        apply_updates(locals_[0], parts[0], (np.array([gid]), np.array([1])))


# ---------------------------------------------------------------------------
# runtime


def test_superstep_counter_sums_to_tasks():
    rt = Runtime(5)
    counters = [0] * 5

    def step(t):
        counters[t] += 1

    rt.run_superstep(step)
    assert sum(counters) == 5
    assert rt.superstep == 1


def test_single_task_barrier_degenerate():
    rt = Runtime(1)
    assert rt.run_superstep(lambda t: t) == [0]


def test_task_failure_aborts_superstep():
    rt = Runtime(3)

    def step(t):
        if t == 1:
            raise ValueError("boom")
        return t

    with pytest.raises(SuperstepError, match="task 1"):
        rt.run_superstep(step)


class ReversedRuntime(Runtime):
    """Runs each superstep's tasks last to first; results still come back in task order."""

    def __init__(self, num_tasks):
        super().__init__(num_tasks)
        self.order = []

    def run_superstep(self, step_fn):
        last = self.num_tasks - 1

        def step(t):
            self.order.append(last - t)
            return step_fn(last - t)

        return super().run_superstep(step)[::-1]


def test_task_order_does_not_change_labels(rng):
    n = 300
    g = build_csr(random_pairs(rng, n, 900), n)
    for init_mode in ("bfs-lp", "random", "block"):
        for kind in (BLOCK, RANDOM_HASH):
            locals_ = distribute(g, make_distribution(kind, n, 4, seed=3))
            cfg = Config(num_parts=5, num_tasks=4, seed=11, init_mode=init_mode)
            expected = xtrapulp(locals_, cfg).to_global(locals_, n)
            rt = ReversedRuntime(4)
            got = xtrapulp(locals_, cfg, runtime=rt).to_global(locals_, n)
            assert rt.order[:4] == [3, 2, 1, 0]
            assert np.array_equal(got, expected), (init_mode, kind)


def test_trace_records_message_counts(rng, monkeypatch):
    g = build_csr(random_pairs(rng, 64, 200), 64)
    locals_ = distribute(g, make_distribution(BLOCK, 64, 2))
    exchanged = []
    real_exchange = partition.exchange_updates

    def recording_exchange(*args):
        received, buffers = real_exchange(*args)
        exchanged.append(([len(b.send_buffer) // 2 for b in buffers], sum(len(b.recv_buffer) for b in buffers) // 2))
        return received, buffers

    monkeypatch.setattr(partition, "exchange_updates", recording_exchange)
    events = []
    xtrapulp(locals_, Config(num_parts=3, num_tasks=2, seed=0), observer=events.append)
    assert len(events) == len(exchanged) > 0, "one event per superstep exchange"
    assert [ev.superstep for ev in events] == list(range(1, len(events) + 1))
    assert any(sum(ev.pairs_sent) for ev in events)
    for ev, (per_task, total) in zip(events, exchanged):
        assert ev.pairs_sent == per_task
        assert sum(ev.pairs_sent) == total
