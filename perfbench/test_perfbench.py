"""Tests of the benchmark's own code: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import types

import numpy as np
import pytest

import run
import tracing
from checks import OutputChecker, partition_sha256
from stats import quartile_spread, tail_percentile
from tracing import Mark, Span, Tracer, insert_stages, partition_layers, self_time


def test_tail_percentile_needs_more_than_ten_samples():
    assert tail_percentile(range(10)) is None
    assert tail_percentile([]) is None


def test_tail_percentile_is_highest_with_ten_samples_beyond():
    # 11 samples: only the smallest has ten above it
    assert tail_percentile(range(11, 0, -1)) == (100.0 / 11, 1)
    pct, value = tail_percentile(range(1, 101))
    assert pct == 90.0 and value == 90
    assert sum(v > value for v in range(1, 101)) == 10
    pct, value = tail_percentile(range(1, 1001))
    assert pct == 99.0 and value == 990


def test_quartile_spread_matches_statistics_quantiles():
    # exclusive method: quartiles at ranks 2.75 and 8.25 of 10
    values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    assert quartile_spread(values) == pytest.approx((17.25 - 11.75) / 14.5)


def test_self_time_subtracts_union_of_children():
    parent = Span("p", 0.0, 10.0)
    children = [Span("a", 1.0, 3.0), Span("b", 2.0, 5.0), Span("c", 8.0, 12.0)]
    # covered: [1, 5] and [8, 10] (the last child is clipped to the parent)
    assert self_time(parent, children) == pytest.approx(4.0)
    assert self_time(parent, []) == pytest.approx(10.0)


def test_self_time_on_span_tree_counts_only_direct_children():
    tracer = Tracer()
    tracer.spans = [
        Span("job", 0.0, 10.0),
        Span("stage", 0.0, 6.0, parent=0),
        Span("sweep", 1.0, 4.0, parent=1),
        Span("task", 1.5, 3.5, parent=2),
        Span("exchange", 4.0, 5.0, parent=1),
    ]
    kids = tracer.children()
    selfs = [self_time(sp, [tracer.spans[k] for k in kids.get(i, [])]) for i, sp in enumerate(tracer.spans)]
    assert selfs == pytest.approx([4.0, 2.0, 1.0, 2.0, 1.0])
    assert sum(selfs) == pytest.approx(tracer.spans[0].duration)


def test_stage_spans_partition_the_job():
    tracer = Tracer()
    tracer.spans = [Span("partition.xtrapulp", 0.0, 10.0)]
    for start, end, name, moves in [(0.5, 1.5, "bsp.superstep", 4), (1.5, 2.0, "bsp.exchange", 0),
                                    (2.5, 3.0, "bsp.superstep", 0), (3.0, 3.5, "metrics.recount", 0),
                                    (4.0, 6.0, "bsp.superstep", 2), (6.0, 7.0, "bsp.exchange", 0)]:
        tracer.spans.append(Span(name, start, end, parent=0, attrs={"moves": moves, "pairs": 3} if moves or name == "bsp.superstep" else {"pairs": 3}))
        if name == "bsp.superstep":
            tracer.spans.append(Span("bsp.task", start, (start + end) / 2, parent=len(tracer.spans) - 1))
            tracer.spans.append(Span("bsp.task", (start + end) / 2, end, parent=len(tracer.spans) - 2))
    marks = [Mark(2.0, "init"), Mark(2.2, "vertex-balance", 11, 6, 12, 7), Mark(3.5, "vertex-balance", 10, 6, 11, 6),
             Mark(7.5, "vertex-refine", 9, 5, 10, 6)]
    stages = insert_stages(tracer, 0, marks)
    assert [tracer.spans[s].attrs["phase"] for s in stages] == ["init", "vertex-balance", "vertex-refine"]
    layers = partition_layers(tracer, 0, stages)
    assert layers["partition.init.s"] == pytest.approx(2.0)
    assert layers["partition.vertex-balance.supersteps"] == 1
    assert layers["partition.vertex-balance.idle_supersteps"] == 1
    assert layers["partition.vertex-balance.cut_exit"] == 10
    assert layers["partition.vertex-refine.moves"] == 2
    assert layers["partition.init.cut_exit"] == 12 and layers["partition.init.max_cut_exit"] == 7
    assert layers["partition.vertex-refine.cut_exit"] == 9
    assert layers["bsp.pairs_sent"] == 6
    assert layers["metrics.recount_calls"] == 1
    for stage in ("init", "vertex-balance", "vertex-refine"):
        parts = layers[f"bsp.{stage}.sweep_s"] + layers[f"partition.{stage}.self_s"]
        assert parts <= layers[f"partition.{stage}.s"] + 1e-12
    total_children = layers["bsp.exchange_s"] + layers["metrics.recount_s"] + sum(layers[f"bsp.{s}.sweep_s"] for s in tracing.STAGES)
    total_self = sum(layers[f"partition.{s}.self_s"] for s in tracing.STAGES)
    assert total_children + total_self == pytest.approx(7.5)


def test_checker_rejects_wrong_length_out_of_range_and_changed_label():
    parts = np.arange(20, dtype=np.int64) % 4
    checker = OutputChecker()
    assert checker.partition("p", parts, 20, 4) == []
    assert checker.partition("p", parts.copy(), 20, 4) == []
    assert checker.partition("p", parts[:-1], 20, 4)
    bad = parts.copy()
    bad[3] = 4
    assert checker.partition("p", bad, 20, 4)
    bad[3] = -1
    assert checker.partition("p", bad, 20, 4)
    changed = parts.copy()
    changed[7] = (changed[7] + 1) % 4
    assert checker.partition("p", changed, 20, 4)
    assert checker.partition("p", parts.astype(float), 20, 4)


def test_sha_ignores_integer_dtype():
    parts = np.array([0, 1, 2, 1])
    assert partition_sha256(parts.astype(np.int32)) == partition_sha256(parts.astype(np.int64))


def test_patch_forwards_arguments_and_reports_missing(monkeypatch):
    calls = []

    def target(a, b=0, *rest, key=None):
        calls.append((a, b, rest, key))
        return a + b

    fake = types.SimpleNamespace(target=target)
    monkeypatch.setattr(tracing, "WRAPPED", ((fake, "target", "fake.target", None), (fake, "gone", "fake.gone", None)))
    tracer = Tracer()
    with tracing.patch(tracer) as missing:
        assert fake.target(1, 2, 3, key="k") == 3
    assert missing == ["fake.gone"]
    assert fake.target is target
    assert calls == [(1, 2, (3,), "k")]
    assert [sp.name for sp in tracer.spans] == ["fake.target"]


def _tiny_context(tmp_path, seed=1, tasks=2):
    w = run.Workload("rmat", 1 << 9, "npz", 4, tasks, "block")
    ctx = run.Context(w, run.make_input(w, seed, tmp_path), tmp_path)
    run.set_up(ctx, None)
    return ctx


def test_traced_job_matches_untraced_and_stages_cover_it(tmp_path):
    ctx = _tiny_context(tmp_path)
    _, plain, _ = run.partition_job(ctx, None)
    tracer = Tracer()
    elapsed, state, layers = run.partition_job(ctx, tracer)
    checker = OutputChecker()
    assert run.check_partition(ctx, checker, plain)[0] == []
    assert run.check_partition(ctx, checker, state)[0] == []
    stage_sum = sum(layers[f"partition.{s}.s"] for s in tracing.STAGES)
    assert 0.9 * elapsed < stage_sum <= elapsed
    assert layers["partition.vertex-balance.supersteps"] == 15
    assert layers["partition.edge-refine.supersteps"] == 30
    assert layers["metrics.recount_calls"] > 0 and layers["bsp.pairs_sent"] > 0
    assert all(layers[f"partition.{s}.cut_exit"] > 0 for s in tracing.STAGES)


def test_partition_does_not_depend_on_input_edge_order(tmp_path):
    hashes = set()
    for seed in (1, 2):
        work = tmp_path / str(seed)
        work.mkdir()
        ctx = _tiny_context(work, seed)
        _, state, _ = run.partition_job(ctx, None)
        hashes.add(partition_sha256(state.to_global(ctx.local_graphs, ctx.g.num_vertices)))
    assert len(hashes) == 1


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == [n for n in run.WORKLOADS if n not in run.SUITE_ONLY]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert max(m["bound"] for m in bench["end_to_end"]) == next(m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")
