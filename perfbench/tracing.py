"""Spans recorded around calls into lppart, from the benchmark's side only.

A ``Tracer`` keeps spans (name, start, end, parent, run id and a few
attributes) in memory; ``write`` dumps them as JSON lines when the run ends.
Three hooks feed it during a traced partition job:

- ``TracedRuntime``, passed as ``xtrapulp(runtime=...)``, opens one
  ``bsp.superstep`` span per superstep with a ``bsp.task`` span per task step
  and counts the moves each step returns;
- ``StageMarks``, passed as ``xtrapulp(observer=...)``, marks every
  superstep boundary with its phase and the ledger's cut;
- ``patch`` replaces ``lppart.partition.exchange_updates``,
  ``lppart.metrics.per_task_counts`` and ``lppart.metrics.connected_components``
  with timing wrappers for the length of a traced job.

``insert_stages`` turns the marks into one span per stage run;
``partition_layers`` and ``layer_sums`` reduce a job's spans to per-layer
metrics.  Self time is a span's duration minus the part of it that its
children cover.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import lppart.metrics
import lppart.partition
from lppart.bsp import Runtime

STAGES = ("init", "vertex-balance", "vertex-refine", "edge-balance", "edge-refine")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into Tracer.spans, -1 for a root
    run: int = 0  # spans of one job share a run id
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_time(span: Span, children) -> float:
    """``span``'s duration minus the union of its children's intervals, clipped to it."""
    covered = 0.0
    cursor = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo = max(child.start, cursor)
        hi = min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span.duration - covered


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        sp = Span(name, time.perf_counter(), parent=self._open[-1] if self._open else -1, run=self.run, attrs=attrs)
        self.spans.append(sp)
        self._open.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def children(self) -> dict[int, list[int]]:
        """Child indices of every span that has children."""
        kids: dict[int, list[int]] = {}
        for i, sp in enumerate(self.spans):
            kids.setdefault(sp.parent, []).append(i)
        return kids

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, sp in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(sp)}) + "\n")


def _move_count(result) -> int:
    # step functions return a move list, or a tuple whose first item holds the moves
    return len(result[0]) if isinstance(result, tuple) else len(result)


class TracedRuntime(Runtime):
    """Round-robin runtime that times each task's step and counts its moves."""

    def __init__(self, num_tasks: int, tracer: Tracer):
        super().__init__(num_tasks)
        self.tracer = tracer

    def run_superstep(self, step_fn):
        tracer = self.tracer

        def timed(task):
            with tracer.span("bsp.task", task=task):
                return step_fn(task)

        with tracer.span("bsp.superstep") as sp:
            results = super().run_superstep(timed)
            sp.attrs["moves"] = sum(_move_count(r) for r in results)
        return results


@dataclass
class Mark:
    t: float
    phase: str
    cut: int | None = None  # global cut after the superstep (sum of cut_edges / 2)
    max_cut: int | None = None
    cut_before: int | None = None  # the same before the superstep's moves
    max_cut_before: int | None = None


class StageMarks:
    """Observer recording one ``Mark`` per superstep boundary."""

    def __init__(self):
        self.marks: list[Mark] = []

    def __call__(self, event) -> None:
        t = time.perf_counter()
        ledger = event.ledger
        if ledger is None:
            self.marks.append(Mark(t, event.phase))
            return
        cut = ledger.cut_edges
        before = cut - ledger.cut_deltas
        self.marks.append(Mark(t, event.phase, int(cut.sum()) // 2, int(cut.max()), int(before.sum()) // 2, int(before.max())))


def insert_stages(tracer: Tracer, job: int, marks: list[Mark]) -> list[int]:
    """Add a ``partition.stage`` span per run of same-phase marks under span ``job``.

    A stage run lasts from the previous mark (or the job's start) to its own
    last mark; its ``entry`` and ``exit`` attributes hold its first and last
    mark.  The job's direct children that start inside a stage run move
    under it.  Returns the new span indices.
    """
    parent = tracer.spans[job]
    stages: list[int] = []
    prev = parent.start
    for mark in marks:
        last = tracer.spans[stages[-1]] if stages else None
        if last is not None and last.attrs["phase"] == mark.phase:
            last.end = mark.t
            last.attrs["exit"] = mark
        else:
            attrs = {"phase": mark.phase, "entry": mark, "exit": mark}
            tracer.spans.append(Span("partition.stage", prev, mark.t, job, parent.run, attrs))
            stages.append(len(tracer.spans) - 1)
        prev = mark.t
    bounds = [(tracer.spans[s].start, tracer.spans[s].end, s) for s in stages]
    for sp in tracer.spans:
        if sp.parent == job and sp.name != "partition.stage":
            for lo, hi, s in bounds:
                if lo <= sp.start < hi:
                    sp.parent = s
                    break
    return stages


def partition_layers(tracer: Tracer, job: int, stages: list[int]) -> dict[str, float]:
    """Per-layer metrics of one traced ``xtrapulp`` call."""
    spans = tracer.spans
    kids = tracer.children()
    out: dict[str, float] = {}
    for name in STAGES:
        for key in ("s", "supersteps", "moves", "idle_supersteps", "self_s"):
            out[f"partition.{name}.{key}"] = 0
        out[f"bsp.{name}.sweep_s"] = 0.0
    exchange = recount = critical = 0.0
    pairs = recount_calls = 0
    have_pairs = True
    ratios = []
    exits: dict[str, Mark] = {}
    for s in stages:
        st = spans[s]
        phase = st.attrs["phase"]
        exits[phase] = st.attrs["exit"]
        children = [spans[i] for i in kids.get(s, [])]
        out[f"partition.{phase}.s"] += st.duration
        out[f"partition.{phase}.self_s"] += self_time(st, children)
        for i in kids.get(s, []):
            sp = spans[i]
            if sp.name == "bsp.superstep":
                tasks = [spans[k].duration for k in kids.get(i, [])]
                out[f"partition.{phase}.supersteps"] += 1
                out[f"partition.{phase}.moves"] += sp.attrs["moves"]
                out[f"partition.{phase}.idle_supersteps"] += sp.attrs["moves"] == 0
                out[f"bsp.{phase}.sweep_s"] += sp.duration
                critical += max(tasks)
                mean = statistics.fmean(tasks)
                if mean > 0:
                    ratios.append(max(tasks) / mean)
            elif sp.name == "bsp.exchange":
                exchange += sp.duration
                if "pairs" in sp.attrs:
                    pairs += sp.attrs["pairs"]
                else:
                    have_pairs = False
            elif sp.name == "metrics.recount":
                recount += sp.duration
                recount_calls += 1
    # the init stage has no ledger; its exit cut is the cut before the first
    # superstep that has one
    after_init = next((spans[s].attrs["entry"] for s in stages if spans[s].attrs["phase"] != "init"), None)
    for name in STAGES:
        mark = exits.get(name)
        if name == "init" and after_init is not None:
            cut, max_cut = after_init.cut_before, after_init.max_cut_before
        elif mark is not None:
            cut, max_cut = mark.cut, mark.max_cut
        else:
            cut = max_cut = None
        if cut is not None:
            out[f"partition.{name}.cut_exit"] = cut
            out[f"partition.{name}.max_cut_exit"] = max_cut
    out["bsp.exchange_s"] = exchange
    out["bsp.pairs_sent"] = pairs if have_pairs else None
    out["bsp.task_imbalance"] = statistics.fmean(ratios) if ratios else 1.0
    out["bsp.critical_path_s"] = critical + exchange + recount
    out["metrics.recount_s"] = recount
    out["metrics.recount_calls"] = recount_calls
    return out


def layer_sums(tracer: Tracer, job: int) -> dict[str, float]:
    """Total duration per span name among the descendants of span ``job``."""
    kids = tracer.children()
    totals: dict[str, float] = {}
    stack = list(kids.get(job, []))
    while stack:
        i = stack.pop()
        sp = tracer.spans[i]
        totals[sp.name] = totals.get(sp.name, 0.0) + sp.duration
        stack.extend(kids.get(i, []))
    return totals


def _wrap(fn, tracer: Tracer, name: str, attrs_of):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as sp:
            result = fn(*args, **kwargs)
        if attrs_of is not None:
            sp.attrs.update(attrs_of(result))
        return result

    return wrapper


def _pairs_sent(result) -> dict:
    try:
        _, buffers = result
        return {"pairs": sum(b.pairs_sent for b in buffers)}
    except (TypeError, ValueError, AttributeError):
        return {}


def _components(labels) -> dict:
    return {"components": int(labels.max()) + 1 if len(labels) else 0}


WRAPPED = (
    (lppart.partition, "exchange_updates", "bsp.exchange", _pairs_sent),
    (lppart.metrics, "per_task_counts", "metrics.recount", None),
    (lppart.metrics, "connected_components", "metrics.connected_components", _components),
)


@contextmanager
def patch(tracer: Tracer):
    """Swap the ``WRAPPED`` functions for timing wrappers; yields the span names
    whose function no longer exists, so their metrics can be reported missing."""
    saved = []
    missing = []
    for module, attr, name, attrs_of in WRAPPED:
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(name)
            continue
        saved.append((module, attr, fn))
        setattr(module, attr, _wrap(fn, tracer, name, attrs_of))
    try:
        yield missing
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)
