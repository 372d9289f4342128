"""lppart benchmark: four workloads, end-to-end metrics untraced, per-layer metrics traced.

Run from the repository root:

    python3 perfbench/run.py --workload rmat14-block --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --seed 1      # every workload, untraced then traced, plus a summary

One run takes one workload.  It generates the input file (untimed), sets the
graph up ``SETUP_REPEATS`` times, then repeats the workload's job until
``--seconds`` have passed and checks every job's output.  The graph is set up
again before each job after the first, so the set-up samples (``setup_s`` is
their median) are spread over the whole run like the job samples.
With ``--trace 1`` it alternates untraced and traced jobs, reports the
per-layer metrics of the traced ones, checks the ``lppart`` command against
the library path once, and writes the spans to ``.bench_out/``.  The last line
of standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.

Each workload's graph is fixed (graph seed 5, partitioner seed 1), so its
recorded quality baseline stays comparable from commit to commit.  ``--seed``
sets the order and orientation of the edges in the generated input file; the
partition must not depend on either, so every seed yields the same hashes.
"""

from __future__ import annotations

import argparse
import io as textio
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

if __name__ == "__main__" and not (SRC / "lppart" / "__init__.py").is_file():
    print(f"perfbench: no lppart sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import lppart  # noqa: E402
from lppart import cli, io  # noqa: E402
from lppart.baselines import edge_block_partition, random_partition, vertex_block_partition  # noqa: E402
from lppart.gen import GenSpec, generate  # noqa: E402
from lppart.graph import build_csr, distribute, make_distribution  # noqa: E402
from lppart.metrics import approx_diameter, build_report, edge_cut_distributed  # noqa: E402
from lppart.partition import Config, xtrapulp  # noqa: E402
from lppart.seeds import subsystem_seed  # noqa: E402

from checks import OutputChecker  # noqa: E402
from stats import describe_timing  # noqa: E402
from tracing import STAGES, StageMarks, TracedRuntime, Tracer, insert_stages, layer_sums, partition_layers, patch  # noqa: E402

if not Path(lppart.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"perfbench: imported lppart from {lppart.__file__}, not from {SRC}")

GRAPH_SEED = 5
RUN_SEED = 1
AVG_DEGREE = 16
SETUP_REPEATS = 3  # set-ups before the first job; one more precedes each later job
EVAL_METHODS = ("random", "vblock", "eblock")
EVAL_CHECK_TASKS = 4  # distribution used only to cross-check the evaluate workload's cuts


@dataclass(frozen=True)
class Workload:
    kind: str  # generator
    num_vertices: int
    fmt: str  # input file: "npz" cache or "txt" edge list
    parts: int
    tasks: int = 0  # 0: the job scores baseline partitions instead of partitioning
    dist: str = "block"  # lppart --dist name


# Each workload puts a different layer on the critical path; perfbench/README.md
# records why each was chosen, its size and its baseline quality.  BENCHMARK.json
# lists all but SUITE_ONLY, which runs in the all-workload suite and by name.
WORKLOADS = {
    "rmat14-block": Workload("rmat", 1 << 14, "npz", 16, 4, "block"),
    "er14-hash": Workload("er", 1 << 14, "txt", 16, 16, "random"),
    "randhd15-block": Workload("randhd", 1 << 15, "txt", 16, 4, "block"),
    "rmat16-eval": Workload("rmat", 1 << 16, "npz", 64),
}
SUITE_ONLY = ("randhd15-block",)  # left out of BENCHMARK.json so the other three get longer runs

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "peak_rss_mb": "MiB",
    "cut_ratio": "1",
    "max_cut_scaled": "1",
    "vertex_imbalance": "1",
    "edge_imbalance": "1",
}

PER_LAYER = {
    "io.load_s": "s",
    "io.input_mb": "MiB",
    "io.parts_write_s": "s",
    "io.parts_read_s": "s",
    "graph.build_csr_s": "s",
    "graph.distribute_s": "s",
    "graph.ghosts": "count",
    "graph.local_bytes": "B",
    **{
        f"partition.{stage}.{key}": unit
        for stage in STAGES
        for key, unit in (
            ("s", "s"),
            ("supersteps", "count"),
            ("moves", "count"),
            ("idle_supersteps", "count"),
            ("self_s", "s"),
            ("cut_exit", "count"),
            ("max_cut_exit", "count"),
        )
    },
    **{f"bsp.{stage}.sweep_s": "s" for stage in STAGES},
    "bsp.exchange_s": "s",
    "bsp.pairs_sent": "count",
    "bsp.task_imbalance": "1",
    "bsp.critical_path_s": "s",
    "metrics.recount_s": "s",
    "metrics.recount_calls": "count",
    "metrics.report_s": "s",
    "metrics.components_s": "s",
    "metrics.components": "count",
    "metrics.bfs_s": "s",
    "baselines.s": "s",
    "trace_overhead": "s",
}

# per-layer metrics that cannot be measured when a wrapped function is gone
MISSING_WITH = {
    "bsp.exchange": ("bsp.exchange_s", "bsp.pairs_sent", "bsp.critical_path_s"),
    "metrics.recount": ("metrics.recount_s", "metrics.recount_calls", "bsp.critical_path_s"),
    "metrics.connected_components": ("metrics.components_s", "metrics.components", "metrics.bfs_s"),
}


def make_input(w: Workload, seed: int, work: Path) -> Path:
    """Write the workload's fixed graph with edge order and orientation drawn from ``seed``."""
    pairs = generate(GenSpec(w.kind, w.num_vertices, AVG_DEGREE, seed=GRAPH_SEED))
    rng = np.random.default_rng(seed % (1 << 63))
    pairs = pairs[rng.permutation(len(pairs))]
    flip = rng.random(len(pairs)) < 0.5
    pairs[flip] = pairs[flip, ::-1]
    path = work / f"input.{w.fmt}"
    if w.fmt == "npz":
        io.write_cache(path, pairs, w.num_vertices)
    else:
        io.write_edge_list(path, pairs)
    return path


def _span(tracer: Tracer | None, name: str):
    return nullcontext() if tracer is None else tracer.span(name)


@dataclass
class Context:
    w: Workload
    input: Path
    work: Path
    g: object = None
    local_graphs: list | None = None


def set_up(ctx: Context, tracer: Tracer | None) -> float:
    """Load, build the CSR and (partition workloads) distribute; returns seconds."""
    w = ctx.w
    ctx.g = ctx.local_graphs = None  # so a repeat does not hold two graphs at once
    t0 = time.perf_counter()
    with _span(tracer, "io.load_pairs"):
        pairs, id_map = io.load_pairs(ctx.input)
    with _span(tracer, "graph.build_csr"):
        g = build_csr(pairs, len(id_map))
    local_graphs = None
    if w.tasks:
        with _span(tracer, "graph.distribute"):
            dist = make_distribution(cli.DIST_NAMES[w.dist], g.num_vertices, w.tasks, seed=subsystem_seed(RUN_SEED, "dist"))
            local_graphs = distribute(g, dist)
    elapsed = time.perf_counter() - t0
    ctx.g, ctx.local_graphs = g, local_graphs
    return elapsed


# ---------------------------------------------------------------------------
# jobs: each returns (seconds, output); traced ones add their per-layer metrics


def partition_job(ctx: Context, tracer: Tracer | None):
    cfg = Config(num_parts=ctx.w.parts, num_tasks=ctx.w.tasks, seed=RUN_SEED)
    if tracer is None:
        t0 = time.perf_counter()
        state = xtrapulp(ctx.local_graphs, cfg)
        return time.perf_counter() - t0, state, None
    tracer.run += 1
    marks = StageMarks()
    job = len(tracer.spans)
    with patch(tracer) as missing, tracer.span("partition.xtrapulp"):
        state = xtrapulp(ctx.local_graphs, cfg, runtime=TracedRuntime(ctx.w.tasks, tracer), observer=marks)
    stages = insert_stages(tracer, job, marks.marks)
    layers = partition_layers(tracer, job, stages)
    return tracer.spans[job].duration, state, _drop_missing(layers, missing)


def baseline_partition(method: str, g, num_parts: int) -> np.ndarray:
    if method == "random":
        return random_partition(g.num_vertices, num_parts, seed=RUN_SEED)
    if method == "vblock":
        return vertex_block_partition(g.num_vertices, num_parts)
    return edge_block_partition(g, num_parts)


def evaluate_job(ctx: Context, tracer: Tracer | None):
    """Score three baseline partitions through partition files, then estimate the diameter."""
    if tracer is None:
        result = _evaluate(ctx, None)
        return result["evaluate_s"] + result["diameter_s"], result, None
    tracer.run += 1
    job = len(tracer.spans)
    with patch(tracer) as missing, tracer.span("evaluate.job"):
        result = _evaluate(ctx, tracer)
    sums = layer_sums(tracer, job)
    components = [sp.attrs["components"] for sp in tracer.spans[job:] if sp.name == "metrics.connected_components"]
    layers = {
        "baselines.s": sum(v for k, v in sums.items() if k.startswith("baselines.")),
        "io.parts_write_s": sums.get("io.write_parts", 0.0),
        "io.parts_read_s": sums.get("io.read_parts", 0.0),
        "metrics.report_s": sums.get("metrics.build_report", 0.0),
        "metrics.components_s": sums.get("metrics.connected_components", 0.0),
        "metrics.components": components[0] if components else 0,
        "metrics.bfs_s": sums.get("metrics.approx_diameter", 0.0) - sums.get("metrics.connected_components", 0.0),
    }
    return tracer.spans[job].duration, result, _drop_missing(layers, missing)


def _evaluate(ctx: Context, tracer: Tracer | None) -> dict:
    g, p = ctx.g, ctx.w.parts
    outputs = {}
    t0 = time.perf_counter()
    for method in EVAL_METHODS:
        with _span(tracer, f"baselines.{method}"):
            parts = baseline_partition(method, g, p)
        path = ctx.work / f"{method}.parts"
        with _span(tracer, "io.write_parts"):
            io.write_parts(path, parts)
        with _span(tracer, "io.read_parts"):
            back = io.read_parts(path)
        with _span(tracer, "metrics.build_report"):
            report = build_report(g, back, p)
        outputs[method] = (parts, back, report)
    t1 = time.perf_counter()
    with _span(tracer, "metrics.approx_diameter"):
        diameter = approx_diameter(g, seed=RUN_SEED)
    t2 = time.perf_counter()
    return {"methods": outputs, "diameter": diameter, "evaluate_s": t1 - t0, "diameter_s": t2 - t1}


def _drop_missing(layers: dict, missing) -> dict:
    """Mark the metrics of wrapped functions that no longer exist as missing (None)."""
    for name in missing:
        for key in MISSING_WITH[name]:
            layers[key] = None
    return layers


# ---------------------------------------------------------------------------
# output checks


def check_partition(ctx: Context, checker: OutputChecker, state):
    """Valid, repeatable labels whose report cut matches the distributed count."""
    g, p = ctx.g, ctx.w.parts
    parts = state.to_global(ctx.local_graphs, g.num_vertices)
    errors = checker.partition("partition", parts, g.num_vertices, p)
    if errors:
        return errors, None
    report = build_report(g, parts, p)
    distributed = edge_cut_distributed(ctx.local_graphs, state.parts)
    if report.edge_cut != distributed:
        errors.append(f"report edge_cut {report.edge_cut} != distributed count {distributed}")
    return errors, report


def check_evaluate(ctx: Context, checker: OutputChecker, result, check_graphs):
    g, p = ctx.g, ctx.w.parts
    errors = []
    for method, (parts, back, report) in result["methods"].items():
        errors += checker.partition(method, parts, g.num_vertices, p)
        if not np.array_equal(parts, back):
            errors.append(f"{method}: partition file read back differs from what was written")
            continue
        distributed = edge_cut_distributed(check_graphs, [back[lg.local_to_global] for lg in check_graphs])
        if report.edge_cut != distributed:
            errors.append(f"{method}: report edge_cut {report.edge_cut} != distributed count {distributed}")
    errors += checker.same("diameter", result["diameter"])
    report = result["methods"]["eblock"][2]
    return errors, report


REPORT_FIELDS = ("edge_cut", "cut_ratio", "max_part_cut", "scaled_max_cut_alt", "vertex_imbalance", "edge_imbalance", "parts_vertices")


def cli_parity(ctx: Context, checker: OutputChecker, reports: dict | None) -> list[str]:
    """Run ``lppart`` in-process on the same input and compare with the library path."""
    w, n = ctx.w, ctx.g.num_vertices
    if w.tasks:
        target = ctx.work / "cli.parts"
        argv = ["partition", "-i", str(ctx.input), "-p", str(w.parts), "-T", str(w.tasks),
                "--dist", w.dist, "--seed", str(RUN_SEED), "-o", str(target)]
    else:
        target = ctx.work / "cli-evaluate.json"
        files = [str(ctx.work / f"{m}.parts") for m in EVAL_METHODS]
        argv = ["evaluate", "-i", str(ctx.input), *files, "-p", str(w.parts), "--report", str(target)]
    with redirect_stdout(textio.StringIO()):
        code = cli.main(argv)
    if code != 0:
        return [f"cli parity: lppart {' '.join(argv)} exited with {code}"]
    if w.tasks:
        return [f"cli parity: {e}" for e in checker.partition("partition", io.read_parts(target), n, w.parts)]
    methods = json.loads(target.read_text())["methods"]
    return [
        f"cli parity: evaluate {m}.{key} = {methods[m][key]!r}, library path {getattr(reports[m], key)!r}"
        for m in EVAL_METHODS
        for key in REPORT_FIELDS
        if methods[m][key] != getattr(reports[m], key)
    ]


# ---------------------------------------------------------------------------
# one run


def _metric_lines(metrics: dict, notes: dict) -> None:
    for name, (value, unit) in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:36s} {shown:>14s} {unit:6s} {notes.get(name, '')}".rstrip())


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(name, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


@dataclass
class Samples:
    """What the job loop of one run collects."""

    untraced: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    layers: list = field(default_factory=list)  # per-layer metrics of each traced job
    evaluate_s: list = field(default_factory=list)
    diameter_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    report: object = None  # quality report of the last job that passed its checks
    reports: dict | None = None  # evaluate workload: per-method reports, for the parity check

    def count(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            for e in errors:
                print(f"perfbench: check failed: {e}", file=sys.stderr)


def measure(ctx: Context, checker: OutputChecker, seconds: float, tracer: Tracer | None, setup: list) -> Samples:
    """Repeat the workload's job until ``seconds`` have passed, checking every output.

    Before each job but the first the graph is set up again, and the set-up
    time is appended to ``setup``.  With a tracer, untraced and traced jobs
    alternate, starting untraced.
    """
    w = ctx.w
    check_graphs = None if w.tasks else distribute(ctx.g, make_distribution("block", ctx.g.num_vertices, EVAL_CHECK_TASKS))
    job = partition_job if w.tasks else evaluate_job
    s = Samples()
    start = time.perf_counter()
    while not s.untraced or (tracer and not s.traced) or time.perf_counter() - start < seconds:
        if s.attempted:
            setup.append(set_up(ctx, tracer))
        use_tracer = tracer if tracer and len(s.traced) < len(s.untraced) else None
        elapsed, output, layers = job(ctx, use_tracer)
        if use_tracer:
            s.traced.append(elapsed)
            s.layers.append(layers)
        else:
            s.untraced.append(elapsed)
        if w.tasks:
            errors, report = check_partition(ctx, checker, output)
        else:
            errors, report = check_evaluate(ctx, checker, output, check_graphs)
            s.reports = {m: r for m, (_, _, r) in output["methods"].items()}
            if not use_tracer:
                s.evaluate_s.append(output["evaluate_s"])
                s.diameter_s.append(output["diameter_s"])
        s.count(errors)
        if not errors:
            s.report = report
    return s


def _run(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    w = WORKLOADS[name]
    ctx = Context(w, make_input(w, seed, work), work)
    tracer = Tracer() if trace else None
    setup = [set_up(ctx, tracer) for _ in range(SETUP_REPEATS)]
    checker = OutputChecker()
    s = measure(ctx, checker, seconds, tracer, setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        s.count(cli_parity(ctx, checker, s.reports))

    g = ctx.g
    ghosts = sum(lg.num_ghosts for lg in ctx.local_graphs) if w.tasks else 0
    print(f"perfbench {name} seed={seed} trace={int(trace)}: {w.kind} n={g.num_vertices} m={g.num_edges} "
          f"isolated={int((g.degrees == 0).sum())} ghosts={ghosts} p={w.parts} T={w.tasks or '-'} "
          f"dist={w.dist if w.tasks else '-'} input={w.fmt} {ctx.input.stat().st_size / 2**20:.2f} MiB")
    shas = {k.split()[0]: v for k, v in checker.reference.items() if k.endswith("sha256")}
    OUT.mkdir(exist_ok=True)
    full = {"workload": name, "seed": seed, "trace": int(trace), "attempted": s.attempted, "failed": s.failed,
            "failed_ratio": s.failed / s.attempted, "sha256": shas, "diameter": checker.reference.get("diameter")}
    if trace:
        metrics = layer_metrics(ctx, tracer, s)
        _metric_lines(metrics, {})
        if w.tasks:
            full["stage_sum_s"] = sum(metrics[f"partition.{st}.s"][0] for st in STAGES)
            full["partition_s_untraced"] = statistics.median(s.untraced)
            print(f"  stages sum {full['stage_sum_s']:.4f} s; untraced partition_s {full['partition_s_untraced']:.4f} s; "
                  f"traced {statistics.median(s.traced):.4f} s; trace_overhead {metrics['trace_overhead'][0]:.4f} s")
        tracer.write(OUT / f"trace-{name}-seed{seed}.jsonl")
    else:
        metrics = {"setup_s": (statistics.median(setup), "s"), "job_s": (statistics.median(s.untraced), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MiB")}
        if s.report is not None:
            metrics.update({
                "cut_ratio": (s.report.cut_ratio, "1"),
                "max_cut_scaled": (s.report.scaled_max_cut_alt, "1"),
                "vertex_imbalance": (s.report.vertex_imbalance, "1"),
                "edge_imbalance": (s.report.edge_imbalance, "1"),
            })
        parts_of_job = {"partition_s": s.untraced} if w.tasks else {"evaluate_s": s.evaluate_s, "diameter_s": s.diameter_s}
        named = {k: (statistics.median(v), "s") for k, v in parts_of_job.items()}
        full.update({k: v for k, (v, _) in named.items()})
        notes = {"setup_s": describe_timing(setup), "job_s": f"{describe_timing(s.untraced)}; = {' + '.join(named)}"}
        _metric_lines(metrics, notes)
        _metric_lines(named, {k: describe_timing(v) for k, v in parts_of_job.items()})
    print(f"  {'failed_ratio':36s} {s.failed / s.attempted:>14.6g} {'1':6s} {s.failed}/{s.attempted}")
    for key, digest in shas.items():
        print(f"  {key + ' sha256':36s} {digest}")
    full["metrics"] = {k: v for k, (v, _) in metrics.items()}
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(full, indent=1) + "\n")
    return {
        "correct": s.failed == 0,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def layer_metrics(ctx: Context, tracer: Tracer, s: Samples) -> dict:
    """Per-layer metrics: medians over traced jobs and set-up repeats.

    A layer the workload never calls reads 0; a metric whose wrapped function
    is gone (None in a sample) is left out.
    """
    out = dict.fromkeys(PER_LAYER, 0)
    for key in s.layers[0]:
        values = [layers[key] for layers in s.layers]
        out[key] = None if None in values else statistics.median(values)
    setup_spans = {"io.load_pairs": "io.load_s", "graph.build_csr": "graph.build_csr_s", "graph.distribute": "graph.distribute_s"}
    for span_name, key in setup_spans.items():
        durations = [sp.duration for sp in tracer.spans if sp.name == span_name]
        if durations:
            out[key] = statistics.median(durations)
    out["io.input_mb"] = ctx.input.stat().st_size / 2**20
    if ctx.local_graphs is not None:
        out["graph.ghosts"] = sum(lg.num_ghosts for lg in ctx.local_graphs)
        out["graph.local_bytes"] = sum(v.nbytes for lg in ctx.local_graphs for v in vars(lg).values() if isinstance(v, np.ndarray))
    out["trace_overhead"] = statistics.median(s.traced) - statistics.median(s.untraced)
    return {k: (v, PER_LAYER[k]) for k, v in out.items() if v is not None}


# ---------------------------------------------------------------------------
# every workload in one command


def run_suite(seed: int, seconds: float) -> int:
    status = 0
    results: dict[tuple[str, int], dict] = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
            path = OUT / f"result-{name}-seed{seed}-trace{trace}.json"
            if proc.returncode != 0 or not path.is_file():
                print(f"perfbench: {name} trace={trace} exited with {proc.returncode}", file=sys.stderr)
                status = 1
                continue
            results[name, trace] = json.loads(path.read_text())
    print_summary(results)
    return status


def print_summary(results: dict) -> None:
    names = [n for n in WORKLOADS if (n, 0) in results]
    print("\nend to end (untraced)")
    print(f"  {'metric':24s} {'unit':5s} " + " ".join(f"{n:>15s}" for n in names))
    rows = list(END_TO_END.items()) + [("partition_s", "s"), ("evaluate_s", "s"), ("diameter_s", "s"), ("failed_ratio", "1")]
    for key, unit in rows:
        cells = []
        for n in names:
            r = results[n, 0]
            v = r["metrics"].get(key, r.get(key))
            cells.append(f"{v:>15.6g}" if v is not None else f"{'-':>15s}")
        print(f"  {key:24s} {unit:5s} " + " ".join(cells))
    traced = [n for n in WORKLOADS if (n, 1) in results]
    print("\nper layer (traced)")
    print(f"  {'metric':36s} {'unit':5s} " + " ".join(f"{n:>15s}" for n in traced))
    for key, unit in PER_LAYER.items():
        cells = [results[n, 1]["metrics"].get(key) for n in traced]
        print(f"  {key:36s} {unit:5s} " + " ".join(f"{v:>15.6g}" if v is not None else f"{'missing':>15s}" for v in cells))
    print("\nshares of the traced job")
    for n in traced:
        m = results[n, 1]["metrics"]
        if WORKLOADS[n].tasks:
            total = sum(m[f"partition.{s}.s"] for s in STAGES)
            sweep = sum(m[f"bsp.{s}.sweep_s"] for s in STAGES)
            print(f"  {n}: sweep {sweep / total:.0%}, exchange {m.get('bsp.exchange_s', 0) / total:.0%}, "
                  f"recount {m.get('metrics.recount_s', 0) / total:.0%}, init stage {m['partition.init.s'] / total:.0%} "
                  f"of {total:.3f} s")
        else:
            total = sum(m.get(k, 0) for k in ("baselines.s", "io.parts_write_s", "io.parts_read_s", "metrics.report_s",
                                               "metrics.components_s", "metrics.bfs_s"))
            print(f"  {n}: components {m.get('metrics.components_s', 0) / total:.0%}, bfs {m.get('metrics.bfs_s', 0) / total:.0%}, "
                  f"baselines {m['baselines.s'] / total:.0%} of {total:.3f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=tuple(WORKLOADS), help="run one workload (default: all, untraced then traced)")
    parser.add_argument("--seed", type=int, default=1, help="input seed: edge order and orientation of the input file")
    parser.add_argument("--seconds", type=float, default=15.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from traced jobs")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_suite(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
