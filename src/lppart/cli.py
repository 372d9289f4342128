"""Command-line surface: ``lppart {partition,generate,evaluate}``.

Every long flag can be preset through an environment variable with the
``LPPART_`` prefix (dashes become underscores, e.g. ``LPPART_SEED=7``,
``LPPART_VERT_IMB=0.05``); explicit flags win over the environment.

Exit codes: 0 success, 2 malformed input or configuration, 3 constraint
violation under ``--strict``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__, io
from .baselines import edge_block_partition, random_partition, vertex_block_partition
from .errors import LppartError
from .gen import GenSpec, generate
from .graph import BLOCK, RANDOM_HASH, GlobalGraph, build_csr, distribute, make_distribution
from .metrics import QualityReport, build_report, performance_ratio, write_method_table
from .partition import Config, SuperstepEvent, xtrapulp
from .seeds import subsystem_seed

ENV_PREFIX = "LPPART_"
EXIT_OK = 0
EXIT_INPUT = 2
EXIT_STRICT = 3

METHODS = ("xtrapulp", "random", "vblock", "eblock")
DIST_NAMES = {"block": BLOCK, "random": RANDOM_HASH}


def _env_default(flag: str, fallback, cast):
    name = ENV_PREFIX + flag.upper().replace("-", "_")
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    if cast is bool:
        return raw.lower() in ("1", "true", "yes", "on")
    try:
        return cast(raw)
    except ValueError:
        raise LppartError(f"{name}={raw!r} is not a valid {cast.__name__}") from None


@dataclass
class RunManifest:
    """Everything needed to reproduce a partition run byte-for-byte."""

    command: str
    input: dict
    method: str
    num_parts: int
    num_tasks: int
    seed: int
    vert_imb: float
    edge_imb: float
    x: float
    y: float
    iters: list[int]
    init_mode: str
    distribution: str
    dedup: bool
    outputs: dict
    tool_version: str = __version__


def _add_common_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-p", "--parts", type=int, default=_env_default("parts", None, int), help="number of parts (required)")
    sub.add_argument("-T", "--tasks", type=int, default=_env_default("tasks", 1, int), help="logical task count (default 1)")
    sub.add_argument("--vert-imb", type=float, default=_env_default("vert-imb", 0.10, float), help="vertex imbalance ratio (default 0.10)")
    sub.add_argument("--edge-imb", type=float, default=_env_default("edge-imb", 0.10, float), help="edge imbalance ratio (default 0.10)")
    sub.add_argument("-X", dest="x", type=float, default=_env_default("x", 1.0, float), help="update-limit ramp end (default 1.0)")
    sub.add_argument("-Y", dest="y", type=float, default=_env_default("y", 0.25, float), help="update-limit ramp start (default 0.25)")
    sub.add_argument("--iters", default=_env_default("iters", "3,5,10", str), help="outer,balance,refine iteration counts (default 3,5,10)")
    sub.add_argument("--seed", type=int, default=_env_default("seed", 0, int), help="master seed; all randomness derives from it")
    sub.add_argument("--method", choices=METHODS, default=_env_default("method", "xtrapulp", str))
    sub.add_argument("--init", choices=("bfs-lp", "random", "block"), default=_env_default("init", "bfs-lp", str))
    sub.add_argument("--dist", choices=tuple(DIST_NAMES), default=_env_default("dist", "block", str), help="vertex-to-task distribution")
    sub.add_argument("--dedup", action="store_true", default=_env_default("dedup", False, bool), help="drop duplicate input edges")
    sub.add_argument("--strict", action="store_true", default=_env_default("strict", False, bool), help="exit 3 if the configured tolerances are violated")
    # tasks always run one after another; the flag is accepted so old manifests still parse
    sub.add_argument("--sequential", action="store_true", help=argparse.SUPPRESS)
    sub.add_argument("--trace", default=_env_default("trace", None, str), help="write per-superstep message counts as JSON lines to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lppart", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"lppart {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    part = commands.add_parser("partition", help="partition a graph and write labels plus a quality report")
    part.add_argument("-i", "--input", required=True, help="edge-list text or .npz cache")
    _add_common_run_flags(part)
    part.add_argument("-o", "--output", default=_env_default("output", None, str), help="partition file (default: <input stem>.parts)")
    part.add_argument("--report", default=_env_default("report", None, str), help="quality report JSON path")

    gen = commands.add_parser("generate", help="emit a synthetic edge list")
    gen.add_argument("kind", choices=("rmat", "er", "randhd"))
    gen.add_argument("--scale", type=int, default=None, help="rmat: vertex count is 2**scale")
    gen.add_argument("--n", type=int, default=None, help="er/randhd: vertex count")
    gen.add_argument("--davg", type=int, default=_env_default("davg", 16, int), help="average degree (default 16)")
    gen.add_argument("--probs", default=_env_default("probs", None, str), help="rmat quadrant probabilities a,b,c,d")
    gen.add_argument("--seed", type=int, default=_env_default("seed", 0, int))
    gen.add_argument("-o", "--output", default=_env_default("output", None, str), help="output path; .npz writes the binary cache (default: stdout)")

    ev = commands.add_parser("evaluate", help="score one or more partition files against a graph")
    ev.add_argument("-i", "--input", required=True, help="edge-list text or .npz cache")
    ev.add_argument("partitions", nargs="+", help="partition files; the file stem names the method")
    ev.add_argument("-p", "--parts", type=int, default=None, help="part count (default: max label + 1)")
    ev.add_argument("--dedup", action="store_true", default=_env_default("dedup", False, bool))
    ev.add_argument("--report", default=_env_default("report", None, str), help="report JSON path")
    ev.add_argument("--csv", default=_env_default("csv", None, str), help="cross-method CSV table path")
    return parser


def _load_graph(path: str, dedup: bool) -> tuple[GlobalGraph, np.ndarray]:
    pairs, id_map = io.load_pairs(path)
    if dedup:
        pairs = io.dedup_pairs(pairs)
    n = len(id_map)
    return build_csr(pairs, n), id_map


def _parse_iters(text: str) -> tuple[int, int, int]:
    try:
        outer, bal, ref = (int(x) for x in text.split(","))
    except ValueError as exc:
        raise LppartError(f"--iters expects 'outer,bal,ref', got {text!r}") from exc
    return outer, bal, ref


def _trace_line(event: SuperstepEvent) -> str:
    """One ``--trace`` JSON line: the superstep's (vertex, part) pairs sent, in total and per task."""
    record = {
        "superstep": event.superstep,
        "phase": event.phase,
        "iteration": event.iteration,
        "pairs_sent": sum(event.pairs_sent),
        "per_task_sent": event.pairs_sent,
    }
    return json.dumps(record) + "\n"


def cmd_partition(args) -> int:
    if args.parts is None:
        raise LppartError("--parts is required")
    g, id_map = _load_graph(args.input, args.dedup)
    if g.num_vertices == 0:
        raise LppartError(f"{args.input}: graph has no vertices")
    outer, bal, ref = _parse_iters(args.iters)

    with open(args.trace, "w") if args.trace else contextlib.nullcontext() as trace:
        if args.method == "xtrapulp":
            cfg = Config(
                num_parts=args.parts,
                num_tasks=args.tasks,
                vert_imb=args.vert_imb,
                edge_imb=args.edge_imb,
                x=args.x,
                y=args.y,
                outer_iters=outer,
                balance_iters=bal,
                refine_iters=ref,
                seed=args.seed,
                init_mode=args.init,
            )
            dist = make_distribution(DIST_NAMES[args.dist], g.num_vertices, args.tasks, seed=subsystem_seed(args.seed, "dist"))
            local_graphs = distribute(g, dist)
            observer = None if trace is None else lambda event: trace.write(_trace_line(event))
            state = xtrapulp(local_graphs, cfg, observer=observer)
            parts = state.to_global(local_graphs, g.num_vertices)
        elif args.method == "random":
            parts = random_partition(g.num_vertices, args.parts, seed=args.seed)
        elif args.method == "vblock":
            parts = vertex_block_partition(g.num_vertices, args.parts)
        else:
            parts = edge_block_partition(g, args.parts)

    out_path = Path(args.output) if args.output else Path(args.input).with_suffix(".parts")
    io.write_parts(out_path, parts)
    relabeled = bool(len(id_map)) and not np.array_equal(id_map, np.arange(len(id_map)))
    if relabeled:
        io.write_id_map(out_path.with_suffix(out_path.suffix + ".ids"), id_map)

    manifest = RunManifest(
        command="partition",
        input={"path": str(args.input), "dedup": args.dedup, "relabeled": relabeled},
        method=args.method,
        num_parts=args.parts,
        num_tasks=args.tasks,
        seed=args.seed,
        vert_imb=args.vert_imb,
        edge_imb=args.edge_imb,
        x=args.x,
        y=args.y,
        iters=[outer, bal, ref],
        init_mode=args.init,
        distribution=args.dist,
        dedup=args.dedup,
        outputs={"partition": str(out_path), "report": args.report},
    )
    report = build_report(
        g,
        parts,
        args.parts,
        metadata={"manifest": asdict(manifest), "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z")},
    )
    if args.report:
        Path(args.report).write_text(report.to_json() + "\n")
    print(
        f"partition: n={g.num_vertices} m={g.num_edges} p={args.parts} method={args.method} "
        f"cut={report.edge_cut} cut_ratio={report.cut_ratio:.4f} "
        f"v_imb={report.vertex_imbalance:.4f} e_imb={report.edge_imbalance:.4f} -> {out_path}"
    )

    if args.strict:
        if report.vertex_imbalance > 1.0 + args.vert_imb or report.edge_imbalance > 1.0 + args.edge_imb:
            print(
                f"strict: imbalance exceeds tolerance (vertex {report.vertex_imbalance:.4f} "
                f"vs {1 + args.vert_imb:.2f}, edge {report.edge_imbalance:.4f} vs {1 + args.edge_imb:.2f})",
                file=sys.stderr,
            )
            return EXIT_STRICT
    return EXIT_OK


def cmd_generate(args) -> int:
    if args.kind == "rmat":
        if args.scale is None:
            raise LppartError("rmat needs --scale")
        n = 1 << args.scale
    else:
        if args.n is None:
            raise LppartError(f"{args.kind} needs --n")
        n = args.n
    probs = GenSpec.__dataclass_fields__["probs"].default
    if args.probs:
        parts = [float(x) for x in args.probs.split(",")]
        if len(parts) != 4:
            raise LppartError("--probs expects four comma-separated values")
        probs = tuple(parts)
    spec = GenSpec(kind=args.kind, num_vertices=n, avg_degree=args.davg, seed=args.seed, probs=probs)
    pairs = generate(spec)
    if args.output is None:
        for u, v in pairs:
            sys.stdout.write(f"{u} {v}\n")
    elif args.output.endswith(".npz"):
        io.write_cache(args.output, pairs, n)
    else:
        io.write_edge_list(args.output, pairs)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    g, _ = _load_graph(args.input, args.dedup)
    reports: dict[str, QualityReport] = {}
    for path in args.partitions:
        parts = io.read_parts(path)
        if len(parts) != g.num_vertices:
            raise LppartError(f"{path}: {len(parts)} labels for a graph with {g.num_vertices} vertices")
        p = args.parts if args.parts is not None else int(parts.max()) + 1
        name = Path(path).stem
        reports[name] = build_report(g, parts, p, metadata={"partition_file": str(path)})

    ratios = {
        "edge_cut": performance_ratio({"graph": {name: rep.edge_cut for name, rep in reports.items()}}),
        "max_part_cut": performance_ratio({"graph": {name: rep.max_part_cut for name, rep in reports.items()}}),
    }
    payload = {
        "schema_version": 1,
        "graph": {"path": str(args.input), "n": g.num_vertices, "m": g.num_edges},
        "methods": {name: json.loads(rep.to_json()) for name, rep in reports.items()},
        "performance_ratios": ratios,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.report:
        Path(args.report).write_text(text + "\n")
    else:
        print(text)
    if args.csv:
        write_method_table(args.csv, reports, ratios)
    for name, rep in reports.items():
        print(f"evaluate: {name}: cut={rep.edge_cut} cut_ratio={rep.cut_ratio:.4f} "
              f"v_imb={rep.vertex_imbalance:.4f} e_imb={rep.edge_imbalance:.4f}")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "partition":
            return cmd_partition(args)
        if args.command == "generate":
            return cmd_generate(args)
        return cmd_evaluate(args)
    except LppartError as exc:
        print(f"lppart: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"lppart: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
