"""Command-line surface: ``lppart {partition,generate,evaluate}``.

Every optional flag of the command being run can be preset through an
environment variable: ``LPPART_`` plus the flag's longest name, upper-cased
with dashes as underscores (``LPPART_SEED=7``, ``LPPART_VERT_IMB=0.05``,
``LPPART_X=0.5`` for ``-X``).  A preset is parsed as the flag's own value is:
by its type, against its choices, and as 1/true/yes/on or 0/false/no/off for
a switch; a bad one exits 2 naming the variable.  Explicit flags win over
presets, the presets of other commands are never read, and ``--help`` shows
the built-in defaults.  An error raised once the arguments are parsed also
names every preset the run took, so a value the user never typed is traced
to its variable.

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
from collections import namedtuple
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__, io
from .baselines import edge_block_partition, random_partition, vertex_block_partition
from .errors import ConfigError, InputError, LppartError
from .gen import MAX_PAIRS, GenSpec, generate
from .graph import BLOCK, RANDOM_HASH, GlobalGraph, build_csr, distribute, make_distribution
from .metrics import QualityReport, build_report, performance_ratio, write_method_table
from .partition import INIT_MODES, Config, SuperstepEvent, xtrapulp
from .seeds import subsystem_seed

ENV_PREFIX = "LPPART_"
EXIT_OK = 0
EXIT_INPUT = 2
EXIT_STRICT = 3

METHODS = ("xtrapulp", "random", "vblock", "eblock")
DIST_NAMES = {"block": BLOCK, "random": RANDOM_HASH}


def build_parser() -> argparse.ArgumentParser:
    tuning = {f.name: f.default for f in fields(Config)}  # the tuning flags store into Config's fields and take its defaults
    parser = argparse.ArgumentParser(prog="lppart", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"lppart {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    part = commands.add_parser("partition", help="partition a graph and write labels plus a quality report")
    part.add_argument("-i", "--input", required=True, help="edge-list text or .npz cache")
    part.add_argument("-p", "--parts", dest="num_parts", type=int, help="number of parts (required)")
    part.add_argument("-T", "--tasks", dest="num_tasks", type=int, default=tuning["num_tasks"], help="logical task count (default %(default)s)")
    part.add_argument("--vert-imb", type=float, default=tuning["vert_imb"], help="vertex imbalance ratio (default %(default)s)")
    part.add_argument("--edge-imb", type=float, default=tuning["edge_imb"], help="edge imbalance ratio (default %(default)s)")
    part.add_argument("-X", dest="x", type=float, default=tuning["x"], help="update-limit ramp end (default %(default)s)")
    part.add_argument("-Y", dest="y", type=float, default=tuning["y"], help="update-limit ramp start (default %(default)s)")
    iters = f"{tuning['outer_iters']},{tuning['balance_iters']},{tuning['refine_iters']}"
    part.add_argument("--iters", default=iters, help="outer,balance,refine iteration counts (default %(default)s)")
    part.add_argument("--seed", type=int, default=tuning["seed"], help="master seed; all randomness derives from it")
    part.add_argument("--method", choices=METHODS, default="xtrapulp")
    part.add_argument("--init", dest="init_mode", choices=INIT_MODES, default=tuning["init_mode"])
    part.add_argument("--dist", choices=tuple(DIST_NAMES), default="block", help="vertex-to-task distribution")
    part.add_argument("--dedup", action="store_true", help="drop duplicate input edges")
    part.add_argument("--strict", action="store_true", help="exit 3 if the configured tolerances are violated")
    part.add_argument("--trace", help="write per-superstep message counts as JSON lines to this file")
    part.add_argument("-o", "--output", help="partition file (default: <input stem>.parts)")
    part.add_argument("--report", help="quality report JSON path")

    gen = commands.add_parser("generate", help="emit a synthetic edge list")
    gen.add_argument("kind", choices=("rmat", "er", "randhd"))
    gen.add_argument("--scale", type=int, help="rmat: vertex count is 2**scale")
    gen.add_argument("--n", type=int, help="er/randhd: vertex count")
    gen.add_argument("--davg", type=int, default=16, help="average degree (default 16)")
    gen.add_argument("--probs", help="rmat quadrant probabilities a,b,c,d")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", help="output path; .npz writes the binary cache (default: stdout)")

    ev = commands.add_parser("evaluate", help="score one or more partition files against a graph")
    ev.add_argument("-i", "--input", required=True, help="edge-list text or .npz cache")
    ev.add_argument("partitions", nargs="+", help="partition files; the file stem names the method")
    ev.add_argument("-p", "--parts", type=int, help="part count (default: max label + 1)")
    ev.add_argument("--dedup", action="store_true")
    ev.add_argument("--report", help="report JSON path")
    ev.add_argument("--csv", help="cross-method CSV table path")
    return parser


# a flag's default read from variable ``name``, its text ``raw`` parsed into
# ``value``; it is left in the parsed arguments only where no explicit flag replaced it
Preset = namedtuple("Preset", "dest name raw value")

SWITCH_WORDS = {"1": True, "true": True, "yes": True, "on": True, "": False, "0": False, "false": False, "no": False, "off": False}


def _preset_defaults(parser: argparse.ArgumentParser, command: str) -> None:
    """Make each optional flag of ``command`` default to a ``Preset`` of its ``LPPART_`` variable, parsed as the flag's value is."""
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for action in commands.choices[command]._actions:
        if not action.option_strings or action.required or action.default is argparse.SUPPRESS:
            continue  # positionals, required flags and --help take no preset
        name = ENV_PREFIX + max(action.option_strings, key=len).lstrip("-").upper().replace("-", "_")
        raw = os.environ.get(name)
        if raw is None:
            continue
        if action.nargs == 0:  # a switch
            if raw.lower() not in SWITCH_WORDS:
                raise LppartError(f"{name}={raw!r} is not a valid bool (use 1/true/yes/on or 0/false/no/off)")
            value = SWITCH_WORDS[raw.lower()]
        else:
            try:
                value = raw if action.type is None else action.type(raw)
            except ValueError:
                raise LppartError(f"{name}={raw!r} is not a valid {action.type.__name__}") from None
            if action.choices is not None and value not in action.choices:
                raise LppartError(f"{name}={raw!r} is not one of {', '.join(action.choices)}")
        action.default = Preset(action.dest, name, raw, value)


def _load_graph(path: str, dedup: bool) -> tuple[GlobalGraph, np.ndarray]:
    n = None  # the vertex count, once read
    try:
        pairs, id_map = io.load_pairs(path)
        n = len(id_map)
        if n == 0:
            raise LppartError(f"{path}: graph has no vertices")
        if dedup:
            pairs = io.dedup_pairs(pairs)
        return build_csr(pairs, n), id_map
    except MemoryError:
        raise LppartError(f"{path}: not enough memory to build its graph" + ("" if n is None else f" of {n} vertices")) from None


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
    if args.num_parts is None:
        raise LppartError("--parts is required")
    outer, bal, ref = _parse_iters(args.iters)
    flagged = {f.name: getattr(args, f.name) for f in fields(Config) if hasattr(args, f.name)}
    cfg = Config(**flagged, outer_iters=outer, balance_iters=bal, refine_iters=ref)
    cfg.validate()  # for every method: --strict reads the tolerances, the manifest records them all
    g, id_map = _load_graph(args.input, args.dedup)

    with open(args.trace, "w") if args.trace else contextlib.nullcontext() as trace:
        if args.method == "xtrapulp":
            dist = make_distribution(DIST_NAMES[args.dist], g.num_vertices, cfg.num_tasks, seed=subsystem_seed(cfg.seed, "dist"))
            local_graphs = distribute(g, dist)
            observer = None if trace is None else lambda event: trace.write(_trace_line(event))
            state = xtrapulp(local_graphs, cfg, observer=observer)
            parts = state.to_global(local_graphs, g.num_vertices)
        elif args.method == "random":
            parts = random_partition(g.num_vertices, cfg.num_parts, seed=cfg.seed)
        elif args.method == "vblock":
            parts = vertex_block_partition(g.num_vertices, cfg.num_parts)
        else:
            parts = edge_block_partition(g, cfg.num_parts)

    out_path = Path(args.output) if args.output else Path(args.input).with_suffix(".parts")
    io.write_parts(out_path, parts)
    relabeled = bool(len(id_map)) and not np.array_equal(id_map, np.arange(len(id_map)))
    if relabeled:
        io.write_id_map(out_path.with_suffix(out_path.suffix + ".ids"), id_map)

    # everything needed to reproduce the run byte-for-byte: the flagged Config fields and the command's own keys
    manifest = {name: getattr(cfg, name) for name in flagged} | {
        "iters": [outer, bal, ref],
        "command": "partition",
        "input": {"path": str(args.input), "dedup": args.dedup, "relabeled": relabeled},
        "method": args.method,
        "distribution": args.dist,
        "dedup": args.dedup,
        "outputs": {"partition": str(out_path), "report": args.report},
        "tool_version": __version__,
    }
    report = build_report(g, parts, cfg.num_parts, metadata={"manifest": manifest, "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z")})
    if args.report:
        Path(args.report).write_text(report.to_json() + "\n")
    print(
        f"partition: n={g.num_vertices} m={g.num_edges} p={cfg.num_parts} method={args.method} "
        f"cut={report.edge_cut} cut_ratio={report.cut_ratio:.4f} "
        f"v_imb={report.vertex_imbalance:.4f} e_imb={report.edge_imbalance:.4f} -> {out_path}"
    )

    if args.strict:
        if report.vertex_imbalance > 1.0 + cfg.vert_imb or report.edge_imbalance > 1.0 + cfg.edge_imb:
            print(
                f"strict: imbalance exceeds tolerance (vertex {report.vertex_imbalance:.4f} "
                f"vs {1 + cfg.vert_imb:.2f}, edge {report.edge_imbalance:.4f} vs {1 + cfg.edge_imb:.2f})",
                file=sys.stderr,
            )
            return EXIT_STRICT
    return EXIT_OK


def cmd_generate(args) -> int:
    if args.kind == "rmat":
        if args.scale is None:
            raise LppartError("rmat needs --scale")
        if not 1 <= args.scale <= 62:
            raise LppartError(f"--scale must lie in [1, 62] (vertex ids are int64), got {args.scale}")
        n = 1 << args.scale
    else:
        if args.n is None:
            raise LppartError(f"{args.kind} needs --n")
        n = args.n
    probs = GenSpec.__dataclass_fields__["probs"].default
    if args.probs:
        try:
            parts = [float(x) for x in args.probs.split(",")]
        except ValueError:
            raise LppartError(f"--probs expects four comma-separated numbers, got {args.probs!r}") from None
        if len(parts) != 4:
            raise LppartError("--probs expects four comma-separated values")
        probs = tuple(parts)
    spec = GenSpec(kind=args.kind, num_vertices=n, avg_degree=args.davg, seed=args.seed, probs=probs)
    size = f"--scale {args.scale}" if args.kind == "rmat" else f"--n {n}"
    if spec.num_pairs > MAX_PAIRS:
        raise LppartError(f"{size} with --davg {args.davg} asks for {spec.num_pairs} pairs, more than one int64 array holds ({MAX_PAIRS})")
    try:
        pairs = generate(spec)
    except MemoryError:
        raise LppartError(f"not enough memory for the {spec.num_pairs} pairs that {size} with --davg {args.davg} asks for") from None
    if args.output is None:
        sys.stdout.write(io.edge_list_text(pairs))
    elif args.output.endswith(".npz"):
        io.write_cache(args.output, pairs, n)
    else:
        io.write_edge_list(args.output, pairs)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    first_with: dict[str, str] = {}
    for path in args.partitions:
        name = Path(path).stem
        if name in first_with:
            raise LppartError(f"{first_with[name]} and {path} both name method {name!r}; rename one")
        first_with[name] = path
    g, _ = _load_graph(args.input, args.dedup)
    n = g.num_vertices
    # the part count sizes every per-part array, so it is held to [1, n], as partition holds it
    if args.parts is not None and args.parts < 1:
        raise ConfigError(f"part count -p must be >= 1, got {args.parts}")
    if args.parts is not None and args.parts > n:
        raise ConfigError(f"part count -p {args.parts} exceeds vertex count {n}")
    reports: dict[str, QualityReport] = {}
    for path in args.partitions:
        parts = io.read_parts(path)
        if len(parts) != n:
            raise LppartError(f"{path}: {len(parts)} labels for a graph with {n} vertices")
        p = args.parts
        if p is None:
            top = int(parts.argmax())
            p = int(parts[top]) + 1
            if p > n:
                raise InputError(f"{path}: label {parts[top]} at vertex {top} makes the part count {p}, above the vertex count {n}")
        name = Path(path).stem
        try:
            reports[name] = build_report(g, parts, p, metadata={"partition_file": str(path)})
        except InputError as exc:
            raise InputError(f"{path}: {exc}") from None

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
    parser = build_parser()
    taken = []  # the presets no explicit flag replaced
    try:
        # presets are read only for the command being run, then the explicit flags parse over them
        _preset_defaults(parser, parser.parse_args(argv).command)
        args = parser.parse_args(argv)
        taken = [value for value in vars(args).values() if isinstance(value, Preset)]
        vars(args).update((preset.dest, preset.value) for preset in taken)
        return {"partition": cmd_partition, "generate": cmd_generate, "evaluate": cmd_evaluate}[args.command](args)
    except (LppartError, OSError) as exc:
        presets = ", ".join(f"{preset.name}={preset.raw!r}" for preset in taken)
        print(f"lppart: error: {exc}" + (f" (presets taken: {presets})" if presets else ""), file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
