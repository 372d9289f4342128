import json
from dataclasses import fields

import numpy as np
import pytest

from conftest import grid_pairs
from lppart import io
from lppart.cli import build_parser, main
from lppart.partition import INIT_MODES, Config
from lppart.graph import build_csr
from lppart.metrics import edge_cut


@pytest.fixture
def grid_file(tmp_path):
    pairs, n = grid_pairs(16)
    path = tmp_path / "grid.txt"
    io.write_edge_list(path, np.asarray(pairs))
    return path, n


def run_cli(*args):
    return main([str(a) for a in args])


def test_partition_writes_n_lines_and_report(grid_file, tmp_path):
    path, n = grid_file
    out = tmp_path / "g.parts"
    report = tmp_path / "report.json"
    code = run_cli("partition", "-i", path, "-p", 4, "-T", 2, "--seed", 1, "-o", out, "--report", report)
    assert code == 0
    parts = io.read_parts(out)
    assert len(parts) == n
    assert set(np.unique(parts)) <= set(range(4))
    data = json.loads(report.read_text())
    assert data["num_parts"] == 4
    assert data["metadata"]["manifest"]["seed"] == 1
    assert data["schema_version"] == 1


def test_partition_deterministic_across_runs(grid_file, tmp_path):
    path, n = grid_file
    outs = []
    for name in ("a", "b", "c"):
        out = tmp_path / f"{name}.parts"
        assert run_cli("partition", "-i", path, "-p", 4, "-T", 2, "--seed", 7, "-o", out) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_partition_random_method_matches_baseline_law(tmp_path):
    from lppart.gen import gen_er

    n = 1 << 12
    pairs = gen_er(n, 16, seed=3)
    src = tmp_path / "er.txt"
    io.write_edge_list(src, pairs)
    out = tmp_path / "er.parts"
    report = tmp_path / "er.json"
    assert run_cli("partition", "-i", src, "-p", 4, "--method", "random", "--seed", 2, "-o", out, "--report", report) == 0
    data = json.loads(report.read_text())
    assert abs(data["cut_ratio"] - 0.75) < 0.03


def test_partition_single_part_zero_cut(grid_file, tmp_path):
    path, n = grid_file
    report = tmp_path / "r.json"
    assert run_cli("partition", "-i", path, "-p", 1, "-o", tmp_path / "p.txt", "--report", report) == 0
    assert json.loads(report.read_text())["edge_cut"] == 0


def test_partition_bad_input_exits_2(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 not-a-number\n")
    assert run_cli("partition", "-i", bad, "-p", 2) == 2


def test_partition_id_past_int64_exits_2_naming_the_line(tmp_path, capsys):
    bad = tmp_path / "big.txt"
    for text, line in (("0 1\n9223372036854775808 1\n", 2), ("# ids\n0 1\n\n1 2\n2 -9223372036854775809\n", 5)):
        bad.write_text(text)
        assert run_cli("partition", "-i", bad, "-p", 2) == 2
        assert f"{bad}:{line}: vertex id outside" in capsys.readouterr().err
    # the extremes of the range still parse
    ok = tmp_path / "edge.txt"
    ok.write_text("9223372036854775807 -9223372036854775808\n0 1\n")
    assert run_cli("partition", "-i", ok, "-p", 2, "-o", tmp_path / "edge.parts") == 0


def _truncated_cache(tmp_path):
    good = tmp_path / "good.npz"
    io.write_cache(good, np.array([[0, 1], [1, 2]]), 3)
    cut = tmp_path / "cut.npz"
    cut.write_bytes(good.read_bytes()[:-40])
    return cut


def _cache_without_pairs(tmp_path):
    path = tmp_path / "nopairs.npz"
    np.savez(path, format_version=np.int64(io.CACHE_FORMAT_VERSION), num_vertices=np.int64(3))
    return path


def _cache_of(tmp_path, pairs, num_vertices, name="float.npz", version=np.int64(io.CACHE_FORMAT_VERSION)):
    path = tmp_path / name
    np.savez(path, format_version=version, num_vertices=num_vertices, pairs=pairs)
    return path


def _empty_cache(tmp_path):
    path = tmp_path / "empty.npz"
    io.write_cache(path, np.empty((0, 2), dtype=np.int64), 0)
    return path


def _parts_file(tmp_path, text):
    path = tmp_path / "labels.parts"
    path.write_text(text)
    return path


def _bytes_file(path, data):
    path.write_bytes(data)
    return path


def _same_stem_parts(tmp_path):
    paths = [tmp_path / side / "x.parts" for side in ("a", "b")]
    for path in paths:
        path.parent.mkdir()
        path.write_text("0\n" * 256)
    return paths


# each case: (argv, text the error must contain), built from tmp_path and the 256-vertex grid
MALFORMED = {
    "truncated-npz-partition": lambda d, grid: (("partition", "-i", _truncated_cache(d), "-p", 2), f"{d / 'cut.npz'}: truncated"),
    "truncated-npz-evaluate": lambda d, grid: (("evaluate", "-i", _truncated_cache(d), _parts_file(d, "0\n0\n1\n")), f"{d / 'cut.npz'}: truncated"),
    "empty-npz-evaluate": lambda d, grid: (("evaluate", "-i", _empty_cache(d), _parts_file(d, "")), f"{d / 'empty.npz'}: graph has no vertices"),
    "npz-without-pairs": lambda d, grid: (("partition", "-i", _cache_without_pairs(d), "-p", 2), f"{d / 'nopairs.npz'}: cache has no pairs"),
    "npz-float-pairs": lambda d, grid: (("partition", "-i", _cache_of(d, np.array([[0.5, 1.7], [1.2, 2.9]]), np.int64(3)), "-p", 2), f"{d / 'float.npz'}: cache pairs must be integer ids within int64, got dtype float64"),
    "npz-num-vertices-past-one-array": lambda d, grid: (("partition", "-i", _cache_of(d, np.array([[0, 1], [1, 2]]), np.int64(2**62), "huge.npz"), "-p", 2), f"{d / 'huge.npz'}: cache num_vertices 4611686018427387904 is more than one int64 array holds"),
    "npz-float-num-vertices": lambda d, grid: (("evaluate", "-i", _cache_of(d, np.array([[0, 1], [1, 2]]), np.float64(3.0)), _parts_file(d, "0\n0\n1\n")), f"{d / 'float.npz'}: cache num_vertices must be a nonnegative integer, got 3.0 of dtype float64"),
    "npz-array-format-version": lambda d, grid: (("partition", "-i", _cache_of(d, np.array([[0, 1], [1, 2]]), np.int64(3), "v.npz", np.array([1, 1])), "-p", 2), f"{d / 'v.npz'}: unsupported or missing cache format version"),
    "npz-float-format-version": lambda d, grid: (("evaluate", "-i", _cache_of(d, np.array([[0, 1], [1, 2]]), np.int64(3), "v.npz", np.float64(1.5)), _parts_file(d, "0\n0\n1\n")), f"{d / 'v.npz'}: unsupported or missing cache format version"),
    "part-label-past-int64": lambda d, grid: (("evaluate", "-i", grid, _parts_file(d, "0\n\n99999999999999999999\n" + "0\n" * 253)), f"{d / 'labels.parts'}:3: part label"),
    "part-label-above-vertex-count": lambda d, grid: (("evaluate", "-i", grid, _parts_file(d, "0\n100000000000\n" + "0\n" * 254)), f"{d / 'labels.parts'}: label 100000000000 at vertex 1 makes the part count 100000000001, above the vertex count 256"),
    "part-count-above-vertex-count": lambda d, grid: (("evaluate", "-i", grid, "-p", 100000000000, _parts_file(d, "0\n" * 256)), "part count -p 100000000000 exceeds vertex count 256"),
    "part-count-zero": lambda d, grid: (("evaluate", "-i", grid, "-p", 0, _parts_file(d, "0\n" * 256)), "part count -p must be >= 1, got 0"),
    "part-count-above-vertex-count-partition": lambda d, grid: (("partition", "-i", _bytes_file(d / "g4.txt", b"0 1\n1 2\n2 3\n"), "-p", 5), "part count 5 exceeds vertex count 4"),
    "part-count-above-vertex-count-block-init": lambda d, grid: (("partition", "-i", _bytes_file(d / "g4.txt", b"0 1\n1 2\n2 3\n"), "-p", 5, "--init", "block"), "part count 5 exceeds vertex count 4"),
    "part-count-negative": lambda d, grid: (("evaluate", "-i", grid, "-p", -1, _parts_file(d, "0\n" * 256)), "part count -p must be >= 1, got -1"),
    "part-label-out-of-range": lambda d, grid: (("evaluate", "-i", grid, "-p", 2, _parts_file(d, "0\n1\n2\n" + "0\n" * 253)), f"{d / 'labels.parts'}: part labels must lie in [0, 2)"),
    "edge-list-not-utf8": lambda d, grid: (("partition", "-i", _bytes_file(d / "g.txt", b"0 1\n\xff\xfe 3\n"), "-p", 2), f"{d / 'g.txt'}:2: not valid UTF-8"),
    "parts-not-utf8": lambda d, grid: (("evaluate", "-i", grid, _bytes_file(d / "labels.parts", b"0\n\xff\n" + b"0\n" * 254)), f"{d / 'labels.parts'}:2: not valid UTF-8"),
    "evaluate-methods-share-a-stem": lambda d, grid: (("evaluate", "-i", grid, *_same_stem_parts(d)), f"{d / 'a' / 'x.parts'} and {d / 'b' / 'x.parts'} both name method 'x'"),
    "rmat-probs-not-numbers": lambda d, grid: (("generate", "rmat", "--scale", 4, "--probs", "a,b,c,d", "-o", d / "g.txt"), "--probs expects four comma-separated numbers"),
    "rmat-probs-outside-unit": lambda d, grid: (("generate", "rmat", "--scale", 4, "--probs", "1.5,-0.5,0,0", "-o", d / "g.txt"), "(--probs) must lie in [0, 1]"),
    "rmat-probs-nan": lambda d, grid: (("generate", "rmat", "--scale", 4, "--probs", "nan,0,0,1", "-o", d / "g.txt"), "(--probs) must lie in [0, 1]"),
    "rmat-scale-negative": lambda d, grid: (("generate", "rmat", "--scale", -1, "-o", d / "g.txt"), "--scale must lie in [1, 62]"),
    "rmat-scale-past-int64": lambda d, grid: (("generate", "rmat", "--scale", 70, "-o", d / "g.txt"), "--scale must lie in [1, 62]"),
    "vert-imb-nan": lambda d, grid: (("partition", "-i", grid, "-p", 2, "--vert-imb", "nan", "--strict"), "--vert-imb must be finite and >= 0, got nan"),
    "ramp-end-infinite": lambda d, grid: (("partition", "-i", grid, "-p", 2, "-X", "inf"), "need finite 0 < y <= x (-Y, -X), got x=inf"),
    "baseline-vert-imb-negative": lambda d, grid: (("partition", "-i", grid, "-p", 2, "--method", "vblock", "--vert-imb", -1, "--strict"), "--vert-imb must be finite and >= 0, got -1.0"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_with_a_located_message(case, grid_file, tmp_path, capsys):
    argv, located = MALFORMED[case](tmp_path, grid_file[0])
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("lppart: error:") and located in err


def test_partition_missing_file_exits_2(tmp_path):
    assert run_cli("partition", "-i", tmp_path / "nope.txt", "-p", 2) == 2


def test_partition_strict_flags_violations(tmp_path, grid_file):
    path, n = grid_file
    # random partitioning cannot meet a tight balance+quality tolerance with
    # --strict on edge imbalance side; vblock meets vertex balance trivially
    code = run_cli("partition", "-i", path, "-p", 4, "--method", "random", "--seed", 0,
                   "--strict", "--edge-imb", "0.0", "-o", tmp_path / "o.txt")
    assert code in (0, 3)  # depends on draw; must not crash
    code = run_cli("partition", "-i", path, "-p", 4, "--method", "vblock", "--strict",
                   "--vert-imb", "0.10", "--edge-imb", "1.0", "-o", tmp_path / "o2.txt")
    assert code == 0


def test_relabeling_emits_mapping(tmp_path):
    src = tmp_path / "sparse.txt"
    src.write_text("# comment line\n100 200\n200 300\n")
    out = tmp_path / "sparse.parts"
    assert run_cli("partition", "-i", src, "-p", 2, "-T", 1, "-o", out) == 0
    ids = (tmp_path / "sparse.parts.ids").read_text().split()
    assert ids == ["100", "200", "300"]
    assert len(io.read_parts(out)) == 3


def test_dedup_flag(tmp_path):
    src = tmp_path / "dup.txt"
    src.write_text("0 1\n0 1\n1 0\n1 2\n")
    out = tmp_path / "d.parts"
    rep = tmp_path / "d.json"
    assert run_cli("partition", "-i", src, "-p", 1, "--dedup", "-o", out, "--report", rep) == 0
    assert json.loads(rep.read_text())["num_edges"] == 2
    assert run_cli("partition", "-i", src, "-p", 1, "-o", out, "--report", rep) == 0
    assert json.loads(rep.read_text())["num_edges"] == 4


def test_generate_counts_and_determinism(tmp_path, capsys):
    assert run_cli("generate", "rmat", "--scale", 8, "--davg", 16, "--seed", 1, "-o", tmp_path / "a.txt") == 0
    assert run_cli("generate", "rmat", "--scale", 8, "--davg", 16, "--seed", 1, "-o", tmp_path / "b.txt") == 0
    a = (tmp_path / "a.txt").read_bytes()
    assert a == (tmp_path / "b.txt").read_bytes()
    assert len(a.splitlines()) == (1 << 8) * 16 // 2


def test_generate_stdout_and_randhd_locality(capsys, tmp_path):
    assert run_cli("generate", "randhd", "--n", 200, "--davg", 8, "--seed", 2) == 0
    out = capsys.readouterr().out
    assert run_cli("generate", "randhd", "--n", 200, "--davg", 8, "--seed", 2, "-o", tmp_path / "g.txt") == 0
    assert (tmp_path / "g.txt").read_text() == out
    lines = out.strip().splitlines()
    assert len(lines) == 200 * 8
    for line in lines[:100]:
        u, v = map(int, line.split())
        assert abs(u - v) < 8


def test_generate_binary_cache_roundtrip(tmp_path):
    cache = tmp_path / "g.npz"
    assert run_cli("generate", "er", "--n", 128, "--davg", 8, "--seed", 3, "-o", cache) == 0
    pairs, n = io.read_cache(cache)
    assert n == 128 and pairs.shape == (512, 2)
    out = tmp_path / "c.parts"
    assert run_cli("partition", "-i", cache, "-p", 2, "-o", out) == 0
    assert len(io.read_parts(out)) == 128


def test_generate_past_one_array_exits_2_before_allocating(monkeypatch, capsys, tmp_path):
    def no_call(spec):
        raise AssertionError("generate ran")

    monkeypatch.setattr("lppart.cli.generate", no_call)
    for argv, flag in ((("rmat", "--scale", 62), "--scale 62"), (("er", "--n", 1 << 62), f"--n {1 << 62}"), (("randhd", "--n", 1 << 60, "--davg", 8), f"--n {1 << 60}")):
        assert run_cli("generate", *argv, "-o", tmp_path / "g.txt") == 2
        assert f"{flag} with --davg" in capsys.readouterr().err


def test_generate_out_of_memory_exits_2(monkeypatch, capsys, tmp_path):
    def out_of_memory(spec):
        raise MemoryError

    monkeypatch.setattr("lppart.cli.generate", out_of_memory)
    assert run_cli("generate", "rmat", "--scale", 40, "--davg", 4, "-o", tmp_path / "g.txt") == 2
    err = capsys.readouterr().err
    assert "not enough memory" in err and "--scale 40 with --davg 4" in err
    assert not (tmp_path / "g.txt").exists()


@pytest.mark.parametrize("command", ["partition", "evaluate"])
@pytest.mark.parametrize("target,size", [("lppart.cli.build_csr", " of 256 vertices"), ("lppart.io.load_pairs", "")])
def test_graph_out_of_memory_exits_2_naming_the_file(monkeypatch, capsys, grid_file, tmp_path, command, target, size):
    """A ``MemoryError`` while the graph is read or built exits 2 naming the
    file, and the vertex count once it is known; nothing is allocated."""
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(target, out_of_memory)
    path = grid_file[0]
    argv = ("partition", "-i", path, "-p", 2, "-o", tmp_path / "g.parts") if command == "partition" else ("evaluate", "-i", path, _parts_file(tmp_path, "0\n" * 256))
    assert run_cli(*argv) == 2
    assert f"lppart: error: {path}: not enough memory to build its graph{size}\n" == capsys.readouterr().err


def test_parser_defaults_are_the_config_defaults(monkeypatch, capsys):
    """Every tuning flag's dest and default are ``Config``'s field name and
    default, ``--init`` offers the partitioner's init modes, and the parser
    alone reads no preset, so ``--help`` shows the built-in defaults."""
    monkeypatch.setenv("LPPART_TASKS", "5")
    monkeypatch.setenv("LPPART_INIT", "random")
    args = build_parser().parse_args(["partition", "-i", "g.txt"])
    tuning = {f.name: f.default for f in fields(Config)}
    cfg_fields = ("num_tasks", "vert_imb", "edge_imb", "x", "y", "seed", "init_mode")
    assert {f: getattr(args, f) for f in cfg_fields} == {f: tuning[f] for f in cfg_fields}
    assert args.num_parts is None
    assert args.iters == f"{tuning['outer_iters']},{tuning['balance_iters']},{tuning['refine_iters']}"
    with pytest.raises(SystemExit):
        main(["partition", "--help"])
    out = capsys.readouterr().out
    assert "  --init {" + ",".join(INIT_MODES) + "}\n" in out and f"(default {tuning['num_tasks']})" in out


def test_generate_missing_params_exit_2():
    assert run_cli("generate", "rmat", "--davg", 8) == 2
    assert run_cli("generate", "er", "--davg", 8) == 2


def test_evaluate_self_consistency(grid_file, tmp_path):
    path, n = grid_file
    out = tmp_path / "g.parts"
    rep1 = tmp_path / "r1.json"
    assert run_cli("partition", "-i", path, "-p", 4, "--seed", 3, "-o", out, "--report", rep1) == 0
    rep2 = tmp_path / "r2.json"
    assert run_cli("evaluate", "-i", path, out, "--report", rep2, "-p", 4) == 0
    direct = json.loads(rep1.read_text())
    evaluated = json.loads(rep2.read_text())["methods"][out.stem]
    for key in ("edge_cut", "cut_ratio", "max_part_cut", "vertex_imbalance", "edge_imbalance"):
        assert evaluated[key] == direct[key]


def test_evaluate_two_methods_ratios(grid_file, tmp_path):
    path, n = grid_file
    a = tmp_path / "xtra.parts"
    b = tmp_path / "rand.parts"
    assert run_cli("partition", "-i", path, "-p", 4, "--seed", 1, "-o", a) == 0
    assert run_cli("partition", "-i", path, "-p", 4, "--seed", 1, "--method", "random", "-o", b) == 0
    rep = tmp_path / "cmp.json"
    csv_path = tmp_path / "cmp.csv"
    assert run_cli("evaluate", "-i", path, a, b, "-p", 4, "--report", rep, "--csv", csv_path) == 0
    data = json.loads(rep.read_text())
    ratios = data["performance_ratios"]["edge_cut"]
    g = build_csr(np.asarray(grid_pairs(16)[0]), n)
    cut_a = edge_cut(g, io.read_parts(a))
    cut_b = edge_cut(g, io.read_parts(b))
    best = min(cut_a, cut_b)
    assert ratios[a.stem] == pytest.approx(cut_a / best)
    assert ratios[b.stem] == pytest.approx(cut_b / best)
    assert csv_path.read_text().count("\n") == 3


def test_evaluate_length_mismatch_exits_2(grid_file, tmp_path):
    path, n = grid_file
    short = tmp_path / "short.parts"
    short.write_text("0\n1\n")
    assert run_cli("evaluate", "-i", path, short) == 2


def test_random_distribution_seed_follows_master(grid_file, tmp_path):
    path, n = grid_file
    outs = {}
    for seed in (1, 2):
        out = tmp_path / f"dist{seed}.parts"
        assert run_cli("partition", "-i", path, "-p", 4, "-T", 4, "--dist", "random",
                       "--seed", seed, "-o", out) == 0
        outs[seed] = out.read_bytes()
        assert len(io.read_parts(out)) == n
    assert outs[1] != outs[2]  # master seed reaches the hashed ownership


def test_env_override_seed(grid_file, tmp_path, monkeypatch):
    path, n = grid_file
    out_env = tmp_path / "env.parts"
    monkeypatch.setenv("LPPART_SEED", "99")
    assert run_cli("partition", "-i", path, "-p", 4, "-o", out_env) == 0
    monkeypatch.delenv("LPPART_SEED")
    out_flag = tmp_path / "flag.parts"
    assert run_cli("partition", "-i", path, "-p", 4, "--seed", 99, "-o", out_flag) == 0
    assert out_env.read_bytes() == out_flag.read_bytes()


def test_trace_flag_writes_json_lines(grid_file, tmp_path):
    path, n = grid_file
    trace = tmp_path / "trace.jsonl"
    assert run_cli("partition", "-i", path, "-p", 2, "-T", 2, "--seed", 0, "-o", tmp_path / "t.parts", "--trace", trace) == 0
    lines = [json.loads(l) for l in trace.read_text().splitlines()]
    assert lines
    for rec in lines:
        assert list(rec) == ["superstep", "phase", "iteration", "pairs_sent", "per_task_sent"]
        assert rec["pairs_sent"] == sum(rec["per_task_sent"]) and len(rec["per_task_sent"]) == 2


def test_sequential_flag_is_refused(grid_file, tmp_path, capsys):
    path, n = grid_file
    with pytest.raises(SystemExit) as exc:
        run_cli("partition", "-i", path, "-p", 4, "-T", 2, "--seed", 5, "--sequential", "-o", tmp_path / "s.parts")
    assert exc.value.code == 2
    assert "--sequential" in capsys.readouterr().err


def test_default_task_count_is_one(grid_file, tmp_path):
    path, n = grid_file
    a = tmp_path / "default.parts"
    b = tmp_path / "one.parts"
    report = tmp_path / "default.json"
    assert run_cli("partition", "-i", path, "-p", 4, "--seed", 3, "-o", a, "--report", report) == 0
    assert run_cli("partition", "-i", path, "-p", 4, "--seed", 3, "-T", 1, "-o", b) == 0
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(report.read_text())["metadata"]["manifest"]["num_tasks"] == 1


MALFORMED_PRESETS = [
    ("partition", "LPPART_SEED", "abc"),
    ("partition", "LPPART_VERT_IMB", "0.1x"),
    ("partition", "LPPART_STRICT", "maybe"),
    ("partition", "LPPART_METHOD", "bogus"),
    ("partition", "LPPART_DIST", "bogus"),
    ("partition", "LPPART_INIT", "bogus"),
    # these pass the flag's type and fail a check made after the parse
    ("partition", "LPPART_ITERS", "abc"),
    ("partition", "LPPART_TASKS", "0"),
    ("partition", "LPPART_VERT_IMB", "-1"),
    ("evaluate", "LPPART_PARTS", "0"),
]


@pytest.mark.parametrize("command,var,value", [pytest.param(*case, id=f"{case[1]}-{case[2]}") for case in MALFORMED_PRESETS])
def test_malformed_env_value_exits_2_naming_the_variable(grid_file, tmp_path, monkeypatch, capsys, command, var, value):
    path, n = grid_file
    parts = tmp_path / "e.parts"
    if command == "partition":
        argv = ["partition", "-i", path, "-p", 2, "-o", parts]
    else:
        io.write_parts(parts, np.zeros(n, dtype=np.int64))
        argv = ["evaluate", "-i", path, parts, "--report", tmp_path / "e.json"]
    monkeypatch.setenv(var, value)
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("lppart: error:") and var in err and repr(value) in err


def test_presets_of_other_commands_are_not_read(grid_file, tmp_path, monkeypatch):
    path, n = grid_file
    monkeypatch.setenv("LPPART_DAVG", "x")  # generate's flag
    assert run_cli("partition", "-i", path, "-p", 2, "-o", tmp_path / "g.parts") == 0
    monkeypatch.setenv("LPPART_SEED", "abc")  # partition's and generate's flag
    assert run_cli("evaluate", "-i", path, tmp_path / "g.parts", "--report", tmp_path / "e.json") == 0


def test_flags_without_a_built_in_default_take_presets(grid_file, tmp_path, monkeypatch):
    path, n = grid_file
    monkeypatch.setenv("LPPART_SCALE", "4")
    assert run_cli("generate", "rmat", "-o", tmp_path / "r.txt") == 0
    assert run_cli("generate", "rmat", "--scale", 4, "-o", tmp_path / "flag.txt") == 0
    assert (tmp_path / "r.txt").read_bytes() == (tmp_path / "flag.txt").read_bytes()
    (tmp_path / "one.parts").write_text("0\n" * n)
    monkeypatch.setenv("LPPART_PARTS", "3")
    assert run_cli("evaluate", "-i", path, tmp_path / "one.parts", "--report", tmp_path / "e.json") == 0
    assert json.loads((tmp_path / "e.json").read_text())["methods"]["one"]["num_parts"] == 3


def test_explicit_flag_beats_its_preset(grid_file, tmp_path, monkeypatch):
    path, n = grid_file
    flag, both, report = tmp_path / "flag.parts", tmp_path / "both.parts", tmp_path / "both.json"
    assert run_cli("partition", "-i", path, "-p", 4, "--seed", 0, "-o", flag) == 0
    monkeypatch.setenv("LPPART_SEED", "7")
    assert run_cli("partition", "-i", path, "-p", 4, "--seed", 0, "-o", both, "--report", report) == 0
    assert json.loads(report.read_text())["metadata"]["manifest"]["seed"] == 0
    assert both.read_bytes() == flag.read_bytes()
