import json
import os

import numpy as np
import pytest

from conftest import grid_pairs
from lppart import io
from lppart.cli import main
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


def test_generate_stdout_and_randhd_locality(capsys):
    assert run_cli("generate", "randhd", "--n", 200, "--davg", 8, "--seed", 2) == 0
    lines = capsys.readouterr().out.strip().splitlines()
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


def test_sequential_flag_reproduces(grid_file, tmp_path):
    path, n = grid_file
    a = tmp_path / "s.parts"
    b = tmp_path / "t.parts"
    assert run_cli("partition", "-i", path, "-p", 4, "-T", 2, "--seed", 5, "--sequential", "-o", a) == 0
    assert run_cli("partition", "-i", path, "-p", 4, "-T", 2, "--seed", 5, "-o", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_default_task_count_is_one(grid_file, tmp_path):
    path, n = grid_file
    a = tmp_path / "default.parts"
    b = tmp_path / "one.parts"
    report = tmp_path / "default.json"
    assert run_cli("partition", "-i", path, "-p", 4, "--seed", 3, "-o", a, "--report", report) == 0
    assert run_cli("partition", "-i", path, "-p", 4, "--seed", 3, "-T", 1, "-o", b) == 0
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(report.read_text())["metadata"]["manifest"]["num_tasks"] == 1


@pytest.mark.parametrize("var,value", [("LPPART_SEED", "abc"), ("LPPART_VERT_IMB", "0.1x")])
def test_malformed_env_value_exits_2_naming_the_variable(grid_file, tmp_path, monkeypatch, capsys, var, value):
    path, n = grid_file
    monkeypatch.setenv(var, value)
    assert run_cli("partition", "-i", path, "-p", 2, "-o", tmp_path / "e.parts") == 2
    err = capsys.readouterr().err
    assert err.startswith("lppart: error:") and var in err and repr(value) in err
