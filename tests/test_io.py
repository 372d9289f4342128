import warnings
import zipfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lppart import io
from lppart.errors import InputError


def test_edge_list_roundtrip(tmp_path):
    pairs = np.array([[0, 1], [5, 3], [2, 2]])
    path = tmp_path / "g.txt"
    io.write_edge_list(path, pairs)
    assert np.array_equal(io.read_edge_list(path), pairs)


def test_edge_list_comments_and_blanks(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# header\n\n0 1\n  # indented comment\n1 2 extra-tokens-ok\n")
    assert io.read_edge_list(path).tolist() == [[0, 1], [1, 2]]


def test_edge_list_bad_line_named(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n7\n")
    with pytest.raises(InputError, match=r":2:"):
        io.read_edge_list(path)
    path.write_text("0 one\n")
    with pytest.raises(InputError, match=r":1:"):
        io.read_edge_list(path)


def test_relabel_sparse_ids():
    dense, id_map = io.relabel_pairs(np.array([[100, 300], [300, 7]]))
    assert id_map.tolist() == [7, 100, 300]
    assert dense.tolist() == [[1, 2], [2, 0]]


def test_relabel_identity_when_dense():
    dense, id_map = io.relabel_pairs(np.array([[0, 1], [1, 2]]))
    assert id_map.tolist() == [0, 1, 2]
    assert dense.tolist() == [[0, 1], [1, 2]]


def test_dedup_orientation_insensitive():
    out = io.dedup_pairs(np.array([[0, 1], [1, 0], [0, 1], [2, 3]]))
    assert out.tolist() == [[0, 1], [2, 3]]


@st.composite
def id_pairs(draw):
    """Pairs of dense small ids (the table path), or with negative, sparse or
    int64-limit ids (the ``np.unique`` path), with repeats and both orientations."""
    ids = draw(st.sampled_from([st.integers(0, 12), st.integers(-3, 12), st.integers(0, 2**20),
                                st.sampled_from([-(2**63), 2**63 - 1, -1, 0, 1, 2**16, 2**32])]))
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=12))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


@settings(deadline=None, max_examples=300)
@given(id_pairs())
def test_relabel_and_dedup_match_np_unique(pairs):
    """np.unique's values; the dense ids in the narrowest type that holds them."""
    (dense, id_map), (want_dense, want_map) = io.relabel_pairs(pairs), oracles.relabel_pairs(pairs)
    assert dense.dtype == oracles.id_dtype(want_dense) and dense.shape == want_dense.shape
    assert np.array_equal(dense, want_dense)
    assert id_map.dtype == want_map.dtype and np.array_equal(id_map, want_map)
    got, expected = io.dedup_pairs(pairs), oracles.dedup_pairs(pairs)
    assert got.dtype == expected.dtype and got.shape == expected.shape and np.array_equal(got, expected)


@st.composite
def cache_pairs(draw):
    """``id_pairs``, or ids at the edges of each stored type's range."""
    edges = st.sampled_from([0, 1, 255, 256, 2**16 - 1, 2**16, 2**32 - 1, 2**32, -1, -(2**63), 2**63 - 1])
    pairs = draw(st.lists(st.tuples(edges, edges), max_size=6))
    return draw(st.one_of(id_pairs(), st.just(np.array(pairs, dtype=np.int64).reshape(-1, 2))))


@settings(deadline=None, max_examples=200)
@given(cache_pairs(), st.integers(0, 2**63 - 1))
def test_cache_roundtrip_is_exact_and_stored_narrow(tmp_path_factory, pairs, n):
    path = tmp_path_factory.mktemp("cache") / "g.npz"
    io.write_cache(path, pairs, n)
    with zipfile.ZipFile(path) as zf:
        assert sorted(info.filename for info in zf.infolist()) == ["format_version.npy", "num_vertices.npy", "pairs.npy"]
        assert all(info.compress_type == zipfile.ZIP_STORED for info in zf.infolist())
    with np.load(path) as data:
        assert data["pairs"].dtype == oracles.id_dtype(pairs)
        assert data["num_vertices"].dtype == np.int64 and data["format_version"].dtype == np.int64
    back, m = io.read_cache(path)
    assert m == n and back.dtype == oracles.id_dtype(pairs) and back.shape == pairs.shape and np.array_equal(back, pairs)


def test_cache_written_deflated_as_int64_reads_back(tmp_path):
    pairs = np.array([[0, 70000], [5, 3], [-(2**63), 2**63 - 1]], dtype=np.int64)
    path = tmp_path / "old.npz"
    np.savez_compressed(path, format_version=np.int64(1), num_vertices=np.int64(70001), pairs=pairs)
    back, n = io.read_cache(path)
    assert n == 70001 and back.dtype == np.int64 and np.array_equal(back, pairs)


@pytest.mark.parametrize("members,match", [
    ({"pairs": np.array([[True, False]]), "num_vertices": np.int64(2)}, "pairs must be integer ids.*bool"),
    ({"pairs": np.array([[0, 2**63]], dtype=np.uint64), "num_vertices": np.int64(2)}, "pairs must be integer ids.*uint64"),
    ({"pairs": np.array([[0, 1]]), "num_vertices": np.int64(-1)}, "num_vertices must be a nonnegative integer"),
    ({"pairs": np.array([[0, 1]]), "num_vertices": np.array([2, 3])}, "num_vertices must be a nonnegative integer"),
])
def test_cache_with_out_of_range_members_refused(tmp_path, members, match):
    """Float members are MALFORMED rows in test_cli."""
    path = tmp_path / "bad.npz"
    np.savez(path, format_version=np.int64(io.CACHE_FORMAT_VERSION), **members)
    with pytest.raises(InputError, match=f"{path}: cache {match}"):
        io.read_cache(path)


@pytest.mark.parametrize("version", [np.array([1, 1]), np.float64(1.5), np.float64(1.0), np.int64(2)], ids=repr)
def test_cache_with_malformed_format_version_refused(tmp_path, version):
    """The version is held to num_vertices' rule, a 0-d integer, and must be the one this reader knows."""
    path = tmp_path / "bad.npz"
    np.savez(path, format_version=version, num_vertices=np.int64(2), pairs=np.array([[0, 1]]))
    with pytest.raises(InputError, match=f"{path}: unsupported or missing cache format version"):
        io.read_cache(path)


def test_cache_roundtrip_and_version(tmp_path):
    pairs = np.array([[0, 1], [1, 2]])
    path = tmp_path / "g.npz"
    io.write_cache(path, pairs, 3)
    back, n = io.read_cache(path)
    assert n == 3 and np.array_equal(back, pairs)
    np.savez(path, pairs=pairs, num_vertices=3)  # no version field
    with pytest.raises(InputError, match="version"):
        io.read_cache(path)


def test_parts_roundtrip(tmp_path):
    path = tmp_path / "p.txt"
    io.write_parts(path, np.array([0, 2, 1]))
    assert io.read_parts(path).tolist() == [0, 2, 1]
    path.write_text("0\nx\n")
    with pytest.raises(InputError, match=":2:"):
        io.read_parts(path)


# ---------------------------------------------------------------------------
# the whole-file fast path against the line loop


def _outcome(read, path):
    """The array a reader returns (with its dtype and shape) or the message it raises."""
    try:
        out = read(path)
    except InputError as exc:
        return "error", str(exc)
    return out.dtype.str, out.shape, out.tolist()


TEXT_CHARS = list("019-+_#.xé") + [" ", "\t", "\r", "\n", "\x0c"]
TOKENS = ["0", "1", "-9", "+1", "007", "1_0", "#", "x", "1.0", "é", "١", "9223372036854775807",
          "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
          # at the partition byte parser's edges: a signed zero, lone and misplaced signs, 18 and 19 digits
          "-0", "-", "--1", "1-", "-999999999999999999", "1000000000000000000"]
line_ends = st.sampled_from(["\n", "\r\n", "\r"])
texts = st.one_of(
    st.text(alphabet=TEXT_CHARS, max_size=60),
    # lines of whole tokens, so that valid files and out-of-range ids come up often, and lines of
    # at most one token, as in a partition file; each with or without a final newline
    st.tuples(
        st.one_of(
            st.lists(st.tuples(st.sampled_from(["", " ", "\x0c", "#"]), st.lists(st.sampled_from(TOKENS), max_size=4),
                               st.sampled_from([" ", "\t", " \t"]), line_ends), max_size=8),
            st.lists(st.tuples(st.just(""), st.lists(st.sampled_from(TOKENS), max_size=1), st.just(""), line_ends),
                     max_size=8),
        ).map(lambda lines: "".join(lead + sep.join(tokens) + end for lead, tokens, sep, end in lines)),
        st.booleans(),
    ).map(lambda drawn: drawn[0] if drawn[1] else drawn[0].rstrip("\r\n")),
)


@settings(deadline=None, max_examples=400)
@given(texts)
def test_readers_match_the_line_loop(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("drawn") / "g.txt"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(io.read_edge_list, path) == _outcome(oracles.read_edge_list, path)
    assert _outcome(io.read_parts, path) == _outcome(oracles.read_parts, path)


def test_comment_cut_only_at_line_start(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("1 2#3\n")
    with pytest.raises(InputError, match=r"g\.txt:1: non-integer vertex id in '1 2#3'"):
        io.read_edge_list(path)
    path.write_bytes(b"\t# note\n1 2 # note\n\x0c#\n3 4\n")
    assert io.read_edge_list(path).tolist() == [[1, 2], [3, 4]]


def test_ids_numpy_refuses_still_parse(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("1_000 ２\n0 1\n", encoding="utf-8")
    assert io.read_edge_list(path).tolist() == [[1000, 2], [0, 1]]
    path.write_text("1_0\n+3\n", encoding="utf-8")
    assert io.read_parts(path).tolist() == [10, 3]


def test_non_utf8_names_its_line(tmp_path):
    path = tmp_path / "g.txt"
    path.write_bytes(b"0 1\r\n\xff\xfe 3\n")
    with pytest.raises(InputError, match=r"g\.txt:2: not valid UTF-8"):
        io.read_edge_list(path)
    path.write_bytes(b"0\r1\n\n\xff\n")
    with pytest.raises(InputError, match=r"g\.txt:4: not valid UTF-8"):
        io.read_parts(path)


def test_snap_shaped_file_takes_the_fast_path(tmp_path, monkeypatch):
    def refuse(path, data):
        raise AssertionError("fell back to the line loop")

    monkeypatch.setattr(io, "_read_edge_list_loop", refuse)
    monkeypatch.setattr(io, "_read_parts_loop", refuse)
    path = tmp_path / "snap.txt"
    path.write_bytes(b"# Directed graph (each unordered pair of nodes is saved once)\r\n"
                     b"# Nodes: 4 Edges: 4\r\n\t# FromNodeId\tToNodeId\r\n"
                     b"0\t1\t0.5\r\n\r\n1\t2\r\n2\t3\tw\r3\t0\r\n")
    out = io.read_edge_list(path)
    assert out.dtype == np.int64 and out.tolist() == [[0, 1], [1, 2], [2, 3], [3, 0]]
    path.write_bytes(b"3\r\n1\r\n\r\n-2\r0\n")
    assert io.read_parts(path).tolist() == [3, 1, -2, 0]


def test_empty_and_comment_only_files_have_no_edges(tmp_path):
    path = tmp_path / "g.txt"
    for text in ("", "\n \n", "# only a header\r\n  # and another\n"):
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = io.read_edge_list(path)
        assert out.dtype == np.int64 and out.shape == (0, 2)
        with pytest.raises(InputError, match="no edges found"):
            io.load_pairs(path)


def of_width(width):
    """Integers of ``width`` decimal digits, of either sign, within int64."""
    magnitudes = st.integers(10 ** (width - 1) if width > 1 else 0, min(10**width - 1, 2**63 - 1))
    return st.tuples(magnitudes, st.booleans()).map(lambda drawn: -drawn[0] if drawn[1] else drawn[0])


int64s = st.one_of(st.integers(-(2**63), 2**63 - 1), st.sampled_from([-(2**63), 2**63 - 1, 0, -1]),
                   st.integers(1, 19).flatmap(of_width))


@settings(deadline=None, max_examples=100)
@given(st.lists(int64s, max_size=40), st.sampled_from([1, 2, 3, 5, io._BLOCK]))
def test_writers_match_the_line_loop(tmp_path_factory, values, block):
    d = tmp_path_factory.mktemp("written")
    arr = np.array(values, dtype=np.int64)
    pairs = arr[: len(arr) // 2 * 2].reshape(-1, 2)
    oracles.write_edge_list(d / "old", pairs)
    with mock.patch.object(io, "_BLOCK", block):  # small blocks: most arrays span several
        assert io.edge_list_text(pairs).encode() == (d / "old").read_bytes()
        for write, oracle, data in ((io.write_edge_list, oracles.write_edge_list, pairs),
                                    (io.write_parts, oracles.write_parts, arr),
                                    (io.write_id_map, oracles.write_id_map, arr)):
            write(d / "new", data)
            oracle(d / "old", data)
            assert (d / "new").read_bytes() == (d / "old").read_bytes()


@settings(deadline=None, max_examples=100)
@given(st.lists(st.one_of(st.integers(0, 255), st.integers(1, 18).flatmap(of_width)), max_size=40))
def test_written_partitions_take_the_byte_parser(tmp_path_factory, labels):
    """Labels of up to 18 digits, negatives and the empty partition included,
    round-trip through ``write_parts`` and the byte parser alone."""
    def refuse(*args):
        raise AssertionError("read_parts left the byte parser")

    path = tmp_path_factory.mktemp("parts") / "p.parts"
    arr = np.array(labels, dtype=np.int64)
    io.write_parts(path, arr)
    with mock.patch.object(io, "_read_parts_loop", refuse), mock.patch.object(io, "_loadtxt_int64", refuse):
        out = io.read_parts(path)
    assert out.dtype == np.int64 and out.shape == arr.shape and np.array_equal(out, arr)
