"""Brute-force reference implementations the tests check the library against.

Everything here works from raw (u, v) pair lists or adjacency dicts with
plain Python loops, deliberately independent of the CSR/bincount code paths
under test.
"""

from collections import defaultdict
from itertools import islice
from operator import mul

import numpy as np

from lppart.errors import InputError

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1


def undirected_pairs(pairs):
    """Self-loops dropped, duplicates kept (the library's multigraph semantics)."""
    return [(int(u), int(v)) for u, v in pairs if int(u) != int(v)]


def adjacency(pairs, n):
    adj = {v: [] for v in range(n)}
    for u, v in undirected_pairs(pairs):
        adj[u].append(v)
        adj[v].append(u)
    return adj


def edge_cut(pairs, parts):
    return sum(1 for u, v in undirected_pairs(pairs) if parts[u] != parts[v])


def per_part_cut(pairs, parts, p):
    counts = [0] * p
    for u, v in undirected_pairs(pairs):
        if parts[u] != parts[v]:
            counts[parts[u]] += 1
            counts[parts[v]] += 1
    return counts


def part_sizes(pairs, parts, n, p):
    verts = [0] * p
    for v in range(n):
        verts[parts[v]] += 1
    intra = [0] * p
    for u, v in undirected_pairs(pairs):
        if parts[u] == parts[v]:
            intra[parts[u]] += 1
    return verts, intra


def imbalance(pairs, parts, n, p):
    verts, intra = part_sizes(pairs, parts, n, p)
    m = len(undirected_pairs(pairs))
    v_imb = max(verts) * p / n if n else 0.0
    e_imb = max(intra) * p / m if m else 0.0
    return v_imb, e_imb


def bfs_distances(adj, start):
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def connected_components(pairs, n):
    """Component label per vertex, numbered in order of each component's smallest vertex."""
    adj = adjacency(pairs, n)
    labels = [-1] * n
    comp = 0
    for v in range(n):
        if labels[v] < 0:
            for w in bfs_distances(adj, v):
                labels[w] = comp
            comp += 1
    return labels


def exact_diameter(pairs, n):
    """All-pairs BFS over the largest component (small graphs only)."""
    adj = adjacency(pairs, n)
    labels = connected_components(pairs, n)
    largest = max(range(max(labels) + 1), key=labels.count)  # ties to the lower label
    best = 0
    for v in range(n):
        if labels[v] == largest:
            best = max(best, max(bfs_distances(adj, v).values()))
    return best


def exchange_plan(local_graphs, queues):
    """Literal per-vertex exchange: toSend flags, counts pass, fill pass.

    ``queues`` holds per-task lists of (global vertex, part) updates.
    Returns per-receiver lists of (vertex, part) ordered by sending task and
    queue scan order, the total number of pairs sent, and each sender's
    per-receiver buckets of the pairs it sent.
    """
    T = len(local_graphs)
    owner = {int(gid): lg.task for lg in local_graphs for gid in lg.owned}
    per_sender = []
    sent = 0
    for lg, queue in zip(local_graphs, queues):
        buckets = [[] for _ in range(T)]
        for gid, part in queue:
            row = int(np.searchsorted(lg.owned, gid))
            assert lg.owned[row] == gid, f"task {lg.task} queued vertex {gid} it does not own"
            to_send = [False] * T
            for slot in lg.nbr_slots[lg.offsets[row] : lg.offsets[row + 1]]:
                task = owner[int(lg.local_to_global[slot])]
                if task != lg.task and not to_send[task]:
                    to_send[task] = True
                    buckets[task].append((gid, part))
                    sent += 1
        per_sender.append(buckets)
    received = [[] for _ in range(T)]
    for receiver in range(T):
        for sender in range(T):
            received[receiver].extend(per_sender[sender][receiver])
    return received, sent, per_sender


def build_csr(pairs, num_vertices):
    """(offsets, nbrs) by a stable int64 comparison sort of the doubled edge list."""
    n = int(num_vertices)
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    arr = arr[arr[:, 0] != arr[:, 1]]
    src = np.concatenate([arr[:, 0], arr[:, 1]])
    dst = np.concatenate([arr[:, 1], arr[:, 0]])
    order = np.argsort(src, kind="stable")
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    return offsets, dst[order]


def id_dtype(pairs):
    """The id type rule, spelled out: the first of uint8, uint16, uint32 that
    holds every id when none is negative, else int64; uint8 for no pairs."""
    if not pairs.size:
        return np.dtype(np.uint8)
    if pairs.min() >= 0:
        for dtype in (np.uint8, np.uint16, np.uint32):
            if pairs.max() <= np.iinfo(dtype).max:
                return np.dtype(dtype)
    return np.dtype(np.int64)


def relabel_pairs(pairs):
    """(dense pairs, id_map) by ``np.unique``."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    id_map, dense = np.unique(pairs, return_inverse=True)
    return dense.reshape(pairs.shape).astype(np.int64), id_map


def dedup_pairs(pairs):
    """The distinct (min, max) rows by ``np.unique(axis=0)``."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return np.unique(np.stack([pairs.min(axis=1), pairs.max(axis=1)], axis=1), axis=0)


def geometric_mean(values):
    import math

    return math.exp(sum(math.log(v) for v in values) / len(values))


# ---------------------------------------------------------------------------
# text formats, one line at a time (the readers as they were before their
# whole-file fast path, with the encoding spelled out)


def read_edge_list(path):
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            fields = stripped.split()
            if len(fields) < 2:
                raise InputError(f"{path}:{lineno}: expected 'u v', got {stripped!r}")
            try:
                u, v = int(fields[0]), int(fields[1])
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: non-integer vertex id in {stripped!r}") from exc
            pairs.append((u, v))
    if not pairs:
        return np.empty((0, 2), dtype=np.int64)
    try:
        return np.asarray(pairs, dtype=np.int64)
    except OverflowError:
        pass
    k = next(i for i, (u, v) in enumerate(pairs) if not (INT64_MIN <= u <= INT64_MAX and INT64_MIN <= v <= INT64_MAX))
    with open(path, encoding="utf-8") as fh:
        data_lines = (n for n, line in enumerate(fh, start=1) if line.strip() and not line.strip().startswith("#"))
        lineno = next(islice(data_lines, k, None))
    raise InputError(f"{path}:{lineno}: vertex id outside the signed 64-bit range in '{pairs[k][0]} {pairs[k][1]}'")


def read_parts(path):
    values = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                values.append(int(stripped))
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: non-integer part label {stripped!r}") from exc
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        pass
    k = next(i for i, x in enumerate(values) if not INT64_MIN <= x <= INT64_MAX)
    with open(path, encoding="utf-8") as fh:
        lineno = next(islice((n for n, line in enumerate(fh, start=1) if line.strip()), k, None))
    raise InputError(f"{path}:{lineno}: part label {values[k]} outside the signed 64-bit range")


def write_edge_list(path, pairs):
    with open(path, "w") as fh:
        for u, v in np.asarray(pairs, dtype=np.int64):
            fh.write(f"{u} {v}\n")


def write_parts(path, parts):
    with open(path, "w") as fh:
        fh.write("\n".join(str(int(x)) for x in parts))
        fh.write("\n")


def write_id_map(path, id_map):
    with open(path, "w") as fh:
        for gid in id_map:
            fh.write(f"{int(gid)}\n")


def edge_block_partition(degrees, num_edges, p):
    """The greedy id-order sweep: part ``cur`` closes once its cumulative degree
    mass reaches ``(cur + 1)`` shares of 2m, if enough vertices remain."""
    n = len(degrees)
    target = 2.0 * num_edges / p
    parts = np.empty(n, dtype=np.int64)
    cur = 0
    mass = 0
    for v in range(n):
        parts[v] = cur
        mass += degrees[v]
        remaining = n - v - 1
        if cur < p - 1 and mass >= (cur + 1) * target and remaining >= p - 1 - cur:
            cur += 1
    if cur < p - 1:
        parts[n - (p - 1 - cur) :] = np.arange(cur + 1, p)
    return parts


# ---------------------------------------------------------------------------
# the balance sweep as it was before support-only scoring and kept counts (it
# counts each chunk from the labels with bincounts; the scoring is dense)


def neighbor_counts(lg, parts, p):
    """Each owned row's neighbor count and neighbor degree sum per part, as
    flat ``row * p + part`` int64 arrays, one adjacency entry at a time; an
    unlabelled (-1) slot counts nowhere."""
    counts = np.zeros(lg.num_owned * p, dtype=np.int64)
    sums = np.zeros(lg.num_owned * p, dtype=np.int64)
    for row in range(lg.num_owned):
        for slot in lg.neighbors(row).tolist():
            if parts[slot] >= 0:
                counts[row * p + parts[slot]] += 1
                sums[row * p + parts[slot]] += lg.degrees[slot]
    return counts, sums


def sweep_balance_dense(counts, chunk, ledger, mult, guard_v, max_v, score_w, edge_weights, c_v):
    """``partition._sweep_balance`` scoring every part of every candidate: a
    dense product list per candidate whose first maximum is the destination,
    labels written move by move.  Same arguments and side effects, plus
    ``c_v``, the net vertex change per part, updated move by move; returns
    the moved rows.

    It counts each chunk from the labels itself, asserts that the kept
    ``counts`` and degree sums hold the same at that moment, and notes its
    chunk's moves there, as the library's sweep does."""
    p = ledger.num_parts
    lg, parts = counts.lg, counts.parts
    moved = []
    owned_deg = lg.degrees[: lg.num_owned]
    deg_f = lg.degrees.astype(np.float64)
    nprocs = float(lg.num_tasks)
    edge_stage = edge_weights is not None
    if edge_stage:
        max_c, r_e, r_c = edge_weights
        edge_target = ledger.edge_target
        est_e = ledger.intra_edges.astype(np.float64).tolist()
        est_c = ledger.cut_edges.astype(np.float64).tolist()
    else:
        vert_target = ledger.vert_target
        est_v = ledger.verts.astype(np.float64).tolist()
    # the score of every part the vertex guard admits, -1.0 for the others
    sw = [-1.0 if g + 1.0 > max_v else s for s, g in zip(score_w, guard_v)]
    for b0 in range(0, lg.num_owned, chunk):
        b1 = min(b0 + chunk, lg.num_owned)
        B = b1 - b0
        e0, e1 = lg.offsets[b0], lg.offsets[b1]
        if e0 == e1:
            continue
        rows = lg.edge_src[e0:e1] - b0
        nbr = lg.nbr_slots[e0:e1]
        flat = rows * p + parts[nbr]
        raw = np.bincount(flat, minlength=B * p).reshape(B, p)
        wmat = np.bincount(flat, weights=deg_f[nbr], minlength=B * p).reshape(B, p)
        kept_raw, kept_w = counts.rows(b0, b1)
        assert np.array_equal(kept_raw, raw) and kept_w.tobytes() == wmat.tobytes(), (b0, b1)
        cur = parts[b0:b1]
        cand = np.nonzero(owned_deg[b0:b1] > raw[np.arange(B), cur])[0]
        if not len(cand):
            continue
        old_rows = cur.copy()
        w_rows = wmat[cand].tolist()
        cur_rows = cur[cand].tolist()
        if edge_stage:
            raw_rows = raw[cand].tolist()
            deg_rows = owned_deg[b0 + cand].tolist()
        for j, r in enumerate(cand.tolist()):
            x = cur_rows[j]
            prods = list(map(mul, w_rows[j], sw))
            # staying scores zero when the guard closes the current part;
            # closed parts score at most zero, so they never beat it
            base = prods[x]
            if base < 0.0:
                base = prods[x] = 0.0
            top = max(prods)
            if not top > base:
                continue
            w = prods.index(top)
            parts[b0 + r] = w
            moved.append(b0 + r)
            c_v[x] -= 1
            c_v[w] += 1
            guard_v[x] -= nprocs
            guard_v[w] += nprocs
            # rescore the two touched parts: _weight inlined, same operations
            if edge_stage:
                raw_row = raw_rows[j]
                kx = raw_row[x]
                kw = raw_row[w]
                ko = deg_rows[j] - kx - kw
                dcx = kx - kw - ko
                dcw = kx - kw + ko
                est_e[x] -= nprocs * kx
                est_e[w] += (mult if kw > 0 else nprocs) * kw
                est_c[x] += (mult if dcx > 0 else nprocs) * dcx
                est_c[w] += (mult if dcw > 0 else nprocs) * dcw
                for i in (x, w):
                    e, c = est_e[i], est_c[i]
                    we = edge_target / (1.0 if 1.0 > e else e) - 1.0
                    wc = max_c / (1.0 if 1.0 > c else c) - 1.0
                    s = r_e * (0.0 if 0.0 > we else we) + r_c * (0.0 if 0.0 > wc else wc)
                    sw[i] = -1.0 if guard_v[i] + 1.0 > max_v else s
            else:
                est_v[x] -= nprocs
                est_v[w] += mult
                for i in (x, w):
                    e = est_v[i]
                    s = vert_target / (1.0 if 1.0 > e else e) - 1.0
                    sw[i] = -1.0 if guard_v[i] + 1.0 > max_v else (0.0 if 0.0 > s else s)
        changed = np.nonzero(parts[b0:b1] != old_rows)[0]
        counts.note(b0 + changed, old_rows[changed], parts[b0 + changed])
    return np.asarray(moved, dtype=np.int64)


def place_isolated(lg, parts, guard_v, max_v, mean_size, c_v):
    """``partition._place_isolated`` as it was before its bookkeeping left the
    loop: the moved rows, labels, ``c_v`` (the net vertex change per part)
    and guards updated move by move.  Same arguments and side effects, plus
    ``c_v``; returns the moved rows."""
    rows = np.nonzero(lg.degrees[: lg.num_owned] == 0)[0]
    nprocs = float(lg.num_tasks)
    # the fill of every part the vertex guard admits, -1.0 for the others
    fill = [-1.0 if g + 1.0 > max_v else max(mean_size / max(g, 1.0) - 1.0, 0.0) for g in guard_v]
    top = max(fill)
    k = fill.index(top)
    moved = []
    dests = []
    for v, x in zip(rows.tolist(), parts[rows].tolist()):
        if x == k or not top > (0.0 if 0.0 > fill[x] else fill[x]):
            continue
        moved.append(v)
        dests.append(k)
        c_v[x] -= 1
        c_v[k] += 1
        guard_v[x] -= nprocs
        guard_v[k] += nprocs
        for i in (x, k):
            g = guard_v[i]
            f = mean_size / (1.0 if 1.0 > g else g) - 1.0
            fill[i] = -1.0 if g + 1.0 > max_v else (0.0 if 0.0 > f else f)
        top = max(fill)
        k = fill.index(top)
    rows = np.asarray(moved, dtype=np.int64)
    parts[rows] = dests
    return rows


def sweep_refine_dense(counts, chunk, ledger, add_v, cap_v, max_v, edge_caps, c_v):
    """``partition._sweep_refine`` one row at a time: each row's plurality
    part is the first maximum of its chunk's counts, and a mover passes the
    caps, writes its label and updates ``c_v`` (the net vertex change per
    part), ``cap_v`` and the edge guards before the next row is read.  Same
    arguments and side effects, plus ``c_v``; returns the moved rows.

    It counts each chunk from the labels itself, asserts that the kept
    ``counts`` and degree sums hold the same at that moment, and notes its
    chunk's moves there, as the library's sweep does."""
    p = ledger.num_parts
    lg, parts = counts.lg, counts.parts
    moved = []
    owned_deg = lg.degrees[: lg.num_owned].tolist()
    nprocs = float(lg.num_tasks)
    edge_stage = edge_caps is not None
    if edge_stage:
        max_e, max_c = edge_caps
        guard_e = ledger.intra_edges.astype(np.float64).tolist()
        guard_c = ledger.cut_edges.astype(np.float64).tolist()
    for b0 in range(0, lg.num_owned, chunk):
        b1 = min(b0 + chunk, lg.num_owned)
        B = b1 - b0
        e0, e1 = lg.offsets[b0], lg.offsets[b1]
        if e0 == e1:
            continue
        nbr = lg.nbr_slots[e0:e1]
        flat = (lg.edge_src[e0:e1] - b0) * p + parts[nbr]
        raw = np.bincount(flat, minlength=B * p).reshape(B, p)
        wmat = np.bincount(flat, weights=lg.degrees[nbr].astype(np.float64), minlength=B * p).reshape(B, p)
        kept_raw, kept_w = counts.rows(b0, b1)
        assert np.array_equal(kept_raw, raw) and kept_w.tobytes() == wmat.tobytes(), (b0, b1)
        old_rows = parts[b0:b1].copy()
        for r, row in enumerate(raw.tolist()):
            x = int(old_rows[r])
            top = max(row)
            if row[x] == top:
                continue
            w = row.index(top)
            if cap_v[w] + 1.0 > max_v:
                continue
            if edge_stage:
                dv = owned_deg[b0 + r]
                if guard_e[w] + dv > max_e or guard_c[w] + dv > max_c:
                    continue
                kx, kw = row[x], row[w]
                ko = dv - kx - kw
                guard_e[x] -= nprocs * kx
                guard_e[w] += nprocs * kw
                guard_c[x] += nprocs * (kx - kw - ko)
                guard_c[w] += nprocs * (kx - kw + ko)
            parts[b0 + r] = w
            moved.append(b0 + r)
            c_v[x] -= 1
            c_v[w] += 1
            cap_v[x] -= nprocs
            cap_v[w] += add_v
        changed = np.nonzero(parts[b0:b1] != old_rows)[0]
        counts.note(b0 + changed, old_rows[changed], parts[b0 + changed])
    return np.asarray(moved, dtype=np.int64)
