"""Simulated bulk-synchronous runtime: logical tasks, collectives, update exchange.

Tasks are simulated in one process.  Within a superstep every task runs the
same step function against its private state; cross-task state moves only
through the collectives below, so results do not depend on the order in
which the tasks of a superstep run.

The update exchange mirrors a counts/offsets/buffer all-to-all.  Each task
queues one int64 array: the global ids of the owned vertices it changed, in
the order it changed them.  A first pass over the queue tallies how many
items go to each neighboring task (deduplicated so a vertex is sent to a
given task at most once per exchange), a prefix sum turns the tallies into
buffer offsets, a second pass fills the flattened (vertex, part) send buffer
with each vertex's current label from the task's parts array, and an
all-to-all of the counts sizes the receive side.  Counts are in buffer items,
two per queued vertex.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ProtocolError
from .graph import LocalGraph


class SuperstepError(ProtocolError):
    """A task raised inside a superstep; the whole superstep is aborted."""

    def __init__(self, task: int, superstep: int, cause: BaseException):
        super().__init__(f"task {task} failed in superstep {superstep}: {cause!r}")
        self.task = task
        self.superstep = superstep


@dataclass
class ExchangeBuffers:
    """Per-task send/receive bookkeeping for one exchange (counts in buffer items)."""

    send_counts: np.ndarray  # items destined to each task
    send_offsets: np.ndarray  # exclusive prefix sum of send_counts
    send_buffer: np.ndarray  # flattened (vertex, part) pairs
    recv_counts: np.ndarray | None = None
    recv_offsets: np.ndarray | None = None
    recv_buffer: np.ndarray | None = None

    @property
    def pairs_sent(self) -> int:
        return int(self.send_counts.sum()) // 2


class Runtime:
    """Drives supersteps over ``num_tasks`` logical tasks, one task after another.

    A subclass may wrap ``run_superstep`` (to time the tasks, or to run them
    in another order) as long as it returns the results in task order.
    """

    def __init__(self, num_tasks: int):
        if num_tasks < 1:
            raise ProtocolError(f"task count must be >= 1, got {num_tasks}")
        self.num_tasks = num_tasks
        self.superstep = 0

    def run_superstep(self, step_fn: Callable[[int], object]) -> list:
        """Run ``step_fn(task)`` for every task in task order; barrier before returning.

        A task failure aborts the superstep with a ``SuperstepError`` naming
        the task.
        """
        results = []
        for t in range(self.num_tasks):
            try:
                results.append(step_fn(t))
            except Exception as exc:  # noqa: BLE001 - diagnostic wrapper
                raise SuperstepError(t, self.superstep, exc) from exc
        self.superstep += 1
        return results


def allreduce_sum(per_task_vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Element-wise sum visible to every task; summation order is task order."""
    vectors = [np.asarray(v) for v in per_task_vectors]
    length = len(vectors[0])
    for i, v in enumerate(vectors):
        if len(v) != length:
            raise ProtocolError(f"allreduce length mismatch: task 0 has {length}, task {i} has {len(v)}")
    out = np.zeros(length, dtype=np.result_type(*[v.dtype for v in vectors]))
    for v in vectors:
        out = out + v
    return out


def broadcast(root_value, num_tasks: int) -> list:
    """Every task observes its own copy of the root's value."""
    return [deepcopy(root_value) for _ in range(num_tasks)]


def build_send_buffers(lg: LocalGraph, parts: np.ndarray, queue_gids: np.ndarray) -> ExchangeBuffers:
    """Counts pass, prefix sums, fill pass for one task's outgoing updates.

    Each queued vertex is sent (with its current part label) once to every
    distinct neighboring task.  Queued vertices must be owned by this task.
    """
    T = lg.num_tasks
    if len(queue_gids) == 0:
        zero = np.zeros(T, dtype=np.int64)
        return ExchangeBuffers(zero, zero.copy(), np.empty(0, dtype=np.int64))

    rows = lg.global_to_local[queue_gids]
    if rows.min() < 0 or rows.max() >= lg.num_owned or (lg.owned[rows] != queue_gids).any():
        bad = queue_gids[(rows < 0) | (rows >= lg.num_owned)]
        raise ProtocolError(f"task {lg.task} queued vertices it does not own: {bad[:5].tolist()}")

    counts = lg.offsets[rows + 1] - lg.offsets[rows]
    total = int(counts.sum())
    gather = np.repeat(lg.offsets[rows] - np.cumsum(counts) + counts, counts) + np.arange(total, dtype=np.int64)
    nbr_tasks = lg.slot_owner[lg.nbr_slots[gather]]
    src_idx = np.repeat(np.arange(len(rows), dtype=np.int64), counts)

    remote = nbr_tasks != lg.task
    # distinct (destination, queue position) pairs, ordered by destination
    # then queue scan order -- the toSend deduplication
    keys = np.unique(nbr_tasks[remote] * len(rows) + src_idx[remote])
    dest = keys // len(rows)
    src = keys % len(rows)

    send_counts = 2 * np.bincount(dest, minlength=T).astype(np.int64)
    send_offsets = np.zeros(T, dtype=np.int64)
    np.cumsum(send_counts[:-1], out=send_offsets[1:])
    send_buffer = np.empty(2 * len(src), dtype=np.int64)
    send_buffer[0::2] = queue_gids[src]
    send_buffer[1::2] = parts[rows[src]]
    return ExchangeBuffers(send_counts, send_offsets, send_buffer)


def exchange_updates(
    local_graphs: Sequence[LocalGraph],
    parts_arrays: Sequence[np.ndarray],
    queues: Sequence[np.ndarray],
) -> tuple[list[tuple[np.ndarray, np.ndarray]], list[ExchangeBuffers]]:
    """All-to-all exchange of queued part updates.

    ``queues[t]`` holds the global ids task t changed.  Returns per-task
    received (vertices, parts) queues, ordered by sending task, plus the
    per-task buffers for tracing/inspection.
    """
    T = len(local_graphs)
    buffers = [build_send_buffers(lg, parts, gids) for lg, parts, gids in zip(local_graphs, parts_arrays, queues)]

    received: list[tuple[np.ndarray, np.ndarray]] = []
    for t in range(T):
        # all-to-all of send_counts tells task t its recv_counts
        recv_counts = np.array([buffers[s].send_counts[t] for s in range(T)], dtype=np.int64)
        recv_offsets = np.zeros(T, dtype=np.int64)
        np.cumsum(recv_counts[:-1], out=recv_offsets[1:])
        chunks = [
            buffers[s].send_buffer[buffers[s].send_offsets[t] : buffers[s].send_offsets[t] + buffers[s].send_counts[t]]
            for s in range(T)
        ]
        recv = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        buffers[t].recv_counts = recv_counts
        buffers[t].recv_offsets = recv_offsets
        buffers[t].recv_buffer = recv
        received.append((recv[0::2], recv[1::2]))
    return received, buffers


def apply_updates(lg: LocalGraph, parts: np.ndarray, received: tuple[np.ndarray, np.ndarray]) -> None:
    """Write received part labels into this task's ghost slots."""
    gids, labels = received
    if len(gids) == 0:
        return
    slots = lg.global_to_local[gids]
    if slots.min() < lg.num_owned:
        raise ProtocolError(f"task {lg.task} received an update for a vertex it owns")
    parts[slots] = labels
