"""Simulated bulk-synchronous runtime: logical tasks, collectives, update exchange.

Tasks are simulated in one process.  Within a superstep every task runs the
same step function against its private state; cross-task state moves only
through the collectives below, so results do not depend on the order in
which the tasks of a superstep run.

The update exchange mirrors a counts/offsets/buffer all-to-all.  Each task
queues one int64 array: the local rows of the owned vertices it changed, in
the order it changed them.  Which tasks need a row is fixed by the graph, so
``distribute`` records it once per task as a send plan: for every owned row,
the other tasks that ghost it and the ghost slot it has on each.  An exchange
gathers the plan entries of the queued rows and sorts them stably by
destination, which orders the send buffer by destination and then by queue
position and sends a vertex to a given task at most once per exchange.  The
per-destination tallies give the counts, a prefix sum turns them into buffer
offsets, and the flattened (vertex, part) send buffer carries each vertex's
global id and current label.  Counts are in buffer items, two per queued
vertex.  The receiver's ghost slots travel beside the wire, one per pair, and
the receiver writes the labels into them after checking that each slot is a
ghost holding the wire's global id.
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
    send_slots: np.ndarray  # the receiver's ghost slot for each pair

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


def build_send_buffers(lg: LocalGraph, parts: np.ndarray, rows: np.ndarray) -> ExchangeBuffers:
    """Counts pass, prefix sums, fill pass for one task's outgoing updates.

    Each queued row is sent as its (global id, current part) pair once to
    every task its send plan names; a row outside ``[0, num_owned)`` raises.
    """
    T = lg.num_tasks
    if len(rows) == 0:
        zero = np.zeros(T, dtype=np.int64)
        return ExchangeBuffers(zero, zero.copy(), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    if rows.min() < 0 or rows.max() >= lg.num_owned:
        bad = rows[(rows < 0) | (rows >= lg.num_owned)]
        raise ProtocolError(f"task {lg.task} queued rows it does not own: {bad[:5].tolist()}")

    starts = lg.plan_offsets[rows]
    counts = lg.plan_offsets[rows + 1] - starts
    total = int(counts.sum())
    entries = np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(total, dtype=np.int64)
    dest = lg.plan_dest[entries]
    # by destination, then queue position: each receiver's scan order
    order = np.argsort(dest, kind="stable")
    sent = np.repeat(rows, counts)[order]

    send_counts = 2 * np.bincount(dest, minlength=T).astype(np.int64)
    send_offsets = np.zeros(T, dtype=np.int64)
    np.cumsum(send_counts[:-1], out=send_offsets[1:])
    send_buffer = np.empty(2 * total, dtype=np.int64)
    send_buffer[0::2] = lg.owned[sent]
    send_buffer[1::2] = parts[sent]
    return ExchangeBuffers(send_counts, send_offsets, send_buffer, lg.plan_slot[entries[order]])


def exchange_updates(
    local_graphs: Sequence[LocalGraph],
    parts_arrays: Sequence[np.ndarray],
    queues: Sequence[np.ndarray],
) -> tuple[list[tuple[np.ndarray, np.ndarray, np.ndarray]], list[ExchangeBuffers]]:
    """All-to-all exchange of queued part updates.

    ``queues[t]`` holds the local rows task t changed.  Returns per-task
    received (global ids, parts, ghost slots) queues, ordered by sending
    task, plus the per-task buffers for tracing/inspection.
    """
    buffers = [build_send_buffers(lg, parts, rows) for lg, parts, rows in zip(local_graphs, parts_arrays, queues)]
    # the all-to-all of send_counts: sender s's items for task t are bounds[s][t]:bounds[s][t + 1]
    bounds = [np.append(b.send_offsets, len(b.send_buffer)).tolist() for b in buffers]

    received: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for t in range(len(buffers)):
        recv = np.concatenate([b.send_buffer[lim[t] : lim[t + 1]] for b, lim in zip(buffers, bounds)])
        slots = np.concatenate([b.send_slots[lim[t] // 2 : lim[t + 1] // 2] for b, lim in zip(buffers, bounds)])
        received.append((recv[0::2], recv[1::2], slots))
    return received, buffers


def apply_updates(lg: LocalGraph, parts: np.ndarray, received: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """Write received part labels into the ghost slots that came with them;
    returns the labels they overwrote, one per received pair."""
    gids, labels, slots = received
    if len(gids) == 0:
        return np.empty(0, dtype=parts.dtype)
    in_range = slots.min() >= 0 and slots.max() < lg.num_slots
    if in_range and slots.min() < lg.num_owned:
        raise ProtocolError(f"task {lg.task} received an update for a vertex it owns")
    if not in_range or not np.array_equal(lg.local_to_global[slots], gids):
        raise ProtocolError(f"task {lg.task} received an update for a vertex it does not ghost")
    overwritten = parts[slots]
    parts[slots] = labels
    return overwritten
