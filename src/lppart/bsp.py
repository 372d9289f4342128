"""Simulated bulk-synchronous runtime: logical tasks, collectives, update exchange.

Tasks are simulated in one process.  Within a superstep every task runs the
same step function against its private state; cross-task state moves only
through the collectives below, so results do not depend on the order in
which the tasks of a superstep run.

The update exchange is one all-to-all.  Each task queues one int64 array: the
local rows of the owned vertices it changed, in the order it changed them.
Which tasks need a row is fixed by the graph, so ``distribute`` records it
once per task as a send plan: for every owned row, the other tasks that
ghost it and the ghost slot it has on each.  An exchange gathers every
sender's plan entries for its queued rows, joins them in task order and
orders them by receiver in one stable counting sort.  Each receiver's queue
is then one slice, ordered by sending task and then by queue position, and
holds a vertex at most once per exchange.  An entry carries the vertex's
global id, its current label and the receiver's ghost slot; a task's send
counts are in (global id, part) pairs, one per entry.  The receiver writes
the labels into the slots after checking that each slot is a ghost holding
the wire's global id.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ProtocolError
from .graph import LocalGraph, stable_order


class SuperstepError(ProtocolError):
    """A task raised inside a superstep; the whole superstep is aborted."""

    def __init__(self, task: int, superstep: int, cause: BaseException):
        super().__init__(f"task {task} failed in superstep {superstep}: {cause!r}")
        self.task = task
        self.superstep = superstep


@dataclass
class ExchangeCounts:
    """One task's sends in one exchange."""

    send_counts: np.ndarray  # (global id, part) pairs destined to each task

    @property
    def pairs_sent(self) -> int:
        return int(self.send_counts.sum())


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


def _queued_entries(lg: LocalGraph, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The send-plan entries of the queued rows, in queue order, and how many each row has.

    A row outside ``[0, num_owned)`` raises.
    """
    if len(rows) and (rows.min() < 0 or rows.max() >= lg.num_owned):
        bad = rows[(rows < 0) | (rows >= lg.num_owned)]
        raise ProtocolError(f"task {lg.task} queued rows it does not own: {bad[:5].tolist()}")
    starts = lg.plan_offsets[rows]
    counts = lg.plan_offsets[rows + 1] - starts
    entries = np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(int(counts.sum()), dtype=np.int64)
    return entries, counts


def exchange_updates(
    local_graphs: Sequence[LocalGraph],
    parts_arrays: Sequence[np.ndarray],
    queues: Sequence[np.ndarray],
) -> tuple[list[tuple[np.ndarray, np.ndarray, np.ndarray]], list[ExchangeCounts]]:
    """All-to-all exchange of queued part updates.

    ``queues[t]`` holds the local rows task t changed.  Every sender's plan
    entries for its queued rows are joined in task order and ordered by
    receiver in one stable sort, so each receiver's (global ids, parts,
    ghost slots) queue is one slice, ordered by sending task and then by
    queue position.  Returns those queues and each task's send counts.
    """
    T = len(local_graphs)
    entries, counts = zip(*[_queued_entries(lg, rows) for lg, rows in zip(local_graphs, queues)])
    dest = [lg.plan_dest[e] for lg, e in zip(local_graphs, entries)]
    sent = [ExchangeCounts(np.bincount(d, minlength=T)) for d in dest]
    dest = np.concatenate(dest)
    # plan_dest is the narrowest unsigned type, so this is one counting pass up to T=256
    order = stable_order(dest)
    bounds = [0, *np.cumsum(np.bincount(dest, minlength=T)).tolist()]
    del dest
    # one column at a time, each sender's pieces released once joined: this bounds the transient peak
    slots = np.concatenate([lg.plan_slot[e] for lg, e in zip(local_graphs, entries)])[order]
    del entries
    gids = np.concatenate([np.repeat(lg.owned[r], c) for lg, r, c in zip(local_graphs, queues, counts)])[order]
    labels = np.concatenate([np.repeat(parts[r], c) for parts, r, c in zip(parts_arrays, queues, counts)])[order]
    received = [(gids[lo:hi], labels[lo:hi], slots[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]
    return received, sent


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
