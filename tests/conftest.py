import sys
import time
from pathlib import Path

import numpy as np
import pytest

from lppart.metrics import per_task_counts
from lppart.partition import NeighborCounts, _global_counts

sys.path.insert(0, str(Path(__file__).parent))

SESSION_START = time.time()

ACCEPTANCE_RESULTS = []  # lines recorded by test_acceptance, printed at the end


def pytest_collection_modifyitems(config, items):
    """Run the acceptance module last so its runtime criterion sees the whole suite."""
    items.sort(key=lambda item: item.fspath.basename == "test_acceptance.py")


def pytest_runtest_logreport(report):
    if report.when == "call" and report.failed and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        ACCEPTANCE_RESULTS.append(f"ACCEPTANCE ({name}): FAIL")


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)


# ---------------------------------------------------------------------------
# shared graph builders


def grid_pairs(side):
    pairs = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                pairs.append((v, v + 1))
            if r + 1 < side:
                pairs.append((v, v + side))
    return pairs, side * side


def two_cliques_pairs(k):
    """Two k-cliques joined by a single bridge edge."""
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    pairs += [(k + i, k + j) for i in range(k) for j in range(i + 1, k)]
    pairs.append((k - 1, k))
    return pairs, 2 * k


def path_pairs(n):
    return [(i, i + 1) for i in range(n - 1)], n


def cycle_pairs(n):
    return [(i, (i + 1) % n) for i in range(n)], n


def random_pairs(rng, n, m):
    u = rng.integers(0, n, size=m)
    v = rng.integers(0, n, size=m)
    return np.stack([u, v], axis=1)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# ---------------------------------------------------------------------------
# shared partition helpers


def kept_counts(local_graphs, state):
    """Every task's kept neighbor counts for its current labels, as ``xtrapulp`` builds them."""
    return [NeighborCounts(lg, parts, state.num_parts) for lg, parts in zip(local_graphs, state.parts)]


def recount(local_graphs, parts_arrays, p):
    """(vertices, intra edges, cut incidence) per part from the full per-task recount."""
    return _global_counts(per_task_counts(lg, parts, p) for lg, parts in zip(local_graphs, parts_arrays))
