"""Host speed probe: a fixed pure-Python task timed through a run.

On a virtual machine that shares its host, the CPU time of identical,
deterministic work moves by 20-40% over minutes with what the other
tenants run, because the shared cores and caches do less for this one.
A run therefore also times :func:`reference_task`, which uses nothing
from the program, every so often between operations; the JSON timings
are the program's CPU time divided by the median CPU time of that task
over the same run. Host slowdowns move both alike and cancel, while a
change to the program moves only the numerator.

The task imitates what the engine spends its time on: tuple rows, a
nested-loop equi-join, hash grouping, sorting with a key and walking a
tree of small objects. It must never change, or the unit changes.
"""

from __future__ import annotations

import random
import statistics
import time

#: Reference tasks timed per probe.
TASKS_PER_PROBE = 3
#: Least wall time between two probes.
PROBE_EVERY_S = 1.0


class _Node:
    __slots__ = ("key", "value", "kids")

    def __init__(self, key, value):
        self.key = key
        self.value = value
        self.kids = []


def _walk(node: _Node, depth: int = 0) -> int:
    total = node.key * (depth + 1)
    for kid in node.kids:
        total += _walk(kid, depth + 1)
    return total


def reference_task(n: int = 3000) -> int:
    """About 10 ms of interpreter-bound work; returns a checksum."""
    rng = random.Random(7)
    nodes = [
        _Node(rng.randrange(10_000), (rng.random(), str(i))) for i in range(n)
    ]
    for i in range(1, n):
        nodes[rng.randrange(i)].kids.append(nodes[i])
    total = _walk(nodes[0])
    groups: dict = {}
    for node in nodes:
        groups.setdefault(node.key % 97, []).append(node)
    for group in groups.values():
        group.sort(key=lambda x: (x.value[0], x.key))
        total += len(group)
    rows = sorted((node.key, node.value[1], node.value[0]) for node in nodes)
    for outer in rows[:120]:
        key = outer[0] % 50
        for inner in rows[:100]:
            if key == inner[0] % 50:
                total += len(outer + inner)
    return total


class SpeedProbe:
    """CPU seconds of :func:`reference_task`, sampled through a run."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        for _ in range(TASKS_PER_PROBE):
            start = time.process_time()
            reference_task()
            self.samples.append(time.process_time() - start)
        self._last = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self._last >= PROBE_EVERY_S

    @property
    def unit_s(self) -> float:
        """Median CPU seconds of one reference task: the JSON time unit."""
        return statistics.median(self.samples)
