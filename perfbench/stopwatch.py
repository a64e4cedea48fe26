"""Wall time scaled to a fixed reference speed of the machine.

On shared hardware, such as the 2-core virtual machine the baseline was
measured on, the same work slows down by up to 2x for tens of seconds at a
time while a neighbour is busy, and CPU time slows with it, so no median
taken inside one run cancels that.  Every timed unit is therefore
bracketed by a probe: a fixed pure-Python loop of the same kind as the
package's hot loop (breadth-first search over adjacency lists).  A unit's
wall time is scaled by ``reference_s / probe``, the probe time averaged over
the unit's two ends, which gives seconds at the speed at which the probe
takes ``reference_s``.  Raw wall time is kept next to it.
"""

from __future__ import annotations

import random
import time
from collections import defaultdict, deque
from contextlib import contextmanager

clock = time.perf_counter


def _probe_graph(n: int = 400, degree: int = 6) -> list[list[int]]:
    rng = random.Random(0)
    return [[rng.randrange(n) for _ in range(degree)] for _ in range(n)]


def _probe_once(adj: list[list[int]]) -> float:
    t0 = clock()
    n = len(adj)
    for source in range(0, n, 10):
        seen = [False] * n
        seen[source] = True
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
    return clock() - t0


class Stopwatch:
    """Per-key lists of ``(wall seconds, scaled seconds)``, one per unit."""

    def __init__(self, reference_s: float) -> None:
        self.reference_s = reference_s
        self.units: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self._adj = _probe_graph()
        self._last: float | None = None

    def probe(self) -> float:
        """Current probe time: the fastest of three runs of the loop."""
        return min(_probe_once(self._adj) for _ in range(3))

    @contextmanager
    def unit(self, key: str):
        """Time the block as one unit under ``key``.  The probe after a unit
        serves as the probe before the next one."""
        before = self.probe() if self._last is None else self._last
        t0 = clock()
        yield
        wall = clock() - t0
        self._last = after = self.probe()
        self.units[key].append((wall, wall * self.reference_s * 2 / (before + after)))

    def take(self) -> dict[str, tuple[float, float]]:
        """``key -> (wall total, scaled total)`` of the units so far; clears them."""
        out = {k: (sum(u[0] for u in v), sum(u[1] for u in v)) for k, v in self.units.items()}
        self.units.clear()
        return out
