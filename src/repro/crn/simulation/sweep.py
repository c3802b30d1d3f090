"""Process-parallel execution of embarrassingly parallel simulation work.

:class:`ParallelSweepRunner` maps a picklable worker function over a list
of payloads, either serially or through a ``ProcessPoolExecutor``.  The
seeding contract is the caller's: every payload must carry its own
:class:`numpy.random.SeedSequence` (spawned from one root), so results
are a pure function of the payload list and do not depend on how the
payloads were distributed over workers.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool


class ParallelSweepRunner:
    """Map a worker over payloads, serially or on a process pool.

    Parameters
    ----------
    n_workers:
        ``None`` uses the machine's CPU count; ``<= 1`` forces serial
        execution in-process.  A pool that cannot be created or breaks
        mid-flight (sandboxed environments, fork limits) degrades to the
        serial path, which computes the identical result.
    """

    def __init__(self, n_workers: int | None = None):
        if n_workers is None:
            n_workers = os.cpu_count() or 1
        self.n_workers = max(int(n_workers), 1)

    def map(self, fn: Callable, payloads: Iterable) -> list:
        """Apply ``fn`` to every payload, preserving payload order."""
        payloads = list(payloads)
        if self.n_workers <= 1 or len(payloads) <= 1:
            return [fn(p) for p in payloads]
        workers = min(self.n_workers, len(payloads))
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(fn, payloads))
        except (OSError, BrokenProcessPool):
            return [fn(p) for p in payloads]
