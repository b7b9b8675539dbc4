"""Process-pool sizing shared by the oracle and the search."""

from __future__ import annotations

import os


def pool_size(workers: int, jobs: int) -> int:
    """Worker processes to start for `jobs` independent work units.

    The requested count is capped at the CPU count and at the number of
    jobs, since extra processes only add start-up cost.  A result of 1 means
    the caller runs serially.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    return max(1, min(workers, os.cpu_count() or 1, jobs))
