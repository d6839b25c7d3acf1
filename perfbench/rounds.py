"""Whole rounds of operations for a timed phase.

A phase hands out the same list of operations round after round and
only stops at a round boundary, once its time is up and it has handed
out at least ``min_ops``.  Every run therefore attempts whole rounds,
so the share of operations that fail is the same in every run.
"""

from __future__ import annotations

import threading
import time
from typing import Optional, Tuple


class Rounds:
    """Thread-safe dispenser of ``(round, index)`` pairs."""

    def __init__(self, per_round: int, seconds: float, min_ops: int) -> None:
        self.per_round = per_round
        self.seconds = seconds
        self.min_ops = min_ops
        self.issued = 0
        self.start = time.perf_counter()
        self._lock = threading.Lock()

    def next(self) -> Optional[Tuple[int, int]]:
        """The next operation's ``(round, index in its round)``, or None
        once the phase is over."""
        with self._lock:
            k = self.issued
            if k % self.per_round == 0 and k >= self.min_ops and (
                time.perf_counter() - self.start >= self.seconds
            ):
                return None
            self.issued = k + 1
            return divmod(k, self.per_round)

