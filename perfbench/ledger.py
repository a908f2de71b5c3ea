"""Failure accounting: one attempted operation per measured window.

A window counts as failed when any check on it fails:

* its simulated digest differs from the first window of the same seed
  (a run must repeat exactly);
* its digest differs from a reference the caller names: the 1-shard run
  of the same rack seed, or the untraced window of the same seed for a
  traced one (the tracer must only observe);
* one of the paper-shape anchors its workload checks alone fails.

Checks that belong to the whole run (the tracer left no wrapper behind,
no result cache was built) count one operation each.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["Ledger"]


class Ledger:
    """Counts attempted and failed windows and keeps the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self._first: Dict[int, str] = {}

    def record(self, window, reference: Optional[str] = None,
               label: str = "repetition") -> List[str]:
        """Check one window; returns the problems found (empty when it passed).

        Without a ``reference`` the window is compared with the first
        window recorded for its seed.
        """
        problems = list(window.anchor_failures)
        expected = reference if reference is not None else self._first.setdefault(
            window.seed, window.digest)
        if window.digest != expected:
            problems.append(f"seed {window.seed}: {label} digest differs")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return problems

    def check(self, ok: bool, problem: str) -> None:
        """Count one check that is not tied to a window (failed unless ``ok``)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
