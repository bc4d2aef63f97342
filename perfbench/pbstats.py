"""Pure helpers of the benchmark: percentiles, failure share, the result.

Nothing here imports ``repro``, so the helpers' tests stay fast.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

#: Percentiles a tail may be reported at, lowest first.
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)

#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def _rank(p: float, count: int) -> int:
    """1-based nearest rank of percentile ``p`` (exact, no float error)."""
    return max(1, math.ceil(Fraction(str(p)) * count / 100))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with ``p``% at or below."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(p, len(values)) - 1]


def tail_percentile(count: int) -> Optional[float]:
    """The highest reportable percentile for ``count`` samples.

    A percentile counts only when at least :data:`TAIL_MIN_BEYOND`
    samples lie beyond it; ``None`` when even the median has fewer.
    """
    best = None
    for p in TAIL_PERCENTILES:
        if count - _rank(p, count) >= TAIL_MIN_BEYOND:
            best = p
    return best


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median and the highest reportable tail of a latency sample."""
    tail = tail_percentile(len(values))
    return {
        "count": len(values),
        "p50": statistics.median(values) if values else None,
        "tail_p": tail,
        "tail": percentile(values, tail) if tail is not None else None,
    }


def failed_share(attempted: int, failed: int) -> float:
    """Failed operations over attempted ones; an empty run is all failure."""
    if attempted <= 0:
        return 1.0
    return failed / attempted


# ----------------------------------------------------------------------
# Result line
# ----------------------------------------------------------------------


class Result:
    """One run's outcome: operations, failures and named metrics."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.lines: List[str] = []

    def op(self, ok: bool, problem: str = "") -> None:
        """Count one operation; a wrong output counts as a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem or "wrong output")

    def check(self, ok: bool, problem: str) -> None:
        """A whole-run check that is not an operation of its own."""
        if not ok:
            self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return not self.problems and self.attempted > 0

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def say(self, line: str) -> None:
        self.lines.append(line)

    def payload(self, names: Sequence[str]) -> Dict[str, object]:
        """The last-line JSON object, restricted to ``names`` in order."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name][0], "unit": self.metrics[name][1]}
                for name in names
            },
        }
