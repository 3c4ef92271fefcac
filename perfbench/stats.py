"""Small pure helpers shared by ``run.py`` and its sample processes.

Kept free of any ``repro`` import so ``run.py`` can start (and refuse to
run) in a checkout that has no program source.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Iterable, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    closest ranks (numpy's default ``linear`` method)."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return float(ordered[lo])
    frac = pos - lo
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * frac)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def fastest(per_sample: Sequence[Sequence[float]]) -> list[float]:
    """Each step's fastest time over the samples.  ``per_sample[s][k]``
    is sample ``s``'s time for step ``k``; every sample runs the same
    steps in the same order."""
    if not per_sample:
        raise ValueError("fastest of no samples")
    if len({len(steps) for steps in per_sample}) != 1:
        raise ValueError("samples ran different numbers of steps")
    return [float(min(times)) for times in zip(*per_sample)]


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` exactly as ``statistics.quantiles(values,
    n=4)`` gives them (its default ``exclusive`` method), which is how
    run-to-run spread is judged; a single value is its own quartiles."""
    import statistics

    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def canonical_json(value) -> str:
    """Sorted-key, fixed-separator JSON; numpy scalars become Python
    numbers.  Equal values always give equal text."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=_json_default)


def _json_default(value):
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"not JSON-able: {type(value).__name__}")


def digest_rows(rows: Iterable) -> str:
    """SHA-256 of a row list in canonical JSON."""
    return hashlib.sha256(canonical_json(list(rows)).encode()).hexdigest()


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def result_body(digest: str, result) -> bytes:
    """The canonical ``/results/<digest>`` body for a job result: the
    benchmark's own statement of the served wire format, so a change to
    the server's serialization shows up as a failed check."""
    return (canonical_json({"digest": digest, "result": result})
            + "\n").encode()
