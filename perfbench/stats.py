"""Small statistics and naming helpers shared by the benchmark's modules."""

from __future__ import annotations

import re

#: A metric name: starts with a letter or digit, then letters, digits,
#: ``_``, ``.`` and ``-``; at most 64 characters.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: A unit such as ``ms``, ``s``, ``1/s`` or ``count``.
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: How many samples must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def valid_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return UNIT_RE.fullmatch(unit) is not None


def tail(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """The sample at the highest percentile with ``beyond`` samples above it.

    Returns ``(value, percentile, n)``.  With ``n`` sorted samples the value
    is the ``(n - beyond)``-th smallest, which is the nearest-rank percentile
    ``100 * (n - beyond) / n``: exactly ``beyond`` samples lie beyond it.
    With ``beyond`` or fewer samples no percentile qualifies, and the
    maximum is returned at percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    if n <= beyond:
        return float(ordered[-1]), 100.0, n
    rank = n - beyond  # 1-based nearest rank
    return float(ordered[rank - 1]), 100.0 * rank / n, n

