"""Time-series metrics and discounting analyses (NPV, TTT, PIV).

Everything here is a pure function of recorded run data; re-running an
analysis never touches simulation state.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from operator import mul
from typing import Dict, Iterable, List, Sequence, Tuple

HIST_BINS = 10


def sum_floats(values: Iterable[float]) -> float:
    """``values`` summed left to right from the int 0, which is what the
    built-in ``sum`` computes before Python 3.12.  From 3.12 on, ``sum``
    compensates float rounding, which changes the last digits of a mean,
    so the float means here use this and keep their bytes on every
    version.  Int sums are exact and keep ``sum``."""
    total = 0
    for v in values:
        total += v
    return total


@dataclass
class RunSeries:
    """Per-iteration record of one run."""

    mean_fitness: List[float]
    diversity: List[int]
    p_create_hist: List[Tuple[int, ...]]
    config_digest: str
    run_index: int

    def __len__(self) -> int:
        return len(self.mean_fitness)


def npv(series: Sequence[float], r: float) -> float:
    """Net present value: sum of r^(t-1) * b_t."""
    if not (0.0 < r <= 1.0):
        raise ValueError(f"discount rate must be in (0, 1], got {r}")
    return sum_floats((r ** t) * b for t, b in enumerate(series))


def discount_rate(interest_percent: float) -> float:
    """r = ((100 + i) / 100)^-1 for an interest rate of i percent."""
    return 100.0 / (100.0 + interest_percent)


def time_to_threshold(series: Sequence[float], tau: float) -> int:
    """Smallest 1-based t with series[t] >= tau; horizon+1 when censored."""
    for t, value in enumerate(series, start=1):
        if value >= tau:
            return t
    return len(series) + 1


def is_censored(ttt: int, horizon: int) -> bool:
    return ttt > horizon


def piv(series: Sequence[float], baseline: Sequence[float]) -> float:
    """Present innovation value against the no-interaction baseline.

    Iterations where the baseline is zero are undefined and skipped, with
    the horizon reduced accordingly.
    """
    if len(series) != len(baseline):
        raise ValueError(
            f"series length {len(series)} != baseline length {len(baseline)}"
        )
    total = 0.0
    n_used = 0
    for s, b in zip(series, baseline):
        if b == 0:
            continue
        total += s / b
        n_used += 1
    return total - n_used


def p_create_histogram(values: Sequence[float]) -> Tuple[int, ...]:
    """10-bin histogram over [0, 1]; the top bin includes 1.0 exactly.

    The bin is ``min(int(v * HIST_BINS), HIST_BINS - 1)`` written as a
    conditional, which is the same int for every int, so out-of-range
    values index (or fail to index) the same bin.  The ints are counted
    first, at C speed, and each distinct one is then folded into its bin;
    ``math.trunc`` is ``int`` for a float or an int, errors included, and is
    the cheaper call.
    """
    top = HIST_BINS - 1
    counts = [0] * HIST_BINS
    for i, n in Counter(map(math.trunc, map(mul, values, repeat(HIST_BINS)))).items():
        counts[i if i < top else top] += n
    return tuple(counts)


def segregation_stats(hist: Sequence[int]) -> Tuple[float, float, float]:
    """(frac_low, frac_high, frac_mid) from a 10-bin p(C) histogram.

    Low is p(C) in [0, 0.1] (bottom bin), high is [0.9, 1] (top bin).
    """
    total = sum(hist)
    if total == 0:
        raise ValueError("empty histogram")
    frac_low = hist[0] / total
    frac_high = hist[-1] / total
    return frac_low, frac_high, 1.0 - frac_low - frac_high


@dataclass
class CellSummary:
    c: float
    p: float
    runs: int
    mean_ttt_log10: float
    censored_count: int
    mean_piv: float


def summarize_cell(
    c: float,
    p: float,
    ttts: Sequence[int],
    pivs: Sequence[float],
    horizon: int,
) -> CellSummary:
    """Average per-run metrics for one (C, p) grid cell.

    Censored TTT values (the sentinel horizon+1) are excluded from the
    log-scale mean and counted instead.
    """
    uncensored = [t for t in ttts if not is_censored(t, horizon)]
    censored = len(ttts) - len(uncensored)
    mean_log = (
        sum_floats(math.log10(t) for t in uncensored) / len(uncensored)
        if uncensored
        else float("nan")
    )
    return CellSummary(
        c=c,
        p=p,
        runs=len(ttts),
        mean_ttt_log10=mean_log,
        censored_count=censored,
        mean_piv=sum_floats(pivs) / len(pivs),
    )


def average_series(runs: Sequence[RunSeries]) -> Dict[str, List[float]]:
    """Arithmetic per-iteration mean across runs of fitness, diversity, and
    segregation fractions."""
    if not runs:
        raise ValueError("no runs to average")
    horizon = len(runs[0])
    if any(len(r) != horizon for r in runs):
        raise ValueError("runs have differing horizons")
    n = len(runs)
    mean_fitness = [
        sum_floats(r.mean_fitness[t] for r in runs) / n for t in range(horizon)
    ]
    diversity = [sum(r.diversity[t] for r in runs) / n for t in range(horizon)]
    frac_low = []
    frac_mid = []
    frac_high = []
    for t in range(horizon):
        lows, mids, highs = [], [], []
        for r in runs:
            lo, hi, mid = segregation_stats(r.p_create_hist[t])
            lows.append(lo)
            mids.append(mid)
            highs.append(hi)
        frac_low.append(sum_floats(lows) / n)
        frac_mid.append(sum_floats(mids) / n)
        frac_high.append(sum_floats(highs) / n)
    return {
        "mean_fitness": mean_fitness,
        "diversity": diversity,
        "frac_low": frac_low,
        "frac_mid": frac_mid,
        "frac_high": frac_high,
    }
