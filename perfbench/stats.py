"""Sample summaries: a median, the highest percentile that has at least
ten samples beyond it, and the sample count."""

from __future__ import annotations

import math
import statistics

PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def summarize(values) -> dict:
    """{"median", "pct", "pct_value", "n"} of a sample.

    pct is the highest of PERCENTILES whose nearest-rank value leaves at
    least MIN_BEYOND samples above it, or None when the sample is too
    small for any of them. An empty sample has median None.
    """
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values) if values else None, "pct": None,
           "pct_value": None, "n": n}
    for p in PERCENTILES:
        rank = math.ceil(p / 100.0 * n)  # 1-based nearest rank
        if rank >= 1 and n - rank >= MIN_BEYOND:
            out["pct"], out["pct_value"] = p, values[rank - 1]
            break
    return out


def format_value(value, summary: dict) -> str:
    """A metric's value, then the median, percentile and n of the samples
    behind it."""
    text = f"{value:.6g}"
    if summary.get("median") is not None and summary["median"] != value:
        text += f" median={summary['median']:.6g}"
    if summary.get("pct") is not None:
        text += f" p{summary['pct']:g}={summary['pct_value']:.6g}"
    return text + f" n={summary['n']}"


def format_metric(name: str, unit: str, value, summary: dict) -> str:
    """One report line: name, unit, then format_value."""
    return f"  {name:<32} {unit:<10} {format_value(value, summary)}"


def median_metric(values, unit, scale=1.0) -> dict:
    """A metric whose value is the median of `values` * scale, or 0 for
    an empty sample, with the sample's summary."""
    summary = summarize([v * scale for v in values])
    return {"value": summary["median"] if summary["n"] else 0.0, "unit": unit, "summary": summary}
