"""Order statistics and the noise-aware comparison."""

from __future__ import annotations

import statistics
from statistics import median  # noqa: F401 (the one median the bench uses)
from typing import Sequence

from catalog import END_TO_END


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of a non-empty sample (q in 0..100)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def summarize(runs: list[dict]) -> dict:
    """{workload: {metric: {"values", "q1", "median", "q3"}}} over runs.

    Each run is a result document as ``harness`` writes it
    (``run["workloads"][name]["end_to_end"][metric]["value"]``).
    """
    table: dict = {}
    for run in runs:
        for wname, wres in run["workloads"].items():
            for mname, cell in wres["end_to_end"].items():
                table.setdefault(wname, {}).setdefault(mname, []).append(
                    cell["value"]
                )
    return {
        wname: {
            mname: dict(zip(("q1", "median", "q3"), quartiles(values)),
                        values=values)
            for mname, values in metrics.items()
        }
        for wname, metrics in table.items()
    }


def _worse_by(base: float, new: float, better: str) -> float:
    """Share of ``base`` by which ``new`` is worse (negative = better)."""
    delta = (new - base) / abs(base)
    return delta if better == "lower" else -delta


def compare(base_runs: list[dict], new_runs: list[dict]) -> list[dict]:
    """One verdict per (workload, end-to-end metric) pair.

    ``worse``: the new median is worse than the base median by more than
    the metric's bound.  ``unresolved``: it is not, but either side's
    spread exceeds the bound and the two samples overlap, so "no
    regression" cannot be claimed either.  ``ok`` otherwise.  A pair of
    degraded and non-degraded runs is never compared.
    """
    rows = []
    base, new = summarize(base_runs), summarize(new_runs)
    base_deg = {r.get("degraded", False) for r in base_runs}
    new_deg = {r.get("degraded", False) for r in new_runs}
    comparable = base_deg == new_deg and len(base_deg) == 1
    for wname in base:
        for metric in END_TO_END:
            b = base[wname].get(metric.name)
            n = new.get(wname, {}).get(metric.name)
            if b is None or n is None:
                continue
            row = {
                "workload": wname, "metric": metric.name,
                "unit": metric.unit, "bound": metric.bound,
                "base": b["median"], "new": n["median"],
                "base_spread": spread(b["values"]),
                "new_spread": spread(n["values"]),
            }
            row["worse_by"] = _worse_by(b["median"], n["median"],
                                        metric.better)
            if not comparable:
                row["verdict"] = "incomparable"
            elif row["worse_by"] > metric.bound:
                row["verdict"] = "worse"
            else:
                noisy = max(row["base_spread"], row["new_spread"]) \
                    > metric.bound
                if metric.better == "lower":
                    separated = max(n["values"]) < min(b["values"])
                else:
                    separated = min(n["values"]) > max(b["values"])
                row["verdict"] = (
                    "unresolved" if noisy and not separated else "ok"
                )
            rows.append(row)
    return rows


def format_compare(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<14} {'metric':<20} {'base':>12} {'new':>12} "
        f"{'worse by':>9} {'bound':>6} {'spread b/n':>13}  verdict"
    ]
    for r in rows:
        spreads = f"{r['base_spread'] * 100:.1f}/{r['new_spread'] * 100:.1f}%"
        lines.append(
            f"{r['workload']:<14} {r['metric']:<20} {r['base']:>12.4f} "
            f"{r['new']:>12.4f} {r['worse_by'] * 100:>8.1f}% "
            f"{r['bound'] * 100:>5.1f}% "
            f"{spreads:>13}  {r['verdict']}"
        )
    return "\n".join(lines)
