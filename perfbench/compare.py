"""Result files and the compare verdicts of the benchmark.

A result file holds one JSON object per line:
``{"workload": W, "seed": N, "result": {...}}`` where ``result`` is
the object an untraced run printed as its last line.  Beside the
end-to-end metrics, each run's share of failed operations (its
``failed`` over ``attempted``) is read as ``failed_ratio``.
"""

import json
import statistics

FAILED = "failed_ratio"


def load(path):
    """Maps workload -> metric -> list of values."""
    table = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            result = row["result"]
            metrics = table.setdefault(row["workload"], {})
            for name, m in result["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
            metrics.setdefault(FAILED, []).append(result["failed"] / result["attempted"])
    return table


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median, with Python's default quantile method."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(med)


def worsening(base, new, better):
    """Signed change from base to new median: positive is worse."""
    change = (statistics.median(new) - statistics.median(base)) / abs(
        statistics.median(base)
    )
    return change if better == "lower" else -change


def verdict(base, new, better, bound):
    """One of "unresolved", "regressed", "improved", "unchanged".

    A metric whose run-to-run spread on either side is wider than its
    bound cannot be judged against that bound: it is unresolved."""
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    w = worsening(base, new, better)
    if w > bound:
        return "regressed"
    if w < -bound:
        return "improved"
    return "unchanged"


def failed_row(workload, base, new):
    """The row of the failed-operation shares, compared by their means
    and without a bound: any rise is a regression, because a failed
    operation is a wrong result rather than a slow one."""
    a, b = statistics.fmean(base), statistics.fmean(new)
    return (workload, FAILED, a, b, b - a, 0.0, "regressed" if b > a else "unchanged")


def compare(base, new, bench):
    """Rows (workload, metric, base median, new median, change, spread,
    verdict) for every workload and end-to-end metric both sides ran,
    then each workload's failed-operation row."""
    rows = []
    for workload in sorted(set(base) & set(new)):
        if base[workload].get(FAILED) and new[workload].get(FAILED):
            rows.append(failed_row(workload, base[workload][FAILED], new[workload][FAILED]))
        for m in bench["end_to_end"]:
            name = m["name"]
            a, b = base[workload].get(name), new[workload].get(name)
            if not a or not b:
                continue
            rows.append(
                (
                    workload,
                    name,
                    statistics.median(a),
                    statistics.median(b),
                    worsening(a, b, m["better"]),
                    max(spread(a), spread(b)),
                    verdict(a, b, m["better"], m["bound"]),
                )
            )
    return rows


def format_rows(rows):
    out = [
        "%-14s %-12s %14s %14s %9s %8s  %s"
        % ("workload", "metric", "base", "new", "worse", "spread", "verdict")
    ]
    for w, name, a, b, change, sp, v in rows:
        out.append(
            "%-14s %-12s %14.6g %14.6g %+8.1f%% %7.1f%%  %s"
            % (w, name, a, b, 100 * change, 100 * sp, v)
        )
    return "\n".join(out)
