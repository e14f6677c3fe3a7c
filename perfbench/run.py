"""Layered system benchmark: optimize, recurring execution, service churn.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload plan-22q --seed 1 --seconds 12 --trace 0

Workloads: ``plan-22q``, ``recurring-22q-updates``, ``service-churn``
(``README.md`` beside this file says why each exists).  ``--trace 0``
reports the end-to-end metrics of an untraced run; ``--trace 1`` reports
the per-layer metrics of a traced run.  Both print one metric per line,
then the environment, any failed operation, and as the last line one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: end-to-end metrics and their units, in BENCHMARK.json order
END_TO_END = (
    ("setup_s", "s"),
    ("optimize_s", "s"),
    ("trigger_s_p50", "s"),
    ("trigger_s_tail", "s"),
    ("rows_per_s", "rows/s"),
    ("work_per_qw", "work"),
    ("peak_rss_mb", "MB"),
)


def tail_percentile(values):
    """``(percentile, value)``: the highest whole percentile with at
    least ten samples above it (nearest rank), or the median when there
    are too few samples for any."""
    ordered = sorted(values)
    n = len(ordered)
    for percentile in range(99, 50, -1):
        rank = math.ceil(percentile / 100.0 * n)
        if n - rank >= 10:
            return percentile, ordered[rank - 1]
    return 50, statistics.median(ordered)


def end_to_end_metrics(m):
    """The end-to-end metrics of one untraced measurement."""
    percentile, tail = tail_percentile(m.windows)
    metrics = {
        "setup_s": statistics.median(m.setup_s),
        "optimize_s": m.optimize_s,
        "trigger_s_p50": statistics.median(m.windows),
        "trigger_s_tail": tail,
        "rows_per_s": sum(m.rows) / sum(m.windows),
        "work_per_qw": m.fixed_work / m.fixed_query_windows,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "trigger_s_tail": "p%d of %d windows" % (percentile, len(m.windows)),
        "work_per_qw": "over the first %d query-windows" % m.fixed_query_windows,
    }
    return metrics, notes


def environment():
    from repro.physical.hotpath import engine_mode_label

    switches = sorted(name for name in os.environ if name.startswith("REPRO_"))
    return {
        "engine_mode": engine_mode_label(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "repro_env": switches,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no program sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import scenarios

    if args.workload not in scenarios.SIZES:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(scenarios.SIZES)), file=sys.stderr)
        return 2
    m, layers = scenarios.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    e2e, notes = end_to_end_metrics(m)
    if layers is None:
        reported = {name: (e2e[name], unit) for name, unit in END_TO_END}
    else:
        reported = {
            name: (layers[name], unit) for name, unit in scenarios.LAYER_METRICS
        }
    for name, (value, unit) in reported.items():
        note = notes.get(name) if layers is None else None
        print("%-40s %.6g %s%s" % (name, value, unit, "  (%s)" % note if note else ""))
    admit = statistics.median(m.admit_s) if m.admit_s else None
    print("admit_s_p50 %s" % ("%.6g s" % admit if admit is not None else "n/a"))
    print("goal_miss_frac %.6g" % (m.fixed_misses / m.fixed_query_windows))
    print("error_frac %.6g (%d of %d operations failed)"
          % (m.failed / m.attempted, m.failed, m.attempted))
    print("environment %s" % json.dumps(environment(), sort_keys=True))
    for failure in m.failures:
        print("FAILED %s" % failure)
    print(json.dumps({
        "correct": not m.failures,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in reported.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
