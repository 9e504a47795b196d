#!/usr/bin/env python3
"""Report of benchmark/aa.sh: do two sets of runs of one build agree?

Reads the saved outputs of run.sh (the metric table and the result line) and
prints, per (workload, metric): both set medians and their difference, each
set's quartiles and spread (distance between first and third quartile as a
share of the median, from statistics.quantiles(values, n=4)), the largest
deviation of any single run from the pooled median, and PASS/FAIL. Then the
same spread for the other statistics each run printed beside the value
(.median, .min), which is the evidence for the estimator in src/stats.rs.
"""
import json
import pathlib
import statistics
import sys

# PASS is the acceptance rule of the benchmark contract: each set's spread and
# the difference of the set medians stay inside the metric's bound. TIGHT is the
# target ISSUE 12 set: medians within 5 %, no run further than 10 % from the
# pooled median. STEADY is the contract's own target for a benchmark it can
# trust: both spreads below a third of the bound.
TIGHT_DIFF = 0.05
TIGHT_DEV = 0.10


def read_run(path):
    """-> ({metric: value}, {metric: (value, median, minimum)}, failed)"""
    lines = path.read_text().splitlines()
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    others = {}
    for line in lines:
        cols = line.split()
        if cols and cols[0] in values and len(cols) >= 8:
            others[cols[0]] = (float(cols[1]), float(cols[3]), float(cols[5]))
    return values, others, result["failed"]


def spread(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / statistics.median(xs)


def main():
    out, runs, seconds = pathlib.Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
    bounds = {}
    bench = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    if bench.exists():
        bounds = {m["name"]: m["bound"] for m in json.loads(bench.read_text())["end_to_end"]}

    print(f"# A/A report: {runs} runs per set, {seconds} s each, sets alternated, run i uses seed i\n")
    print("`diff` = |median A - median B| / pooled median; `spread` = (Q3 - Q1) / median of a set "
          "(quartiles from `statistics.quantiles(values, n=4)`); `max dev` = largest "
          "|run - pooled median| / pooled median. **PASS**: both spreads and `diff` inside the metric's "
          f"bound (the acceptance rule). **tight**: `diff` <= {TIGHT_DIFF:.0%} and `max dev` <= "
          f"{TIGHT_DEV:.0%} (the target ISSUE 12 set). **steady**: both spreads <= a third of the bound.\n")
    failed_rows = tight_rows = steady_rows = rows = 0
    estimator_rows = []
    for workload in ("event-latency", "thread-bandwidth", "thread-stack"):
        sets = {}
        ops_failed = 0
        for s in "AB":
            sets[s] = [read_run(out / f"{s}-{i}-{workload}.txt") for i in range(1, runs + 1)]
            ops_failed += sum(r[2] for r in sets[s])
        print(f"## {workload} (ops_failed over all runs: {ops_failed})\n")
        print("| metric | median A | median B | diff | quartiles A | quartiles B | spread A | spread B | max dev | bound | | tight | steady |")
        print("|---|---|---|---|---|---|---|---|---|---|---|---|---|")
        for metric in sets["A"][0][0]:
            a = [r[0][metric] for r in sets["A"]]
            b = [r[0][metric] for r in sets["B"]]
            pooled = statistics.median(a + b)
            diff = abs(statistics.median(a) - statistics.median(b)) / pooled
            dev = max(abs(x - pooled) for x in a + b) / pooled
            bound = bounds.get(metric, TIGHT_DEV)
            qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
            ok = max(spread(a), spread(b), diff) <= bound and ops_failed == 0
            tight = diff <= TIGHT_DIFF and dev <= TIGHT_DEV
            steady = max(spread(a), spread(b)) <= bound / 3
            failed_rows += not ok
            tight_rows += tight
            steady_rows += steady
            rows += 1
            print(f"| `{metric}` | {statistics.median(a):.4g} | {statistics.median(b):.4g} | {diff:.1%} "
                  f"| {qa[0]:.4g} / {qa[2]:.4g} | {qb[0]:.4g} / {qb[2]:.4g} "
                  f"| {spread(a):.1%} | {spread(b):.1%} | {dev:.1%} | {bound:.0%} | {'PASS' if ok else 'FAIL'} "
                  f"| {'yes' if tight else 'no'} | {'yes' if steady else 'no'} |")
            printed = [r[1][metric] for r in sets["A"] + sets["B"] if metric in r[1]]
            if len(printed) == 2 * runs:
                estimator_rows.append((workload, metric) + tuple(spread(col) for col in zip(*printed)))
        print()

    print("## Estimators compared\n")
    print("Spread (Q3 - Q1) / median over all runs of both sets, for three statistics every run prints "
          "of the same samples. The benchmark reports the first: the mean of the best twentieth.\n")
    print("| workload | metric | value | .median | .min |")
    print("|---|---|---|---|---|")
    for workload, metric, best, med, mn in estimator_rows:
        print(f"| {workload} | `{metric}` | {best:.1%} | {med:.1%} | {mn:.1%} |")
    print()
    print(f"**{'PASS' if failed_rows == 0 else f'FAIL ({failed_rows} rows)'}**; "
          f"{tight_rows} of {rows} rows also meet the tight target, {steady_rows} the steady one.")
    return 0 if failed_rows == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
