"""Compare two sets of benchmark runs, such as a parent commit and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each directory holds the result files run.py writes (--results DIR),
with the same workloads and seeds on both sides; run the two sides
alternately, at least ten seeds each.  Runs are paired by seed.  For
every (workload, end-to-end metric) it prints both sides' median and
quartiles, the share of pairs the change wins and a verdict (improved,
unchanged, worse or unresolved, by stats.verdict), then the per-layer
medians of the traced runs that moved.
"""

import argparse
import glob
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


def load_runs(directory, trace):
    """{workload: {seed: metrics}} of one side."""
    runs = {}
    for path in glob.glob(os.path.join(directory, "*-trace%d.json" % trace)):
        with open(path) as f:
            r = json.load(f)
        runs.setdefault(r["workload"], {})[r["seed"]] = r["metrics"]
    return runs


def paired(parent, change, workload):
    seeds = sorted(set(parent.get(workload, {})) & set(change.get(workload, {})))
    return seeds, [parent[workload][s] for s in seeds], [change[workload][s] for s in seeds]


def fmt_q(xs):
    q1, q2, q3 = stats.quartiles(xs)
    return "%.4g [%.4g, %.4g]" % (q2, q1, q3)


def compare(parent_dir, change_dir, bench):
    out = []
    pe, ce = load_runs(parent_dir, 0), load_runs(change_dir, 0)
    for workload in sorted(set(pe) | set(ce)):
        seeds, p, c = paired(pe, ce, workload)
        out.append("== %s: %d paired runs (seeds %s)" % (workload, len(seeds), seeds))
        if not seeds:
            continue
        out.append("%-20s %-30s %-30s %6s  %s" % ("metric", "parent median [q1, q3]",
                                                  "change median [q1, q3]", "wins", "verdict"))
        for m in bench["end_to_end"]:
            name = m["name"]
            pv = [r[name] for r in p if name in r]
            cv = [r[name] for r in c if name in r]
            if len(pv) != len(seeds) or len(cv) != len(seeds):
                continue
            out.append("%-20s %-30s %-30s %6.2f  %s" % (
                name, fmt_q(pv), fmt_q(cv), stats.pair_win_share(pv, cv, m["better"]),
                stats.verdict(pv, cv, m["better"], m["bound"])))
    pl, cl = load_runs(parent_dir, 1), load_runs(change_dir, 1)
    for workload in sorted(set(pl) & set(cl)):
        seeds, p, c = paired(pl, cl, workload)
        if not seeds:
            continue
        out.append("-- %s per-layer medians over %d traced runs (shift = change/parent - 1)" % (
            workload, len(seeds)))
        rows = []
        for m in bench["per_layer"]:
            name = m["name"]
            pm = statistics.median([r.get(name, 0.0) for r in p])
            cm = statistics.median([r.get(name, 0.0) for r in c])
            if pm == cm:
                continue
            shift = cm / pm - 1.0 if pm else float("inf")
            rows.append((abs(shift), "%-40s %14.6g %14.6g %+9.1f%%" % (name, pm, cm, 100 * shift)))
        for _, line in sorted(rows, reverse=True):
            out.append(line)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    args = ap.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    print("\n".join(compare(args.parent, args.change, bench)))


if __name__ == "__main__":
    main()
