#!/usr/bin/env python3
"""Merge and compare google-benchmark JSON outputs.

Used by the CI perf-smoke job to diff a fresh benchmark run against the
committed BENCH_baseline.json:

    # Capture the current numbers (micro + scaling) into one file:
    ./build/bench/micro_benchmarks --json \
        --benchmark_filter='...' > micro.json
    ./build/bench/parallel_scaling --json 60 > scaling.json
    python3 bench/compare_bench.py merge -o current.json micro.json \
        scaling.json

    # Fail if anything regressed by more than 25% relative to baseline:
    python3 bench/compare_bench.py compare BENCH_baseline.json \
        current.json --tolerance 0.25 --normalize-by 'BM_DtwWavefront'

Only stdlib is used.  `--normalize-by` divides every time by the named
benchmark's time *within the same file*, so the comparison is a ratio of
relative speeds — robust to the baseline and the current run executing on
different hardware.  Without it the comparison is absolute wall time.
"""

import argparse
import json
import sys

# Conversion factors to nanoseconds, per google-benchmark's time_unit.
_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_benchmarks(path, metric):
    """Return {name: time_ns} for every per-iteration entry in the file."""
    with open(path) as fh:
        doc = json.load(fh)
    out = {}
    for entry in doc.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev of repetitions).
        if entry.get("run_type", "iteration") != "iteration":
            continue
        name = entry["name"]
        value = entry.get(metric)
        if value is None:
            continue
        unit = entry.get("time_unit", "ns")
        out[name] = float(value) * _UNIT_NS.get(unit, 1.0)
    return out


def cmd_merge(args):
    merged = {"benchmarks": []}
    seen = set()
    for path in args.inputs:
        with open(path) as fh:
            doc = json.load(fh)
        if "context" in doc and "context" not in merged:
            merged["context"] = doc["context"]
        for entry in doc.get("benchmarks", []):
            key = entry.get("name")
            if key in seen:
                print(f"warning: duplicate benchmark {key!r} from {path}, "
                      "keeping the first occurrence", file=sys.stderr)
                continue
            seen.add(key)
            merged["benchmarks"].append(entry)
    with open(args.output, "w") as fh:
        json.dump(merged, fh, indent=2)
        fh.write("\n")
    print(f"merged {len(merged['benchmarks'])} benchmarks into "
          f"{args.output}")
    return 0


def cmd_compare(args):
    baseline = load_benchmarks(args.baseline, args.metric)
    current = load_benchmarks(args.current, args.metric)

    if args.normalize_by:
        for label, table in (("baseline", baseline), ("current", current)):
            anchor = table.get(args.normalize_by)
            if not anchor:
                print(f"error: --normalize-by benchmark "
                      f"{args.normalize_by!r} missing from {label} file",
                      file=sys.stderr)
                return 2
            for name in table:
                table[name] /= anchor

    shared = sorted(set(baseline) & set(current))
    removed = sorted(set(baseline) - set(current))
    new = sorted(set(current) - set(baseline))
    if not shared:
        print("error: no benchmarks in common between baseline and current",
              file=sys.stderr)
        return 2

    regressions = []
    width = max(len(name) for name in shared + removed + new)
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  "
          f"{'ratio':>7}")
    for name in shared:
        base, cur = baseline[name], current[name]
        ratio = cur / base if base > 0 else float("inf")
        flag = ""
        if ratio > 1.0 + args.tolerance:
            flag = "  REGRESSION"
            regressions.append((name, ratio))
        elif ratio < 1.0 - args.tolerance:
            flag = "  improved"
        print(f"{name:<{width}}  {base:>12.1f}  {cur:>12.1f}  "
              f"{ratio:>6.2f}x{flag}")
    # Benchmarks on one side only are informational, never a failure: a
    # candidate adding benches must be able to land before the committed
    # baseline is refreshed to track them, and a baseline refresh must not
    # be blocked by benches the candidate dropped.
    for name in new:
        print(f"{name:<{width}}  {'-':>12}  {current[name]:>12.1f}  "
              f"{'new':>7}")
    for name in removed:
        print(f"{name:<{width}}  {baseline[name]:>12.1f}  {'-':>12}  "
              f"{'removed':>7}")
    if new:
        print(f"\n{len(new)} new benchmark(s) not in the baseline "
              "(refresh BENCH_baseline.json to gate them)")
    if removed:
        print(f"{len(removed)} benchmark(s) removed since the baseline")

    if regressions:
        print(f"\n{len(regressions)} benchmark(s) regressed beyond "
              f"{args.tolerance:.0%}:", file=sys.stderr)
        for name, ratio in regressions:
            print(f"  {name}: {ratio:.2f}x", file=sys.stderr)
        return 1
    print(f"\nall {len(shared)} shared benchmarks within "
          f"{args.tolerance:.0%} of baseline")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    merge = sub.add_parser("merge",
                           help="merge several benchmark JSON files")
    merge.add_argument("inputs", nargs="+", help="input JSON files")
    merge.add_argument("-o", "--output", required=True,
                       help="merged output path")
    merge.set_defaults(func=cmd_merge)

    compare = sub.add_parser("compare",
                             help="diff a current run against a baseline")
    compare.add_argument("baseline", help="baseline JSON (committed)")
    compare.add_argument("current", help="freshly captured JSON")
    compare.add_argument("--tolerance", type=float, default=0.25,
                         help="allowed fractional slowdown (default 0.25)")
    compare.add_argument("--metric", default="real_time",
                         choices=["real_time", "cpu_time"],
                         help="which per-iteration time to compare")
    compare.add_argument("--normalize-by", default=None, metavar="NAME",
                         help="divide every time by this benchmark's time "
                              "within the same file (hardware-relative "
                              "comparison)")
    compare.set_defaults(func=cmd_compare)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
