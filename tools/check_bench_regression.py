#!/usr/bin/env python3
"""Gate on algorithmic-work regressions in the micro-benchmarks.

Compares a benchmark JSON file against a committed baseline of
per-iteration work counters. Two --current schemas are accepted:

  google-benchmark:  {"benchmarks": [{"name": ..., <counter>: ...}, ...]}
                     (BENCH_micro_algorithms.json from the
                     `micro_algorithms_bench` ctest entry,
                     BENCH_micro_algorithms_bls.json from
                     `micro_algorithms_bls_bench`,
                     BENCH_micro_replan.json from `micro_replan_bench`)
  flat ReportWriter: {"bench": "<name>", <field>: <number>, ...}
                     (BENCH_serve.json from `serve_load_bench` — the
                     bench name keys the values, top-level numeric
                     fields are the counters)

The micro-benchmark counters are seeded and workload-deterministic —
greedy.deltas counts the candidates the greedy selection rule scored,
bls.deltas_evaluated the moves exhaustive BLS scored and regret the Eq. 1
regret of the plan it reached, the replan.* family
measures the incremental replanner's churn response — so any increase
beyond the tolerance means the algorithm got worse (e.g. the greedy
scored a candidate twice, the blast radius exploded), not that the
machine was noisy. The serve stage latencies ARE wall-clock; their gate uses a wide
tolerance plus an absolute --slack floor so only an order-of-regression
(a blocking call on the replan path, a lost group commit) trips it —
sub-millisecond baselines would otherwise turn scheduler jitter into a
>300% relative "regression".

Baseline schemas (both accepted when checking):
  legacy, one counter:   {"counter": "greedy.deltas",
                          "values": {bench: value}}
  multi-counter:         {"counters": ["a", "b"],
                          "values": {bench: {"a": value, "b": value}}}

Either schema may additionally carry a "floors" map with the same shape
as the multi-counter "values":
  {"floors": {bench: {"c": minimum}}}
A "values" entry is a ceiling (the counter must not INCREASE past it);
a "floors" entry is a minimum (the counter must not DROP below it after
the tolerance/slack allowance) — for throughput- or ratio-style counters
where smaller means worse, e.g. the cindex decode rate and compression
ratio. Floors are hand-maintained (anchored to acceptance criteria, not
to one machine's measurement) and are left untouched by --update.

Exit codes: 0 ok, 1 regression or malformed input, 2 usage error.

Refreshing a baseline after an intentional change (repeat --counter for a
multi-counter baseline):
    python3 tools/check_bench_regression.py \
        --current build/bench/BENCH_micro_replan.json \
        --baseline bench/baselines/micro_replan_counters.json \
        --counter replan.boards_touched_per_day \
        --counter replan.fallback_rate \
        --counter replan.reoptimized_per_day \
        --update
"""

import argparse
import json
import sys

# Near-zero baselines (a fallback rate of 0) would otherwise make any
# nonzero value a >tolerance regression through rounding alone.
ABS_EPSILON = 1e-9


def load_counters(path, counters):
    """Returns {benchmark name: {counter: value}} from benchmark JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"check_bench_regression: cannot read {path}: {err}")
        sys.exit(1)
    benchmarks = data.get("benchmarks")
    if not isinstance(benchmarks, list):
        # Flat ReportWriter schema: one benchmark, named by "bench",
        # counters as top-level numeric fields.
        bench = data.get("bench")
        if not isinstance(bench, str):
            print(f"check_bench_regression: {path} has no 'benchmarks' "
                  "array and no 'bench' name")
            sys.exit(1)
        found = {c: float(data[c]) for c in counters
                 if isinstance(data.get(c), (int, float))}
        return {bench: found} if found else {}
    current = {}
    for entry in benchmarks:
        name = entry.get("name")
        if name is None:
            continue
        found = {c: float(entry[c]) for c in counters if c in entry}
        if found:
            current[name] = found
    return current


def load_baseline(path):
    """Returns (counters, ceilings, floors), each mapping
    {benchmark: {counter: value}}, from either baseline schema. The
    counters list covers every counter named by a ceiling or a floor, so
    one load_counters pass fetches them all."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"check_bench_regression: cannot read {path}: {err}")
        sys.exit(1)
    values = doc.get("values")
    if not isinstance(values, dict):
        print(f"check_bench_regression: {path} has no 'values' map")
        sys.exit(1)
    floors = {
        name: {c: float(v) for c, v in entry.items()}
        for name, entry in doc.get("floors", {}).items()
    }
    if "counters" in doc:
        counters = list(doc["counters"])
        baseline = {
            name: {c: float(v) for c, v in entry.items()}
            for name, entry in values.items()
        }
    else:
        counter = doc.get("counter")
        if not isinstance(counter, str):
            print(f"check_bench_regression: {path} names no counter")
            sys.exit(1)
        counters = [counter]
        baseline = {
            name: {counter: float(v)} for name, v in values.items()
        }
    for entry in floors.values():
        for c in entry:
            if c not in counters:
                counters.append(c)
    return counters, baseline, floors


def main():
    parser = argparse.ArgumentParser(
        description="Fail when a benchmark work counter regresses past "
        "its committed baseline.")
    parser.add_argument("--current", required=True,
                        help="google-benchmark JSON produced by this run")
    parser.add_argument("--baseline", required=True,
                        help="committed baseline JSON (see module "
                        "docstring for the accepted schemas)")
    parser.add_argument("--counter", action="append", default=None,
                        help="counter field(s) to record with --update; "
                        "repeatable (default: greedy.deltas). When "
                        "checking, the baseline file decides.")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed relative increase (default: 0.10)")
    parser.add_argument("--slack", type=float, default=0.0,
                        help="absolute allowance added on top of the "
                        "relative tolerance, in the counter's own units "
                        "(default: 0). Use for wall-clock counters whose "
                        "baseline is small enough that noise dominates.")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from --current instead "
                        "of checking")
    args = parser.parse_args()

    if args.update:
        counters = args.counter or ["greedy.deltas"]
        current = load_counters(args.current, counters)
        if not current:
            print(f"check_bench_regression: no {counters} counters in "
                  f"{args.current}")
            sys.exit(1)
        if len(counters) == 1:
            doc = {"counter": counters[0],
                   "values": {name: entry[counters[0]]
                              for name, entry in current.items()}}
        else:
            doc = {"counters": counters, "values": current}
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"check_bench_regression: baseline {args.baseline} updated "
              f"with {len(current)} entries x {len(counters)} counters")
        return

    counters, baseline, floors = load_baseline(args.baseline)
    current = load_counters(args.current, counters)
    if not current:
        print(f"check_bench_regression: no {counters} counters in "
              f"{args.current}")
        sys.exit(1)

    failures = []
    checked = 0
    for name, expected_by_counter in sorted(baseline.items()):
        actual_by_counter = current.get(name)
        if actual_by_counter is None:
            failures.append(f"{name}: missing from {args.current}")
            continue
        for counter, expected in sorted(expected_by_counter.items()):
            actual = actual_by_counter.get(counter)
            if actual is None:
                failures.append(f"{name}: counter '{counter}' missing "
                                f"from {args.current}")
                continue
            checked += 1
            allowed = (expected * (1.0 + args.tolerance) + args.slack
                       + ABS_EPSILON)
            verdict = "ok"
            if actual > allowed:
                verdict = "REGRESSION"
                failures.append(
                    f"{name}: {counter} {actual:g} exceeds baseline "
                    f"{expected:g} by more than {args.tolerance:.0%}")
            elif expected > 0 and actual < expected * (1.0 - args.tolerance):
                verdict = "improved (consider --update)"
            print(f"  {name}: {counter} {actual:g} vs baseline "
                  f"{expected:g} [{verdict}]")

    for name, floors_by_counter in sorted(floors.items()):
        actual_by_counter = current.get(name)
        if actual_by_counter is None:
            failures.append(f"{name}: missing from {args.current}")
            continue
        for counter, floor in sorted(floors_by_counter.items()):
            actual = actual_by_counter.get(counter)
            if actual is None:
                failures.append(f"{name}: counter '{counter}' missing "
                                f"from {args.current}")
                continue
            checked += 1
            allowed = (floor * (1.0 - args.tolerance) - args.slack
                       - ABS_EPSILON)
            verdict = "ok"
            if actual < allowed:
                verdict = "REGRESSION"
                failures.append(
                    f"{name}: {counter} {actual:g} fell below floor "
                    f"{floor:g} by more than {args.tolerance:.0%}")
            print(f"  {name}: {counter} {actual:g} vs floor "
                  f"{floor:g} [{verdict}]")

    if failures:
        print("check_bench_regression: FAILED")
        for failure in failures:
            print(f"  {failure}")
        sys.exit(1)
    print(f"check_bench_regression: {checked} counter values within "
          f"{args.tolerance:.0%} of baseline")


if __name__ == "__main__":
    main()
