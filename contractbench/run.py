#!/usr/bin/env python3
"""Contract-path benchmark: one command, three workloads.

Usage, from the root of a checkout:

    python3 contractbench/run.py --workload admit_lock|replan_churn|market_mixed \
        --seed N --seconds S --trace 0|1

It builds contractbench/ (a CMake package over the checkout's sources)
into .bench_build/, writes the city as a v2 snapshot with the program
just built (`contract_bench gen`, into a directory of the run's own that
is removed at the end), and runs `contract_bench run` against it with
MROAM_LOG_LEVEL=warning and MROAM_FAULT/MROAM_TRACE unset. It prints every
metric of the pass with its unit and sample count, then as its last line
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json. With
--trace 1 it makes an untraced pass and then a traced pass a quarter as
long, prints each span's self time (its duration minus what its children
cover on the same thread) and reports the per-layer metrics of
BENCHMARK.json, including the tracing overhead on the workload's main
latency. End-to-end numbers come only from untraced passes.

A failed output check prints the result with "correct": false and exits 1.
"""

import argparse
import array
import collections
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("admit_lock", "replan_churn", "market_mixed")

# admit_lock runs, but BENCHMARK.json does not list it; every run says why.
ADMIT_LOCK_NOTE = (
    "admit_lock is not among BENCHMARK.json's workloads: on a 4-vCPU VM "
    "its millisecond commit times moved 10-20% (p50) and 29-45% (p95) in "
    "IQR over median across 5 seeds, with 1, 2 or 4 client threads and with "
    "clients and server on separate cores; they follow the VM's timer "
    "jitter (an idle thread there wakes 7 ms late at p99). The serve layer "
    "is gated through market_mixed.")

# The city is fixed: mroam_serve's --gen defaults, generator seed
# included. The workload seed draws everything else (contract terms,
# schedule, operation mix, solver seed). Cities drawn per seed moved the
# median day time by 28% (IQR over median, 5 seeds) and regret by ~10x,
# which no bound can hold; with the city fixed the same spreads are ~2%
# and ~9%.
CITY_SEED = 42

# The gated end-to-end metrics are the ones every workload has, as
# (name, unit, source metric per workload). The time to a confirmed
# deployment is scheduled send to the first poll reading `committed` on
# the serving workloads, and the AdvanceDay call on replan_churn, where a
# contract is committed when its day's replan returns. regret_free_frac
# is 1 - regret_ratio: on market_mixed, where batching follows timing,
# regret_ratio moved 7-14% (IQR over median) between seeds, more than a
# third of the largest bound a metric may have, while its complement
# moved 0.02-0.04%. The complement's 0.15% bound fails once regret rises
# by 0.15% of the payments, about half of either workload's ~0.003.
END_TO_END = (
    ("setup_s", "s", {w: "setup_s" for w in WORKLOADS}),
    ("setup_rss_mb", "MiB", {w: "setup_rss_mb" for w in WORKLOADS}),
    ("commit_ms_p50", "ms", {"admit_lock": "commit_ms_p50",
                             "market_mixed": "commit_ms_p50",
                             "replan_churn": "day_ms_p50"}),
    ("commit_ms_p95", "ms", {"admit_lock": "commit_ms_p95",
                             "market_mixed": "commit_ms_p95",
                             "replan_churn": "day_ms_p95"}),
    ("regret_free_frac", "1", {w: "regret_ratio" for w in WORKLOADS}),
    ("satisfied_frac", "1", {w: "satisfied_frac" for w in WORKLOADS}),
)


def end_to_end(sheet, workload):
    metrics = {}
    for name, unit, source in END_TO_END:
        value = sheet["by_name"][source[workload]]["value"]
        if name == "regret_free_frac":
            value = 1.0 - value
        metrics[name] = {"value": value, "unit": unit}
    return metrics

# Per-layer metrics every workload measures, from the untraced pass.
PER_LAYER_UNTRACED = (
    "serve.batch_size_mean", "serve.polls_per_commit", "serve.refused",
    "serve.errors",
    "core.greedy_deltas_per_day", "core.lazy_hit_ratio",
    "core.bls_deltas_per_day", "core.bls_move_yield",
    "influence.gain_ns_per_posting", "influence.update_ns_per_posting",
    "influence.set_count_us_p50", "influence.postings",
    "cindex.bytes_per_posting", "io.snapshot_bytes", "io.load_ms",
    "io.map_ms",
)

# Metrics that repeat bit for bit for a given seed and run length.
EXACT = {
    "replan_churn": {
        "regret_ratio", "satisfied_frac", "core.full_solve_days",
        "core.reoptimized_per_day", "core.boards_touched_per_day",
        "core.greedy_deltas_per_day", "core.lazy_hit_ratio",
        "core.bls_deltas_per_day", "core.bls_move_yield",
    },
}
EXACT_EVERYWHERE = {"influence.postings", "cindex.bytes_per_posting",
                    "io.snapshot_bytes"}


def fail(message):
    print("contractbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(root):
    """Configures and builds contract_bench under .bench_build/."""
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(root, "src"))):
        fail("run from the root of a checkout holding the program's sources "
             "(CMakeLists.txt and src/ not found in %s)" % root)
    out = os.path.join(root, ".bench_build")
    os.makedirs(out, exist_ok=True)
    binary_dir = os.path.join(out, "contractbench")
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(binary_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", binary_dir,
                         "-DCMAKE_BUILD_TYPE=Release", "-DMROAM_SANITIZE="]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            run_quiet(configure, "configure")
        run_quiet(["cmake", "--build", binary_dir, "--target",
                   "contract_bench", "-j", str(os.cpu_count() or 1)], "build")
    return os.path.join(binary_dir, "contract_bench")


def run_quiet(command, what):
    result = subprocess.run(command, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stdout[-4000:])
        fail("%s failed (exit %d)" % (what, result.returncode))


def child_env():
    env = dict(os.environ)
    env.pop("MROAM_FAULT", None)
    env.pop("MROAM_TRACE", None)
    env["MROAM_LOG_LEVEL"] = "warning"
    return env


def city(binary, work):
    """Writes the city as a v2 snapshot into `work` and returns its path.

    It is written for every run by the program just built: a snapshot
    kept from another build would hold another commit's encoding, which
    the loader's re-encode check rejects, or another commit's city.
    """
    path = os.path.join(work, "nyc-%d.snap" % CITY_SEED)
    result = subprocess.run(
        [binary, "gen", "--seed", str(CITY_SEED), "--out", path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=child_env())
    if result.returncode != 0:
        sys.stderr.write(result.stderr)
        fail("city generation failed (exit %d)" % result.returncode)
    return path


def run_pass(binary, args, snapshot, deadline, seconds, trace_out=None):
    command = [binary, "run", "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(seconds), "--snapshot",
               snapshot]
    if trace_out:
        command += ["--trace-out", trace_out]
    try:
        # subprocess.run kills and reaps the pass when it overruns.
        result = subprocess.run(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=child_env(),
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("measured pass overran the run's time budget")
    lines = [line for line in result.stdout.splitlines() if line.strip()]
    if result.returncode not in (0, 1) or not lines:
        sys.stderr.write(result.stderr[-4000:])
        fail("measured pass failed (exit %d)" % result.returncode)
    sheet = json.loads(lines[-1])
    sheet["log"] = result.stderr
    sheet["by_name"] = {m["name"]: m for m in sheet["metrics"]}
    return sheet


def self_times(trace_path):
    """Per span name: durations and self times (us) from a Chrome trace.

    Streams the tracer's dump, which holds one event per line and, per
    thread, the spans in the order they ended. A span's children are then
    the spans of its thread that ended before it and started at or after
    its start, and the ones not yet claimed by a closer parent sit on top
    of a per-thread stack.
    """
    spans = collections.defaultdict(
        lambda: {"dur": array.array("d"), "self": array.array("d")})
    finished = collections.defaultdict(list)  # tid -> [(start, dur)]
    with open(trace_path) as f:
        for line in f:
            line = line.strip().rstrip(",")
            if not line.startswith('{"name"'):
                continue
            e = json.loads(line)
            stack = finished[e["tid"]]
            children = 0.0
            while stack and stack[-1][0] >= e["ts"]:
                children += stack.pop()[1]
            stack.append((e["ts"], e["dur"]))
            spans[e["name"]]["dur"].append(e["dur"])
            spans[e["name"]]["self"].append(max(0.0, e["dur"] - children))
    return spans


def exact(workload, name):
    return name in EXACT_EVERYWHERE or name in EXACT.get(workload, set())


def print_sheet(title, sheet, workload):
    print("== %s" % title)
    for line in sheet["log"].splitlines():
        if not line.startswith("contract_bench: build type"):
            print("   " + line)
    print("   %-34s %16s %-6s %9s" % ("metric", "value", "unit", "samples"))
    for m in sheet["metrics"]:
        value = "inf" if m["value"] is None else "%.6g" % m["value"]
        print("   %-34s %16s %-6s %9d%s" % (
            m["name"], value, m["unit"], m["n"],
            "  exact" if exact(workload, m["name"]) else ""))


def expected_metrics(root, trace):
    """Metric names BENCHMARK.json asks of a run, or None without it."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def per_layer(untraced, traced, spans, workload):
    metrics = {}
    for name in PER_LAYER_UNTRACED:
        m = untraced["by_name"][name]
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    # Spans the program records on every workload: the replan call and
    # the synchronous greedy inside it.
    for name, span, key in (
            ("core.advance_day_ms_p50", "market.advance_day", "dur"),
            ("core.greedy_self_ms_p50", "greedy.synchronous", "self")):
        values = spans.get(span, {}).get(key) or [0.0]
        metrics[name] = {"value": statistics.median(values) / 1e3,
                         "unit": "ms"}
    base = end_to_end(untraced, workload)["commit_ms_p50"]["value"]
    with_tracing = end_to_end(traced, workload)["commit_ms_p50"]["value"]
    metrics["obs.trace_overhead_frac"] = {"value": with_tracing / base - 1.0,
                                          "unit": "1"}
    return metrics


def print_spans(spans):
    print("== span self times (us), traced pass")
    print("   %-32s %9s %12s %12s %14s" % (
        "span", "count", "self_p50", "dur_p50", "self_total"))
    for name in sorted(spans, key=lambda n: -sum(spans[n]["self"])):
        s = spans[name]
        print("   %-32s %9d %12.3f %12.3f %14.1f" % (
            name, len(s["dur"]), statistics.median(s["self"]),
            statistics.median(s["dur"]), sum(s["self"])))
    flush = spans.get("serve.flush_batch")
    if flush:
        # The per-arrival recount and ticket map under the market lock.
        print("   serve.flush_self_ms_p50 = %.6g ms" %
              (statistics.median(flush["self"]) / 1e3))


def main():
    deadline = time.monotonic() + 175.0
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    binary = build(root)
    runs = os.path.join(root, ".bench_build", "runs")
    os.makedirs(runs, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=runs)
    try:
        measure(args, root, binary, city(binary, work), deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, root, binary, snapshot, deadline):
    print("contractbench: workload %s, seed %d, %d s, trace %d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("note: " + ADMIT_LOCK_NOTE)

    untraced = run_pass(binary, args, snapshot, deadline, args.seconds)
    print_sheet("untraced pass", untraced, args.workload)
    passes = [untraced]
    if args.trace == 0:
        metrics = end_to_end(untraced, args.workload)
        title = "gated end-to-end metrics"
    else:
        traces = os.path.join(root, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        trace_path = os.path.join(
            traces, "%s-%d.json" % (args.workload, args.seed))
        # A quarter of the run keeps the span dump (every BLS move is a
        # span) to tens of MB; its latency still has hundreds of samples.
        traced = run_pass(binary, args, snapshot, deadline,
                          max(1, args.seconds // 4), trace_path)
        passes.append(traced)
        print_sheet("traced pass", traced, args.workload)
        spans = self_times(trace_path)
        print_spans(spans)
        metrics = per_layer(untraced, traced, spans, args.workload)
        title = "per-layer metrics"
    print("== " + title)
    for name, m in metrics.items():
        print("   %-34s %16.6g %s" % (name, m["value"], m["unit"]))

    expected = expected_metrics(root, args.trace)
    if expected is not None and expected != set(metrics):
        fail("metrics %s do not match BENCHMARK.json's %s" % (
            sorted(metrics), sorted(expected)))
    violations = [v for p in passes for v in p["violations"]]
    result = {
        "correct": not violations,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }
    for v in violations[:20]:
        print("output check failed: " + v)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
