#!/usr/bin/env python3
"""The repository benchmark: build the workload program, run, check, report.

    python3 perfbench/run.py --workload mxp_solve --seed 1 --seconds 30 \
        --trace 0

Builds perfbench/ (which compiles the program from ../src) into .bench_build/
at the checkout root, then runs the workload in its own process with
HPLMXP_THREADS=1. `--workload all` runs the three workloads one after the
other, each in its own processes (BENCHMARK.json gates two of them;
perfbench/README.md says why fleetsim_frontier is not gated).

--trace 0 prints the end-to-end metrics of BENCHMARK.json, measured with
tracing off. --trace 1 always covers all three workloads, whatever
--workload names, because the per-layer metrics of BENCHMARK.json span all
three: it runs each workload twice, untraced and then traced (spans around
the calls into each layer, written as Chrome trace-event JSON to
.bench_out/), checks that tracing changed no result, and prints every
per-layer metric and the tracing overhead of each workload.

The last line of standard output is one JSON object:
    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}
A failed correctness check makes the exit status 1. When the workload
program cannot be built or a workload cannot run, nothing is printed on
standard output and the exit status is 1.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_PROGRAM = os.path.join(BUILD_DIR, "perfbench_workload")
# Each workload keeps at most two compute threads busy on one pool lane.
CHILD_ENV = dict(os.environ, HPLMXP_THREADS="1")
# A run splits its seconds over this many processes and pools their
# samples: on a shared host one process runs several percent faster or
# slower than the next, and pooling evens part of that out.
PROCESSES = 3


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the workload program."""
    generated = ("Makefile", "build.ninja")
    if not any(os.path.isfile(os.path.join(BUILD_DIR, f)) for f in generated):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            raise BenchError("configuring perfbench failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench_workload",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("building perfbench failed")


def run_workload(name, seed, seconds, traced, deadline, process=0):
    """Runs one workload in its own process; returns (document, spans)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = (f"{name}.seed{seed}.{'traced' if traced else 'untraced'}"
           f".{process}")
    out = os.path.join(OUT_DIR, tag + ".json")
    spans_path = os.path.join(OUT_DIR, tag + ".trace.json")
    cmd = [WORKLOAD_PROGRAM, name, "--seed", str(seed),
           "--seconds", str(seconds),
           "--trace", "1" if traced else "0", "--out", out,
           "--data", os.path.join(HERE, "data")]
    if traced:
        cmd += ["--spans", spans_path]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, env=CHILD_ENV, stdout=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{tag} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{tag} exited with status {proc.returncode}")
    with open(out) as f:
        doc = json.load(f)
    spans = []
    if traced:
        with open(spans_path) as f:
            spans = json.load(f)["traceEvents"]
    return doc, spans


def fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_env(doc, processes=1):
    env = " ".join(f"{k}={v}" for k, v in doc["env"].items())
    print(f"  env: {env} seed={doc['seed']} seconds={doc['seconds']:g} "
          f"processes={processes}")


def print_checks(checks):
    for name, ok, detail in checks:
        print(f"  check {name}: {'ok' if ok else 'FAILED'} ({detail})")


def doc_checks(docs):
    return [(c["name"], c["ok"], c["detail"]) for d in docs
            for c in d["checks"]]


def run_untraced(names, seed, seconds, deadline, units, gated):
    """Each workload in its own processes, tracing off.

    One workload reports the BENCHMARK.json end-to-end metrics by their
    names; several report them as <workload>.<metric>.
    """
    metrics, metric_units = {}, {}
    attempted = failed = 0
    for name in names:
        docs = [run_workload(name, seed, seconds / PROCESSES, False,
                             deadline, p)[0] for p in range(PROCESSES)]
        print(f"{name} (tracing off{'' if name in gated else ', not gated'})")
        print_env(docs[0], len(docs))
        m = workloads.end_to_end(docs)
        counts = workloads.sample_counts(docs)
        for key, value in m.items():
            note = f"median of {counts[key]}" if counts.get(key) else ""
            print(f"  {key:<22} {fmt(value):>12} {units[key]:<5} "
                  f"{note}".rstrip())
        for key, value, unit, note in workloads.extras(docs):
            print(f"  {key:<22} {fmt(value):>12} {unit:<5} {note}")
        print_checks(doc_checks(docs))
        prefix = "" if len(names) == 1 else name + "."
        for key, value in m.items():
            metrics[prefix + key] = value
            metric_units[prefix + key] = units[key]
        a, failed_ops, failed_checks = workloads.failures(docs)
        attempted += a
        failed += failed_ops + failed_checks
    return metrics, metric_units, attempted, failed


def run_traced(seed, seconds, deadline, units):
    """Untraced then traced run of all three workloads; per-layer metrics.

    Each pass gets half the seconds, so each pair takes as long as a
    --trace 0 run of that workload.
    """
    metrics = {}
    attempted = failed = 0
    for name in workloads.WORKLOADS:
        untraced, _ = run_workload(name, seed, seconds / 2, False, deadline)
        traced, spans = run_workload(name, seed, seconds / 2, True, deadline)
        layer_metrics, cross_checks = workloads.per_layer(
            traced, untraced, spans)
        print(f"{name} (traced: {len(spans)} spans)")
        print_env(traced)
        plain = workloads.end_to_end([untraced])
        seen = workloads.end_to_end([traced])
        for key in plain:
            print(f"  {key:<22} untraced {fmt(plain[key]):>10} traced "
                  f"{fmt(seen[key]):>10} {units[key]}")
        for key in sorted(layer_metrics):
            print(f"  {key:<40} {fmt(layer_metrics[key]):>12}")
        checks = doc_checks([untraced, traced]) + cross_checks
        print_checks(checks)
        metrics.update(layer_metrics)
        a, failed_ops, _ = workloads.failures([untraced, traced])
        attempted += a
        failed += failed_ops + sum(1 for _, ok, _ in checks if not ok)
    return metrics, attempted, failed


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        build()
        # Every process started below is waited for, and the whole run
        # stays under 180 s once the workload program is built.
        deadline = time.monotonic() + 175.0
        if args.trace:
            if args.workload != "all":
                log(f"perfbench: --trace 1 runs all three workloads, not "
                    f"only {args.workload}")
            metrics, attempted, failed = run_traced(
                args.seed, args.seconds, deadline, units)
            metric_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            names = (workloads.WORKLOADS if args.workload == "all"
                     else (args.workload,))
            gated = {w["name"] for w in spec["workloads"]}
            metrics, metric_units, attempted, failed = run_untraced(
                names, args.seed, args.seconds, deadline, units, gated)
    except (BenchError, OSError, KeyError, ValueError,
            ZeroDivisionError) as e:
        log(f"perfbench: {type(e).__name__}: {e}")
        return 1

    if set(metrics) != set(metric_units):
        log("perfbench: metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(metric_units) - set(metrics))}, extra "
            f"{sorted(set(metrics) - set(metric_units))}")
        return 1
    correct = failed == 0
    # A latency of failed operations is +inf, which JSON cannot carry; such
    # a run is not correct anyway. A metric the workload has no samples for
    # (fleetsim_frontier's p50_ms) is None. Both print as null.
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": (v if v is not None and math.isfinite(v)
                                     else None),
                           "unit": metric_units[name]}
                    for name, v in sorted(metrics.items())},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
