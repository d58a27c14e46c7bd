#!/usr/bin/env python3
"""The opmap benchmark: one command, four workloads.

Run from the root of a source checkout:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      Builds the library, the `opmap` CLI and the benchmark binary into
      .bench_build/ (first run only), generates the workload's inputs from
      the seed, measures for S seconds and prints one JSON line as the last
      line of stdout: end-to-end metrics with --trace 0, per-layer metrics
      with --trace 1. Exits non-zero if any output check failed.

  python3 perfbench/run.py --short
      Runs every workload briefly, untraced and traced, with every check
      on: the benchmark's own test.

  python3 perfbench/run.py --steady [--runs 10] [--seconds S] [--workloads a,b]
      Runs each workload once per seed 1..runs and prints, for every
      end-to-end metric, the median, the quartiles and their spread
      (IQR / median) against the metric's bound in BENCHMARK.json.

Workloads: batch_build, explore, serve_hot, ingest_live (see README.md).
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["batch_build", "explore", "serve_hot", "ingest_live"]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the benchmark binary and the opmap CLI;
    returns its path, or None when the build fails."""
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        if subprocess.run(["cmake", "-S", HERE, "-B", bdir],
                          stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target", "perfbench", "opmap"],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return os.path.join(bdir, "perfbench")


def run_group(cmd, timeout, capture):
    """Runs `cmd` from the checkout root in its own process group (so a
    daemon it spawned cannot outlive it) and returns (code, stdout)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        log("perfbench: timed out:", " ".join(cmd))
        out, code = "", 124
    else:
        code = proc.returncode
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    return code, out or ""


def run_once(binary, workload, seed, seconds, trace):
    """One measured run in a fresh working directory. Returns (code, the
    result line or None)."""
    work = os.path.join(build_dir(), "work", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    # Relative to the checkout root: keeps unix socket paths short.
    rel = os.path.relpath(work, ROOT)
    common = ["--workload", workload, "--seed", str(seed), "--dir", rel]
    try:
        code, _ = run_group([binary, "prepare"] + common, 150, capture=False)
        if code != 0:
            log("perfbench: prepare failed with code", code)
            return code or 1, None
        code, out = run_group([binary, "run"] + common +
                              ["--seconds", str(seconds), "--trace", str(int(trace))],
                              seconds * 2 + 150, capture=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.strip().splitlines()
    return code, (lines[-1] if lines and lines[-1].startswith("{") else None)


def cpu_ticks():
    """The machine-wide CPU time counters of /proc/stat (user, nice,
    system, idle, iowait, irq, softirq, steal); zeros where unavailable."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return [0] * 8


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def short(binary):
    """Every workload briefly, both modes, all checks: the self-test."""
    spec = load_spec()
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, line = run_once(binary, workload, 1, 1, trace)
            problems = []
            if code != 0 or line is None:
                problems.append("exit code %d" % code)
            else:
                result = json.loads(line)
                names = list(result["metrics"])
                if names != (layer if trace else e2e):
                    problems.append("metric names differ from BENCHMARK.json")
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    problems.append("correct=%s attempted=%d failed=%d" % (
                        result["correct"], result["attempted"], result["failed"]))
                if not trace and any(m["value"] <= 0 for m in result["metrics"].values()):
                    problems.append("an end-to-end metric is not positive")
            bad += bool(problems)
            log("%-12s trace=%d  %s" % (workload, trace, "; ".join(problems) or "ok"))
    return 1 if bad else 0


def steady(binary, runs, seconds, workloads):
    """Run-to-run spread of every end-to-end metric against its bound."""
    spec = load_spec()
    seconds = seconds or spec["run_seconds"]
    worst = 0
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        shares = set()
        for seed in range(1, runs + 1):
            before = cpu_ticks()
            code, line = run_once(binary, workload, seed, seconds, 0)
            after = cpu_ticks()
            if code != 0 or line is None:
                log("%s seed %d: exit code %d" % (workload, seed, code))
                return 1
            result = json.loads(line)
            shares.add(result["failed"] / result["attempted"])
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            # Time the host took from this VM (steal) and spent waiting on
            # the disk (iowait), as shares of all CPU time in the run.
            total = sum(after) - sum(before) or 1
            log("%s seed %d: %s  steal %.1f%% iowait %.1f%%" % (
                workload, seed, " ".join("%s=%.6g" % (n, v[-1]) for n, v in values.items()),
                100.0 * (after[7] - before[7]) / total, 100.0 * (after[4] - before[4]) / total))
        print("%s (%d runs, failed share %s)" % (workload, runs, sorted(shares)))
        print("  %-18s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            print("  %-18s %14.6g %14.6g %14.6g %8.4f %6.2f%s" % (
                m["name"], med, q1, q3, spread, m["bound"],
                "  OVER" if spread > m["bound"] else ""))
        sys.stdout.flush()
    print("worst spread / bound (setup_s aside): %.3f" % worst)
    return 1 if worst > 1 else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true")
    parser.add_argument("--steady", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    if not (args.short or args.steady or args.workload):
        parser.error("give --workload, --short or --steady")

    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 1
    if args.short:
        return short(binary)
    if args.steady:
        return steady(binary, args.runs, args.seconds, args.workloads.split(","))
    code, line = run_once(binary, args.workload, args.seed,
                          args.seconds or load_spec()["run_seconds"], args.trace)
    if line is not None:
        print(line, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
