#!/usr/bin/env python3
"""Run one gsketch benchmark workload and print its metrics.

    python3 perfbench/run.py --workload repair-chain --seed 1 --seconds 20 --trace 0

A single-threaded, closed-loop driver: one client, each operation starts
after the previous one finished.  The workload's inputs come from --seed;
every output is checked against a reference that does not come from
gsketch (see reference.py).  With --trace 0 it prints the end-to-end
metrics; with --trace 1 it runs the same loop, then the first round once
more with each operation run untraced and then under the span tracer, and
prints the per-layer metrics.  The last line of stdout is one JSON object;
a result file with the run's environment goes to perfbench/results/.

Run it from a checkout of the repository: it imports gsketch from src/.
"""
from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
PROBE = os.path.join(HERE, "setup_probe.py")

SETUP_RUNS = 9        # set-up probes per run; setup_s is their median
MIN_OPS = 100         # so that at least ten samples lie beyond the p90
MAX_LOOP_S = 100.0    # no new round starts after this, whatever MIN_OPS says

clock = time.perf_counter
# Operations are timed by this thread's CPU time: on an unloaded machine it
# equals their wall time, and on a shared host it leaves out the time the
# host gives to other processes, which would otherwise set the tail.
cpu_clock = time.thread_time


def probe_setup(workload, seed):
    """Set up the workload in a fresh process (setup_probe.py): interpreter
    start, gsketch import, corpus parsing and input generation.  Returns
    the CPU seconds that process used until the first operation could begin,
    and the wall seconds from starting it until then."""
    t0 = clock()
    proc = subprocess.run([sys.executable, PROBE, workload, str(seed)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    cpu, ready = map(float, proc.stdout.split()[-2:])
    return cpu, ready - t0


def git_sha(root):
    """The checked-out commit, read from .git without running git; None
    outside a git work tree."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="ascii") as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="ascii") as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def environment(args):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(ROOT),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_at_start": list(os.getloadavg()),
        "started_unix": time.time(),
        "note": "timings are this machine's, shared with other load; "
                "the benchmark changes no machine setting",
    }


def call(wl, gs, state, op, tracer=None, op_id=None):
    """Run one operation; returns (output or None, wall seconds, CPU
    seconds, problems).  With a tracer, it is installed around the operation
    only, outside the timed region, so the check that follows records no
    spans."""
    if tracer is not None:
        tracer.install(op_id)
    t0, c0 = clock(), cpu_clock()
    try:
        out = wl.run(gs, state, op)
    except Exception as exc:  # an operation that raises counts as failed
        out, probs = None, ["raised %s: %s" % (type(exc).__name__, exc)]
    else:
        probs = None
    finally:
        cpu, wall = cpu_clock() - c0, clock() - t0
        if tracer is not None:
            tracer.uninstall()
    if probs is None:
        try:
            probs = wl.check(gs, state, op, out)
        except Exception as exc:  # a malformed output can break the checker too
            probs = ["check raised %s: %s" % (type(exc).__name__, exc)]
    return out, wall, cpu, probs


def measure(wl, gs, state, seconds):
    """Whole rounds until `seconds` have passed and MIN_OPS ran.  Returns op
    walls, op CPU times, problems and the number of failed ops."""
    walls, cpus, problems = [], [], []
    failed = 0
    start = clock()
    r = 0
    while True:
        for op in state.rounds[r % len(state.rounds)]:
            _, wall, cpu, probs = call(wl, gs, state, op)
            walls.append(wall)
            cpus.append(cpu)
            problems += probs
            failed += bool(probs)
        r += 1
        elapsed = clock() - start
        if (elapsed >= seconds and len(walls) >= MIN_OPS) or elapsed >= MAX_LOOP_S:
            return walls, cpus, problems, failed


def traced_round(wl, gs, state):
    """Round 0 once more, each operation untraced and then traced, so that
    the overhead compares neighbours in time.  The two outputs must be
    equal.  Returns (tracer, untraced walls, traced walls, problems,
    failed ops)."""
    from tracer import Tracer
    tracer = Tracer()
    untraced, traced, problems = [], [], []
    failed = 0
    for i, op in enumerate(state.rounds[0]):
        out, wall, _, probs = call(wl, gs, state, op)
        untraced.append(wall)
        out_t, wall, _, probs_t = call(wl, gs, state, op, tracer, i)
        traced.append(wall)
        probs += probs_t
        if out_t != out:
            probs.append("op %d: traced output differs from untraced" % i)
        problems += probs
        failed += bool(probs)
    return tracer, untraced, traced, problems, failed


def write_result(args, record, tracer=None):
    os.makedirs(RESULTS, exist_ok=True)
    stem = "%s_seed%d_trace%d_%d" % (args.workload, args.seed, args.trace,
                                     int(record["environment"]["started_unix"] * 1000))
    with open(os.path.join(RESULTS, stem + ".json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    if tracer is not None:
        with gzip.open(os.path.join(RESULTS, stem + ".spans.jsonl.gz"), "wt",
                       encoding="utf-8") as f:
            f.write(json.dumps(["name", "start", "end", "parent", "op", "count"]) + "\n")
            for span in tracer.spans:
                f.write(json.dumps(span) + "\n")


def main(argv=None):
    from workloads import WORKLOADS, gsketch_modules
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gsketch", "__init__.py")):
        print("error: gsketch sources not found under %s; run from a checkout "
              "of the repository" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    wl = WORKLOADS[args.workload]
    env = environment(args)

    gs = gsketch_modules()
    state = wl.setup(gs, args.seed)
    walls, cpus, problems, failed = measure(wl, gs, state, args.seconds)
    # Set-up is timed in separate processes after the loop, so that the
    # timed operations run undisturbed; setup_s is the median of their CPU
    # times, which like the operations' leave out time given to other
    # processes.
    setups = [probe_setup(wl.name, args.seed) for _ in range(SETUP_RUNS)]
    attempted = len(walls)
    record = {"environment": env, "setup_runs_cpu_s": [c for c, _ in setups],
              "setup_runs_wall_s": [w for _, w in setups]}
    if args.trace == 0:
        p90 = statistics.quantiles(cpus, n=10)[-1]
        metrics = {
            "setup_s": (statistics.median(c for c, _ in setups), "s"),
            "op_p50_ms": (statistics.median(cpus) * 1e3, "ms"),
            "op_p90_ms": (p90 * 1e3, "ms"),
            "ops_per_s": (len(cpus) / sum(cpus), "1/s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                             "MiB"),
        }
        record["op_samples"] = len(cpus)
        record["op_samples_beyond_p90"] = sum(1 for c in cpus if c > p90)
        record["wall_clock"] = {  # the same figures by wall time, for comparison
            "setup_s": statistics.median(w for _, w in setups),
            "op_p50_ms": statistics.median(walls) * 1e3,
            "op_p90_ms": statistics.quantiles(walls, n=10)[-1] * 1e3,
            "ops_per_s": len(walls) / sum(walls)}
        tracer = None
    else:
        tracer, uwalls, twalls, tproblems, tfailed = traced_round(wl, gs, state)
        problems += tproblems
        failed += tfailed
        attempted += 2 * len(twalls)
        from tracer import OP, layer_metrics
        self_times = tracer.self_times()
        per_op = [0.0] * len(twalls)
        for span, st in zip(tracer.spans, self_times):
            per_op[span[OP]] += st
        problems += ["op %d: span self times exceed the op wall time" % i
                     for i, (s, w) in enumerate(zip(per_op, twalls)) if s > w]
        metrics = layer_metrics(tracer.spans, self_times, sum(twalls))
        untraced = len(uwalls) / sum(uwalls)
        traced = len(twalls) / sum(twalls)
        metrics["trace.ops_per_s_untraced"] = (untraced, "1/s")
        metrics["trace.ops_per_s_traced"] = (traced, "1/s")
        metrics["trace.overhead"] = (untraced / traced, "ratio")
        record["traced_ops"] = len(twalls)
        record["spans"] = len(tracer.spans)

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record.update(metrics=metrics, attempted=attempted, failed=failed,
                  error_rate=failed / attempted, problems=problems[:50])
    write_result(args, record, tracer)

    for name, m in metrics.items():
        print("%-36s %14.6g %s" % (name, m["value"], m["unit"]))
    if args.trace == 0:
        print("%-36s %14d (samples; %d beyond p90)" % (
            "op_samples", record["op_samples"], record["op_samples_beyond_p90"]))
    print("%-36s %14.6g (%d of %d attempted)" % ("error_rate", failed / attempted,
                                                 failed, attempted))
    for p in problems[:10]:
        print("problem: %s" % p)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
