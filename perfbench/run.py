#!/usr/bin/env python3
"""End-to-end benchmark of the cloudview advisor (see README.md).

    python3 perfbench/run.py --workload whatif-warm --seed 1 --seconds 20 \
        --trace 0
    python3 perfbench/run.py --self-test

--trace 0 builds advisor_server, starts it, and drives the workload's
seeded request stream through it as a closed loop from this one process
over one connection (the server's stdin/stdout pipe): one client, which
waits for each reply before sending the next request. It checks every
reply and prints the end-to-end metrics.

--trace 1 replays the same seeded stream in process (perfbench_replay)
with spans around each layer's calls and prints the per-layer metrics.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The exit code is 0 only when every check passed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import measure  # noqa: E402
import workloads  # noqa: E402

# Server start-ups per run; setup_s is their median.
SETUP_ROUNDS = 101
# Server lifetimes the timed phase is split over, each with a fresh
# heap, its own set-up and warm-up. Whether glibc trims the heap after
# every cold-tenants cycle (about a tenth of the cycle) depends on the
# exact request sequence the process has seen, so one lifetime per run
# made throughput depend on the seed by 13%; fresh heaps average over it.
# The check afterwards replays the segments side by side, one process
# each, which keeps a run short enough for the gate's time limit.
SEGMENTS = 4
# CLOUDVIEW_THREADS for the server and the replay. One thread: on a
# shared 4-vCPU box a 4-thread pool made whatif-warm throughput swing
# 30% between back-to-back runs (one thread: 2.4%), beyond any bound a
# regression gate can use. The calibration probe still measures the
# pool at min(4, cores) threads, so a threaded gain remains visible as
# common.pool.effective_cores.
SERVER_THREADS = 1
# `stats` round trips behind serving.transport.rtt_ms.
RTT_PROBES = 200
# Units per second the replay's stream file must cover; the replay fails
# loudly if it runs out.
REPLAY_RATE_CAP = {"whatif-warm": 400, "cold-tenants": 400,
                   "planning-mix": 100}
SUBPROCESS_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "advice_cost_saving": "fraction",
    "advice_time_saving": "fraction",
    "peak_rss_mb": "MB",
}

# Span name -> per-layer metric (mean self ms per traced request).
SPAN_METRICS = {
    "serving.request": "trace.residual_ms",
    "serving.codec.parse": "serving.codec.parse_ms",
    "serving.codec.encode": "serving.codec.encode_ms",
    "serving.session.create": "serving.session.create_ms",
    "serving.session.find": "serving.session.find_ms",
    "serving.session.drop": "serving.session.drop_ms",
    "core.deployment": "core.deployment_ms",
    "optimizer.candidates.generate": "optimizer.candidates.generate_ms",
    "optimizer.evaluator.create": "optimizer.evaluator.create_ms",
    "workload.timeline_generate": "workload.timeline_generate_ms",
    "optimizer.planner.create": "optimizer.planner.create_ms",
    "optimizer.planner.run": "optimizer.planner.run_ms",
    "optimizer.planner.compare_policies":
        "optimizer.planner.compare_policies_ms",
    "core.compare_providers": "core.compare_providers_ms",
}
SOLVERS = ("knapsack-dp", "greedy", "local-search", "branch-and-bound",
           "pareto-sweep", "arch-sweep")
for _solver in SOLVERS:
    SPAN_METRICS["optimizer.solve." + _solver] = "optimizer.solve_ms." + _solver

PER_LAYER_UNITS = {metric: "ms" for metric in SPAN_METRICS.values()}
PER_LAYER_UNITS.update({
    "trace.request_total_ms": "ms",
    "trace.overhead_pct": "%",
    "serving.codec.response_bytes": "bytes",
    "serving.transport.rtt_ms": "ms",
    "optimizer.candidates.count": "count",
    "optimizer.cache.lookups": "count",
    "optimizer.cache.hit_ratio": "fraction",
    "optimizer.cache.evictions": "count",
    "optimizer.bnb.gap_fraction": "fraction",
    "optimizer.frontier.points": "count",
    "common.pool.effective_cores": "cores",
})


class CheckFailed(Exception):
    pass


def log(message):
    print(message, flush=True)


def fail(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)
    sys.exit(2)


def calibration_threads():
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    return max(1, min(4, cores))


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    """Configures and builds advisor_server and perfbench_replay from the
    checkout's sources; returns their paths."""
    for need in ("CMakeLists.txt", "src/serving/advisor_codec.h",
                 "tools/advisor_server.cc"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s is missing: run from a full checkout of the repository"
                 % need)
    out_dir = os.path.join(build_root(), "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(build_root(), "perfbench-build.log")
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", out_dir, "-j", str(calibration_threads()),
                  "--target", "advisor_server", "perfbench_replay"])
    with open(log_path, "w") as build_log:
        for step in steps:
            if subprocess.call(step, cwd=ROOT, stdout=build_log,
                               stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build step failed: " + " ".join(step))
    return (os.path.join(out_dir, "cloudview", "advisor_server"),
            os.path.join(out_dir, "perfbench_replay"))


class Server:
    """advisor_server over its stdin/stdout pipe: one connection, one
    outstanding request at a time."""

    def __init__(self, binary, env):
        self.proc = subprocess.Popen([binary], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, env=env,
                                     cwd=ROOT)

    def send(self, request_line):
        self.proc.stdin.write(request_line.encode() + b"\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise CheckFailed("advisor_server closed its output")
        return reply.decode().rstrip("\n")

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for row in f:
                if row.startswith("VmHWM:"):
                    return int(row.split()[1]) / 1024.0
        raise CheckFailed("no VmHWM in /proc/%d/status" % self.proc.pid)

    def close(self):
        try:
            self.send('{"op":"shutdown"}')
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (CheckFailed, OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class PinnedToOneCpu:
    """Runs this client, and every server it starts, on one CPU for the
    duration of the block, so each request hands the CPU from client to
    server and back without a cross-CPU wake-up. In ten paired runs this
    roughly halved the spread of whatif-warm and cold-tenants latency
    across seeds (README.md, "Pinning the server phase")."""

    def __enter__(self):
        self.saved = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(self.saved)})
        return self

    def __exit__(self, *exc):
        os.sched_setaffinity(0, self.saved)
        return False


def start_server(binary, env, setup):
    """Starts a server and sends the setup lines; returns (server, their
    replies, seconds from spawn until the first timed request can be
    sent)."""
    start = time.perf_counter()
    server = Server(binary, env)
    # A server with no standing state is ready once it answers.
    replies = [server.send(l) for l in setup] or [server.send('{"op":"stats"}')]
    elapsed = time.perf_counter() - start
    return server, replies[:len(setup)], elapsed


def start_tool(args, env):
    return subprocess.Popen(args, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env)


def finish_tool(proc, what):
    """Waits for a tool started by start_tool; returns the JSON object on
    the last line of its output."""
    try:
        stdout, stderr = proc.communicate(timeout=SUBPROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_tools([proc])
        raise
    if proc.returncode != 0:
        raise CheckFailed("%s failed (exit %d): %s%s" % (
            what, proc.returncode, stdout[-2000:], stderr[-2000:]))
    return json.loads(stdout.strip().splitlines()[-1])


def stop_tools(procs):
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def run_tool(args, what, env):
    return finish_tool(start_tool(args, env), what)


def write_lines(path, lines):
    with open(path, "w") as f:
        for text in lines:
            f.write(text + "\n")


def read_lines(path):
    with open(path) as f:
        return [row.rstrip("\n") for row in f if row.strip()]


def account(replies):
    """(attempted, failed) over the replies of every operation sent;
    raises CheckFailed carrying both when any operation did not return
    OK."""
    attempted = len(replies)
    failed = sum(1 for r in replies if not json.loads(r).get("ok"))
    if failed:
        raise CheckFailed("%d of %d operations did not return OK"
                          % (failed, attempted), attempted, failed)
    return attempted, failed


def check_bnb_proven(lines, replies):
    """Every branch-and-bound reply must be proven optimal."""
    for i, (request_line, reply_line) in enumerate(zip(lines, replies)):
        request = json.loads(request_line).get("request", {})
        if request.get("solver") != "branch-and-bound":
            continue
        reply = json.loads(reply_line)
        gap = reply.get("response", {}).get("meta", {}).get("gap_fraction")
        if gap != 0:
            raise CheckFailed("line %d: branch-and-bound gap_fraction %r, "
                              "expected a proof (0)" % (i, gap))


def check_same_replies(expected, actual, what):
    at = measure.first_difference(expected, actual)
    if at is not None:
        raise CheckFailed("%s differ at line %d:\n  %s\n  %s" % (
            what, at, expected[at][:300] if at < len(expected) else "<none>",
            actual[at][:300] if at < len(actual) else "<none>"))


def advice(replies):
    """Mean (cost saving, time saving) over feasible advised selections."""
    cost, time_ = [], []
    for reply_line in replies:
        pair = measure.advised_selection(json.loads(reply_line))
        if pair is None or not pair[0]["feasible"]:
            continue
        c, t = measure.savings(*pair)
        cost.append(c)
        time_.append(t)
    if not cost:
        raise CheckFailed("no reply carried a feasible selection")
    return statistics.fmean(cost), statistics.fmean(time_)


def drive_server(args, server_bin, env, setup):
    """The server side of a --trace 0 run: start-ups, then SEGMENTS
    server lifetimes, each with the set-up, an untimed warm-up and its
    share of the timed closed loop. Returns (start-up seconds, segments,
    peak RSS in MB). A segment is (lines sent, replies, (send, reply)
    times of each timed unit); the seeded stream runs on across them."""
    setup_times = []
    for _ in range(SETUP_ROUNDS):
        server, _, elapsed = start_server(server_bin, env, setup)
        server.close()
        setup_times.append(elapsed)
    stream = None
    segments = []
    peak_rss = 0.0
    for _ in range(SEGMENTS):
        server, replies, _ = start_server(server_bin, env, setup)
        try:
            if stream is None:
                baseline = (workloads.baseline_of(replies[-1]) if setup
                            else None)
                stream = workloads.units(args.workload, args.seed, baseline)
            sent = list(setup)
            for _ in range(workloads.WARMUP_UNITS[args.workload]):
                for request_line in next(stream):
                    sent.append(request_line)
                    replies.append(server.send(request_line))
            timings = []
            deadline = time.perf_counter() + args.seconds / SEGMENTS
            while True:
                unit = next(stream)
                before = time.perf_counter()
                if before >= deadline:
                    break
                unit_replies = [server.send(line) for line in unit]
                timings.append((before, time.perf_counter()))
                sent += unit
                replies += unit_replies
            peak_rss = max(peak_rss, server.peak_rss_mb())
        finally:
            server.close()
        segments.append((sent, replies, timings))
    return setup_times, segments, peak_rss


def replay_segments(replay_bin, segments, work, env, workers):
    """Serves every segment's lines again, in process, one replay process
    per segment and at most `workers` at a time, and checks each reply
    against the server's. Returns the number of lines replayed."""
    pending = list(enumerate(segments))
    running = []
    replayed = 0
    try:
        while pending or running:
            while pending and len(running) < workers:
                k, (sent, replies, _) = pending.pop(0)
                out = os.path.join(work, "replay-%d" % k)
                os.makedirs(out)
                write_lines(os.path.join(out, "lines.jsonl"), sent)
                running.append((start_tool(
                    [replay_bin, "replay", "--lines",
                     os.path.join(out, "lines.jsonl"), "--out", out,
                     "--timed-from", str(len(sent)), "--seconds", "0"],
                    env), k, out, replies))
            proc, k, out, replies = running.pop(0)
            finish_tool(proc, "in-process replay")
            check_same_replies(
                replies, read_lines(os.path.join(out, "replies_a.jsonl")),
                "server and in-process replies of one seed (segment %d)" % k)
            replayed += len(replies)
    finally:
        stop_tools([proc for proc, _, _, _ in running])
    return replayed


def run_end_to_end(args, server_bin, replay_bin, work, env):
    setup = workloads.setup_lines(args.workload)
    with PinnedToOneCpu():
        setup_times, segments, peak_rss = drive_server(args, server_bin, env,
                                                       setup)
    sent = [line for segment in segments for line in segment[0]]
    replies = [reply for segment in segments for reply in segment[1]]
    timings = [segment[2] for segment in segments]

    write_lines(os.path.join(work, "lines.jsonl"), sent)
    write_lines(os.path.join(work, "replies.jsonl"), replies)
    attempted, failed = account(replies)
    check_bnb_proven(sent, replies)
    # Once the timing is over, the cost breakdown check and the in-process
    # replay of the same seed's stream share the CPUs.
    check = start_tool([replay_bin, "check",
                        "--lines", os.path.join(work, "lines.jsonl"),
                        "--replies", os.path.join(work, "replies.jsonl")],
                       env)
    try:
        replayed = replay_segments(replay_bin, segments, work, env,
                                   calibration_threads())
        checked = finish_tool(check, "cost breakdown check")
    finally:
        stop_tools([check])

    cost_saving, time_saving = advice(replies)
    throughput, p50, p90 = measure.closed_loop_summary(timings)
    metrics = {
        "setup_s": measure.median(setup_times),
        "throughput_rps": throughput,
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "advice_cost_saving": cost_saving,
        "advice_time_saving": time_saving,
        "peak_rss_mb": peak_rss,
    }
    units = sum(len(spans) for spans in timings)
    log("workload %s seed %d: %d timed units in %d server lifetimes "
        "(%s), %d operations, %d failed" % (
            args.workload, args.seed, units, len(timings),
            " ".join(str(len(spans)) for spans in timings), attempted,
            failed))
    log("  latency samples %d (%d beyond p90); setup s: min %.5f median "
        "%.5f max %.5f of %d" % (
            units, measure.samples_beyond(units, 0.9), min(setup_times),
            measure.median(setup_times), max(setup_times),
            len(setup_times)))
    log("  cost breakdowns re-evaluated from scratch: %d; replies replayed "
        "in process and matched: %d; digest %s"
        % (checked["checked"], replayed, measure.digest(replies)[:16]))
    return attempted, failed, metrics, END_TO_END_UNITS


def layer_metrics(spans, counts, timed_from):
    """Per-layer metrics from the traced replay's spans and counts."""
    per_request = measure.self_times(spans)
    n = len(per_request)
    if n == 0:
        raise CheckFailed("the traced replay recorded no requests")
    metrics = {metric: 0.0 for metric in SPAN_METRICS.values()}
    total_ns = 0
    for entry in per_request.values():
        total_ns += entry["total"]
        for name, self_ns in entry["self"].items():
            if name not in SPAN_METRICS:
                raise CheckFailed("span %r has no per-layer metric" % name)
            metrics[SPAN_METRICS[name]] += self_ns / 1e6 / n
    metrics["trace.request_total_ms"] = total_ns / 1e6 / n
    layer_sum = sum(metrics[m] for m in SPAN_METRICS.values())
    if abs(layer_sum - metrics["trace.request_total_ms"]) > 1e-6 * max(
            1.0, metrics["trace.request_total_ms"]):
        raise CheckFailed("self times add to %.6f ms, request total %.6f ms"
                          % (layer_sum, metrics["trace.request_total_ms"]))

    def values(name, timed_only=False):
        return [c["v"] for c in counts
                if c["c"] == name and (not timed_only or c["r"] >= timed_from)]

    def mean(name):
        vals = values(name)
        return statistics.fmean(vals) if vals else 0.0

    gaps = values("optimizer.bnb.gap_fraction")
    if any(g != 0 for g in gaps):
        raise CheckFailed("a traced branch-and-bound solve was not proven")
    lookups = sum(values("optimizer.cache.lookups", timed_only=True))
    hits = sum(values("optimizer.cache.hits", timed_only=True))
    metrics.update({
        "serving.codec.response_bytes": mean("serving.codec.response_bytes"),
        "optimizer.candidates.count": mean("optimizer.candidates.count"),
        "optimizer.cache.lookups": mean("optimizer.cache.lookups"),
        "optimizer.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "optimizer.cache.evictions": mean("optimizer.cache.evictions"),
        "optimizer.bnb.gap_fraction": max(gaps) if gaps else 0.0,
        "optimizer.frontier.points": mean("optimizer.frontier.points"),
    })
    return metrics, n


def run_traced(args, server_bin, replay_bin, work, env):
    setup = workloads.setup_lines(args.workload)
    prologue = workloads.prologue_lines()
    with PinnedToOneCpu():
        server, server_replies, _ = start_server(server_bin, env, setup)
        try:
            baseline = (workloads.baseline_of(server_replies[-1]) if setup
                        else None)
            stream = workloads.units(args.workload, args.seed, baseline)
            warmup = [l for _ in range(workloads.WARMUP_UNITS[args.workload])
                      for l in next(stream)]
            prefix = setup + prologue + warmup
            server_replies += [server.send(l) for l in prologue + warmup]
            rtts = []
            for _ in range(RTT_PROBES):
                before = time.perf_counter()
                server.send('{"op":"stats"}')
                rtts.append((time.perf_counter() - before) * 1000.0)
        finally:
            server.close()

    body_units = int(REPLAY_RATE_CAP[args.workload] * max(1.0, args.seconds))
    body = [l for _ in range(body_units) for l in next(stream)]
    write_lines(os.path.join(work, "lines.jsonl"), prefix + body)
    trace_from = len(setup)
    summary = run_tool([replay_bin, "replay",
                        "--lines", os.path.join(work, "lines.jsonl"),
                        "--out", work, "--timed-from", str(len(prefix)),
                        "--seconds", str(args.seconds), "--trace",
                        "--trace-from", str(trace_from),
                        "--trace-to", str(trace_from + len(prologue))],
                       "traced replay", env)
    replies_a = read_lines(os.path.join(work, "replies_a.jsonl"))
    replies_b = read_lines(os.path.join(work, "replies_b.jsonl"))
    processed = prefix + body[:summary["lines"] - len(prefix)]
    attempted, failed = account(server_replies + replies_a + replies_b)
    check_same_replies(server_replies, replies_a[:len(prefix)],
                       "server and in-process replies of one seed")
    check_same_replies(replies_a, replies_b,
                       "untraced and traced in-process replies")
    check_bnb_proven(processed, replies_a)

    spans, counts = [], []
    for row in read_lines(os.path.join(work, "spans.jsonl")):
        record = json.loads(row)
        (spans if "id" in record else counts).append(record)
    metrics, traced_requests = layer_metrics(spans, counts, len(prefix))
    calibration = run_tool([replay_bin, "calibrate"], "pool calibration",
                           env=dict(env, CLOUDVIEW_THREADS=str(
                               calibration_threads())))
    metrics["common.pool.effective_cores"] = calibration["effective_cores"]
    metrics["serving.transport.rtt_ms"] = measure.median(rtts)
    metrics["trace.overhead_pct"] = 100.0 * (
        summary["traced_ns"] - summary["untraced_ns"]) / summary["untraced_ns"]

    log("workload %s seed %d (traced replay): %d timed requests, %d traced "
        "requests (prologue + timed)" % (args.workload, args.seed,
                                         summary["timed"], traced_requests))
    log("  in-process request total %.4f ms = layer self times %.4f ms + "
        "residual %.4f ms; tracing overhead %.2f%%" % (
            metrics["trace.request_total_ms"],
            metrics["trace.request_total_ms"] - metrics["trace.residual_ms"],
            metrics["trace.residual_ms"], metrics["trace.overhead_pct"]))
    log("  pool concurrency %d, effective cores %.3f"
        % (calibration["pool_concurrency"], calibration["effective_cores"]))
    return attempted, failed, metrics, PER_LAYER_UNITS


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark's own unit tests and exit")
    args = parser.parse_args()
    if args.self_test:
        import unittest
        suite = unittest.defaultTestLoader.discover(HERE, "test_*.py")
        ok = unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful()
        sys.exit(0 if ok else 1)
    if args.workload is None:
        parser.error("--workload is required")

    server_bin, replay_bin = build()
    env = dict(os.environ, CLOUDVIEW_THREADS=str(SERVER_THREADS))
    work = os.path.join(build_root(), "runs",
                        "%s-trace%d" % (args.workload, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    log("CLOUDVIEW_THREADS=%d for server and replay; calibration at %d"
        % (SERVER_THREADS, calibration_threads()))

    runner = run_traced if args.trace else run_end_to_end
    try:
        attempted, failed, metrics, units = runner(
            args, server_bin, replay_bin, work, env)
    except (CheckFailed, ValueError, subprocess.TimeoutExpired) as error:
        counts = error.args[1:3] if len(error.args) == 3 else (1, 1)
        log("CHECK FAILED: %s" % error.args[0])
        print(json.dumps({"correct": False, "attempted": counts[0],
                          "failed": counts[1], "metrics": {}}))
        sys.exit(1)

    for name in sorted(metrics):
        log("  %-42s %.6g %s" % (name, metrics[name], units[name]))
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))


if __name__ == "__main__":
    main()
