"""Pure helpers of the advisor benchmark: percentiles, reply digests,
advice savings and span aggregation. No I/O; self-tested by
test_perfbench.py."""

import hashlib
import json
import math

# Reply fields that legitimately differ between two runs of one seed:
# wall time, and the session cache's cumulative counters (they depend on
# what else ran on the cache, not on the answer).
VOLATILE_META = ("wall_ms", "cache_lookups", "cache_hits", "cache_evictions")

MIN_TAIL_SAMPLES = 10


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least a
    fraction q of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count, q):
    """How many of `count` samples lie strictly above the nearest-rank
    q-th percentile."""
    return count - max(1, math.ceil(q * count))


def tail_percentile(values, q):
    """percentile(values, q), refusing a percentile the sample cannot
    support: at least MIN_TAIL_SAMPLES samples must lie beyond it."""
    beyond = samples_beyond(len(values), q)
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError("p%g of %d samples has only %d beyond it; need %d"
                         % (q * 100, len(values), beyond, MIN_TAIL_SAMPLES))
    return percentile(values, q)


def median(values):
    return percentile(values, 0.5)


def closed_loop_summary(segments):
    """Throughput and latency of a closed loop run in segments.

    Each segment holds the (send, last reply) times of its timed units,
    in seconds and in order. Returns (units per second over the time the
    segments ran, from each one's first send to its last reply; p50 ms
    and p90 ms over every unit). p90 must keep MIN_TAIL_SAMPLES samples
    beyond it."""
    segments = [spans for spans in segments if spans]
    if not segments:
        raise ValueError("no timed units")
    latencies_ms = [(end - start) * 1000.0
                    for spans in segments for start, end in spans]
    busy_s = sum(spans[-1][1] - spans[0][0] for spans in segments)
    return (len(latencies_ms) / busy_s, median(latencies_ms),
            tail_percentile(latencies_ms, 0.9))


def stable_reply(reply_line):
    """A reply with the volatile meta fields removed, as canonical JSON."""
    reply = json.loads(reply_line)
    meta = reply.get("response", {}).get("meta")
    if meta is not None:
        for key in VOLATILE_META:
            meta.pop(key, None)
    return json.dumps(reply, sort_keys=True, separators=(",", ":"))


def digest(reply_lines):
    """sha256 over the stable form of every reply, in order."""
    h = hashlib.sha256()
    for reply in reply_lines:
        h.update(stable_reply(reply).encode())
        h.update(b"\n")
    return h.hexdigest()


def first_difference(replies_a, replies_b):
    """Index of the first reply whose stable forms differ, or None when
    the streams agree (length included)."""
    for i, (a, b) in enumerate(zip(replies_a, replies_b)):
        if stable_reply(a) != stable_reply(b):
            return i
    if len(replies_a) != len(replies_b):
        return min(len(replies_a), len(replies_b))
    return None


def advised_selection(reply):
    """(selection, baseline) of a parsed reply that carries one advised
    selection with its baseline (solve, frontier best, joint best), else
    None."""
    response = reply.get("response")
    if response is None:
        return None
    for kind, key in (("solve", "selection"), ("frontier", "best"),
                      ("joint", "best")):
        payload = response.get(kind)
        if payload is not None:
            return payload[key], payload["baseline"]
    return None


def savings(selection, baseline):
    """(cost saving, time saving) of a selection against its baseline:
    SolveRun::CostImprovement and TimeImprovement with the workload-run
    time metric (makespan), which every generated objective uses."""
    base_cost = baseline["cost"]["total_micros"]
    base_time = baseline["makespan_ms"]
    cost = 1.0 - selection["evaluation"]["cost"]["total_micros"] / base_cost
    time = 1.0 - selection["time_ms"] / base_time
    return cost, time


def self_times(spans):
    """Per request: {name: self ns summed} and the root span's duration.

    `spans` are dicts {"r", "id", "p", "n", "s", "e"}. A span's self time
    is its duration minus the time its child spans cover. Raises when a
    child leaves its parent's interval or overlaps a sibling, since self
    times would then not add up to the request total."""
    children = {}
    for span in spans:
        children.setdefault(span["p"], []).append(span)
    requests = {}
    for span in spans:
        kids = sorted(children.get(span["id"], []), key=lambda k: k["s"])
        covered = 0
        cursor = span["s"]
        for kid in kids:
            if kid["s"] < cursor or kid["e"] > span["e"]:
                raise ValueError("span %s (%d) is not nested in %s"
                                 % (kid["n"], kid["id"], span["n"]))
            covered += kid["e"] - kid["s"]
            cursor = kid["e"]
        entry = requests.setdefault(span["r"], {"self": {}, "total": 0})
        entry["self"][span["n"]] = (entry["self"].get(span["n"], 0)
                                    + span["e"] - span["s"] - covered)
        if span["p"] == 0:
            entry["total"] += span["e"] - span["s"]
    return requests
