"""Seeded request streams for the advisor benchmark.

One generator feeds both the server-driven run and the in-process
replay: each yields the exact envelope lines advisor_server receives
(`create_session`, `request`, `drop_session`), serialized canonically, so
one seed gives a byte-identical stream. Objective limits are fractions of
the session's own no-view baseline, which the caller reads off the
priming reply.

Inputs are stratified: every block of requests holds the same mix of
solvers, kinds and parameter bins in a seeded order, so two seeds differ
in order and jitter but not in how much work a run asks for.
"""

import json

MASK64 = (1 << 64) - 1

# SSB star schema: 4 dimensions of 4 levels, a 256-cuboid lattice; the
# advisor keeps at most 100 candidate views.
SSB_CONFIG = {"schema": "ssb", "candidates": {"max_candidates": 100}}
NUM_CUBOIDS = 256
SESSION = "tenant"
PROBE_SESSION = "probe"

WORKLOADS = ("whatif-warm", "cold-tenants", "planning-mix")

# Requests (or tenant cycles) each server lifetime is sent untimed before
# its share of the timed phase, so the session cache's hit ratio has
# levelled off.
WARMUP_UNITS = {"whatif-warm": 60, "cold-tenants": 20, "planning-mix": 10}


def line(obj):
    """Canonical wire form of one envelope."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class Rng:
    """SplitMix64: small, fast and stable across Python versions."""

    def __init__(self, seed):
        self.state = seed & MASK64

    def next64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def uniform(self):
        return (self.next64() >> 11) / float(1 << 53)

    def below(self, n):
        return self.next64() % n

    def shuffled(self, items):
        items = list(items)
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items


class Deck:
    """Deals `items` in seeded shuffled rounds: every len(items) draws
    hold each item exactly once."""

    def __init__(self, rng, items):
        self.rng = rng
        self.items = list(items)
        self.hand = []

    def draw(self):
        if not self.hand:
            self.hand = self.rng.shuffled(self.items)
        return self.hand.pop()


class Stratified:
    """Draws from [lo, hi) one of `bins` equal strata per draw, each
    stratum once per round, uniformly within it."""

    def __init__(self, rng, lo, hi, bins=10):
        self.rng = rng
        self.lo = lo
        self.width = (hi - lo) / bins
        self.deck = Deck(rng, range(bins))

    def draw(self):
        return self.lo + (self.deck.draw() + self.rng.uniform()) * self.width


def request(kind, session, **fields):
    body = {"kind": kind, "session": session}
    body.update(fields)
    return line({"op": "request", "request": body})


def setup_lines(workload):
    """Lines that build the workload's standing state: for the warm
    workloads one session primed with a default solve (whose reply
    carries the baseline); cold tenants start from an empty server."""
    if workload == "cold-tenants":
        return []
    return [line({"op": "create_session", "name": SESSION,
                  "config": SSB_CONFIG}),
            request("solve", SESSION)]


def baseline_of(prime_reply):
    """(total cost in micros, makespan in ms) of the no-view baseline in
    a solve reply."""
    base = json.loads(prime_reply)["response"]["solve"]["baseline"]
    return base["cost"]["total_micros"], base["makespan_ms"]


def prologue_lines():
    """Traced run only: one request of every kind and solver on a probe
    session, so each layer is timed at least once on every workload."""
    out = [line({"op": "create_session", "name": PROBE_SESSION,
                 "config": SSB_CONFIG})]
    for solver in ("knapsack-dp", "greedy", "local-search",
                   "branch-and-bound"):
        out.append(request("solve", PROBE_SESSION, solver=solver))
    timeline = {"num_periods": 12, "seed": 7,
                "drifts": [{"kind": "query-churn", "rate": 0.15}]}
    out += [request("frontier", PROBE_SESSION),
            request("solve-joint", PROBE_SESSION),
            request("timeline", PROBE_SESSION, timeline=timeline,
                    policy={"kind": "on-drift", "threshold": 0.2}),
            request("compare-policies", PROBE_SESSION, timeline=timeline,
                    policies=[{"kind": "static"},
                              {"kind": "every-k", "k": 3},
                              {"kind": "on-drift", "threshold": 0.2}]),
            request("compare-providers", PROBE_SESSION),
            line({"op": "drop_session", "name": PROBE_SESSION})]
    return out


def _whatif_warm(rng, baseline):
    cost, makespan = baseline
    # 20% greedy, 20% knapsack-dp, 40% local-search, 20% branch-and-bound
    # (fastest to slowest): the median falls in the middle of the
    # local-search mass and p90 in the middle of the branch-and-bound
    # mass, never on a boundary between two solvers. Each solver meets
    # each scenario in a fixed share, and each (solver, scenario) pair
    # walks its own limit strata, so a seed cannot pair one solver with
    # more of the slow limits than another seed does.
    slots = (["greedy"] * 2 + ["knapsack-dp"] * 2 + ["local-search"] * 4 +
             ["branch-and-bound"] * 2)
    combos = Deck(rng, [(solver, scenario) for solver in slots
                        for scenario in ("mv1", "mv2", "mv3")])
    # Budgets and time limits straddle the cheapest and fastest reachable
    # selections (about 0.47x cost and 0.42x time of the baseline on this
    # config): the low end is infeasible, the middle binds, the top is
    # slack.
    ranges = {"mv1": (0.40, 0.80), "mv2": (0.30, 0.90), "mv3": (0.05, 0.95)}
    strata = {}
    while True:
        solver, scenario = combos.draw()
        if (solver, scenario) not in strata:
            strata[solver, scenario] = Stratified(rng, *ranges[scenario])
        draw = strata[solver, scenario].draw()
        if scenario == "mv1":
            objective = {"scenario": "mv1",
                         "budget_limit_micros": int(cost * draw)}
        elif scenario == "mv2":
            objective = {"scenario": "mv2",
                         "time_limit_ms": int(makespan * draw)}
        else:
            objective = {"scenario": "mv3", "alpha": round(draw, 6)}
        yield [request("solve", SESSION, solver=solver,
                       objective=objective)]


def _cold_tenants(rng):
    instances = Deck(rng, range(2, 11))
    maintenance = Deck(rng, range(0, 4))
    mix_size = Deck(rng, range(6, 21))
    # Every cuboid but the base table is queried equally often per round.
    targets = Deck(rng, range(1, NUM_CUBOIDS))
    cycle = 0
    while True:
        name = "t%d" % cycle
        config = dict(SSB_CONFIG, nb_instances=instances.draw(),
                      maintenance_cycles=maintenance.draw())
        queries = [{"name": "q%d" % q, "target": targets.draw(),
                    "frequency": 1 + rng.below(100)}
                   for q in range(mix_size.draw())]
        yield [line({"op": "create_session", "name": name,
                     "config": config}),
               request("solve", name,
                       workload={"kind": "queries", "queries": queries}),
               line({"op": "drop_session", "name": name})]
        cycle += 1


def _planning_mix(rng):
    kinds = ("frontier", "solve-joint", "timeline", "compare-policies",
             "compare-providers")
    deck = Deck(rng, kinds * 2)
    # Per-kind strata, so every kind sees the same spread of parameters
    # whatever the seed.
    alpha = {kind: Stratified(rng, 0.05, 0.95) for kind in kinds}
    churn = {kind: Stratified(rng, 0.05, 0.30) for kind in kinds}
    decay = {kind: Stratified(rng, 0.80, 0.98) for kind in kinds}
    threshold = {kind: Stratified(rng, 0.10, 0.40) for kind in kinds}
    every_k = Deck(rng, [2, 3, 4])
    while True:
        kind = deck.draw()
        objective = {"scenario": "mv3", "alpha": round(alpha[kind].draw(), 6)}
        if kind in ("timeline", "compare-policies"):
            timeline = {"num_periods": 12, "seed": rng.below(1 << 31),
                        "drifts": [{"kind": "query-churn",
                                    "rate": churn[kind].draw()},
                                   {"kind": "frequency-decay",
                                    "factor": decay[kind].draw()}]}
            on_drift = {"kind": "on-drift",
                        "threshold": round(threshold[kind].draw(), 6)}
        if kind == "timeline":
            yield [request(kind, SESSION, objective=objective,
                           timeline=timeline, policy=on_drift)]
        elif kind == "compare-policies":
            yield [request(kind, SESSION, objective=objective,
                           timeline=timeline,
                           policies=[{"kind": "static"},
                                     {"kind": "every-k",
                                      "k": every_k.draw()},
                                     on_drift])]
        else:
            yield [request(kind, SESSION, objective=objective)]


def units(workload, seed, baseline):
    """Endless stream of units for `workload`: each unit is the list of
    lines one client sends and waits on in turn (one request, or one
    create/solve/drop tenant cycle). The latency sample is the unit."""
    rng = Rng(seed * 0x100000001B3 + WORKLOADS.index(workload))
    if workload == "whatif-warm":
        return _whatif_warm(rng, baseline)
    if workload == "cold-tenants":
        return _cold_tenants(rng)
    if workload == "planning-mix":
        return _planning_mix(rng)
    raise ValueError("unknown workload %r; expected one of %s"
                     % (workload, ", ".join(WORKLOADS)))
