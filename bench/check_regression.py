#!/usr/bin/env python3
"""Bench-regression gate over BENCH_JSON output.

The bench harnesses print one machine-readable row per result line,
prefixed "BENCH_JSON " (see bench_util.h). CI's full job smoke-runs
every bench binary a few times, collects all the output, and runs this
script against the checked-in bench/baseline.json (repeated rows gate
on the best observation; the baseline itself is a floor — see
collect()):

    for i in 1 2 3; do
      for b in build/bench_*; do "$b" --smoke; done
    done > bench_out.txt
    python3 bench/check_regression.py bench_out.txt

The gate fails (exit 1) when any row's throughput metric
(`subsets_per_sec` by default) regresses by more than --threshold
(default 25%) against the same row in the baseline, or when a baseline
row disappears entirely (renaming a solver without regenerating the
baseline is a silent way to lose coverage). New rows that the baseline
does not know are reported but never fail the gate.

A failing throughput row names how many rounds observed it, and the
gate warns when it was fed fewer rounds than CI's 3: the pass/fail
rule is the same, but a single round of a wall-clock row can read as a
regression that is noise.

A second, exact gate covers deterministic work: any row whose
`nodes_expanded` (branch-and-bound search nodes), `bound_evaluations`
(branch-and-bound node lower bounds computed), `evaluations` (probes a
fresh cache did not answer), `fresh_solves` (re-selection solves a
temporal policy comparison ran that its memo could not answer) or
`fresh_tasks` (frontier-sweep tasks the cache's pick memo could not
answer) differs from the value stored for it under the baseline's
"work_rows" fails, with no threshold and no derate. These counts are a
pure function of the instance and the search, not of the machine, so
they must never move silently in either direction: a count that falls
can mean a search cut short or a solver that stopped probing. A change
that moves one regenerates the baseline and explains the move in
CHANGES.md. A row that carries one of them in the baseline but
vanishes from the output fails like a missing throughput row.

Rows are keyed by their string fields (bench/scenario/solver/sweep...),
which are stable across runs; numeric fields are the measurements.
`--trend` additionally prints a per-metric table (every numeric metric
the benches emitted, its cross-round spread, and best-vs-baseline
ratios for the gated metric), which is what CI surfaces in the job log
for eyeballing drift that never trips the gate.

Regenerate the baseline (required whenever solvers/benches change, and
best done on a CI-sized machine so the floor is realistic). Feed it a
few runs — repeated keys keep the minimum, making the baseline a floor
rather than one lucky sample:

    for i in 1 2 3; do
      for b in build/bench_*; do "$b" --smoke; done
    done | python3 bench/check_regression.py --update -

Absolute throughput varies across machines AND across time windows on
one machine (noisy neighbors and frequency scaling swing smoke numbers
2-3x). The gate is therefore built as floor-vs-best: the baseline
stores min-observed x --derate (default 0.35), CI gates the best of
three rounds, and the threshold stays generous. The combination is
deliberate — this gate exists to catch order-of-magnitude bit-rot (the
incremental layer losing its edge, a solver going accidentally
quadratic in probes), not 5% noise; wall-clock trend lines live in the
BENCH_JSON archive, not here.
"""

import argparse
import json
import sys

PREFIX = "BENCH_JSON "
# Deterministic work counters gated exactly (see the module docstring).
WORK_METRICS = ("nodes_expanded", "bound_evaluations", "evaluations",
                "fresh_solves", "fresh_tasks")
# Rounds CI's full job feeds the gate (the loop in the docstring).
CI_ROUNDS = 3


def parse_rows(stream):
    """Yields dicts for every BENCH_JSON line in `stream`."""
    for line in stream:
        line = line.strip()
        if not line.startswith(PREFIX):
            continue
        try:
            yield json.loads(line[len(PREFIX):])
        except json.JSONDecodeError as error:
            raise SystemExit(f"unparseable BENCH_JSON line: {line!r}: {error}")


def row_key(row):
    """Stable identity of a result row: its string fields, sorted."""
    parts = [f"{k}={v}" for k, v in sorted(row.items())
             if isinstance(v, str)]
    return " ".join(parts)


def collect(rows, metric, merge):
    """Folds row key -> metric value for rows that carry the metric;
    repeated keys (several runs of the same bench) are combined with
    `merge`. Baselines merge with min (a floor over the observed runs,
    not one lucky sample); the gate merges with max (did any run reach
    the floor?) — smoke throughput is noisy even with a small measuring
    budget, and the asymmetry is what keeps a generous threshold
    meaningful."""
    into = {}
    for row in rows:
        value = row.get(metric)
        if isinstance(value, (int, float)) and value > 0:
            key = row_key(row)
            value = float(value)
            into[key] = merge(into[key], value) if key in into else value
    return into


def count_rounds(rows, metric):
    """Row key -> how many rounds observed the gated metric for it."""
    counts = {}
    for row in rows:
        value = row.get(metric)
        if isinstance(value, (int, float)) and value > 0:
            key = row_key(row)
            counts[key] = counts.get(key, 0) + 1
    return counts


def collect_work(rows, merge=max):
    """Row key -> {work metric: count} for the WORK_METRICS each row
    carries; repeated keys keep the `merge` of their observations (equal
    when the counts are deterministic)."""
    into = {}
    for row in rows:
        for metric in WORK_METRICS:
            value = row.get(metric)
            if isinstance(value, int) and not isinstance(value, bool):
                counts = into.setdefault(row_key(row), {})
                counts[metric] = merge(counts.get(metric, value), value)
    return into


def print_trend(rows, gated_metric, baseline_rows, gated_best):
    """Per-metric trend table: every measurement metric the benches
    emitted, how many rows carry it, and its observed spread across
    rounds. The gated metric additionally reports best-vs-baseline
    ratios (`gated_best` is main()'s key -> best map), so a slow drift
    is visible in the log long before it trips the floor-vs-best gate.

    Rows are grouped by their string fields plus their integer fields:
    bench_util.h emits discrete configuration axes and deterministic
    results with Int() and measurements with Num(), so integer fields
    belong to a row's identity (several sweep points may share one
    row_key, distinguished only numerically — e.g. volume_gb) while
    float fields are the per-round observations spread is computed
    over. Because Num()'s %.6g renders integral measurements without a
    decimal point, a field counts as a measurement if it parses as
    float in ANY row. Sweep points distinguished only by *float*
    configs (e.g. rows_cap) still collapse into one group; those groups
    are detected by their above-round observation count and reported as
    mixed instead of pretending the config spread is round-to-round
    noise."""
    float_fields = set()
    for row in rows:
        for name, value in row.items():
            if isinstance(value, float):
                float_fields.add(name)

    def is_config(value):
        return (isinstance(value, int) and not isinstance(value, bool))

    metrics = {}
    for row in rows:
        config = [f"{k}={v}" for k, v in sorted(row.items())
                  if is_config(v) and k not in float_fields]
        key = " ".join([row_key(row)] + config)
        for name, value in row.items():
            if (name in float_fields and not isinstance(value, bool)
                    and isinstance(value, (int, float))):
                metrics.setdefault(name, {}).setdefault(
                    key, []).append(float(value))
    if not metrics:
        print("trend: no numeric metrics in input")
        return

    # The gate relies on the gated metric's rows being uniquely keyed,
    # so its modal observation count IS the number of rounds; any group
    # observed more often than that mixes sweep points that only differ
    # in a float-valued config field.
    counts = sorted(len(vs) for vs in metrics.get(
        gated_metric, {}).values()) or [1]
    rounds = max(set(counts), key=counts.count)

    print(f"per-metric trend (spread across {rounds} round(s)):")
    name_width = max(len(name) for name in metrics)
    for name in sorted(metrics):
        per_key = metrics[name]
        clean = [vs for vs in per_key.values() if len(vs) <= rounds]
        mixed = len(per_key) - len(clean)
        spreads = [max(vs) / min(vs) for vs in clean if min(vs) > 0]
        spread = (f"max spread {max(spreads):.2f}x"
                  if spreads else "spread n/a")
        line = f"  {name:<{name_width}}  {len(per_key):>3} row(s)  {spread}"
        if mixed:
            line += f"  ({mixed} mixed-sweep group(s) skipped)"
        if name == gated_metric and baseline_rows:
            ratios = sorted(
                best / baseline_rows[key]
                for key, best in gated_best.items()
                if key in baseline_rows)
            if ratios:
                median = ratios[len(ratios) // 2]
                line += (f"  vs baseline floor: min {ratios[0]:.2f}x"
                         f" / median {median:.2f}x"
                         f" / max {ratios[-1]:.2f}x")
        print(line)

    # Per-row speedup table for the gated metric: best observation this
    # run vs the checked-in floor, slowest rows first. This is where an
    # optimization PR's claimed row-level speedups are recorded in the
    # CI log (the floor is min-observed x derate at baseline time, so
    # ratios are comparable across runs of one machine, not absolute).
    if baseline_rows:
        pairs = sorted(
            ((best / baseline_rows[key], key, best)
             for key, best in gated_best.items() if key in baseline_rows))
        if pairs:
            print(f"\n{gated_metric} per row, best-of-run vs baseline "
                  "floor:")
            for ratio, key, best in pairs:
                print(f"  {ratio:6.2f}x  {best:>14,.0f}  {key}")
            print()


def main():
    parser = argparse.ArgumentParser(
        description="Gate BENCH_JSON output against bench/baseline.json")
    parser.add_argument("inputs", nargs="+",
                        help="files with BENCH_JSON lines ('-' = stdin)")
    parser.add_argument("--baseline", default="bench/baseline.json",
                        help="checked-in baseline path")
    parser.add_argument("--metric", default="subsets_per_sec",
                        help="throughput metric to gate on")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="max allowed fractional regression (0.25 = "
                             "fail below 75%% of baseline)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from the input instead "
                             "of gating")
    parser.add_argument("--trend", action="store_true",
                        help="print a per-metric trend table before "
                             "gating")
    parser.add_argument("--derate", type=float, default=0.35,
                        help="with --update: store min-observed x this "
                             "factor, so the baseline is a deliberate "
                             "floor with headroom for cross-machine and "
                             "noisy-neighbor variance (observed smoke "
                             "swings reach 2-3x between time windows)")
    args = parser.parse_args()

    all_rows = []
    for path in args.inputs:
        if path == "-":
            all_rows.extend(parse_rows(sys.stdin))
        else:
            with open(path, encoding="utf-8") as handle:
                all_rows.extend(parse_rows(handle))
    merge = min if args.update else max
    current = collect(all_rows, args.metric, merge)
    if not current:
        raise SystemExit(
            f"no BENCH_JSON rows with metric '{args.metric}' in input")

    if args.update:
        if not 0.0 < args.derate <= 1.0:
            raise SystemExit("--derate must be in (0, 1]")
        derated = {key: value * args.derate
                   for key, value in current.items()}
        baseline = {"metric": args.metric,
                    "derate": args.derate,
                    "rows": dict(sorted(derated.items())),
                    "work_rows": dict(sorted(
                        collect_work(all_rows).items()))}
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {len(current)} rows to {args.baseline}")
        return 0

    with open(args.baseline, encoding="utf-8") as handle:
        baseline = json.load(handle)
    if baseline.get("metric") != args.metric:
        raise SystemExit(
            f"metric '{args.metric}' missing from baseline (it gates "
            f"'{baseline.get('metric')}') — regenerate "
            f"{args.baseline} with --update --metric {args.metric}")
    rows = baseline.get("rows")
    if not isinstance(rows, dict) or not rows:
        raise SystemExit(
            f"no rows for metric '{args.metric}' in the baseline — "
            f"regenerate {args.baseline} with --update")

    if args.trend:
        print_trend(all_rows, args.metric, rows, current)

    failures, missing = [], []
    floor = 1.0 - args.threshold
    rounds = count_rounds(all_rows, args.metric)
    for key, base_value in sorted(rows.items()):
        if key not in current:
            missing.append(key)
            continue
        value = current[key]
        if value < base_value * floor:
            failures.append(
                f"  {key}\n    {args.metric}: {value:,.0f} < "
                f"{floor:.0%} of baseline {base_value:,.0f} "
                f"({value / base_value:.0%}; best of {rounds[key]} "
                "round(s))")
    # The floor is gated against the best of CI's rounds; one wall-clock
    # round can read far below it on an unchanged path (a single
    # `bench_serving` async_sessions round was seen at 62%).
    fewest = min(rounds.values())
    if fewest < CI_ROUNDS:
        print(f"WARNING: some rows were observed in only {fewest} "
              f"round(s), fewer than CI's {CI_ROUNDS}; a throughput "
              "failure below may be noise — rerun with more rounds "
              "before reading it as a regression")
    work_rows = baseline.get("work_rows", {})
    # Every round must read the baseline: gate the lowest and the highest
    # observation of each count.
    lowest, highest = collect_work(all_rows, min), collect_work(all_rows)
    for key, base_counts in sorted(work_rows.items()):
        for metric, base_value in sorted(base_counts.items()):
            low = lowest.get(key, {}).get(metric)
            value = highest.get(key, {}).get(metric)
            if value is None:
                missing.append(f"{key} ({metric})")
            elif low != base_value or value != base_value:
                seen = low if low != base_value else value
                failures.append(
                    f"  {key}\n    {metric}: {seen:,} != baseline "
                    f"{base_value:,} (exact gate: regenerate the baseline "
                    "and explain the change in CHANGES.md)")
    # New rows are warned about in one consolidated block, not failed:
    # a fresh bench must be able to land before its baseline, but an
    # unlisted row is ungated, and a gate that silently ignores it
    # would read as coverage it doesn't have.
    new_rows = sorted(set(current) - set(rows))
    if new_rows:
        print(f"WARNING: {len(new_rows)} row(s) in the output have no "
              "baseline and are NOT gated — regenerate "
              f"{args.baseline} with --update to cover them:")
        for key in new_rows:
            print(f"  {key}")

    if missing:
        print(f"FAIL: {len(missing)} baseline row(s) missing from output "
              "(regenerate bench/baseline.json if intentional):")
        for key in missing:
            print(f"  {key}")
    if failures:
        print(f"FAIL: {len(failures)} row(s) regressed more than "
              f"{args.threshold:.0%} on {args.metric} or moved "
              f"{' or '.join(WORK_METRICS)}:")
        for failure in failures:
            print(failure)
    if missing or failures:
        return 1
    print(f"OK: {len(rows)} baseline rows within {args.threshold:.0%} "
          f"of {args.metric} baseline; {len(work_rows)} row(s) exactly "
          f"at their {' / '.join(WORK_METRICS)} baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
