// Temporal planning bench: re-selection policies over a drifting SSB
// year — 12-month total cost and wall time per policy, the cost of one
// planner walk as the horizon grows, the work the policy comparison's
// winner memo saves per solver, and the warm-start ablation the
// temporal layer exists for (seeding each period's SubsetState from the
// previous selection vs pricing every carried period with a cold
// Evaluate). Rows are emitted in the bench_util.h BENCH_JSON format.

#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "common/table_printer.h"
#include "core/optimizer/temporal_planner.h"
#include "pricing/provider_registry.h"
#include "workload/ssb.h"
#include "workload/timeline.h"

using namespace cloudview;
using bench::JsonLine;
using bench::Unwrap;

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct Instance {
  std::unique_ptr<CubeLattice> lattice;
  std::unique_ptr<MapReduceSimulator> simulator;
  std::unique_ptr<PricingModel> pricing;
  std::unique_ptr<CloudCostModel> cost_model;
  ClusterSpec cluster;
};

Instance MakeInstance() {
  Instance inst;
  inst.lattice = std::make_unique<CubeLattice>(Unwrap(
      CubeLattice::Build(Unwrap(MakeSsbSchema(SsbConfig{}), "schema")),
      "lattice"));
  inst.simulator = std::make_unique<MapReduceSimulator>(
      *inst.lattice, MapReduceParams{});
  inst.pricing = std::make_unique<PricingModel>(
      Unwrap(ProviderRegistry::Global().Model("aws-2012"), "provider")
          .WithComputeGranularity(BillingGranularity::kSecond));
  inst.cost_model = std::make_unique<CloudCostModel>(*inst.pricing);
  inst.cluster = ClusterSpec{
      Unwrap(inst.pricing->instances().Find("small"), "type"), 5};
  return inst;
}

WorkloadTimeline MakeTimeline(const Instance& inst, size_t periods) {
  Workload ssb = Unwrap(MakeSsbWorkload(*inst.lattice), "workload");
  std::vector<QuerySpec> mix = ssb.queries();
  for (QuerySpec& q : mix) q.frequency = 30;
  std::vector<std::unique_ptr<DriftModel>> drift;
  drift.push_back(std::make_unique<FrequencyDecayDrift>(0.95));
  drift.push_back(std::make_unique<QueryChurnDrift>(0.35));
  drift.push_back(std::make_unique<SeasonalSpikeDrift>(6, 5, 1.0));
  drift.push_back(std::make_unique<DatasetGrowthDrift>(0.03));
  TimelineOptions options;
  options.num_periods = periods;
  options.seed = 17;
  return Unwrap(WorkloadTimeline::Generate(*inst.lattice,
                                           Workload(std::move(mix)),
                                           std::move(drift), options),
                "timeline");
}

TemporalPlanner MakePlanner(const Instance& inst,
                            const WorkloadTimeline& timeline) {
  CandidateGenOptions candidates;
  candidates.max_candidates = 20;
  candidates.max_rows_fraction = 0.10;
  return Unwrap(TemporalPlanner::Create(*inst.lattice, *inst.simulator,
                                        inst.cluster, *inst.cost_model,
                                        timeline, candidates,
                                        /*maintenance_cycles=*/4),
                "planner");
}

ObjectiveSpec Mv3Spec() {
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.5;
  return spec;
}

// --- Part 1: policy comparison on the drifting year --------------------------

void PrintPolicyComparison() {
  Instance inst = MakeInstance();
  WorkloadTimeline timeline = MakeTimeline(inst, 12);
  TemporalPlanner planner = MakePlanner(inst, timeline);
  ObjectiveSpec spec = Mv3Spec();

  const std::vector<ReselectPolicy> policies = {
      ReselectPolicy::Static(), ReselectPolicy::EveryK(1),
      ReselectPolicy::EveryK(3), ReselectPolicy::OnDrift(0.1),
      ReselectPolicy::OnDrift(0.25), ReselectPolicy::OnDrift(0.5)};

  TablePrinter table({"policy", "solver runs", "views built",
                      "total cost", "vs static", "wall/walk"});
  table.SetTitle(
      "Re-selection policies over a drifting 12-month SSB year");
  Money static_total;
  for (const ReselectPolicy& policy : policies) {
    int reps = 0;
    TemporalRunResult run;
    auto start = std::chrono::steady_clock::now();
    do {
      run = Unwrap(planner.Run(spec, policy), "run");
      ++reps;
    } while (MillisSince(start) < bench::MeasureBudgetMs(50.0) &&
             reps < 20);
    double wall_ms = MillisSince(start) / reps;

    if (policy.kind == ReselectPolicy::Kind::kStatic) {
      static_total = run.total.total();
    }
    size_t built = 0;
    for (const TemporalPeriodRow& row : run.ledger) {
      built += row.views_added;
    }
    double saving =
        1.0 - static_cast<double>(run.total.total().micros()) /
                  static_cast<double>(static_total.micros());
    table.AddRow({run.policy.Name(),
                  std::to_string(run.solver_runs),
                  std::to_string(built), run.total.total().ToString(),
                  bench::Pct(saving), StrFormat("%.2f ms", wall_ms)});
    JsonLine("temporal")
        .Str("policy", run.policy.Name())
        .Int("periods", static_cast<int64_t>(run.ledger.size()))
        .Int("solver_runs", static_cast<int64_t>(run.solver_runs))
        .Int("views_built", static_cast<int64_t>(built))
        .Num("total_cost_dollars", run.total.total().dollars())
        .Num("saving_vs_static", saving)
        .Num("wall_ms_per_walk", wall_ms)
        .Emit();
  }
  table.Print(std::cout);
  std::cout << "\n";
}

// --- Part 2: horizon scaling -------------------------------------------------

void PrintHorizonScaling() {
  Instance inst = MakeInstance();
  ObjectiveSpec spec = Mv3Spec();
  TablePrinter table({"periods", "wall/walk", "periods/sec"});
  table.SetTitle("Planner walk cost vs horizon length (drift-0.25)");
  for (size_t periods : {6, 12, 24, 48}) {
    WorkloadTimeline timeline =
        MakeTimeline(inst, bench::SmokeMode() ? 3 : periods);
    TemporalPlanner planner = MakePlanner(inst, timeline);
    int reps = 0;
    auto start = std::chrono::steady_clock::now();
    do {
      Unwrap(planner.Run(spec, ReselectPolicy::OnDrift(0.25)), "run");
      ++reps;
    } while (MillisSince(start) < bench::MeasureBudgetMs(50.0) &&
             reps < 20);
    double wall_ms = MillisSince(start) / reps;
    double per_sec =
        1000.0 * static_cast<double>(timeline.num_periods()) / wall_ms;
    table.AddRow({std::to_string(timeline.num_periods()),
                  StrFormat("%.2f ms", wall_ms),
                  StrFormat("%.0f", per_sec)});
    JsonLine("temporal")
        .Str("sweep", "horizon")
        .Int("periods", static_cast<int64_t>(timeline.num_periods()))
        .Num("wall_ms_per_walk", wall_ms)
        .Num("periods_per_sec", per_sec)
        .Emit();
    if (bench::SmokeMode()) break;
  }
  table.Print(std::cout);
  std::cout << "\n";
}

// --- Part 3: the policy comparison's winner memo -----------------------------

// True when two walks agree on every figure the ledger reports.
bool SameWalk(const TemporalRunResult& a, const TemporalRunResult& b) {
  if (a.solver_runs != b.solver_runs || a.warm_periods != b.warm_periods ||
      a.total.total() != b.total.total() ||
      a.ledger.size() != b.ledger.size()) {
    return false;
  }
  for (size_t p = 0; p < a.ledger.size(); ++p) {
    const TemporalPeriodRow& x = a.ledger[p];
    const TemporalPeriodRow& y = b.ledger[p];
    if (x.selected != y.selected || x.reselected != y.reselected ||
        x.drift != y.drift || x.views_added != y.views_added ||
        x.views_dropped != y.views_dropped ||
        x.cost.total() != y.cost.total() ||
        x.processing_time != y.processing_time) {
      return false;
    }
  }
  return true;
}

// ComparePolicies walks its policies one after another and memoizes
// each re-selection's winner by (period, carried selection). One row per
// solver's 6-policy comparison: the re-selections (solver_runs), the
// solves actually run (fresh_solves, gated exactly), the ones the memo
// answered, and the wall time of planner build plus comparison. Every
// row must equal standalone Run() walks.
void PrintMemoSweep() {
  Instance inst = MakeInstance();
  WorkloadTimeline timeline = MakeTimeline(inst, 12);
  ObjectiveSpec spec = Mv3Spec();
  const std::vector<ReselectPolicy> policies = {
      ReselectPolicy::Static(), ReselectPolicy::EveryK(1),
      ReselectPolicy::EveryK(3), ReselectPolicy::OnDrift(0.1),
      ReselectPolicy::OnDrift(0.25), ReselectPolicy::OnDrift(0.5)};

  TablePrinter table({"solver", "solver runs", "fresh solves",
                      "memo hits", "wall/compare"});
  table.SetTitle(
      "Planner create + 6-policy comparison, one memo (12 periods)");
  bool identical = true;
  for (const char* solver : {"knapsack-dp", "greedy", "local-search",
                             "branch-and-bound", "annealing"}) {
    int reps = 0;
    std::vector<TemporalRunResult> runs;
    auto start = std::chrono::steady_clock::now();
    do {
      TemporalPlanner planner = MakePlanner(inst, timeline);
      runs = Unwrap(planner.ComparePolicies(spec, policies, solver),
                    "compare");
      ++reps;
    } while (MillisSince(start) < bench::MeasureBudgetMs(200.0) &&
             reps < 10);
    double wall_ms = MillisSince(start) / reps;

    TemporalPlanner planner = MakePlanner(inst, timeline);
    uint64_t solver_runs = 0;
    uint64_t fresh_solves = 0;
    for (size_t i = 0; i < policies.size(); ++i) {
      identical = identical &&
                  SameWalk(runs[i], Unwrap(planner.Run(spec, policies[i],
                                                       solver),
                                           "run"));
      solver_runs += runs[i].solver_runs;
      fresh_solves += runs[i].fresh_solves;
    }
    uint64_t memo_hits = solver_runs - fresh_solves;
    table.AddRow({solver, std::to_string(solver_runs),
                  std::to_string(fresh_solves), std::to_string(memo_hits),
                  StrFormat("%.2f ms", wall_ms)});
    JsonLine("temporal")
        .Str("sweep", "compare")
        .Str("solver", solver)
        .Int("policies", static_cast<int64_t>(policies.size()))
        .Int("solver_runs", static_cast<int64_t>(solver_runs))
        .Int("fresh_solves", static_cast<int64_t>(fresh_solves))
        .Int("memo_hits", static_cast<int64_t>(memo_hits))
        .Num("wall_ms_per_compare", wall_ms)
        .Emit();
  }
  table.Print(std::cout);
  std::cout << "Comparison rows equal standalone walks: "
            << (identical ? "yes" : "NO") << "\n\n";
  if (!identical) {
    std::fprintf(stderr,
                 "memoized policy comparison diverged from Run()\n");
    std::exit(1);
  }
}

// --- Microbenchmark: warm start vs cold Evaluate per carried period ----------

void BM_WarmStartPeriodPricing(benchmark::State& state) {
  static Instance* inst = new Instance(MakeInstance());
  static WorkloadTimeline* timeline =
      new WorkloadTimeline(MakeTimeline(*inst, 12));
  static TemporalPlanner* planner =
      new TemporalPlanner(MakePlanner(*inst, *timeline));
  ObjectiveSpec spec = Mv3Spec();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        planner->Run(spec, ReselectPolicy::Static())
            .value()
            .total.total()
            .micros());
  }
}
BENCHMARK(BM_WarmStartPeriodPricing);

}  // namespace

int main(int argc, char** argv) {
  bench::ParseSmoke(argc, argv);
  PrintPolicyComparison();
  PrintHorizonScaling();
  PrintMemoSweep();
  bench::RunMicrobenchmarks(argc, argv);
  return 0;
}
