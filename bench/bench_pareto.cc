// Multi-objective strategy benchmark: the two frontier solvers
// ("pareto-sweep", "pareto-genetic") on the paper's sales instance —
// wall time per frontier solve, frontier size, probe throughput and the
// deterministic evaluation count (probes a fresh cache did not answer,
// gated exactly by bench/check_regression.py) — plus a second frontier
// on a warm cache, whose solved-task and evaluation counts are gated
// exactly too. Rows are emitted in the
// bench_util.h BENCH_JSON format for the perf trajectory and the CI
// regression gate.

#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/table_printer.h"
#include "core/optimizer/candidate_generation.h"
#include "core/optimizer/pareto.h"
#include "core/optimizer/solver.h"
#include "engine/sales_generator.h"
#include "pricing/providers.h"
#include "workload/workload.h"

using namespace cloudview;
using bench::JsonLine;
using bench::Unwrap;

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// One self-owning evaluation substrate (see bench_solvers.cc).
struct Instance {
  std::unique_ptr<CubeLattice> lattice;
  std::unique_ptr<MapReduceSimulator> simulator;
  std::unique_ptr<PricingModel> pricing;
  std::unique_ptr<CloudCostModel> cost_model;
  ClusterSpec cluster;
  Workload workload;
  DeploymentSpec deployment;
  std::unique_ptr<SelectionEvaluator> evaluator;
};

Instance MakeSalesInstance(size_t workload_size, size_t max_candidates) {
  Instance inst;
  SalesConfig config;
  config.logical_size = DataSize::FromGB(10);
  inst.lattice = std::make_unique<CubeLattice>(
      Unwrap(CubeLattice::Build(Unwrap(MakeSalesSchema(config), "schema")),
             "lattice"));
  MapReduceParams params;
  params.job_startup = Duration::FromSeconds(45);
  params.map_throughput_per_unit = DataSize::FromBytes(2'100 * 1024);
  inst.simulator =
      std::make_unique<MapReduceSimulator>(*inst.lattice, params);
  inst.pricing = std::make_unique<PricingModel>(
      ProviderRegistry::Global().Model("aws-2012")->WithComputeGranularity(
          BillingGranularity::kSecond));
  inst.cost_model = std::make_unique<CloudCostModel>(*inst.pricing);
  inst.cluster =
      ClusterSpec{Unwrap(inst.pricing->instances().Find("small"), "type"),
                  5};
  inst.workload = Unwrap(MakePaperWorkload(*inst.lattice), "workload")
                      .Prefix(workload_size);

  inst.deployment.instance = inst.cluster.instance;
  inst.deployment.nb_instances = inst.cluster.nodes;
  inst.deployment.storage_period = Months::FromMilli(4);
  inst.deployment.base_storage =
      StorageTimeline(inst.lattice->fact_scan_size());
  inst.deployment.maintenance_cycles = 0;

  CandidateGenOptions options;
  options.max_candidates = max_candidates;
  options.max_rows_fraction = 0.05;
  inst.evaluator = std::make_unique<SelectionEvaluator>(Unwrap(
      SelectionEvaluator::Create(
          *inst.lattice, inst.workload, *inst.simulator, inst.cluster,
          *inst.cost_model, inst.deployment,
          Unwrap(GenerateCandidates(*inst.lattice, inst.workload,
                                    *inst.simulator, inst.cluster,
                                    options),
                 "candidates")),
      "evaluator"));
  return inst;
}

ObjectiveSpec BudgetSpec() {
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.5;
  spec.max_monthly_cost = Money::FromDollars(400);
  return spec;
}

struct Measured {
  SelectionResult result;
  double wall_ms_per_solve = 0.0;
  double subsets_per_sec = 0.0;
  /// Exact plus incremental probes of one solve (cache misses) — the
  /// same in every repetition.
  uint64_t evaluations = 0;
};

// Times repeated fresh frontier solves (fresh memo per repetition).
Measured MeasureFrontier(const Solver& solver, const Instance& inst,
                         const ObjectiveSpec& spec) {
  Measured out;
  uint64_t scored = 0;
  int reps = 0;
  auto start = std::chrono::steady_clock::now();
  do {
    EvaluationCache cache;
    SolverContext context(*inst.evaluator, spec, &cache);
    out.result = Unwrap(solver.Solve(spec, context), "solve");
    scored += context.counters().subsets_scored();
    out.evaluations = context.counters().full_evaluations +
                      context.counters().incremental_probes;
    ++reps;
  } while (MillisSince(start) < bench::MeasureBudgetMs(400.0) &&
           reps < 20);
  double total_ms = MillisSince(start);
  out.wall_ms_per_solve = total_ms / reps;
  out.subsets_per_sec = 1000.0 * static_cast<double>(scored) / total_ms;
  return out;
}

// --- Part 1: the two frontier strategies head to head -----------------------

void PrintFrontierComparison() {
  Instance inst = MakeSalesInstance(/*workload_size=*/10,
                                    /*max_candidates=*/12);
  ObjectiveSpec spec = BudgetSpec();
  std::cout << "Instance: " << inst.workload.size() << " queries, "
            << inst.evaluator->num_candidates()
            << " candidates, budget " << spec.max_monthly_cost
            << "/month\n\n";

  TablePrinter table({"solver", "frontier points", "wall/solve",
                      "subsets/sec", "evaluations"});
  table.SetTitle("Multi-objective strategies on the paper workload");
  for (const char* name : {"pareto-sweep", "pareto-genetic"}) {
    const Solver& solver =
        *Unwrap(SolverRegistry::Global().Find(name), name);
    Measured m = MeasureFrontier(solver, inst, spec);
    table.AddRow({name, std::to_string(m.result.frontier.size()),
                  StrFormat("%.2f ms", m.wall_ms_per_solve),
                  StrFormat("%.0f", m.subsets_per_sec),
                  std::to_string(m.evaluations)});
    JsonLine("pareto")
        .Str("solver", name)
        .Num("wall_ms_per_solve", m.wall_ms_per_solve)
        .Num("subsets_per_sec", m.subsets_per_sec)
        .Int("frontier_points",
             static_cast<int64_t>(m.result.frontier.size()))
        .Int("evaluations", static_cast<int64_t>(m.evaluations))
        .Emit();
  }
  table.Print(std::cout);
  std::cout << "\n";
}

// --- Part 2: a warm repeat on the same cache ---------------------------------

// A session's second frontier at another alpha: the roster tasks'
// picks come from the cache's pick memo, so only the anchors (which run
// on the caller's spec) are solved again. Both counts are deterministic
// and gated exactly.
void PrintWarmRepeat() {
  Instance inst = MakeSalesInstance(/*workload_size=*/10,
                                    /*max_candidates=*/12);
  const Solver& sweep =
      *Unwrap(SolverRegistry::Global().Find("pareto-sweep"), "sweep");
  ObjectiveSpec first_spec = BudgetSpec();
  ObjectiveSpec second_spec = BudgetSpec();
  second_spec.alpha = 0.25;
  EvaluationCache cache;
  SolverContext first(*inst.evaluator, first_spec, &cache);
  Unwrap(sweep.Solve(first_spec, first), "cold solve");
  SolverContext second(*inst.evaluator, second_spec, &cache);
  Unwrap(sweep.Solve(second_spec, second), "warm solve");

  auto evaluations = [](const SolverContext& context) {
    return context.counters().full_evaluations +
           context.counters().incremental_probes;
  };
  TablePrinter table({"frontier", "tasks solved", "evaluations"});
  table.SetTitle("pareto-sweep twice on one cache (alpha 0.5, then 0.25)");
  table.AddRow({"cold", std::to_string(first.counters().fresh_tasks),
                std::to_string(evaluations(first))});
  table.AddRow({"warm repeat", std::to_string(second.counters().fresh_tasks),
                std::to_string(evaluations(second))});
  table.Print(std::cout);
  std::cout << "\n";
  JsonLine("pareto")
      .Str("solver", "pareto-sweep")
      .Str("sweep", "warm_repeat")
      .Int("evaluations", static_cast<int64_t>(evaluations(second)))
      .Int("fresh_tasks", static_cast<int64_t>(second.counters().fresh_tasks))
      .Emit();
}

// --- Microbenchmark: ParetoFront insertion ----------------------------------

void BM_ParetoFrontInsert(benchmark::State& state) {
  // A worst-case-ish stream: many mutually non-dominated points (anti-
  // correlated cost/time), interleaved with dominated ones.
  std::vector<ParetoPoint> stream;
  for (int64_t i = 0; i < 256; ++i) {
    ParetoPoint point;
    point.score.monthly_cost = Money::FromCents(100 + i);
    point.score.time = Duration::FromMillis(100'000 - 300 * i);
    point.score.storage = DataSize::FromKB(64 + (i % 7));
    point.selected = {static_cast<size_t>(i)};
    stream.push_back(std::move(point));
  }
  for (auto _ : state) {
    ParetoFront front(1e-9);
    for (const ParetoPoint& point : stream) front.Insert(point);
    benchmark::DoNotOptimize(front.size());
  }
}
BENCHMARK(BM_ParetoFrontInsert);

}  // namespace

int main(int argc, char** argv) {
  bench::ParseSmoke(argc, argv);
  PrintFrontierComparison();
  PrintWarmRepeat();
  bench::RunMicrobenchmarks(argc, argv);
  return 0;
}
