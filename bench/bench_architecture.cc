// Architecture-layer benchmark: roster lowering throughput, the
// CloneWithArchitecture per-architecture handoff cost, and the joint
// "arch-sweep" solve on the paper's sales instance — wall time, probe
// throughput and the deterministic evaluation count (probes a fresh
// cache did not answer, gated exactly by bench/check_regression.py).
// Rows are emitted in the bench_util.h BENCH_JSON format for the perf
// trajectory and the CI regression gate.

#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "catalog/architecture.h"
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
  inst.deployment.ingress.initial_dataset =
      inst.lattice->fact_scan_size();
  inst.deployment.maintenance_cycles = 2;

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

ObjectiveSpec TradeoffSpec() {
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.5;
  return spec;
}

struct Measured {
  SelectionResult result;
  double wall_ms_per_solve = 0.0;
  double subsets_per_sec = 0.0;
  /// Probes one solve evaluated: full evaluations plus incremental
  /// probes, summed over every architecture.
  uint64_t evaluations = 0;
};

// Times repeated joint solves. The per-architecture solves run
// uncached, so every repetition does the same work.
Measured MeasureJoint(const Instance& inst, const ObjectiveSpec& spec) {
  const Solver& sweep = *Unwrap(
      SolverRegistry::Global().Find("arch-sweep"), "arch-sweep");
  Measured out;
  uint64_t scored = 0;
  int reps = 0;
  auto start = std::chrono::steady_clock::now();
  do {
    SolverContext context(*inst.evaluator, spec);
    out.result = Unwrap(sweep.Solve(spec, context), "solve");
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

// --- Part 1: lowering + clone handoff throughput ----------------------------

void PrintLoweringThroughput() {
  Instance inst = MakeSalesInstance(/*workload_size=*/10,
                                    /*max_candidates=*/12);
  std::vector<ArchitectureSpec> roster = DefaultArchitectureRoster();

  // Roster lowering: the pure-arithmetic spec -> model resolution the
  // sweep runs up front on every solve.
  uint64_t lowers = 0;
  auto start = std::chrono::steady_clock::now();
  do {
    for (const ArchitectureSpec& spec : roster) {
      Result<ArchitectureModel> model =
          spec.Lower(*inst.pricing, inst.cluster.instance);
      if (model.ok()) benchmark::DoNotOptimize(model.value().compute_num);
      ++lowers;
    }
  } while (MillisSince(start) < bench::MeasureBudgetMs(150.0));
  double lower_ms = MillisSince(start);
  double lowers_per_sec = 1000.0 * static_cast<double>(lowers) / lower_ms;

  // Handoff: what arch-sweep pays per architecture before solving —
  // timing tables shared, baseline re-billed under the new fleet.
  ArchitectureModel spot =
      Unwrap(roster[2].Lower(*inst.pricing, inst.cluster.instance),
             "spot lower");
  uint64_t clones = 0;
  start = std::chrono::steady_clock::now();
  do {
    SelectionEvaluator clone = Unwrap(
        inst.evaluator->CloneWithArchitecture(spot), "clone");
    benchmark::DoNotOptimize(clone.baseline().cost.total().micros());
    ++clones;
  } while (MillisSince(start) < bench::MeasureBudgetMs(150.0));
  double clone_ms = MillisSince(start);
  double clones_per_sec = 1000.0 * static_cast<double>(clones) / clone_ms;

  TablePrinter table({"operation", "throughput"});
  table.SetTitle("Architecture layer primitives");
  table.AddRow({"spec -> model lowering",
                StrFormat("%.0f /sec", lowers_per_sec)});
  table.AddRow({"CloneWithArchitecture handoff",
                StrFormat("%.0f /sec", clones_per_sec)});
  table.Print(std::cout);
  std::cout << "\n";

  JsonLine("architecture")
      .Str("name", "lowering")
      .Num("lowers_per_sec", lowers_per_sec)
      .Num("clones_per_sec", clones_per_sec)
      .Emit();
}

// --- Part 2: the joint solve ------------------------------------------------

void PrintJointSolve() {
  Instance inst = MakeSalesInstance(/*workload_size=*/10,
                                    /*max_candidates=*/12);
  ObjectiveSpec spec = TradeoffSpec();
  Measured m = MeasureJoint(inst, spec);

  TablePrinter table({"wall/solve", "subsets/sec", "evaluations",
                      "frontier points", "winner"});
  table.SetTitle("arch-sweep joint solve");
  table.AddRow({StrFormat("%.2f ms", m.wall_ms_per_solve),
                StrFormat("%.0f", m.subsets_per_sec),
                std::to_string(m.evaluations),
                std::to_string(m.result.frontier.size()),
                m.result.architecture});
  table.Print(std::cout);
  std::cout << "\n";

  JsonLine("architecture")
      .Str("name", "joint_solve")
      .Num("wall_ms_per_solve", m.wall_ms_per_solve)
      .Num("subsets_per_sec", m.subsets_per_sec)
      .Int("frontier_points",
           static_cast<int64_t>(m.result.frontier.size()))
      .Int("evaluations", static_cast<int64_t>(m.evaluations))
      .Emit();
}

// --- Microbenchmark: the non-identity fast cost path ------------------------

void BM_FastTotalCostSpot(benchmark::State& state) {
  static Instance inst = MakeSalesInstance(/*workload_size=*/10,
                                           /*max_candidates=*/12);
  static SelectionEvaluator spot = Unwrap(
      inst.evaluator->CloneWithArchitecture(Unwrap(
          DefaultArchitectureRoster()[2].Lower(*inst.pricing,
                                               inst.cluster.instance),
          "lower")),
      "clone");
  SubsetState subset(spot);
  subset.Add(0);
  subset.Add(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(spot.FastTotalCost(subset).micros());
  }
}
BENCHMARK(BM_FastTotalCostSpot);

}  // namespace

int main(int argc, char** argv) {
  bench::ParseSmoke(argc, argv);
  PrintLoweringThroughput();
  PrintJointSolve();
  bench::RunMicrobenchmarks(argc, argv);
  return 0;
}
