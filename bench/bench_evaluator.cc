// Evaluator hot-path microbench: the per-op costs underneath every
// solver row in bench_solvers — single read-only probes, committed
// toggles, context probes with and without a memo, and the from-scratch
// Evaluate() they all shortcut (DESIGN.md §11).
// Rows are emitted in the bench_util.h BENCH_JSON format with the same
// gated metric (subsets_per_sec) as the solver rows, so the CI
// regression gate covers the evaluation layer directly: a solver row
// can hide an evaluator regression behind solver-side wins, these rows
// cannot.

#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/table_printer.h"
#include "core/optimizer/candidate_generation.h"
#include "core/optimizer/solver.h"
#include "engine/sales_generator.h"
#include "pricing/providers.h"
#include "workload/ssb.h"
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

// One self-owning evaluation substrate (the evaluator borrows the
// lattice, simulator and cost model, so they live here together).
struct Instance {
  std::string label;
  std::unique_ptr<CubeLattice> lattice;
  std::unique_ptr<MapReduceSimulator> simulator;
  std::unique_ptr<PricingModel> pricing;
  std::unique_ptr<CloudCostModel> cost_model;
  ClusterSpec cluster;
  Workload workload;
  DeploymentSpec deployment;
  std::unique_ptr<SelectionEvaluator> evaluator;
};

// The gate instance bench_solvers' rows run on: the paper's sales cube.
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
  inst.label = "sales/" + std::to_string(inst.workload.size()) + "q/" +
               std::to_string(inst.evaluator->num_candidates()) + "c";
  return inst;
}

// A wider SSB mix: 39 queries, so every probe streams a column about
// four times longer than the sales instance's.
Instance MakeSsbInstance(size_t max_candidates, int workload_repeats) {
  Instance inst;
  SsbConfig config;
  inst.lattice = std::make_unique<CubeLattice>(Unwrap(
      CubeLattice::Build(Unwrap(MakeSsbSchema(config), "schema")),
      "lattice"));
  inst.simulator = std::make_unique<MapReduceSimulator>(
      *inst.lattice, MapReduceParams{});
  inst.pricing = std::make_unique<PricingModel>(
      ProviderRegistry::Global().Model("aws-2012")->WithComputeGranularity(
          BillingGranularity::kSecond));
  inst.cost_model = std::make_unique<CloudCostModel>(*inst.pricing);
  inst.cluster =
      ClusterSpec{Unwrap(inst.pricing->instances().Find("small"), "type"),
                  5};
  Workload ssb = Unwrap(MakeSsbWorkload(*inst.lattice), "workload");
  std::vector<QuerySpec> mix;
  for (int r = 0; r < workload_repeats; ++r) {
    for (QuerySpec query : ssb.queries()) {
      query.frequency = static_cast<uint64_t>(r + 1);
      mix.push_back(std::move(query));
    }
  }
  inst.workload = Workload(std::move(mix));

  inst.deployment.instance = inst.cluster.instance;
  inst.deployment.nb_instances = inst.cluster.nodes;
  inst.deployment.storage_period = Months::FromMilli(3);
  inst.deployment.base_storage =
      StorageTimeline(inst.lattice->fact_scan_size());
  inst.deployment.maintenance_cycles = 0;

  CandidateGenOptions options;
  options.max_candidates = max_candidates;
  options.max_rows_fraction = 0.10;
  inst.evaluator = std::make_unique<SelectionEvaluator>(Unwrap(
      SelectionEvaluator::Create(
          *inst.lattice, inst.workload, *inst.simulator, inst.cluster,
          *inst.cost_model, inst.deployment,
          Unwrap(GenerateCandidates(*inst.lattice, inst.workload,
                                    *inst.simulator, inst.cluster,
                                    options),
                 "candidates")),
      "evaluator"));
  inst.label = "ssb/" + std::to_string(inst.workload.size()) + "q/" +
               std::to_string(inst.evaluator->num_candidates()) + "c";
  return inst;
}

struct OpResult {
  double ops_per_sec = 0.0;
  double ns_per_op = 0.0;
  // Folded so the measured loops cannot be optimized away.
  int64_t checksum = 0;
};

// Repeats `body(round)` until the measuring budget is spent; `body`
// returns (ops run, checksum contribution).
template <typename Body>
OpResult MeasureOp(Body&& body) {
  OpResult out;
  uint64_t ops = 0;
  uint64_t round = 0;
  auto start = std::chrono::steady_clock::now();
  do {
    auto [n, sum] = body(round++);
    ops += n;
    out.checksum += sum;
  } while (MillisSince(start) < bench::MeasureBudgetMs(100.0));
  double total_ms = MillisSince(start);
  out.ops_per_sec = 1000.0 * static_cast<double>(ops) / total_ms;
  out.ns_per_op = 1e6 * total_ms / static_cast<double>(ops);
  return out;
}

struct Row {
  const char* op;
  OpResult result;
};

// A mid-density roster the probe loops toggle around: every third
// candidate selected, matching the subset sizes the solvers traverse.
SubsetState MakeRoster(const SelectionEvaluator& evaluator) {
  SubsetState state(evaluator);
  for (size_t c = 0; c < evaluator.num_candidates(); c += 3) {
    state.Add(c);
  }
  return state;
}

std::vector<Row> RunOps(const Instance& inst) {
  const SelectionEvaluator& evaluator = *inst.evaluator;
  size_t n = evaluator.num_candidates();
  std::vector<Row> rows;

  // Single read-only probes, striding the whole neighborhood.
  {
    SubsetState state = MakeRoster(evaluator);
    rows.push_back({"peek_toggle", MeasureOp([&](uint64_t) {
      int64_t sum = 0;
      for (size_t c = 0; c < n; ++c) {
        sum += state.PeekToggle(c).processing.millis();
      }
      return std::pair<uint64_t, int64_t>(n, sum);
    })});
  }

  // Committed moves: every op is one Toggle (walking the candidate list
  // keeps the subset density stable over rounds).
  {
    SubsetState state = MakeRoster(evaluator);
    rows.push_back({"toggle_commit", MeasureOp([&](uint64_t) {
      int64_t sum = 0;
      for (size_t c = 0; c < n; ++c) {
        state.Toggle(c);
        sum += state.processing_time().millis();
      }
      return std::pair<uint64_t, int64_t>(n, sum);
    })});
  }

  // The full context probe on a warm memo: hash-first cache hits, the
  // steady state of a converged neighborhood scan.
  {
    SubsetState state = MakeRoster(evaluator);
    ObjectiveSpec spec;
    spec.scenario = Scenario::kMV3Tradeoff;
    spec.alpha = 0.5;
    EvaluationCache cache;
    SolverContext context(evaluator, spec, &cache);
    rows.push_back({"context_probe_cached", MeasureOp([&](uint64_t) {
      int64_t sum = 0;
      for (size_t c = 0; c < n; ++c) {
        sum += context.ProbeToggle(state, c).cost.micros();
      }
      return std::pair<uint64_t, int64_t>(n, sum);
    })});
  }

  // The same context probe with no cache: every probe re-scores the
  // toggled subset and bills it, the path sessionless solves, period
  // clones and arch-sweep's architectures run.
  {
    SubsetState state = MakeRoster(evaluator);
    ObjectiveSpec spec;
    spec.scenario = Scenario::kMV3Tradeoff;
    spec.alpha = 0.5;
    SolverContext context(evaluator, spec);
    rows.push_back({"context_probe_uncached", MeasureOp([&](uint64_t) {
      int64_t sum = 0;
      for (size_t c = 0; c < n; ++c) {
        sum += context.ProbeToggle(state, c).cost.micros();
      }
      return std::pair<uint64_t, int64_t>(n, sum);
    })});
  }

  // The from-scratch path everything above shortcuts.
  {
    std::vector<size_t> selected;
    for (size_t c = 0; c < n; c += 3) selected.push_back(c);
    rows.push_back({"full_evaluate", MeasureOp([&](uint64_t) {
      SubsetEvaluation eval =
          Unwrap(evaluator.Evaluate(selected), "evaluate");
      return std::pair<uint64_t, int64_t>(
          1, eval.cost.total().micros());
    })});
  }

  return rows;
}

void EmitInstance(const Instance& inst) {
  std::vector<Row> rows = RunOps(inst);
  TablePrinter table({"op", "ns/op", "subsets/sec"});
  table.SetTitle("Evaluator hot-path ops on " + inst.label);
  for (const Row& row : rows) {
    table.AddRow({row.op, StrFormat("%.1f", row.result.ns_per_op),
                  StrFormat("%.0f", row.result.ops_per_sec)});
    JsonLine("evaluator")
        .Str("op", row.op)
        .Str("instance", inst.label)
        .Num("subsets_per_sec", row.result.ops_per_sec)
        .Num("ns_per_op", row.result.ns_per_op)
        .Emit();
  }
  table.Print(std::cout);
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseSmoke(argc, argv);

  EmitInstance(MakeSalesInstance(/*workload_size=*/10,
                                 /*max_candidates=*/12));
  EmitInstance(MakeSsbInstance(/*max_candidates=*/20,
                               /*workload_repeats=*/3));
  return 0;
}
