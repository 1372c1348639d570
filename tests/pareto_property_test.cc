// Property suite for the multi-objective seam (DESIGN.md §10), across
// randomized specs and workloads:
//   * every frontier point is feasible and its score is reproduced by
//     an exact from-scratch evaluation;
//   * frontier members are mutually non-dominated;
//   * the frontier covers the lexicographic optimum of every registered
//     single-objective solver under the same spec;
//   * "pareto-sweep" is bit-identical at CLOUDVIEW_THREADS=1 vs 8 (the
//     shared-nothing clone + index-ordered reduction determinism rule).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/str_format.h"
#include "common/thread_pool.h"
#include "core/optimizer/candidate_generation.h"
#include "core/optimizer/pareto.h"
#include "core/optimizer/solver.h"
#include "engine/sales_generator.h"
#include "pricing/providers.h"
#include "workload/generator.h"
#include "workload/workload.h"

namespace cloudview {
namespace {

bool IsMultiObjective(const std::string& name) {
  Result<const Solver*> solver = SolverRegistry::Global().Find(name);
  return solver.ok() && solver.value()->multi_objective();
}

struct Fixture {
  explicit Fixture(size_t workload_size) {
    SalesConfig config;
    lattice = std::make_unique<CubeLattice>(
        CubeLattice::Build(MakeSalesSchema(config).value()).MoveValue());
    MapReduceParams params;
    params.job_startup = Duration::FromSeconds(45);
    params.map_throughput_per_unit = DataSize::FromBytes(2'100 * 1024);
    simulator = std::make_unique<MapReduceSimulator>(*lattice, params);
    pricing = std::make_unique<PricingModel>(
        ProviderRegistry::Global().Model("aws-2012")->WithComputeGranularity(
            BillingGranularity::kSecond));
    cost_model = std::make_unique<CloudCostModel>(*pricing);
    cluster = ClusterSpec{pricing->instances().Find("small").value(), 5};
    deployment.instance = cluster.instance;
    deployment.nb_instances = cluster.nodes;
    deployment.storage_period = Months::FromMilli(4);
    deployment.base_storage = StorageTimeline(lattice->fact_scan_size());
    deployment.maintenance_cycles = 0;

    Workload workload =
        MakePaperWorkload(*lattice).MoveValue().Prefix(workload_size);
    CandidateGenOptions options;
    options.max_candidates = 10;
    options.max_rows_fraction = 0.05;
    auto candidates = GenerateCandidates(*lattice, workload, *simulator,
                                         cluster, options)
                          .MoveValue();
    evaluator = std::make_unique<SelectionEvaluator>(
        SelectionEvaluator::Create(*lattice, workload, *simulator,
                                   cluster, *cost_model, deployment,
                                   std::move(candidates))
            .MoveValue());
  }

  std::unique_ptr<CubeLattice> lattice;
  std::unique_ptr<MapReduceSimulator> simulator;
  std::unique_ptr<PricingModel> pricing;
  std::unique_ptr<CloudCostModel> cost_model;
  ClusterSpec cluster;
  DeploymentSpec deployment;
  std::unique_ptr<SelectionEvaluator> evaluator;
};

/// A randomized-but-satisfiable spec: MV3 with optional hard caps that
/// the empty set always meets (so feasibility is never vacuous).
ObjectiveSpec RandomSpec(Rng& rng, const SelectionEvaluator& evaluator) {
  const SubsetEvaluation& baseline = evaluator.baseline();
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.1 * static_cast<double>(rng.UniformInt(0, 10));
  if (rng.Bernoulli(0.7)) {
    // Baseline monthly bill (4 milli-month period -> x250) plus slack.
    spec.max_monthly_cost =
        baseline.cost.total().ScaleBy(1000, 4).MultipliedBy(
            1.0 + 0.5 * rng.UniformDouble());
  }
  if (rng.Bernoulli(0.5)) {
    DataSize total = DataSize::Zero();
    for (const ViewCandidate& candidate : evaluator.candidates()) {
      total += candidate.size;
    }
    spec.max_storage = DataSize::FromBytes(
        1 + total.bytes() / (1 + static_cast<int64_t>(rng.Uniform(8))));
  }
  if (rng.Bernoulli(0.3)) {
    spec.max_makespan = baseline.makespan;
  }
  return spec;
}

TEST(ParetoPropertyTest, FrontierInvariantsAcrossRandomSpecs) {
  for (size_t workload_size : {5, 10}) {
    Fixture fixture(workload_size);
    ViewSelector selector(*fixture.evaluator);
    Rng rng(0x9A7E70 + workload_size);
    for (int trial = 0; trial < 8; ++trial) {
      ObjectiveSpec spec = RandomSpec(rng, *fixture.evaluator);
      SCOPED_TRACE(StrFormat("workload=%zu trial=%d alpha=%.1f",
                             workload_size, trial, spec.alpha));
      for (const char* name : {"pareto-sweep", "pareto-genetic"}) {
        SCOPED_TRACE(name);
        SelectionResult result = selector.Solve(spec, name).MoveValue();
        // The empty set satisfies every randomized cap, so a feasible
        // point always exists.
        ASSERT_FALSE(result.frontier.empty());
        EXPECT_TRUE(result.feasible);

        SolverContext context(*fixture.evaluator, spec);
        for (const ParetoPoint& point : result.frontier) {
          SubsetEvaluation eval =
              fixture.evaluator->Evaluate(point.selected).value();
          // Exact re-evaluation reproduces the advertised score...
          EXPECT_EQ(context.MultiScoreOf(eval), point.score);
          // ...which is feasible under scenario and hard constraints...
          EXPECT_TRUE(context.Feasible(context.ProbeOf(eval)));
          // ...and non-dominated within the frontier.
          for (const ParetoPoint& other : result.frontier) {
            EXPECT_FALSE(other.score.Dominates(point.score));
          }
        }
      }

      // Sweep coverage: no registered single-objective strategy can
      // find a feasible point the frontier fails to account for.
      SelectionResult sweep =
          selector.Solve(spec, "pareto-sweep").MoveValue();
      ParetoFront cover(spec.frontier_epsilon);
      for (const ParetoPoint& point : sweep.frontier) {
        cover.Insert(point);
      }
      for (const std::string& name : SolverRegistry::Global().Names()) {
        if (IsMultiObjective(name)) continue;
        SelectionResult anchor = selector.Solve(spec, name).MoveValue();
        if (!anchor.feasible) continue;
        EXPECT_TRUE(cover.Covers(anchor.multi))
            << "frontier misses " << name << " at "
            << anchor.multi.monthly_cost << ", "
            << anchor.multi.time.ToString();
      }
    }
  }
}

TEST(ParetoPropertyTest, SweepIsBitIdenticalAcrossThreadCounts) {
  Fixture fixture(10);
  ViewSelector selector(*fixture.evaluator);
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.5;
  spec.max_monthly_cost = Money::FromDollars(500);

  size_t original = ThreadPool::Global().concurrency();
  ThreadPool::SetGlobalConcurrency(1);
  SelectionResult serial =
      selector.Solve(spec, "pareto-sweep").MoveValue();
  ThreadPool::SetGlobalConcurrency(8);
  SelectionResult parallel =
      selector.Solve(spec, "pareto-sweep").MoveValue();
  ThreadPool::SetGlobalConcurrency(original);

  // Bit-identical: same best selection, same cost breakdown, same
  // frontier (scores, subsets, provenance, order).
  EXPECT_EQ(serial.evaluation.selected, parallel.evaluation.selected);
  EXPECT_EQ(serial.evaluation.cost.total(),
            parallel.evaluation.cost.total());
  EXPECT_EQ(serial.multi, parallel.multi);
  ASSERT_EQ(serial.frontier.size(), parallel.frontier.size());
  for (size_t i = 0; i < serial.frontier.size(); ++i) {
    EXPECT_EQ(serial.frontier[i].score, parallel.frontier[i].score);
    EXPECT_EQ(serial.frontier[i].selected,
              parallel.frontier[i].selected);
    EXPECT_EQ(serial.frontier[i].origin, parallel.frontier[i].origin);
  }
}

}  // namespace
}  // namespace cloudview
