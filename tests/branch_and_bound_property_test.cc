// Property suite for branch-and-bound (DESIGN.md §13): across
// randomized MV3 specs with random hard constraints, bound + dominance
// pruning never discards the optimum — the search returns exactly the
// exhaustive oracle's answer (score AND selection, the lex-smallest
// tie-break), bit-identically at CLOUDVIEW_THREADS=1 vs 8 — and the
// node lower bound never exceeds any completion it stands for.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "catalog/architecture.h"
#include "common/random.h"
#include "common/str_format.h"
#include "common/thread_pool.h"
#include "core/optimizer/branch_and_bound.h"
#include "core/optimizer/candidate_generation.h"
#include "core/optimizer/solver.h"
#include "engine/sales_generator.h"
#include "exhaustive_oracle.h"
#include "pricing/price_sheet_spec.h"
#include "pricing/providers.h"
#include "workload/generator.h"
#include "workload/workload.h"

namespace cloudview {
namespace {

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
    options.max_candidates = 12;  // Exhaustive stays the ground truth.
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

/// A randomized MV3 spec with optional hard caps the empty set always
/// meets (so feasibility is never vacuous) — same generator family as
/// the pareto property suite.
ObjectiveSpec RandomSpec(Rng& rng, const SelectionEvaluator& evaluator) {
  const SubsetEvaluation& baseline = evaluator.baseline();
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.1 * static_cast<double>(rng.UniformInt(0, 10));
  if (rng.Bernoulli(0.7)) {
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

TEST(BranchAndBoundPropertyTest, PruningNeverDiscardsTheOptimum) {
  for (size_t workload_size : {5, 10}) {
    Fixture fixture(workload_size);
    Rng rng(0xB0B0 + workload_size);
    size_t original = ThreadPool::Global().concurrency();
    for (int trial = 0; trial < 10; ++trial) {
      ObjectiveSpec spec = RandomSpec(rng, *fixture.evaluator);
      SCOPED_TRACE(StrFormat("workload=%zu trial=%d alpha=%.1f",
                             workload_size, trial, spec.alpha));
      SelectionResult exact =
          ExhaustiveSolve(*fixture.evaluator, spec).MoveValue();

      SearchStats stats;
      BranchAndBoundOptions options;
      options.stats = &stats;
      for (size_t threads : {size_t{1}, size_t{8}}) {
        SCOPED_TRACE(StrFormat("threads=%zu", threads));
        ThreadPool::SetGlobalConcurrency(threads);
        EvaluationCache cache;
        SolverContext context(*fixture.evaluator, spec, &cache);
        SelectionResult bnb =
            SolveBranchAndBound(context, options).MoveValue();
        // Pruning is exact: score equality is not enough — the
        // selection itself must be the exhaustive lex-smallest subset.
        EXPECT_EQ(bnb.evaluation.selected, exact.evaluation.selected);
        EXPECT_EQ(bnb.evaluation.cost.total().micros(),
                  exact.evaluation.cost.total().micros());
        EXPECT_EQ(bnb.time.millis(), exact.time.millis());
        EXPECT_EQ(bnb.feasible, exact.feasible);
        EXPECT_TRUE(stats.proven_optimal);
        EXPECT_EQ(stats.gap_fraction, 0.0);
      }
    }
    ThreadPool::SetGlobalConcurrency(original);
  }
}

/// `base`'s instance re-weighted with random query frequencies, then
/// varied by `variant`: 0 as built, 1 with random candidates' builds
/// sunk (the temporal planner's clones), 2 re-billed under a
/// non-identity architecture (the arch-sweep clones).
SelectionEvaluator RandomVariant(Rng& rng, const Fixture& base,
                                 int variant) {
  std::vector<QuerySpec> queries = base.evaluator->workload().queries();
  for (QuerySpec& query : queries) {
    query.frequency = static_cast<uint64_t>(rng.UniformInt(1, 40));
  }
  SelectionEvaluator reweighted =
      SelectionEvaluator::Create(*base.lattice, Workload(std::move(queries)),
                                 *base.simulator, base.cluster,
                                 *base.cost_model, base.deployment,
                                 base.evaluator->candidates())
          .MoveValue();
  if (variant == 1) {
    std::vector<size_t> sunk;
    for (size_t c = 0; c < reweighted.num_candidates(); ++c) {
      if (rng.Bernoulli(0.4)) sunk.push_back(c);
    }
    return reweighted.CloneWithSunkBuilds(sunk).MoveValue();
  }
  if (variant == 2) {
    ArchitectureModel architecture;
    architecture.name = "replicated-spot";
    architecture.compute_num = rng.UniformInt(2, 5);
    architecture.compute_den = 2;
    architecture.fanout_num = rng.UniformInt(2, 4);
    architecture.storage_num = rng.UniformInt(2, 3);
    architecture.interruption_num = 1;
    architecture.interruption_den = 10;
    architecture.cross_az_copies = 1;
    return reweighted.CloneWithArchitecture(architecture).MoveValue();
  }
  return reweighted;
}

TEST(BranchAndBoundPropertyTest, LowerBoundNeverExceedsAnyCompletion) {
  Fixture fixture(10);
  Rng rng(0xB0D5);
  for (int trial = 0; trial < 12; ++trial) {
    SelectionEvaluator evaluator = RandomVariant(rng, fixture, trial % 3);
    ObjectiveSpec spec = RandomSpec(rng, evaluator);
    const SubsetEvaluation& baseline = evaluator.baseline();
    switch (rng.Uniform(3)) {
      case 0:
        spec.scenario = Scenario::kMV1BudgetLimit;
        spec.budget_limit = baseline.cost.total().MultipliedBy(
            0.4 + 0.6 * rng.UniformDouble());
        break;
      case 1:
        spec.scenario = Scenario::kMV2TimeLimit;
        spec.time_limit = Duration::FromMillis(static_cast<int64_t>(
            static_cast<double>(baseline.makespan.millis()) *
            (0.3 + 0.7 * rng.UniformDouble())));
        break;
      default:
        break;
    }
    spec.time_includes_materialization = (trial / 3) % 2 == 0;
    SCOPED_TRACE(StrFormat("trial=%d variant=%d scenario=%s with_mat=%d",
                           trial, trial % 3, ToString(spec.scenario),
                           spec.time_includes_materialization ? 1 : 0));
    SolverContext context(evaluator, spec);
    const size_t n = evaluator.num_candidates();
    ASSERT_LE(n, 12u);
    ASSERT_GT(n, 0u);

    for (int sample = 0; sample < 6; ++sample) {
      // Reach a random interior node the way the walker does: decide a
      // prefix of a random order, back out a suffix (Undecide), then
      // decide a fresh suffix — other candidates, other choices — so the
      // undecided set differs from the one the back-out left behind.
      std::vector<size_t> order(n);
      std::iota(order.begin(), order.end(), size_t{0});
      auto shuffle_from = [&](size_t first) {
        for (size_t i = n - 1; i > first; --i) {
          size_t j = first + static_cast<size_t>(rng.Uniform(i - first + 1));
          std::swap(order[i], order[j]);
        }
      };
      shuffle_from(0);
      std::vector<bool> include(n, false);
      SearchNode node(evaluator);
      auto decide = [&](size_t d) {
        include[d] = rng.Bernoulli(0.5);
        node.Decide(order[d]);
        if (include[d]) {
          node.committed().AddUndoable(order[d]);
        } else {
          node.relaxed().Remove(order[d]);
        }
      };
      auto undo = [&](size_t d) {
        if (include[d]) {
          node.committed().UndoAdd();
        } else {
          node.relaxed().Add(order[d]);
        }
        node.Undecide(order[d]);
      };
      const size_t first_depth = static_cast<size_t>(rng.Uniform(n));
      for (size_t d = 0; d < first_depth; ++d) decide(d);
      const size_t back =
          static_cast<size_t>(rng.UniformInt(0, first_depth));
      for (size_t d = first_depth; d > back; --d) undo(d - 1);
      shuffle_from(back);
      const size_t depth =
          static_cast<size_t>(rng.UniformInt(back, n - 1));
      for (size_t d = back; d < depth; ++d) decide(d);
      SCOPED_TRACE(StrFormat("sample=%d depth=%zu", sample, depth));

      SolverContext::Probe bound = node.LowerBound(context);
      // Never looser than the processing-only bound it replaces.
      EXPECT_GE(bound.makespan, node.relaxed().processing_time() +
                                    node.committed().materialization_time());

      // Every completion C ⊆ S ⊆ R, by enumeration over R\C.
      const std::vector<size_t> committed = node.committed().Selected();
      const size_t free = n - depth;
      for (uint64_t mask = 0; mask < (uint64_t{1} << free); ++mask) {
        std::vector<size_t> subset = committed;
        for (size_t i = 0; i < free; ++i) {
          if ((mask >> i) & 1) subset.push_back(order[depth + i]);
        }
        SubsetEvaluation exact = evaluator.Evaluate(subset).MoveValue();
        ASSERT_LE(bound.makespan, exact.makespan) << "mask=" << mask;
        ASSERT_LE(bound.time, context.TimeMetric(exact)) << "mask=" << mask;
        ASSERT_LE(bound.cost, exact.cost.total()) << "mask=" << mask;
        ASSERT_LE(context.ScoreOf(bound), context.ScoreOf(exact))
            << "mask=" << mask;
      }
    }
  }
}

TEST(BranchAndBoundPropertyTest, LowerBoundSurvivesAFlatBracketDrop) {
  // A flat-bracket storage bill falls at a tier edge: a volume just past
  // the edge bills the whole volume at the cheaper next rate. Put the
  // edge exactly at C's stored volume (C's bracket ends there) under a
  // steep drop, so every completion that stores one byte more pays far
  // less storage than C alone. The bound must still sit under each of
  // them.
  Fixture fixture(10);
  const SelectionEvaluator& base = *fixture.evaluator;
  const size_t n = base.num_candidates();
  ASSERT_GT(n, 2u);
  DeploymentSpec deployment = fixture.deployment;
  deployment.storage_period = Months::FromMonths(12);
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.0;  // Cost only: the storage term decides the score.

  // Committed sets: the root and each single candidate.
  for (size_t first = 0; first <= n; ++first) {
    const bool root = first == n;
    SCOPED_TRACE(root ? std::string("C={}")
                      : StrFormat("C={%zu}", first));
    DataSize committed_bytes =
        root ? DataSize::Zero() : base.candidates()[first].size;
    InstanceSpec small;
    small.name = "small";
    small.price_per_hour = Money::FromCents(12);
    PriceSheetSpec sheet;
    sheet.name = "bracket-drop";
    sheet.instances = {small};
    sheet.storage_per_gb_month = {
        {fixture.lattice->fact_scan_size() + committed_bytes,
         Money::FromDollars(50)},
        {DataSize::Zero(), Money::FromMicros(10)},
    };
    sheet.compute_granularity = BillingGranularity::kSecond;
    sheet.storage_billing = StorageBilling::kFlatBracket;
    PricingModel pricing = sheet.Lower().MoveValue();
    CloudCostModel cost_model(pricing);
    ClusterSpec cluster{pricing.instances().Find("small").value(), 5};
    deployment.instance = cluster.instance;
    SelectionEvaluator evaluator =
        SelectionEvaluator::Create(*fixture.lattice, base.workload(),
                                   *fixture.simulator, cluster, cost_model,
                                   deployment, base.candidates())
            .MoveValue();
    SolverContext context(evaluator, spec);

    SearchNode node(evaluator);
    std::vector<size_t> free_candidates;
    for (size_t c = 0; c < n; ++c) {
      if (c == first) {
        node.Decide(c);
        node.committed().Add(c);
      } else {
        free_candidates.push_back(c);
      }
    }
    SolverContext::Probe bound = node.LowerBound(context);
    for (size_t c : free_candidates) {
      std::vector<size_t> subset = node.committed().Selected();
      subset.push_back(c);
      SubsetEvaluation exact = evaluator.Evaluate(subset).MoveValue();
      ASSERT_LE(bound.cost, exact.cost.total()) << "adding " << c;
      ASSERT_LE(context.ScoreOf(bound), context.ScoreOf(exact))
          << "adding " << c;
    }
  }
}

TEST(BranchAndBoundPropertyTest, TruncatedSearchesStayDeterministic) {
  Fixture fixture(10);
  Rng rng(0xC4F3);
  size_t original = ThreadPool::Global().concurrency();
  for (int trial = 0; trial < 6; ++trial) {
    ObjectiveSpec spec = RandomSpec(rng, *fixture.evaluator);
    SCOPED_TRACE(StrFormat("trial=%d alpha=%.1f", trial, spec.alpha));
    uint64_t budget = static_cast<uint64_t>(rng.UniformInt(1, 64));
    std::vector<SelectionResult> results;
    std::vector<SearchStats> stats;
    for (size_t threads : {size_t{1}, size_t{8}}) {
      ThreadPool::SetGlobalConcurrency(threads);
      EvaluationCache cache;
      SolverContext context(*fixture.evaluator, spec, &cache);
      SearchStats run_stats;
      BranchAndBoundOptions options;
      options.max_nodes = budget;
      options.stats = &run_stats;
      results.push_back(SolveBranchAndBound(context, options).MoveValue());
      stats.push_back(run_stats);
    }
    EXPECT_EQ(results[0].evaluation.selected,
              results[1].evaluation.selected);
    EXPECT_EQ(results[0].evaluation.cost.total().micros(),
              results[1].evaluation.cost.total().micros());
    EXPECT_EQ(stats[0].nodes_expanded, stats[1].nodes_expanded);
    EXPECT_EQ(stats[0].proven_optimal, stats[1].proven_optimal);
    EXPECT_EQ(stats[0].gap_fraction, stats[1].gap_fraction);
    EXPECT_GE(stats[0].gap_fraction, 0.0);
    EXPECT_LE(stats[0].gap_fraction, 1.0);
    // An unproven run still returns a legal incumbent at least as good
    // as greedy's (the walk starts from the warm start).
    if (!stats[0].proven_optimal) {
      EvaluationCache cache;
      SolverContext context(*fixture.evaluator, spec, &cache);
      SelectionResult greedy =
          SolverRegistry::Global().Find("greedy").value()->Solve(
              spec, context).MoveValue();
      SolverContext::Score greedy_score = context.ScoreOf(
          context.ProbeOf(
              fixture.evaluator->Evaluate(greedy.evaluation.selected)
                  .value()));
      SolverContext::Score bnb_score = context.ScoreOf(
          context.ProbeOf(
              fixture.evaluator->Evaluate(results[0].evaluation.selected)
                  .value()));
      EXPECT_LE(bnb_score, greedy_score);
    }
  }
  ThreadPool::SetGlobalConcurrency(original);
}

}  // namespace
}  // namespace cloudview
