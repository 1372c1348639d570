// Property tests for the incremental evaluation layer: on random
// add/remove sequences, SubsetState's running totals, Zobrist hash and
// FastTotalCost() must equal the from-scratch Evaluate() ground truth
// *exactly* (everything is integer arithmetic), across every billing
// variant the cost fast path mirrors (per-second vs hourly granularity,
// single-session vs per-activity compute, maintenance on/off), on every
// registered price sheet (marginal and flat-bracket storage, reserved
// rates, free tiers), on a short mix (the paper's 10 sales queries) and
// a wide one (39 SSB queries).

#include "core/optimizer/evaluator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/str_format.h"
#include "core/optimizer/candidate_generation.h"
#include "core/optimizer/solver.h"
#include "engine/sales_generator.h"
#include "pricing/provider_registry.h"
#include "pricing/providers.h"
#include "workload/generator.h"
#include "workload/ssb.h"
#include "workload/workload.h"

namespace cloudview {
namespace {

// The query mixes the suite runs on.
enum class Mix {
  // The paper's sales cube, 10 queries, up to 10 candidates.
  kSales10,
  // SSB's 13 queries repeated three times at frequencies 1, 2 and 3 (the
  // bench_evaluator wide instance), up to 20 candidates.
  kSsb39,
};

struct BillingVariant {
  const char* label;
  BillingGranularity granularity;
  bool single_compute_session;
  int64_t maintenance_cycles;
};

using Param = std::tuple<Mix, BillingVariant, std::string>;

class SubsetStatePropertyTest : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    const auto& [mix, variant, sheet] = GetParam();
    CandidateGenOptions options;
    if (mix == Mix::kSales10) {
      SalesConfig config;
      lattice_ = std::make_unique<CubeLattice>(
          CubeLattice::Build(MakeSalesSchema(config).value()).MoveValue());
      MapReduceParams params;
      params.job_startup = Duration::FromSeconds(45);
      params.map_throughput_per_unit = DataSize::FromBytes(2'100 * 1024);
      simulator_ = std::make_unique<MapReduceSimulator>(*lattice_, params);
      workload_ = MakePaperWorkload(*lattice_).MoveValue();
      deployment_.storage_period = Months::FromMilli(4);
      options.max_candidates = 10;
      options.max_rows_fraction = 0.05;
    } else {
      SsbConfig config;
      lattice_ = std::make_unique<CubeLattice>(
          CubeLattice::Build(MakeSsbSchema(config).value()).MoveValue());
      simulator_ =
          std::make_unique<MapReduceSimulator>(*lattice_, MapReduceParams{});
      Workload ssb = MakeSsbWorkload(*lattice_).MoveValue();
      std::vector<QuerySpec> queries;
      for (uint64_t repeat = 1; repeat <= 3; ++repeat) {
        for (QuerySpec query : ssb.queries()) {
          query.frequency = repeat;
          queries.push_back(std::move(query));
        }
      }
      workload_ = Workload(std::move(queries));
      deployment_.storage_period = Months::FromMilli(3);
      options.max_candidates = 20;
      options.max_rows_fraction = 0.10;
    }
    pricing_ = std::make_unique<PricingModel>(
        ProviderRegistry::Global().Model(sheet)->WithComputeGranularity(
            variant.granularity));
    cost_model_ = std::make_unique<CloudCostModel>(*pricing_);
    // Each sheet's cheapest one-unit machine: aws-2012's "small",
    // nimbus's reserved-rate "n1".
    cluster_ =
        ClusterSpec{pricing_->instances().CheapestWithUnits(1.0).value(), 5};

    deployment_.instance = cluster_.instance;
    deployment_.nb_instances = cluster_.nodes;
    deployment_.base_storage = StorageTimeline(lattice_->fact_scan_size());
    deployment_.maintenance_cycles = variant.maintenance_cycles;
    deployment_.single_compute_session = variant.single_compute_session;

    evaluator_ = std::make_unique<SelectionEvaluator>(
        SelectionEvaluator::Create(
            *lattice_, workload_, *simulator_, cluster_, *cost_model_,
            deployment_,
            GenerateCandidates(*lattice_, workload_, *simulator_,
                               cluster_, options)
                .MoveValue())
            .MoveValue());
    // The wide mix keeps a probe column longer than sixteen queries in
    // the suite.
    if (mix == Mix::kSsb39) {
      ASSERT_EQ(evaluator_->num_queries(), 39u);
    }
  }

  /// Asserts every incremental quantity equals the exact ground truth.
  void ExpectMatchesFullEvaluation(const SubsetState& state) {
    std::vector<size_t> selected = state.Selected();
    SubsetEvaluation full = evaluator_->Evaluate(selected).MoveValue();
    EXPECT_EQ(state.hash(), SubsetHash(selected));
    EXPECT_EQ(state.size(), selected.size());
    EXPECT_EQ(state.processing_time(), full.processing_time);
    EXPECT_EQ(state.makespan(), full.makespan);
    EXPECT_EQ(state.materialization_time(),
              full.view_input.TotalMaterializationTime());
    EXPECT_EQ(state.maintenance_time(),
              full.view_input.TotalMaintenanceTime());
    EXPECT_EQ(state.view_bytes(), full.view_input.TotalSize());
    EXPECT_EQ(evaluator_->FastTotalCost(state),
              full.cost.total());
  }

  std::unique_ptr<CubeLattice> lattice_;
  std::unique_ptr<MapReduceSimulator> simulator_;
  std::unique_ptr<PricingModel> pricing_;
  std::unique_ptr<CloudCostModel> cost_model_;
  ClusterSpec cluster_;
  Workload workload_;
  DeploymentSpec deployment_;
  std::unique_ptr<SelectionEvaluator> evaluator_;
};

TEST_P(SubsetStatePropertyTest, EmptyStateMatchesBaseline) {
  SubsetState state(*evaluator_);
  EXPECT_EQ(state.hash(), 0u);
  EXPECT_EQ(state.processing_time(),
            evaluator_->baseline().processing_time);
  EXPECT_EQ(state.makespan(), evaluator_->baseline().makespan);
  EXPECT_EQ(evaluator_->FastTotalCost(state),
            evaluator_->baseline().cost.total());
}

TEST_P(SubsetStatePropertyTest, RandomMoveSequencesMatchFullEvaluation) {
  size_t n = evaluator_->num_candidates();
  ASSERT_GT(n, 2u);
  Rng rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    SubsetState state(*evaluator_);
    for (int move = 0; move < 60; ++move) {
      state.Toggle(static_cast<size_t>(rng.Uniform(n)));
      ExpectMatchesFullEvaluation(state);
      if (HasFatalFailure()) return;
    }
  }
}

TEST_P(SubsetStatePropertyTest, PeekToggleMatchesCommittedToggle) {
  // The read-only probe must report exactly what committing the same
  // move would produce — for every candidate, from random states.
  size_t n = evaluator_->num_candidates();
  Rng rng(13);
  SubsetState state(*evaluator_);
  for (int move = 0; move < 30; ++move) {
    state.Toggle(static_cast<size_t>(rng.Uniform(n)));
    for (size_t c = 0; c < n; ++c) {
      SubsetTotals peeked = state.PeekToggle(c);
      SubsetState committed = state;
      committed.Toggle(c);
      EXPECT_EQ(peeked.hash, committed.hash());
      EXPECT_EQ(peeked.processing, committed.processing_time());
      EXPECT_EQ(peeked.materialization,
                committed.materialization_time());
      EXPECT_EQ(peeked.maintenance, committed.maintenance_time());
      EXPECT_EQ(peeked.view_bytes, committed.view_bytes());
      EXPECT_EQ(evaluator_->FastTotalCost(peeked),
                evaluator_->FastTotalCost(committed));
    }
  }
}

TEST_P(SubsetStatePropertyTest, ContextProbeBatchMatchesSequential) {
  // SolverContext::ProbeToggleBatch — the solver-facing scan that
  // answers memo hits first, then peeks the misses — must agree
  // probe for probe with sequential ProbeToggle, with and without a
  // cache, including the counter semantics solvers assert on.
  size_t n = evaluator_->num_candidates();
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  EvaluationCache batch_cache;
  EvaluationCache seq_cache;
  SolverContext batched(*evaluator_, spec, &batch_cache);
  SolverContext sequential(*evaluator_, spec, &seq_cache);
  SolverContext uncached(*evaluator_, spec);

  Rng rng(19);
  SubsetState state(*evaluator_);
  std::vector<size_t> candidates(n);
  std::iota(candidates.begin(), candidates.end(), size_t{0});
  std::vector<SolverContext::Probe> probes;
  for (int move = 0; move < 25; ++move) {
    state.Toggle(static_cast<size_t>(rng.Uniform(n)));
    batched.ProbeToggleBatch(state, candidates, probes);
    std::vector<SolverContext::Probe> no_cache_probes;
    uncached.ProbeToggleBatch(state, candidates, no_cache_probes);
    for (size_t c = 0; c < n; ++c) {
      SolverContext::Probe one = sequential.ProbeToggle(state, c);
      EXPECT_EQ(probes[c].time, one.time);
      EXPECT_EQ(probes[c].cost, one.cost);
      EXPECT_EQ(probes[c].makespan, one.makespan);
      EXPECT_EQ(probes[c].storage, one.storage);
      EXPECT_EQ(no_cache_probes[c].time, one.time);
      EXPECT_EQ(no_cache_probes[c].cost, one.cost);
    }
  }
  // Batched and sequential scans visit identical subsets in identical
  // order, so the memo behaves identically: same hit and miss counts.
  EXPECT_EQ(batched.counters().cache_hits,
            sequential.counters().cache_hits);
  EXPECT_EQ(batched.counters().incremental_probes,
            sequential.counters().incremental_probes);
  EXPECT_GT(batched.counters().cache_hits, 0u);
}

/// Everything observable about a state: what an undo must restore.
struct StateSnapshot {
  SubsetTotals totals;
  std::vector<size_t> selected;
  std::vector<int64_t> best_time_ms;
  std::vector<SubsetTotals> peeks;

  explicit StateSnapshot(const SubsetState& state)
      : totals(state.totals()), selected(state.Selected()) {
    const SelectionEvaluator& evaluator = state.evaluator();
    for (size_t q = 0; q < evaluator.num_queries(); ++q) {
      best_time_ms.push_back(state.best_time_ms(q));
    }
    for (size_t c = 0; c < evaluator.num_candidates(); ++c) {
      peeks.push_back(state.PeekToggle(c));
    }
  }
};

void ExpectSameTotals(const SubsetTotals& a, const SubsetTotals& b) {
  EXPECT_EQ(a.processing, b.processing);
  EXPECT_EQ(a.materialization, b.materialization);
  EXPECT_EQ(a.maintenance, b.maintenance);
  EXPECT_EQ(a.view_bytes, b.view_bytes);
  EXPECT_EQ(a.hash, b.hash);
}

TEST_P(SubsetStatePropertyTest, UndoAddRestoresThePreAddState) {
  // Random nested AddUndoable/UndoAdd interleavings over a random plainly
  // added base: each undo must hand back exactly the state its add
  // started from — totals, hash, members, every per-query best time, and
  // every read-only toggle probe (which reads the per-query argmin, so a
  // stale argmin shows up here).
  size_t n = evaluator_->num_candidates();
  Rng rng(23);
  for (int trial = 0; trial < 6; ++trial) {
    SubsetState state(*evaluator_);
    for (size_t c = 0; c < n; ++c) {
      if (rng.Bernoulli(0.25)) state.Add(c);
    }
    std::vector<StateSnapshot> before_add;
    for (int step = 0; step < 40; ++step) {
      bool can_add = state.size() < n;
      if (can_add && (before_add.empty() || rng.Bernoulli(0.55))) {
        size_t c = static_cast<size_t>(rng.Uniform(n));
        while (state.contains(c)) c = (c + 1) % n;
        before_add.emplace_back(state);
        state.AddUndoable(c);
        ASSERT_TRUE(state.contains(c));
        continue;
      }
      if (before_add.empty()) break;
      state.UndoAdd();
      const StateSnapshot& expected = before_add.back();
      SCOPED_TRACE(StrFormat("trial=%d step=%d depth=%zu", trial, step,
                             before_add.size()));
      ExpectSameTotals(state.totals(), expected.totals);
      EXPECT_EQ(state.hash(), expected.totals.hash);
      EXPECT_EQ(state.Selected(), expected.selected);
      EXPECT_EQ(state.size(), expected.selected.size());
      for (size_t q = 0; q < evaluator_->num_queries(); ++q) {
        EXPECT_EQ(state.best_time_ms(q), expected.best_time_ms[q])
            << "query " << q;
      }
      for (size_t c = 0; c < n; ++c) {
        SCOPED_TRACE(StrFormat("peek %zu", c));
        ExpectSameTotals(state.PeekToggle(c), expected.peeks[c]);
      }
      ExpectMatchesFullEvaluation(state);
      if (HasFailure()) return;
      before_add.pop_back();
    }
    // Unwinding every open frame lands on the plainly added base, which
    // plain moves may change again.
    while (!before_add.empty()) {
      state.UndoAdd();
      before_add.pop_back();
    }
    ExpectMatchesFullEvaluation(state);
    state.Toggle(static_cast<size_t>(rng.Uniform(n)));
    ExpectMatchesFullEvaluation(state);
  }
}

TEST_P(SubsetStatePropertyTest, HashIsOrderIndependent) {
  size_t n = evaluator_->num_candidates();
  SubsetState forward(*evaluator_);
  SubsetState backward(*evaluator_);
  for (size_t c = 0; c < n; ++c) forward.Add(c);
  for (size_t c = n; c-- > 0;) backward.Add(c);
  EXPECT_EQ(forward.hash(), backward.hash());
  EXPECT_EQ(forward.processing_time(), backward.processing_time());
  // And adding then removing restores the empty hash.
  for (size_t c = 0; c < n; ++c) forward.Remove(c);
  EXPECT_EQ(forward.hash(), 0u);
  EXPECT_EQ(forward.processing_time(),
            evaluator_->baseline().processing_time);
  EXPECT_EQ(forward.view_bytes(), DataSize::Zero());
}

TEST_P(SubsetStatePropertyTest, ContextProbeMatchesExactPath) {
  // SolverContext's incremental probes — memo on and off, read-only
  // toggle and committed state — always reduce a subset to the probe
  // exact Evaluate() does.
  size_t n = evaluator_->num_candidates();
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  EvaluationCache cache;
  SolverContext cached(*evaluator_, spec, &cache);
  SolverContext uncached(*evaluator_, spec);
  auto expect_same = [](const SolverContext::Probe& probe,
                        const SolverContext::Probe& exact) {
    EXPECT_EQ(probe.time, exact.time);
    EXPECT_EQ(probe.makespan, exact.makespan);
    EXPECT_EQ(probe.cost, exact.cost);
    EXPECT_EQ(probe.storage, exact.storage);
  };

  Rng rng(11);
  SubsetState state(*evaluator_);
  for (int move = 0; move < 40; ++move) {
    SCOPED_TRACE(StrFormat("move %d", move));
    size_t flip = static_cast<size_t>(rng.Uniform(n));
    SolverContext::Probe peek = cached.ProbeToggle(state, flip);
    SolverContext::Probe peek_uncached = uncached.ProbeToggle(state, flip);
    state.Toggle(flip);
    SolverContext::Probe exact = cached.ProbeOf(
        evaluator_->Evaluate(state.Selected()).MoveValue());
    expect_same(peek, exact);
    expect_same(peek_uncached, exact);
    expect_same(cached.ProbeState(state), exact);
    expect_same(uncached.ProbeState(state), exact);
  }
  // Neither context evaluated exactly: the uncached one took the
  // incremental path for every probe (one toggle plus one state probe
  // per move); the cached one answered repeats from the memo.
  EXPECT_EQ(uncached.counters().full_evaluations, 0u);
  EXPECT_EQ(uncached.counters().incremental_probes, 80u);
  EXPECT_EQ(cached.counters().full_evaluations, 0u);
  EXPECT_GT(cached.counters().cache_hits, 0u);
}

TEST_P(SubsetStatePropertyTest, ThreadsShareOneEvaluator) {
  // The evaluator is read-only after construction: two threads probing
  // one instance at once get the bills that sequential probes give.
  size_t n = evaluator_->num_candidates();
  ObjectiveSpec spec;
  auto walk = [&](uint64_t seed) {
    std::vector<Money> bills;
    Rng rng(seed);
    SolverContext context(*evaluator_, spec);
    SubsetState state(*evaluator_);
    for (int move = 0; move < 100; ++move) {
      size_t flip = static_cast<size_t>(rng.Uniform(n));
      bills.push_back(context.ProbeToggle(state, flip).cost);
      state.Toggle(flip);
      bills.push_back(evaluator_->FastTotalCost(state));
    }
    return bills;
  };
  const std::vector<Money> first = walk(1);
  const std::vector<Money> second = walk(2);
  std::vector<Money> first_threaded;
  std::vector<Money> second_threaded;
  std::thread a([&] { first_threaded = walk(1); });
  std::thread b([&] { second_threaded = walk(2); });
  a.join();
  b.join();
  EXPECT_EQ(first_threaded, first);
  EXPECT_EQ(second_threaded, second);
}

INSTANTIATE_TEST_SUITE_P(
    BillingVariants, SubsetStatePropertyTest,
    ::testing::Combine(
        ::testing::Values(Mix::kSales10, Mix::kSsb39),
        ::testing::Values(
            BillingVariant{"second_per_activity",
                           BillingGranularity::kSecond, false, 0},
            BillingVariant{"second_session", BillingGranularity::kSecond,
                           true, 0},
            BillingVariant{"hour_per_activity", BillingGranularity::kHour,
                           false, 3},
            BillingVariant{"hour_session_maint", BillingGranularity::kHour,
                           true, 2}),
        ::testing::ValuesIn(ProviderRegistry::Global().Names())),
    [](const ::testing::TestParamInfo<Param>& info) {
      // std::get, not a structured binding: its comma would split the
      // macro argument.
      std::string sheet = std::get<2>(info.param);
      std::replace(sheet.begin(), sheet.end(), '-', '_');
      return std::string(std::get<0>(info.param) == Mix::kSales10
                             ? "sales10_"
                             : "ssb39_") +
             std::get<1>(info.param).label + "_" + sheet;
    });

}  // namespace
}  // namespace cloudview
