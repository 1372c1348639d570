// Property tests for the incremental evaluation layer: on random
// add/remove sequences, SubsetState's running totals, Zobrist hash and
// FastTotalCost() must equal the from-scratch Evaluate() ground truth
// *exactly* (everything is integer arithmetic), across every billing
// variant the cost fast path mirrors (per-second vs hourly granularity,
// single-session vs per-activity compute, maintenance on/off).

#include "core/optimizer/evaluator.h"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <set>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/random.h"
#include "core/optimizer/eval_kernels.h"
#include "core/optimizer/candidate_generation.h"
#include "core/optimizer/solver.h"
#include "engine/sales_generator.h"
#include "pricing/providers.h"
#include "workload/generator.h"
#include "workload/workload.h"

namespace cloudview {
namespace {

struct BillingVariant {
  const char* label;
  BillingGranularity granularity;
  bool single_compute_session;
  int64_t maintenance_cycles;
};

class SubsetStatePropertyTest
    : public ::testing::TestWithParam<BillingVariant> {
 protected:
  void SetUp() override {
    const BillingVariant& variant = GetParam();
    SalesConfig config;
    lattice_ = std::make_unique<CubeLattice>(
        CubeLattice::Build(MakeSalesSchema(config).value()).MoveValue());
    MapReduceParams params;
    params.job_startup = Duration::FromSeconds(45);
    params.map_throughput_per_unit = DataSize::FromBytes(2'100 * 1024);
    simulator_ = std::make_unique<MapReduceSimulator>(*lattice_, params);
    pricing_ = std::make_unique<PricingModel>(
        ProviderRegistry::Global().Model("aws-2012")->WithComputeGranularity(
            variant.granularity));
    cost_model_ = std::make_unique<CloudCostModel>(*pricing_);
    cluster_ = ClusterSpec{pricing_->instances().Find("small").value(), 5};
    workload_ = MakePaperWorkload(*lattice_).MoveValue();

    deployment_.instance = cluster_.instance;
    deployment_.nb_instances = cluster_.nodes;
    deployment_.storage_period = Months::FromMilli(4);
    deployment_.base_storage = StorageTimeline(lattice_->fact_scan_size());
    deployment_.maintenance_cycles = variant.maintenance_cycles;
    deployment_.single_compute_session = variant.single_compute_session;

    CandidateGenOptions options;
    options.max_candidates = 10;
    options.max_rows_fraction = 0.05;
    evaluator_ = std::make_unique<SelectionEvaluator>(
        SelectionEvaluator::Create(
            *lattice_, workload_, *simulator_, cluster_, *cost_model_,
            deployment_,
            GenerateCandidates(*lattice_, workload_, *simulator_,
                               cluster_, options)
                .MoveValue())
            .MoveValue());
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
    EXPECT_EQ(evaluator_->FastTotalCost(state).MoveValue(),
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
  EXPECT_EQ(evaluator_->FastTotalCost(state).MoveValue(),
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
      EXPECT_EQ(evaluator_->FastTotalCost(peeked).MoveValue(),
                evaluator_->FastTotalCost(committed).MoveValue());
    }
  }
}

TEST_P(SubsetStatePropertyTest, PeekToggleBatchMatchesSequentialPeeks) {
  // The batched neighborhood scan (DESIGN.md §11) must be a pure
  // vectorization of the one-at-a-time probes: for random rosters,
  // out[i] == PeekToggle(candidates[i]) field for field, and the
  // totals it reports match the from-scratch Evaluate() of the
  // toggled subset.
  size_t n = evaluator_->num_candidates();
  Rng rng(17);
  SubsetState state(*evaluator_);
  std::vector<size_t> candidates(n);
  std::iota(candidates.begin(), candidates.end(), size_t{0});
  std::vector<SubsetTotals> batch(n);
  for (int move = 0; move < 25; ++move) {
    state.Toggle(static_cast<size_t>(rng.Uniform(n)));
    state.PeekToggleBatch(candidates, batch);
    for (size_t c = 0; c < n; ++c) {
      SubsetTotals one = state.PeekToggle(c);
      EXPECT_EQ(batch[c].hash, one.hash);
      EXPECT_EQ(batch[c].processing, one.processing);
      EXPECT_EQ(batch[c].materialization, one.materialization);
      EXPECT_EQ(batch[c].maintenance, one.maintenance);
      EXPECT_EQ(batch[c].view_bytes, one.view_bytes);

      SubsetState committed = state;
      committed.Toggle(c);
      SubsetEvaluation full =
          evaluator_->Evaluate(committed.Selected()).MoveValue();
      EXPECT_EQ(batch[c].processing, full.processing_time);
      EXPECT_EQ(evaluator_->FastTotalCost(batch[c]).MoveValue(),
                full.cost.total());
      if (HasFatalFailure()) return;
    }
  }
}

TEST_P(SubsetStatePropertyTest, ContextProbeBatchMatchesSequential) {
  // SolverContext::ProbeToggleBatch — the solver-facing wrapper that
  // splits a batch into memo hits and one matrix pass — must agree
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
    ASSERT_TRUE(batched.ProbeToggleBatch(state, candidates, probes).ok());
    std::vector<SolverContext::Probe> no_cache_probes;
    ASSERT_TRUE(
        uncached.ProbeToggleBatch(state, candidates, no_cache_probes)
            .ok());
    for (size_t c = 0; c < n; ++c) {
      SolverContext::Probe one =
          sequential.ProbeToggle(state, c).MoveValue();
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

TEST(EvalKernelDispatchTest, DispatchedKernelsMatchScalarReference) {
  // The dispatched (possibly AVX2) kernels must be bit-identical to the
  // scalar references on random arrays, across lengths straddling every
  // vector-width boundary — including the masked tails.
  Rng rng(23);
  for (size_t m : {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64}) {
    for (int trial = 0; trial < 16; ++trial) {
      AlignedVector<int64_t> col(m), best(m), freq(m);
      for (size_t q = 0; q < m; ++q) {
        col[q] = static_cast<int64_t>(rng.Uniform(1'000'000));
        best[q] = static_cast<int64_t>(rng.Uniform(1'000'000));
        freq[q] = static_cast<int64_t>(rng.Uniform(1'000)) + 1;
      }
      EXPECT_EQ(eval_kernels::PeekAddDelta(col.data(), best.data(),
                                           freq.data(), m),
                eval_kernels::PeekAddDeltaScalar(col.data(), best.data(),
                                                 freq.data(), m))
          << "PeekAddDelta(" << eval_kernels::DispatchName()
          << ") diverges at m=" << m;

      AlignedVector<int64_t> best_scalar(best), best_dispatch(best);
      AlignedVector<uint32_t> view_scalar(m), view_dispatch(m);
      for (size_t q = 0; q < m; ++q) {
        view_scalar[q] = static_cast<uint32_t>(rng.Uniform(32));
        view_dispatch[q] = view_scalar[q];
      }
      EXPECT_EQ(
          eval_kernels::AddSweep(col.data(), best_dispatch.data(),
                                 view_dispatch.data(), freq.data(), m, 7),
          eval_kernels::AddSweepScalar(col.data(), best_scalar.data(),
                                       view_scalar.data(), freq.data(), m,
                                       7))
          << "AddSweep(" << eval_kernels::DispatchName()
          << ") delta diverges at m=" << m;
      for (size_t q = 0; q < m; ++q) {
        EXPECT_EQ(best_dispatch[q], best_scalar[q]) << "m=" << m;
        EXPECT_EQ(view_dispatch[q], view_scalar[q]) << "m=" << m;
      }
    }
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
  // SolverContext::ProbeState — memo on and off, incremental on and
  // off — always reduces a subset to the same (time, cost) pair.
  size_t n = evaluator_->num_candidates();
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  EvaluationCache cache;
  SolverContext cached(*evaluator_, spec, &cache);
  SolverContext uncached(*evaluator_, spec);
  SolverContext exact(*evaluator_, spec);
  exact.set_use_incremental(false);

  Rng rng(11);
  SubsetState state(*evaluator_);
  for (int move = 0; move < 40; ++move) {
    size_t flip = static_cast<size_t>(rng.Uniform(n));
    // The read-only toggle probe agrees with the exact path...
    SolverContext::Probe peek = cached.ProbeToggle(state, flip).MoveValue();
    SolverContext::Probe peek_exact =
        exact.ProbeToggle(state, flip).MoveValue();
    EXPECT_EQ(peek.time, peek_exact.time);
    EXPECT_EQ(peek.cost, peek_exact.cost);
    // ...and so does the committed-state probe.
    state.Toggle(flip);
    SolverContext::Probe a = cached.ProbeState(state).MoveValue();
    SolverContext::Probe b = uncached.ProbeState(state).MoveValue();
    SolverContext::Probe c = exact.ProbeState(state).MoveValue();
    EXPECT_EQ(a.time, c.time);
    EXPECT_EQ(a.cost, c.cost);
    EXPECT_EQ(b.time, c.time);
    EXPECT_EQ(b.cost, c.cost);
    EXPECT_EQ(peek.time, c.time);
    EXPECT_EQ(peek.cost, c.cost);
  }
  // The exact context went through Evaluate() every time (one toggle
  // probe plus one state probe per move); the cached one answered
  // repeats from the memo.
  EXPECT_EQ(exact.counters().full_evaluations, 80u);
  EXPECT_EQ(exact.counters().incremental_probes, 0u);
  EXPECT_GT(cached.counters().cache_hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    BillingVariants, SubsetStatePropertyTest,
    ::testing::Values(
        BillingVariant{"second_per_activity", BillingGranularity::kSecond,
                       false, 0},
        BillingVariant{"second_session", BillingGranularity::kSecond,
                       true, 0},
        BillingVariant{"hour_per_activity", BillingGranularity::kHour,
                       false, 3},
        BillingVariant{"hour_session_maint", BillingGranularity::kHour,
                       true, 2}),
    [](const ::testing::TestParamInfo<BillingVariant>& info) {
      return info.param.label;
    });

}  // namespace
}  // namespace cloudview
