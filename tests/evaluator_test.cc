// SelectionEvaluator: interaction-aware subset evaluation against
// hand-computable ground truth.

#include "core/optimizer/evaluator.h"

#include <gtest/gtest.h>

#include "core/optimizer/candidate_generation.h"
#include "engine/sales_generator.h"
#include "pricing/providers.h"
#include "workload/workload.h"

namespace cloudview {
namespace {

class EvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SalesConfig config;
    lattice_ = std::make_unique<CubeLattice>(
        CubeLattice::Build(MakeSalesSchema(config).value()).MoveValue());
    simulator_ = std::make_unique<MapReduceSimulator>(*lattice_,
                                                      MapReduceParams{});
    pricing_ = std::make_unique<PricingModel>(
        ProviderRegistry::Global().Model("aws-2012")->WithComputeGranularity(
            BillingGranularity::kSecond));
    cost_model_ = std::make_unique<CloudCostModel>(*pricing_);
    cluster_ = ClusterSpec{
        pricing_->instances().Find("small").value(), 5};
    workload_ = MakePaperWorkload(*lattice_).MoveValue().Prefix(5);

    deployment_.instance = cluster_.instance;
    deployment_.nb_instances = cluster_.nodes;
    deployment_.storage_period = Months::FromMilli(2);
    deployment_.base_storage =
        StorageTimeline(lattice_->fact_scan_size());
    deployment_.maintenance_cycles = 0;

    CandidateGenOptions options;
    options.max_rows_fraction = 0.05;
    candidates_ = GenerateCandidates(*lattice_, workload_, *simulator_,
                                     cluster_, options)
                      .MoveValue();
    evaluator_ = std::make_unique<SelectionEvaluator>(
        SelectionEvaluator::Create(*lattice_, workload_, *simulator_,
                                   cluster_, *cost_model_, deployment_,
                                   candidates_)
            .MoveValue());
  }

  std::unique_ptr<CubeLattice> lattice_;
  std::unique_ptr<MapReduceSimulator> simulator_;
  std::unique_ptr<PricingModel> pricing_;
  std::unique_ptr<CloudCostModel> cost_model_;
  ClusterSpec cluster_;
  Workload workload_;
  DeploymentSpec deployment_;
  std::vector<ViewCandidate> candidates_;
  std::unique_ptr<SelectionEvaluator> evaluator_;
};

TEST_F(EvaluatorTest, BaselineAnswersEverythingFromFact) {
  const SubsetEvaluation& base = evaluator_->baseline();
  EXPECT_TRUE(base.selected.empty());
  EXPECT_TRUE(base.view_input.views.empty());
  EXPECT_EQ(base.makespan, base.processing_time);
  for (size_t q = 0; q < workload_.size(); ++q) {
    EXPECT_EQ(base.workload_input.queries[q].processing_time,
              simulator_->QueryTimeFromFact(workload_.query(q).target,
                                            cluster_));
  }
}

TEST_F(EvaluatorTest, SubsetNeverSlowerThanBaselinePerQuery) {
  std::vector<size_t> all(candidates_.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  SubsetEvaluation eval = evaluator_->Evaluate(all).MoveValue();
  const SubsetEvaluation& base = evaluator_->baseline();
  for (size_t q = 0; q < workload_.size(); ++q) {
    EXPECT_LE(eval.workload_input.queries[q].processing_time,
              base.workload_input.queries[q].processing_time);
  }
  EXPECT_LE(eval.processing_time, base.processing_time);
}

TEST_F(EvaluatorTest, MonotoneUnderSubsetGrowth) {
  // Adding a view never increases processing time and never decreases
  // storage-billed bytes.
  SubsetEvaluation one = evaluator_->Evaluate({0}).MoveValue();
  for (size_t extra = 1; extra < candidates_.size(); ++extra) {
    SubsetEvaluation two = evaluator_->Evaluate({0, extra}).MoveValue();
    EXPECT_LE(two.processing_time, one.processing_time);
    EXPECT_GE(two.view_input.TotalSize(), one.view_input.TotalSize());
    EXPECT_GE(two.cost.storage, one.cost.storage);
  }
}

TEST_F(EvaluatorTest, TransferCostUnaffectedByViews) {
  // Paper Section 4.1: views are created cloud-side.
  std::vector<size_t> all(candidates_.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  SubsetEvaluation eval = evaluator_->Evaluate(all).MoveValue();
  EXPECT_EQ(eval.cost.transfer, evaluator_->baseline().cost.transfer);
}

TEST_F(EvaluatorTest, MakespanIsProcessingPlusMaterialization) {
  SubsetEvaluation eval = evaluator_->Evaluate({0, 1}).MoveValue();
  EXPECT_EQ(eval.makespan,
            eval.processing_time +
                eval.view_input.TotalMaterializationTime());
}

TEST_F(EvaluatorTest, StandaloneSavingMatchesSoloEvaluation) {
  for (size_t c = 0; c < candidates_.size(); ++c) {
    SubsetEvaluation solo = evaluator_->Evaluate({c}).MoveValue();
    Duration saving = evaluator_->StandaloneProcessingSaving(c);
    EXPECT_EQ(saving, evaluator_->baseline().processing_time -
                          solo.processing_time)
        << candidates_[c].name;
  }
}

TEST_F(EvaluatorTest, StandaloneCostDeltaMatchesSoloEvaluation) {
  for (size_t c = 0; c < candidates_.size(); ++c) {
    Money delta = evaluator_->StandaloneCostDelta(c).MoveValue();
    SubsetEvaluation solo = evaluator_->Evaluate({c}).MoveValue();
    EXPECT_EQ(delta, solo.cost.total() -
                         evaluator_->baseline().cost.total());
  }
}

TEST_F(EvaluatorTest, BestViewWinsPerQuery) {
  // Evaluate the full set and check each query's time equals the min
  // over answering candidates (and the fact scan).
  std::vector<size_t> all(candidates_.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  SubsetEvaluation eval = evaluator_->Evaluate(all).MoveValue();
  for (size_t q = 0; q < workload_.size(); ++q) {
    CuboidId target = workload_.query(q).target;
    Duration best = simulator_->QueryTimeFromFact(target, cluster_);
    for (const ViewCandidate& c : candidates_) {
      if (lattice_->CanAnswer(c.view, target)) {
        Duration t =
            simulator_->QueryTimeFromView(c.view, target, cluster_);
        if (t < best) best = t;
      }
    }
    EXPECT_EQ(eval.workload_input.queries[q].processing_time, best);
  }
}

TEST_F(EvaluatorTest, RejectsBadSubsets) {
  EXPECT_TRUE(evaluator_->Evaluate({candidates_.size()})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      evaluator_->Evaluate({0, 0}).status().IsInvalidArgument());
}

TEST_F(EvaluatorTest, EmptyWorkloadRejected) {
  auto result = SelectionEvaluator::Create(
      *lattice_, Workload{}, *simulator_, cluster_, *cost_model_,
      deployment_, candidates_);
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

// --- The preconditions that make FastTotalCost infallible -------------------
//
// FastTotalCost returns a plain Money and only CV_DCHECKs the two storage
// cases StorageTimeline::Intervals() rejects. That is sound because no
// evaluator exists whose baseline failed to bill: these pin the rejections.

TEST_F(EvaluatorTest, CreateRejectsANegativeStoragePeriod) {
  DeploymentSpec deployment = deployment_;
  deployment.storage_period = Months::FromMilli(-1);
  auto result = SelectionEvaluator::Create(
      *lattice_, workload_, *simulator_, cluster_, *cost_model_,
      deployment, candidates_);
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST_F(EvaluatorTest, CreateRejectsABaseTimelineThatDipsBelowZero) {
  DataSize dip = DataSize::Zero() - lattice_->fact_scan_size();
  dip -= DataSize::FromBytes(1);
  DeploymentSpec deployment = deployment_;
  ASSERT_TRUE(deployment.base_storage.AddDelta(Months::FromMilli(1), dip).ok());
  auto result = SelectionEvaluator::Create(
      *lattice_, workload_, *simulator_, cluster_, *cost_model_,
      deployment, candidates_);
  EXPECT_TRUE(result.status().IsFailedPrecondition());

  // The same dip at the period's end is outside the billed window, for
  // the baseline and for every probe alike.
  deployment = deployment_;
  Months end = deployment.storage_period;
  ASSERT_TRUE(deployment.base_storage.AddDelta(end, dip).ok());
  auto at_end = SelectionEvaluator::Create(
      *lattice_, workload_, *simulator_, cluster_, *cost_model_,
      deployment, candidates_);
  EXPECT_TRUE(at_end.ok());
}

TEST_F(EvaluatorTest, CloneWithArchitectureRejectsASingleSessionFleet) {
  DeploymentSpec deployment = deployment_;
  deployment.single_compute_session = true;
  auto single = SelectionEvaluator::Create(
      *lattice_, workload_, *simulator_, cluster_, *cost_model_,
      deployment, candidates_);
  ASSERT_TRUE(single.ok());
  ArchitectureModel replicated;
  replicated.name = "replicated";
  replicated.storage_num = 2;
  ASSERT_FALSE(replicated.is_identity());
  auto replicated_clone = single.value().CloneWithArchitecture(replicated);
  EXPECT_TRUE(replicated_clone.status().IsInvalidArgument());
  // The identity architecture is still one rental session.
  EXPECT_TRUE(single.value().CloneWithArchitecture(ArchitectureModel{}).ok());
}

TEST_F(EvaluatorTest, CloneMatchesOriginalBitForBit) {
  // With nothing sunk, a variant is a plain copy: it shares the
  // immutable timing tables and reproduces every evaluation exactly.
  SelectionEvaluator clone = evaluator_->CloneWithSunkBuilds({}).MoveValue();
  ASSERT_EQ(clone.num_candidates(), evaluator_->num_candidates());
  for (size_t q = 0; q < evaluator_->num_queries(); ++q) {
    EXPECT_EQ(clone.base_time(q).millis(),
              evaluator_->base_time(q).millis());
  }

  std::vector<size_t> subset;
  for (size_t c = 0; c < candidates_.size(); c += 2) subset.push_back(c);
  SubsetEvaluation original = evaluator_->Evaluate(subset).value();
  SubsetEvaluation cloned = clone.Evaluate(subset).value();
  EXPECT_EQ(original.cost.total().micros(), cloned.cost.total().micros());
  EXPECT_EQ(original.processing_time.millis(),
            cloned.processing_time.millis());
  EXPECT_EQ(original.makespan.millis(), cloned.makespan.millis());

  // FastTotalCost pairs a SubsetState with the instance it was built
  // on; states built on the clone probe the clone's memo.
  SubsetState state(clone);
  for (size_t c : subset) state.Add(c);
  EXPECT_EQ(clone.FastTotalCost(state).micros(),
            original.cost.total().micros());
}

TEST_F(EvaluatorTest, CloneWithSunkBuildsZeroesMaterialization) {
  ASSERT_GE(candidates_.size(), 2u);
  std::vector<size_t> sunk = {0};
  SelectionEvaluator clone =
      evaluator_->CloneWithSunkBuilds(sunk).MoveValue();

  // The sunk candidate's build is free in the clone...
  EXPECT_TRUE(clone.candidates()[0].materialization_time.is_zero());
  SubsetEvaluation with_sunk = clone.Evaluate({0}).value();
  EXPECT_TRUE(
      with_sunk.view_input.TotalMaterializationTime().is_zero());
  EXPECT_TRUE(with_sunk.cost.materialization.is_zero());

  // ...while other candidates and the original instance are untouched.
  EXPECT_EQ(clone.candidates()[1].materialization_time.millis(),
            evaluator_->candidates()[1].materialization_time.millis());
  EXPECT_FALSE(evaluator_->candidates()[0]
                   .materialization_time.is_zero());

  // Query timing is build-independent, so it is byte-identical.
  SubsetEvaluation original = evaluator_->Evaluate({0}).value();
  EXPECT_EQ(with_sunk.processing_time.millis(),
            original.processing_time.millis());

  // Out-of-range sunk indices are rejected, not crashed on.
  EXPECT_TRUE(evaluator_->CloneWithSunkBuilds({candidates_.size()})
                  .status()
                  .IsInvalidArgument());
}

// --- EvaluationCache: bounded with epoch eviction (DESIGN.md §13.4) ---------
//
// Regression for the silent-degradation family of bugs: the cache used
// to grow without bound. Now reaching the cap drops the epoch, counts
// it, and keeps caching.

EvaluationCache::Entry CacheEntry(uint64_t i) {
  return EvaluationCache::Entry{
      Duration::FromMillis(static_cast<int64_t>(i)),
      Duration::FromMillis(static_cast<int64_t>(i * 2)),
      Money::FromCents(static_cast<int64_t>(i % 1000)),
      DataSize::FromBytes(static_cast<int64_t>(i * 64))};
}

TEST(EvaluationCacheTest, FillingPastTheCapEvictsInsteadOfStalling) {
  constexpr size_t kCap = size_t{1} << 16;
  EvaluationCache cache(kCap);
  EXPECT_EQ(cache.max_entries(), kCap);

  // Fill well past the old wall. Keys start at 1: key 0 is the empty
  // subset's dedicated side slot.
  const uint64_t total = kCap + 4096;
  for (uint64_t i = 1; i <= total; ++i) cache.Insert(i, CacheEntry(i));

  // The cap held and the overflow was an epoch drop, not a refusal.
  EXPECT_LE(cache.size(), kCap + 1);
  EXPECT_GE(cache.aggregate().evictions, 1u);

  // Post-eviction inserts land and are findable — the old bug was that
  // nothing inserted after the wall could ever hit.
  const EvaluationCache::Entry* entry = cache.Find(total);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->processing_time.millis(), static_cast<int64_t>(total));
  EXPECT_EQ(entry->view_bytes.bytes(), static_cast<int64_t>(total * 64));

  // Counter coherence for the BENCH_JSON surfacing.
  EvaluationCache::AggregateCounts before = cache.aggregate();
  EXPECT_EQ(before.misses(), before.lookups - before.hits);
  cache.Find(total);      // hit
  cache.Find(total + 1);  // miss (never inserted)
  EvaluationCache::AggregateCounts after = cache.aggregate();
  EXPECT_EQ(after.lookups, before.lookups + 2);
  EXPECT_EQ(after.misses(), after.lookups - after.hits);
}

TEST(EvaluationCacheTest, EmptySubsetSideEntrySurvivesEviction) {
  EvaluationCache cache(/*max_entries=*/8);
  cache.Insert(0, CacheEntry(7));  // SubsetHash({}) == 0.
  for (uint64_t i = 1; i <= 64; ++i) cache.Insert(i, CacheEntry(i));
  EXPECT_GE(cache.aggregate().evictions, 1u);
  // The empty-subset entry lives outside the slot array and outside the
  // eviction policy — the baseline probe never pays a re-miss.
  const EvaluationCache::Entry* entry = cache.Find(0);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->processing_time.millis(), 7);
}

TEST(EvaluationCacheTest, DefaultsAreBoundedAndZeroCapIsClamped) {
  EvaluationCache cache;
  EXPECT_EQ(cache.max_entries(), size_t{1} << 20);
  EXPECT_EQ(cache.aggregate().evictions, 0u);
  EvaluationCache degenerate(/*max_entries=*/0);
  EXPECT_EQ(degenerate.max_entries(), 1u);
  degenerate.Insert(1, CacheEntry(1));
  degenerate.Insert(2, CacheEntry(2));
  EXPECT_GE(degenerate.aggregate().evictions, 1u);
  ASSERT_NE(degenerate.Find(2), nullptr);
}

}  // namespace
}  // namespace cloudview
