#include "core/optimizer/candidate_generation.h"

#include <gtest/gtest.h>

#include <set>

#include "engine/sales_generator.h"
#include "workload/workload.h"

namespace cloudview {
namespace {

class CandidateGenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SalesConfig config;
    lattice_ = std::make_unique<CubeLattice>(
        CubeLattice::Build(MakeSalesSchema(config).value()).MoveValue());
    simulator_ = std::make_unique<MapReduceSimulator>(*lattice_,
                                                      MapReduceParams{});
    cluster_ = ClusterSpec{
        InstanceType{.name = "small",
                     .price_per_hour = Money::FromCents(12),
                     .compute_units = 1.0},
        5};
    workload_ = MakePaperWorkload(*lattice_).MoveValue();
  }

  std::unique_ptr<CubeLattice> lattice_;
  std::unique_ptr<MapReduceSimulator> simulator_;
  ClusterSpec cluster_;
  Workload workload_;
};

TEST_F(CandidateGenTest, EveryCandidateAnswersSomeQuery) {
  CandidateGenOptions options;
  auto candidates = GenerateCandidates(*lattice_, workload_, *simulator_,
                                       cluster_, options);
  ASSERT_TRUE(candidates.ok());
  EXPECT_FALSE(candidates->empty());
  for (const ViewCandidate& c : *candidates) {
    bool answers_any = false;
    for (const QuerySpec& q : workload_.queries()) {
      answers_any |= lattice_->CanAnswer(c.view, q.target);
    }
    EXPECT_TRUE(answers_any) << c.name;
  }
}

TEST_F(CandidateGenTest, CandidatesCarryPositiveAttributes) {
  auto candidates = GenerateCandidates(*lattice_, workload_, *simulator_,
                                       cluster_, CandidateGenOptions{});
  ASSERT_TRUE(candidates.ok());
  for (const ViewCandidate& c : *candidates) {
    EXPECT_GT(c.size.bytes(), 0) << c.name;
    EXPECT_GT(c.materialization_time, Duration::Zero()) << c.name;
    EXPECT_GE(c.maintenance_time, Duration::Zero()) << c.name;
    EXPECT_FALSE(c.name.empty());
  }
}

TEST_F(CandidateGenTest, MaxCandidatesCapRespected) {
  CandidateGenOptions options;
  options.max_candidates = 3;
  auto candidates = GenerateCandidates(*lattice_, workload_, *simulator_,
                                       cluster_, options);
  ASSERT_TRUE(candidates.ok());
  EXPECT_LE(candidates->size(), 3u);
}

TEST_F(CandidateGenTest, CandidatesRankedByBenefit) {
  // The cap keeps the *best* candidates: an uncapped run's top-k must
  // equal the capped run.
  CandidateGenOptions uncapped;
  uncapped.max_candidates = 100;
  CandidateGenOptions capped;
  capped.max_candidates = 4;
  auto all = GenerateCandidates(*lattice_, workload_, *simulator_,
                                cluster_, uncapped);
  auto top = GenerateCandidates(*lattice_, workload_, *simulator_,
                                cluster_, capped);
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(top.ok());
  ASSERT_GE(all->size(), top->size());
  for (size_t i = 0; i < top->size(); ++i) {
    EXPECT_EQ((*top)[i].view, (*all)[i].view);
  }
}

TEST_F(CandidateGenTest, RowsFractionCapExcludesNearFactViews) {
  CandidateGenOptions options;
  options.max_rows_fraction = 0.05;
  auto candidates = GenerateCandidates(*lattice_, workload_, *simulator_,
                                       cluster_, options);
  ASSERT_TRUE(candidates.ok());
  uint64_t fact_rows = lattice_->schema().stats().fact_rows;
  for (const ViewCandidate& c : *candidates) {
    EXPECT_LE(lattice_->EstimateRows(c.view),
              static_cast<uint64_t>(0.05 * fact_rows) + 1)
        << c.name;
  }
  // The finest cuboid (day, department) is ~9% of facts: excluded.
  for (const ViewCandidate& c : *candidates) {
    EXPECT_NE(c.view, lattice_->base_id());
  }
}

TEST_F(CandidateGenTest, QueriesOnlyRestrictsToWorkloadCuboids) {
  CandidateGenOptions options;
  options.queries_only = true;
  auto candidates = GenerateCandidates(*lattice_, workload_, *simulator_,
                                       cluster_, options);
  ASSERT_TRUE(candidates.ok());
  std::set<CuboidId> targets;
  for (const QuerySpec& q : workload_.queries()) targets.insert(q.target);
  for (const ViewCandidate& c : *candidates) {
    EXPECT_TRUE(targets.count(c.view)) << c.name;
  }
}

TEST_F(CandidateGenTest, MaintenanceDeltaRaisesMaintenanceTime) {
  CandidateGenOptions no_delta;
  CandidateGenOptions with_delta;
  with_delta.maintenance_delta = DataSize::FromGB(1);
  auto a = GenerateCandidates(*lattice_, workload_, *simulator_,
                              cluster_, no_delta);
  auto b = GenerateCandidates(*lattice_, workload_, *simulator_,
                              cluster_, with_delta);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_LT((*a)[i].maintenance_time, (*b)[i].maintenance_time);
  }
}

TEST_F(CandidateGenTest, Validation) {
  EXPECT_TRUE(GenerateCandidates(*lattice_, Workload{}, *simulator_,
                                 cluster_, CandidateGenOptions{})
                  .status()
                  .IsInvalidArgument());
  CandidateGenOptions bad;
  bad.max_candidates = 0;
  EXPECT_TRUE(GenerateCandidates(*lattice_, workload_, *simulator_,
                                 cluster_, bad)
                  .status()
                  .IsInvalidArgument());
  bad = CandidateGenOptions{};
  bad.max_size_fraction = 0.0;
  EXPECT_TRUE(GenerateCandidates(*lattice_, workload_, *simulator_,
                                 cluster_, bad)
                  .status()
                  .IsInvalidArgument());
  bad = CandidateGenOptions{};
  bad.max_rows_fraction = -1.0;
  EXPECT_TRUE(GenerateCandidates(*lattice_, workload_, *simulator_,
                                 cluster_, bad)
                  .status()
                  .IsInvalidArgument());
}

// --- Ranking is a total order; truncation is a deterministic prefix ---------
//
// Regression for the resize(max_candidates) cliff: with only a
// float-benefit comparator, equal-benefit candidates straddling the cap
// made the kept roster an artifact of std::sort's tie order. The
// comparator now breaks benefit ties by CuboidId (lint D3: paired `>`
// compares, no float equality), so any cap keeps a reproducible prefix.

TEST_F(CandidateGenTest, TruncationKeepsADeterministicPrefix) {
  CandidateGenOptions wide;
  wide.max_candidates = 1000;  // Effectively uncapped.
  auto full = GenerateCandidates(*lattice_, workload_, *simulator_,
                                 cluster_, wide)
                  .MoveValue();
  ASSERT_GT(full.size(), 6u);

  for (size_t cap : {size_t{1}, size_t{6}, full.size() - 1}) {
    CandidateGenOptions capped;
    capped.max_candidates = cap;
    auto truncated = GenerateCandidates(*lattice_, workload_, *simulator_,
                                        cluster_, capped)
                         .MoveValue();
    ASSERT_EQ(truncated.size(), cap);
    for (size_t i = 0; i < cap; ++i) {
      EXPECT_EQ(truncated[i].view, full[i].view) << "cap=" << cap;
    }
  }

  // Repeat generation is byte-identical, cap or no cap.
  for (int repeat = 0; repeat < 3; ++repeat) {
    auto again = GenerateCandidates(*lattice_, workload_, *simulator_,
                                    cluster_, wide)
                     .MoveValue();
    ASSERT_EQ(again.size(), full.size());
    for (size_t i = 0; i < full.size(); ++i) {
      EXPECT_EQ(again[i].view, full[i].view);
      EXPECT_EQ(again[i].size.bytes(), full[i].size.bytes());
    }
  }
}

}  // namespace
}  // namespace cloudview
