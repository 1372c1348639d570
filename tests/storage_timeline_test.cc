#include "core/cost/storage_timeline.h"

#include <gtest/gtest.h>

#include "core/cost/storage_cost.h"
#include "pricing/providers.h"

namespace cloudview {
namespace {

TEST(StorageTimeline, EmptyTimelineHasNoIntervals) {
  StorageTimeline timeline;
  auto intervals = timeline.Intervals(Months::FromMonths(12));
  ASSERT_TRUE(intervals.ok());
  EXPECT_TRUE(intervals->empty());
}

TEST(StorageTimeline, SingleVolumeSpansWholePeriod) {
  StorageTimeline timeline(DataSize::FromGB(500));
  auto intervals = timeline.Intervals(Months::FromMonths(12));
  ASSERT_TRUE(intervals.ok());
  ASSERT_EQ(intervals->size(), 1u);
  EXPECT_EQ((*intervals)[0].start, Months::Zero());
  EXPECT_EQ((*intervals)[0].end, Months::FromMonths(12));
  EXPECT_EQ((*intervals)[0].size, DataSize::FromGB(500));
  EXPECT_EQ((*intervals)[0].duration(), Months::FromMonths(12));
}

TEST(StorageTimeline, EventsMayArriveOutOfOrder) {
  StorageTimeline timeline;
  ASSERT_TRUE(
      timeline.AddDelta(Months::FromMonths(7), DataSize::FromTB(2)).ok());
  ASSERT_TRUE(
      timeline.AddDelta(Months::Zero(), DataSize::FromGB(512)).ok());
  auto intervals = timeline.Intervals(Months::FromMonths(12));
  ASSERT_TRUE(intervals.ok());
  ASSERT_EQ(intervals->size(), 2u);
  EXPECT_EQ((*intervals)[0].size, DataSize::FromGB(512));
  EXPECT_EQ((*intervals)[1].size, DataSize::FromGB(2560));
}

TEST(StorageTimeline, SameMonthEventsCoalesce) {
  StorageTimeline timeline(DataSize::FromGB(100));
  ASSERT_TRUE(
      timeline.AddDelta(Months::FromMonths(3), DataSize::FromGB(50)).ok());
  ASSERT_TRUE(
      timeline.AddDelta(Months::FromMonths(3), DataSize::FromGB(-30))
          .ok());
  auto intervals = timeline.Intervals(Months::FromMonths(6));
  ASSERT_TRUE(intervals.ok());
  ASSERT_EQ(intervals->size(), 2u);
  EXPECT_EQ((*intervals)[1].size, DataSize::FromGB(120));
}

TEST(StorageTimeline, DeletionToZeroDropsInterval) {
  StorageTimeline timeline(DataSize::FromGB(100));
  ASSERT_TRUE(timeline
                  .AddDelta(Months::FromMonths(4),
                            DataSize::FromGB(-100))
                  .ok());
  auto intervals = timeline.Intervals(Months::FromMonths(12));
  ASSERT_TRUE(intervals.ok());
  ASSERT_EQ(intervals->size(), 1u);
  EXPECT_EQ((*intervals)[0].end, Months::FromMonths(4));
}

TEST(StorageTimeline, OverdeletionFails) {
  StorageTimeline timeline(DataSize::FromGB(100));
  ASSERT_TRUE(timeline
                  .AddDelta(Months::FromMonths(2),
                            DataSize::FromGB(-200))
                  .ok());
  EXPECT_TRUE(timeline.Intervals(Months::FromMonths(12))
                  .status()
                  .IsFailedPrecondition());
}

TEST(StorageTimeline, EventsAtOrAfterPeriodEndIgnored) {
  StorageTimeline timeline(DataSize::FromGB(100));
  ASSERT_TRUE(
      timeline.AddDelta(Months::FromMonths(12), DataSize::FromTB(9)).ok());
  auto intervals = timeline.Intervals(Months::FromMonths(12));
  ASSERT_TRUE(intervals.ok());
  ASSERT_EQ(intervals->size(), 1u);
  EXPECT_EQ((*intervals)[0].size, DataSize::FromGB(100));
}

TEST(StorageTimeline, NegativeEventTimeRejected) {
  StorageTimeline timeline;
  EXPECT_TRUE(timeline.AddDelta(Months::FromMilli(-1), DataSize::FromGB(1))
                  .IsInvalidArgument());
}

TEST(StorageTimeline, NegativePeriodEndRejected) {
  StorageTimeline timeline(DataSize::FromGB(1));
  EXPECT_TRUE(timeline.Intervals(Months::FromMilli(-5))
                  .status()
                  .IsInvalidArgument());
}

TEST(StorageTimeline, SizeAt) {
  StorageTimeline timeline(DataSize::FromGB(512));
  ASSERT_TRUE(
      timeline.AddDelta(Months::FromMonths(7), DataSize::FromTB(2)).ok());
  EXPECT_EQ(timeline.SizeAt(Months::Zero()), DataSize::FromGB(512));
  EXPECT_EQ(timeline.SizeAt(Months::FromMonths(6)),
            DataSize::FromGB(512));
  EXPECT_EQ(timeline.SizeAt(Months::FromMonths(7)),
            DataSize::FromGB(2560));
  EXPECT_EQ(timeline.SizeAt(Months::FromMonths(11)),
            DataSize::FromGB(2560));
}

TEST(StorageTimeline, FractionalMonthIntervals) {
  StorageTimeline timeline(DataSize::FromGB(100));
  ASSERT_TRUE(
      timeline.AddDelta(Months::FromMilli(500), DataSize::FromGB(100))
          .ok());
  auto intervals = timeline.Intervals(Months::FromMonths(1));
  ASSERT_TRUE(intervals.ok());
  ASSERT_EQ(intervals->size(), 2u);
  EXPECT_EQ((*intervals)[0].duration(), Months::FromMilli(500));
  EXPECT_EQ((*intervals)[1].duration(), Months::FromMilli(500));
}

// StorageCostModel integration: pro-rata pricing over fractional spans.
TEST(StorageCostModel, FractionalSpansAreProRata) {
  PricingModel aws = ProviderRegistry::Global().Model("aws-2012").value();
  StorageCostModel model(aws);
  StorageTimeline timeline(DataSize::FromGB(100));
  // Half a month at $0.14/GB-month on 100 GB = $7.
  auto cost = model.Cost(timeline, Months::FromMilli(500));
  ASSERT_TRUE(cost.ok());
  EXPECT_EQ(cost.value(), Money::FromDollars(7));
}

TEST(StorageCostModel, SplittingAnIntervalChangesNothing) {
  // Cost over [0, 12) equals cost over [0, 7) plus [7, 12) when the
  // volume is constant — interval decomposition is consistent.
  PricingModel aws = ProviderRegistry::Global().Model("aws-2012").value();
  StorageCostModel model(aws);
  DataSize v = DataSize::FromGB(500);
  Money whole = model.ConstantCost(v, Months::FromMonths(12));
  Money split = model.ConstantCost(v, Months::FromMonths(7)) +
                model.ConstantCost(v, Months::FromMonths(5));
  EXPECT_EQ(whole, split);
}

}  // namespace
}  // namespace cloudview
