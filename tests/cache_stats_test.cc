// EvaluationCache telemetry: lookups, hits, misses and epoch evictions
// are counted, and AddCounts folds a private cache's counts into the
// caller's (how arch-sweep's per-architecture probes reach a session's
// meta.cache_* counters).

#include "core/optimizer/evaluator.h"

#include <gtest/gtest.h>

namespace cloudview {
namespace {

EvaluationCache::Entry MakeEntry(int64_t cost_micros) {
  EvaluationCache::Entry entry;
  entry.total_cost = Money::FromMicros(cost_micros);
  return entry;
}

TEST(CacheStats, LocalCountersTrackFinds) {
  EvaluationCache cache;
  EXPECT_EQ(cache.Find(1), nullptr);  // Miss.
  cache.Insert(1, MakeEntry(10));
  ASSERT_NE(cache.Find(1), nullptr);  // Hit.

  EvaluationCache::AggregateCounts counts = cache.aggregate();
  EXPECT_EQ(counts.lookups, 2u);
  EXPECT_EQ(counts.hits, 1u);
  EXPECT_EQ(counts.misses(), 1u);
}

TEST(CacheStats, AddCountsFoldsAnotherCachesCounters) {
  EvaluationCache parent;
  parent.Insert(1, MakeEntry(10));
  ASSERT_NE(parent.Find(1), nullptr);  // 1 lookup, 1 hit.

  EvaluationCache task(/*max_entries=*/1);
  EXPECT_EQ(task.Find(2), nullptr);  // Miss.
  task.Insert(2, MakeEntry(20));
  task.Insert(3, MakeEntry(30));  // Full: one epoch eviction.
  ASSERT_NE(task.Find(3), nullptr);  // Hit.
  parent.AddCounts(task);

  EvaluationCache::AggregateCounts counts = parent.aggregate();
  EXPECT_EQ(counts.lookups, 3u);  // 1 parent + 2 task.
  EXPECT_EQ(counts.hits, 2u);
  EXPECT_EQ(counts.misses(), 1u);
  EXPECT_EQ(counts.evictions, 1u);
  // Only the counts move: the parent's entries never saw the task's keys.
  EXPECT_EQ(parent.size(), 1u);
  EXPECT_EQ(parent.Find(3), nullptr);
}

TEST(CacheStats, EpochEvictionIsCounted) {
  EvaluationCache cache(/*max_entries=*/2);
  cache.Insert(1, MakeEntry(1));
  cache.Insert(2, MakeEntry(2));
  EXPECT_EQ(cache.aggregate().evictions, 0u);
  cache.Insert(3, MakeEntry(3));  // Full: epoch drop, then insert.
  EXPECT_EQ(cache.aggregate().evictions, 1u);
  EXPECT_EQ(cache.Find(1), nullptr);   // Dropped with the epoch.
  EXPECT_NE(cache.Find(3), nullptr);   // Survived.
  EXPECT_EQ(cache.aggregate().evictions, 1u);
}

}  // namespace
}  // namespace cloudview
