// EvaluationCache telemetry: lookups, hits, misses and epoch evictions
// are counted (what a session reports as meta.cache_*).

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
