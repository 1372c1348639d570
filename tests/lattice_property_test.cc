// Randomized lattice properties: for randomly shaped schemas (dimension
// counts, level depths, cardinalities), the partial order, the id
// encoding, the cardinality estimator and the key codec must hold their
// invariants. Parameterized over seeds.
//
// The per-node tables CubeLattice::Build precomputes (row estimates,
// level vectors, the coarse-to-fine order) are checked against direct
// computation on the SSB and sales lattices, and the query lists the
// seeded generators draw from that order are pinned.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <vector>

#include "catalog/key_codec.h"
#include "catalog/lattice.h"
#include "common/random.h"
#include "engine/sales_generator.h"
#include "workload/generator.h"
#include "workload/ssb.h"
#include "workload/timeline.h"

namespace cloudview {
namespace {

StarSchema RandomSchema(Rng& rng) {
  size_t num_dims = 1 + rng.Uniform(4);  // 1..4 dimensions.
  std::vector<Dimension> dims;
  for (size_t d = 0; d < num_dims; ++d) {
    size_t depth = 1 + rng.Uniform(3);  // 1..3 explicit levels.
    std::vector<DimensionLevel> levels;
    uint64_t card = 1 + rng.Uniform(5000);
    for (size_t l = 0; l < depth; ++l) {
      levels.push_back(
          {"d" + std::to_string(d) + "_l" + std::to_string(l), card});
      card = 1 + rng.Uniform(card);  // Coarser level: smaller or equal.
    }
    dims.push_back(
        Dimension::Create("dim" + std::to_string(d), std::move(levels))
            .MoveValue());
  }
  PhysicalStats stats;
  stats.fact_rows = 1 + rng.Uniform(100'000'000);
  return StarSchema::Create("fact", std::move(dims),
                            {{"m", AggFn::kSum}}, stats)
      .MoveValue();
}

class LatticePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LatticePropertyTest, IdRoundTripAndOrderInvariants) {
  Rng rng(GetParam());
  for (int round = 0; round < 10; ++round) {
    CubeLattice lattice =
        CubeLattice::Build(RandomSchema(rng)).MoveValue();
    size_t n = lattice.num_nodes();
    ASSERT_GE(n, 2u);

    // Sample node pairs rather than enumerating n^2 for big lattices.
    for (int probe = 0; probe < 200; ++probe) {
      CuboidId a = static_cast<CuboidId>(rng.Uniform(n));
      CuboidId b = static_cast<CuboidId>(rng.Uniform(n));

      // Id round trip.
      EXPECT_EQ(lattice.IdOf(lattice.CuboidOf(a)), a);

      // Base answers everything; apex answers only itself.
      EXPECT_TRUE(lattice.CanAnswer(lattice.base_id(), a));
      if (a != lattice.apex_id()) {
        EXPECT_FALSE(lattice.CanAnswer(lattice.apex_id(), a));
      }

      // Antisymmetry.
      if (a != b) {
        EXPECT_FALSE(lattice.CanAnswer(a, b) && lattice.CanAnswer(b, a));
      }

      // Estimator: monotone along answerability, bounded by facts.
      if (lattice.CanAnswer(a, b)) {
        EXPECT_GE(lattice.EstimateRows(a), lattice.EstimateRows(b));
      }
      EXPECT_LE(lattice.EstimateRows(a),
                lattice.schema().stats().fact_rows);
      EXPECT_GE(lattice.EstimateRows(a), 1u);
    }

    // Parents/children are inverse neighbour relations.
    for (int probe = 0; probe < 20; ++probe) {
      CuboidId id = static_cast<CuboidId>(rng.Uniform(n));
      for (CuboidId parent : lattice.Parents(id)) {
        auto children = lattice.Children(parent);
        EXPECT_NE(std::find(children.begin(), children.end(), id),
                  children.end());
      }
    }
  }
}

TEST_P(LatticePropertyTest, KeyCodecRoundTripsRandomKeys) {
  Rng rng(GetParam() ^ 0xC0DEC);
  for (int round = 0; round < 10; ++round) {
    StarSchema schema = RandomSchema(rng);
    auto codec = KeyCodec::ForSchema(schema);
    if (!codec.ok()) continue;  // >64-bit keys are validly rejected.
    for (int probe = 0; probe < 100; ++probe) {
      std::vector<uint32_t> key(schema.num_dimensions());
      for (size_t d = 0; d < key.size(); ++d) {
        key[d] = static_cast<uint32_t>(
            rng.Uniform(schema.dimension(d).level(0).cardinality));
      }
      uint64_t packed = codec->Encode(key);
      EXPECT_EQ(codec->Decode(packed), key);
      for (size_t d = 0; d < key.size(); ++d) {
        EXPECT_EQ(codec->DecodeDim(packed, d), key[d]);
      }
    }
  }
}

TEST_P(LatticePropertyTest, EstimateSizeConsistentWithRows) {
  Rng rng(GetParam() ^ 0x517E);
  for (int round = 0; round < 10; ++round) {
    CubeLattice lattice =
        CubeLattice::Build(RandomSchema(rng)).MoveValue();
    int64_t view_width = lattice.schema().stats().bytes_per_view_row;
    for (int probe = 0; probe < 50; ++probe) {
      CuboidId id =
          static_cast<CuboidId>(rng.Uniform(lattice.num_nodes()));
      EXPECT_EQ(lattice.EstimateSize(id).bytes(),
                static_cast<int64_t>(lattice.EstimateRows(id)) *
                    view_width);
    }
    // Every cuboid's aggregate is at most the raw fact scan when view
    // rows are no wider than fact rows.
    if (view_width <= lattice.schema().stats().bytes_per_fact_row) {
      for (int probe = 0; probe < 20; ++probe) {
        CuboidId id =
            static_cast<CuboidId>(rng.Uniform(lattice.num_nodes()));
        EXPECT_LE(lattice.EstimateSize(id), lattice.fact_scan_size());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LatticePropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

CubeLattice SsbLattice() {
  return CubeLattice::Build(MakeSsbSchema(SsbConfig{}).value())
      .MoveValue();
}

CubeLattice SalesLattice() {
  return CubeLattice::Build(MakeSalesSchema(SalesConfig{}).value())
      .MoveValue();
}

// Cardenas' formula over the cuboid's key space, straight from the
// schema: d(1 - e^(-n/d)) capped by n and d, at least 1.
uint64_t CardenasRows(const CubeLattice& lattice, CuboidId id) {
  const StarSchema& schema = lattice.schema();
  Cuboid cuboid = lattice.CuboidOf(id);
  uint64_t d = 1;
  for (size_t dim = 0; dim < schema.num_dimensions(); ++dim) {
    uint64_t card =
        schema.dimension(dim).level(cuboid.levels[dim]).cardinality;
    if (card != 0 && d > UINT64_MAX / card) {
      d = UINT64_MAX;
      break;
    }
    d *= card;
  }
  uint64_t n = schema.stats().fact_rows;
  if (d == 0) return 0;
  long double dd = static_cast<long double>(d);
  long double nn = static_cast<long double>(n);
  uint64_t est =
      static_cast<uint64_t>(dd * (1.0L - std::exp(-nn / dd)));
  est = std::min({est, d, n});
  return est == 0 ? 1 : est;
}

class LatticeTablesTest : public ::testing::TestWithParam<bool> {
 protected:
  CubeLattice Lattice() const {
    return GetParam() ? SsbLattice() : SalesLattice();
  }
};

TEST_P(LatticeTablesTest, RowEstimatesMatchCardenas) {
  CubeLattice lattice = Lattice();
  int64_t width = lattice.schema().stats().bytes_per_view_row;
  for (CuboidId id = 0; id < lattice.num_nodes(); ++id) {
    EXPECT_EQ(lattice.EstimateRows(id), CardenasRows(lattice, id)) << id;
    EXPECT_EQ(lattice.EstimateSize(id).bytes(),
              static_cast<int64_t>(CardenasRows(lattice, id)) * width);
  }
}

TEST_P(LatticeTablesTest, CanAnswerMatchesLevelComparison) {
  CubeLattice lattice = Lattice();
  for (CuboidId view = 0; view < lattice.num_nodes(); ++view) {
    Cuboid v = lattice.CuboidOf(view);
    for (CuboidId query = 0; query < lattice.num_nodes(); ++query) {
      Cuboid q = lattice.CuboidOf(query);
      bool finer = true;
      for (size_t d = 0; d < v.levels.size(); ++d) {
        finer = finer && v.levels[d] <= q.levels[d];
      }
      ASSERT_EQ(lattice.CanAnswer(view, query), finer)
          << view << " -> " << query;
    }
  }
}

TEST_P(LatticeTablesTest, CoarseToFineIsTheStableRowSort) {
  CubeLattice lattice = Lattice();
  std::vector<CuboidId> expected(lattice.num_nodes());
  std::iota(expected.begin(), expected.end(), 0);
  std::stable_sort(expected.begin(), expected.end(),
                   [&](CuboidId a, CuboidId b) {
                     return CardenasRows(lattice, a) <
                            CardenasRows(lattice, b);
                   });
  EXPECT_EQ(lattice.CoarseToFine(), expected);
}

INSTANTIATE_TEST_SUITE_P(
    SsbAndSales, LatticeTablesTest, ::testing::Bool(),
    [](const ::testing::TestParamInfo<bool>& info) {
      return std::string(info.param ? "Ssb" : "Sales");
    });

std::vector<CuboidId> Targets(const Workload& workload) {
  std::vector<CuboidId> out;
  for (const QuerySpec& q : workload.queries()) out.push_back(q.target);
  return out;
}

// Query lists drawn before the coarse-to-fine order moved into the
// lattice: the seeded generators must keep drawing exactly these.
TEST(LatticeOrderPins, SeededGenerateWorkload) {
  CubeLattice ssb = SsbLattice();
  CubeLattice sales = SalesLattice();

  WorkloadGenOptions with_duplicates;
  with_duplicates.num_queries = 16;
  with_duplicates.seed = 7;
  EXPECT_EQ(Targets(GenerateWorkload(ssb, with_duplicates).value()),
            (std::vector<CuboidId>{114, 176, 1, 251, 203, 163, 192, 122,
                                   249, 250, 253, 195, 194, 239, 175,
                                   254}));
  EXPECT_EQ(Targets(GenerateWorkload(sales, with_duplicates).value()),
            (std::vector<CuboidId>{6, 8, 0, 15, 7, 10, 1, 13, 14, 11, 11,
                                   6, 3, 15, 11, 15}));

  WorkloadGenOptions distinct;
  distinct.num_queries = 12;
  distinct.exclude_base = true;
  distinct.allow_duplicates = false;
  distinct.cuboid_skew = 0.9;
  distinct.seed = 41;
  EXPECT_EQ(Targets(GenerateWorkload(ssb, distinct).value()),
            (std::vector<CuboidId>{151, 221, 175, 211, 247, 251, 191, 239,
                                   223, 254, 215, 212}));
}

TEST(LatticeOrderPins, SeededChurnTimeline) {
  CubeLattice ssb = SsbLattice();
  std::vector<std::unique_ptr<DriftModel>> drift;
  drift.push_back(std::make_unique<QueryChurnDrift>(0.35));
  TimelineOptions options;
  options.num_periods = 6;
  options.seed = 17;
  WorkloadTimeline timeline =
      WorkloadTimeline::Generate(ssb, MakeSsbWorkload(ssb).MoveValue(),
                                 std::move(drift), options)
          .MoveValue();
  const std::vector<std::vector<CuboidId>> expected = {
      {191, 127, 187, 55, 184, 184, 45, 131, 131, 198, 154, 165, 144},
      {191, 127, 187, 55, 184, 184, 45, 231, 161, 230, 154, 82, 144},
      {152, 127, 187, 55, 184, 184, 247, 143, 30, 115, 104, 82, 107},
      {152, 127, 221, 55, 184, 184, 247, 186, 30, 115, 104, 82, 107},
      {251, 24, 221, 170, 223, 221, 20, 59, 30, 115, 207, 82, 240},
      {251, 24, 221, 170, 223, 221, 20, 59, 89, 255, 215, 82, 168}};
  ASSERT_EQ(timeline.num_periods(), expected.size());
  for (size_t p = 0; p < expected.size(); ++p) {
    EXPECT_EQ(Targets(timeline.period(p).workload), expected[p]) << p;
  }
}

}  // namespace
}  // namespace cloudview
