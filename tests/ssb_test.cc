// SSB-like warehouse: 4-dimensional schema, 256-cuboid lattice, the
// 13-query workload, and aggregation correctness beyond 2 dimensions.

#include "workload/ssb.h"

#include <gtest/gtest.h>

#include <set>

#include "catalog/key_codec.h"
#include "core/optimizer/candidate_generation.h"
#include "core/optimizer/evaluator.h"
#include "core/optimizer/selector.h"
#include "engine/aggregator.h"
#include "pricing/providers.h"

namespace cloudview {
namespace {

SsbConfig SmallSsb() {
  SsbConfig config;
  config.years = 2;
  config.cities_per_nation = 4;
  config.brands_per_category = 8;
  config.sample_rows = 30'000;
  config.logical_size = DataSize::FromMB(100);
  return config;
}

TEST(SsbSchema, FourDimensionsTwoMeasures) {
  StarSchema schema = MakeSsbSchema(SsbConfig{}).MoveValue();
  EXPECT_EQ(schema.fact_name(), "lineorder");
  ASSERT_EQ(schema.num_dimensions(), 4u);
  EXPECT_EQ(schema.dimension(0).name(), "Date");
  EXPECT_EQ(schema.dimension(1).name(), "Customer");
  EXPECT_EQ(schema.dimension(2).name(), "Supplier");
  EXPECT_EQ(schema.dimension(3).name(), "Part");
  ASSERT_EQ(schema.measures().size(), 2u);
  EXPECT_EQ(schema.measures()[0].name, "revenue");
  EXPECT_EQ(schema.measures()[1].name, "supplycost");
}

TEST(SsbSchema, DefaultCardinalities) {
  SsbConfig config;
  StarSchema schema = MakeSsbSchema(config).MoveValue();
  EXPECT_EQ(schema.dimension(0).level(0).cardinality, 7u * 360);
  EXPECT_EQ(schema.dimension(1).level(0).cardinality, 250u);
  EXPECT_EQ(schema.dimension(3).level(0).cardinality, 1000u);
}

TEST(SsbSchema, LatticeHas256Cuboids) {
  CubeLattice lattice =
      CubeLattice::Build(MakeSsbSchema(SsbConfig{}).MoveValue())
          .MoveValue();
  EXPECT_EQ(lattice.num_nodes(), 256u);
}

TEST(SsbSchema, KeyCodecFitsIn64Bits) {
  StarSchema schema = MakeSsbSchema(SsbConfig{}).MoveValue();
  auto codec = KeyCodec::ForSchema(schema);
  ASSERT_TRUE(codec.ok());
  uint32_t total = 0;
  for (size_t d = 0; d < codec->num_dims(); ++d) {
    total += codec->bits(d);
  }
  EXPECT_LE(total, 64u);
  // Round trip a representative key.
  std::vector<uint32_t> key = {2519, 249, 0, 999};
  EXPECT_EQ(codec->Decode(codec->Encode(key)), key);
}

TEST(SsbWorkload, ThirteenQueries) {
  CubeLattice lattice =
      CubeLattice::Build(MakeSsbSchema(SsbConfig{}).MoveValue())
          .MoveValue();
  Workload workload = MakeSsbWorkload(lattice).MoveValue();
  EXPECT_EQ(workload.size(), 13u);
  // Flights sharing a cuboid are allowed; but several distinct cuboids
  // must appear (Q1/Q2/Q3/Q4 differ structurally).
  std::set<CuboidId> cuboids;
  for (const QuerySpec& q : workload.queries()) cuboids.insert(q.target);
  EXPECT_GE(cuboids.size(), 8u);
}

TEST(SsbDataset, GenerationAndScale) {
  SsbConfig config = SmallSsb();
  SalesDataset data = GenerateSsbDataset(config).MoveValue();
  EXPECT_EQ(data.num_dimensions(), 4u);
  EXPECT_EQ(data.num_measures(), 2u);
  EXPECT_EQ(data.sample_rows(), config.sample_rows);
  for (uint64_t r = 0; r < data.sample_rows(); ++r) {
    EXPECT_LT(data.dim_value(0, r), config.num_days());
    EXPECT_LT(data.dim_value(1, r), config.num_cities());
    EXPECT_LT(data.dim_value(2, r), config.num_cities());
    EXPECT_LT(data.dim_value(3, r), config.num_brands());
    EXPECT_LE(data.measure_value(1, r), data.measure_value(0, r));
  }
}

TEST(SsbAggregation, FourDimRollUpPathIndependence) {
  SsbConfig config = SmallSsb();
  SalesDataset data = GenerateSsbDataset(config).MoveValue();
  CubeLattice lattice = CubeLattice::Build(data.schema()).MoveValue();

  // A few representative (view, query) pairs across all 4 dimensions.
  struct Pair {
    std::vector<std::string> view;
    std::vector<std::string> query;
  };
  const std::vector<Pair> pairs = {
      {{"month", "nation", "nation", "category"},
       {"year", "region", "ALL", "mfgr"}},
      {{"day", "city", "ALL", "brand"}, {"year", "nation", "ALL", "ALL"}},
      {{"year", "city", "city", "ALL"}, {"year", "ALL", "region", "ALL"}},
      {{"month", "ALL", "nation", "brand"},
       {"ALL", "ALL", "ALL", "ALL"}},
  };
  for (const Pair& pair : pairs) {
    CuboidId view_id = lattice.NodeByLevels(pair.view).value();
    CuboidId query_id = lattice.NodeByLevels(pair.query).value();
    ASSERT_TRUE(lattice.CanAnswer(view_id, query_id));
    CuboidTable view =
        AggregateFromBase(data, lattice, view_id).MoveValue();
    CuboidTable rolled =
        AggregateFromView(data, lattice, view, query_id).MoveValue();
    CuboidTable direct =
        AggregateFromBase(data, lattice, query_id).MoveValue();
    EXPECT_TRUE(CuboidTablesEqual(rolled, direct))
        << lattice.NameOf(view_id) << " -> " << lattice.NameOf(query_id);
  }
}

TEST(SsbAggregation, BothMeasuresSurviveRollUp) {
  SsbConfig config = SmallSsb();
  SalesDataset data = GenerateSsbDataset(config).MoveValue();
  CubeLattice lattice = CubeLattice::Build(data.schema()).MoveValue();
  CuboidTable apex =
      AggregateFromBase(data, lattice, lattice.apex_id()).MoveValue();
  ASSERT_EQ(apex.num_rows(), 1u);
  int64_t revenue = 0;
  int64_t cost = 0;
  for (uint64_t r = 0; r < data.sample_rows(); ++r) {
    revenue += data.measure_value(0, r);
    cost += data.measure_value(1, r);
  }
  EXPECT_EQ(apex.aggregate(0, 0), revenue);
  EXPECT_EQ(apex.aggregate(1, 0), cost);
}

TEST(SsbSelection, EndToEndViewSelectionWorks) {
  // The full optimizer stack on the 4-dimensional lattice.
  SsbConfig config;  // Full-size logical stats; no sample needed.
  StarSchema schema = MakeSsbSchema(config).MoveValue();
  CubeLattice lattice = CubeLattice::Build(std::move(schema)).MoveValue();
  MapReduceParams params;
  MapReduceSimulator simulator(lattice, params);
  PricingModel pricing =
      ProviderRegistry::Global().Model("aws-2012")->WithComputeGranularity(
          BillingGranularity::kSecond);
  CloudCostModel cost_model(pricing);
  ClusterSpec cluster{pricing.instances().Find("small").value(), 5};
  Workload workload = MakeSsbWorkload(lattice).MoveValue();

  DeploymentSpec deployment;
  deployment.instance = cluster.instance;
  deployment.nb_instances = cluster.nodes;
  deployment.storage_period = Months::FromMilli(3);
  deployment.base_storage = StorageTimeline(lattice.fact_scan_size());
  deployment.maintenance_cycles = 0;

  CandidateGenOptions options;
  options.max_candidates = 12;
  options.max_rows_fraction = 0.10;
  auto candidates = GenerateCandidates(lattice, workload, simulator,
                                       cluster, options)
                        .MoveValue();
  ASSERT_FALSE(candidates.empty());

  SelectionEvaluator evaluator =
      SelectionEvaluator::Create(lattice, workload, simulator, cluster,
                                 cost_model, deployment,
                                 std::move(candidates))
          .MoveValue();
  ViewSelector selector(evaluator);
  ObjectiveSpec spec;
  spec.scenario = Scenario::kMV3Tradeoff;
  spec.alpha = 0.5;
  SelectionResult result =
      selector.Solve(spec, "knapsack-dp").MoveValue();
  EXPECT_GT(result.evaluation.selected.size(), 0u);
  EXPECT_LT(result.objective_value, 1.0);
}

TEST(SsbConfigTest, Validation) {
  SsbConfig config = SmallSsb();
  config.sample_rows = 0;
  EXPECT_TRUE(GenerateSsbDataset(config).status().IsInvalidArgument());
  config = SmallSsb();
  config.regions = 0;
  EXPECT_TRUE(MakeSsbSchema(config).status().IsInvalidArgument());
}

}  // namespace
}  // namespace cloudview
