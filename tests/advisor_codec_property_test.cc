// Round-trip property of the advisor request codec: for seeded random
// requests of every kind, with every wire field drawn from its wire
// range, Parse(Encode(x)) equals x field for field and re-encodes to the
// same text; the same holds for random ScenarioConfigs. Encoding a parsed
// line is a fixed point, which also makes this the oracle for any input
// a codec fuzzer finds that parses.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/scenario.h"
#include "serving/advisor_codec.h"
#include "serving/json.h"

namespace cloudview {
namespace {

constexpr int kCasesPerKind = 200;

// Awkward bytes on purpose: quotes, backslashes, control characters and
// a two-byte UTF-8 sequence all have to survive the JSON string codec.
std::string RandomString(Rng& rng) {
  static const std::vector<std::string> kPieces = {
      "a", "Z", "7", "-", " ", "\"", "\\", "\n", "\t", "\x01", "\xc3\xa9"};
  std::string s;
  for (uint64_t n = rng.Uniform(6); n > 0; --n) {
    s += kPieces[rng.Uniform(kPieces.size())];
  }
  return s;
}

std::string RandomName(Rng& rng) { return "n" + RandomString(rng); }

int64_t RandomInt(Rng& rng) {
  switch (rng.Uniform(3)) {
    case 0:
      return rng.UniformInt(-3, 3);
    case 1:
      return rng.UniformInt(-1'000'000, 1'000'000);
    default:
      return static_cast<int64_t>(rng.Next());
  }
}

// [0, 2^63): the wire range of a uint64 field.
uint64_t RandomUint63(Rng& rng) {
  return rng.Bernoulli(0.5) ? rng.Uniform(100) : rng.Next() >> 1;
}

int64_t RandomPositive(Rng& rng) {
  return rng.Bernoulli(0.5) ? rng.UniformInt(1, 10)
                            : rng.UniformInt(1, std::numeric_limits<int64_t>::max());
}

// Any finite double, from tiny to huge, either sign.
double RandomDouble(Rng& rng) {
  const double scale = std::pow(10.0, static_cast<double>(rng.UniformInt(-8, 12)));
  return (rng.UniformDouble() * 2.0 - 1.0) * scale;
}

double RandomFraction(Rng& rng) {
  switch (rng.Uniform(4)) {
    case 0:
      return 0.0;
    case 1:
      return 1.0;
    default:
      return rng.UniformDouble();
  }
}

template <typename T, size_t N>
T Pick(Rng& rng, const T (&values)[N]) {
  return values[rng.Uniform(N)];
}

ArchitectureSpec RandomArchitecture(Rng& rng) {
  ArchitectureSpec spec;
  spec.name = RandomName(rng);
  spec.durability = Pick(rng, {DurabilityTier::kLocal, DurabilityTier::kZonal,
                               DurabilityTier::kRegional});
  for (uint64_t n = rng.Uniform(3); n > 0; --n) {
    NodeGroupSpec group;
    group.name = RandomName(rng);
    group.replicas = rng.UniformInt(1, 1024);
    group.zones = rng.UniformInt(1, group.replicas);
    group.plan = Pick(rng, {PurchasePlan::kOnDemand, PurchasePlan::kReserved,
                            PurchasePlan::kSpot});
    spec.groups.push_back(group);
  }
  return spec;
}

ObjectiveSpec RandomObjective(Rng& rng) {
  ObjectiveSpec spec;
  spec.scenario = Pick(rng, {Scenario::kMV1BudgetLimit, Scenario::kMV2TimeLimit,
                             Scenario::kMV3Tradeoff});
  spec.budget_limit = Money::FromMicros(RandomInt(rng));
  spec.time_limit = Duration::FromMillis(RandomInt(rng));
  spec.alpha = RandomFraction(rng);
  spec.time_includes_materialization = rng.Bernoulli(0.5);
  spec.mv3_reference_time = Duration::FromMillis(RandomInt(rng));
  spec.mv3_reference_cost = Money::FromMicros(RandomInt(rng));
  spec.max_monthly_cost = Money::FromMicros(RandomInt(rng));
  spec.max_storage = DataSize::FromBytes(RandomInt(rng));
  spec.max_makespan = Duration::FromMillis(RandomInt(rng));
  spec.frontier_epsilon = RandomDouble(rng);
  for (uint64_t n = rng.Uniform(3); n > 0; --n) {
    spec.architectures.push_back(RandomArchitecture(rng));
  }
  spec.architecture_inner_solver = RandomString(rng);
  return spec;
}

WorkloadSpec RandomWorkload(Rng& rng) {
  WorkloadSpec spec;
  spec.kind = Pick(rng, {"default", "queries"});
  for (uint64_t n = rng.Uniform(4); n > 0; --n) {
    QuerySpec query;
    query.name = RandomString(rng);
    query.target = static_cast<CuboidId>(rng.Next());
    query.frequency = rng.Uniform(kMaxPeriodRuns + 1);
    spec.queries.push_back(query);
  }
  return spec;
}

TimelineSpec RandomTimeline(Rng& rng) {
  TimelineSpec spec;
  spec.num_periods = RandomInt(rng);
  spec.period_length = Months::FromMilli(RandomInt(rng));
  spec.seed = RandomUint63(rng);
  for (uint64_t n = rng.Uniform(4); n > 0; --n) {
    DriftSpec drift;
    drift.kind = Pick(rng, {"frequency-decay", "seasonal-spike", "query-churn",
                            "dataset-growth"});
    drift.factor = RandomDouble(rng);
    drift.floor = RandomInt(rng);
    drift.season_length = RandomInt(rng);
    drift.phase = RandomInt(rng);
    drift.amplitude = rng.UniformDouble() * kMaxSpikeAmplitude;
    drift.rate = RandomDouble(rng);
    drift.cuboid_skew = RandomDouble(rng);
    drift.growth_per_period = RandomDouble(rng);
    spec.drifts.push_back(drift);
  }
  return spec;
}

ReselectPolicy RandomPolicy(Rng& rng) {
  ReselectPolicy policy;
  policy.kind = Pick(rng, {ReselectPolicy::Kind::kStatic,
                           ReselectPolicy::Kind::kEveryK,
                           ReselectPolicy::Kind::kOnDrift});
  policy.every_k = RandomPositive(rng);
  policy.drift_threshold = RandomFraction(rng);
  return policy;
}

AdvisorRequest RandomRequest(Rng& rng, AdvisorRequestKind kind) {
  AdvisorRequest request;
  request.kind = kind;
  request.session = RandomString(rng);
  request.solver = RandomString(rng);
  request.objective = RandomObjective(rng);
  request.workload = RandomWorkload(rng);
  request.timeline = RandomTimeline(rng);
  request.policy = RandomPolicy(rng);
  for (uint64_t n = rng.Uniform(4); n > 0; --n) {
    request.policies.push_back(RandomPolicy(rng));
  }
  request.deadline_ms = static_cast<int64_t>(RandomUint63(rng));
  return request;
}

ScenarioConfig RandomConfig(Rng& rng) {
  ScenarioConfig config;
  config.schema = Pick(rng, {"sales", "ssb"});
  config.provider = RandomString(rng);
  config.instance_name = RandomString(rng);
  config.nb_instances = rng.UniformInt(1, kMaxInstances);
  config.maintenance_cycles = rng.UniformInt(0, kMaxMaintenanceCycles);
  config.prorate_storage = rng.Bernoulli(0.5);
  config.storage_period =
      Months::FromMilli(rng.UniformInt(0, kMaxStoragePeriodMilliMonths));
  config.single_compute_session = rng.Bernoulli(0.5);
  config.frontier_solver = RandomString(rng);
  config.candidates.max_candidates =
      static_cast<size_t>(RandomPositive(rng));
  config.candidates.max_size_fraction = RandomDouble(rng);
  config.candidates.max_rows_fraction = RandomDouble(rng);
  config.candidates.maintenance_delta =
      DataSize::FromBytes(rng.UniformInt(0, kMaxMaintenanceDeltaBytes));
  config.candidates.queries_only = rng.Bernoulli(0.5);
  return config;
}

TEST(AdvisorCodecProperty, EveryRequestKindRoundTripsFieldForField) {
  Rng rng(20121);
  for (const auto& [kind, name] : kAdvisorRequestKinds) {
    for (int i = 0; i < kCasesPerKind; ++i) {
      const AdvisorRequest request = RandomRequest(rng, kind);
      const std::string text = WriteJson(AdvisorRequestToJson(request));
      Result<AdvisorRequest> parsed = ParseAdvisorRequestText(text);
      ASSERT_TRUE(parsed.ok()) << name << ": " << parsed.status() << "\n"
                               << text;
      EXPECT_TRUE(parsed.value() == request) << name << ": " << text;
      ASSERT_EQ(WriteJson(AdvisorRequestToJson(parsed.value())), text);
    }
  }
}

TEST(AdvisorCodecProperty, ScenarioConfigRoundTripsFieldForField) {
  Rng rng(2012);
  for (int i = 0; i < kCasesPerKind; ++i) {
    const ScenarioConfig config = RandomConfig(rng);
    const std::string text = WriteJson(ScenarioConfigToJson(config));
    Result<JsonValue> json = ParseJson(text);
    ASSERT_TRUE(json.ok()) << json.status() << "\n" << text;
    Result<ScenarioConfig> parsed = ParseScenarioConfig(json.value());
    ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << text;
    const ScenarioConfig& back = parsed.value();
    EXPECT_EQ(back.schema, config.schema) << text;
    EXPECT_EQ(back.provider, config.provider) << text;
    EXPECT_EQ(back.instance_name, config.instance_name) << text;
    EXPECT_EQ(back.nb_instances, config.nb_instances) << text;
    EXPECT_EQ(back.maintenance_cycles, config.maintenance_cycles) << text;
    EXPECT_EQ(back.prorate_storage, config.prorate_storage) << text;
    EXPECT_EQ(back.storage_period, config.storage_period) << text;
    EXPECT_EQ(back.single_compute_session, config.single_compute_session)
        << text;
    EXPECT_EQ(back.frontier_solver, config.frontier_solver) << text;
    EXPECT_TRUE(back.candidates == config.candidates) << text;
    ASSERT_EQ(WriteJson(ScenarioConfigToJson(back)), text);
  }
}

// A hand-written line leaves most fields at their defaults; encoding
// what it parses to and parsing that again changes nothing.
TEST(AdvisorCodecProperty, EncodingAParsedLineIsAFixedPoint) {
  for (const auto& [kind, name] : kAdvisorRequestKinds) {
    for (const std::string& line :
         {"{\"kind\":\"" + std::string(name) + "\"}",
          "{\"kind\":\"" + std::string(name) +
              "\",\"policy\":{\"kind\":\"every-k\",\"k\":3},"
              "\"policies\":[{\"kind\":\"on-drift\"},{\"kind\":\"static\"}],"
              "\"objective\":{\"alpha\":-0.0}}"}) {
      Result<AdvisorRequest> first = ParseAdvisorRequestText(line);
      ASSERT_TRUE(first.ok()) << first.status() << "\n" << line;
      const std::string once = WriteJson(AdvisorRequestToJson(first.value()));
      Result<AdvisorRequest> second = ParseAdvisorRequestText(once);
      ASSERT_TRUE(second.ok()) << second.status() << "\n" << once;
      EXPECT_TRUE(second.value() == first.value()) << once;
      EXPECT_EQ(WriteJson(AdvisorRequestToJson(second.value())), once);
    }
  }
  // Policy fields a kind does not use keep its factory values.
  AdvisorRequest parsed =
      ParseAdvisorRequestText(
          R"({"kind":"compare-policies","policies":[{"kind":"static"},)"
          R"({"kind":"every-k","k":4},{"kind":"on-drift"}]})")
          .MoveValue();
  ASSERT_EQ(parsed.policies.size(), 3u);
  EXPECT_TRUE(parsed.policies[0] == ReselectPolicy::Static());
  EXPECT_TRUE(parsed.policies[1] == ReselectPolicy::EveryK(4));
  EXPECT_TRUE(parsed.policies[2] == ReselectPolicy::OnDrift(0.2));
}

}  // namespace
}  // namespace cloudview
