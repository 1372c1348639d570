#include "serving/advisor_codec.h"

#include <cmath>
#include <concepts>
#include <limits>
#include <span>
#include <tuple>
#include <type_traits>
#include <utility>

namespace cloudview {

namespace {

// --- Paths ---------------------------------------------------------------

// Where a value sits in the document ("request.timeline.drifts[0].kind"),
// rendered only when an error names it.
struct Path {
  const Path* parent = nullptr;
  std::string_view key;  // empty for an array element
  size_t index = 0;

  std::string str() const {
    if (parent == nullptr) return std::string(key);
    if (key.empty()) return parent->str() + "[" + std::to_string(index) + "]";
    return parent->str() + "." + std::string(key);
  }
};

Status Invalid(const Path& path, std::string_view problem) {
  return Status::InvalidArgument(path.str() + " " + std::string(problem));
}

// --- Wire enums: one {value, name} list each ---------------------------

template <typename V>
using Names = std::span<const std::pair<V, std::string_view>>;

constexpr std::pair<Scenario, std::string_view> kScenarios[] = {
    {Scenario::kMV1BudgetLimit, "mv1"},
    {Scenario::kMV2TimeLimit, "mv2"},
    {Scenario::kMV3Tradeoff, "mv3"},
};
constexpr std::pair<DurabilityTier, std::string_view> kDurabilities[] = {
    {DurabilityTier::kLocal, "local"},
    {DurabilityTier::kZonal, "zonal"},
    {DurabilityTier::kRegional, "regional"},
};
constexpr std::pair<PurchasePlan, std::string_view> kPlans[] = {
    {PurchasePlan::kOnDemand, "on-demand"},
    {PurchasePlan::kReserved, "reserved"},
    {PurchasePlan::kSpot, "spot"},
};
constexpr std::pair<ReselectPolicy::Kind, std::string_view> kPolicyKinds[] = {
    {ReselectPolicy::Kind::kStatic, "static"},
    {ReselectPolicy::Kind::kEveryK, "every-k"},
    {ReselectPolicy::Kind::kOnDrift, "on-drift"},
};
// String-valued enums: the member holds the name itself.
constexpr std::pair<std::string_view, std::string_view> kWorkloadKinds[] = {
    {"default", "default"},
    {"queries", "queries"},
};
constexpr std::pair<std::string_view, std::string_view> kDriftKinds[] = {
    {"frequency-decay", "frequency-decay"},
    {"seasonal-spike", "seasonal-spike"},
    {"query-churn", "query-churn"},
    {"dataset-growth", "dataset-growth"},
};
constexpr std::pair<std::string_view, std::string_view> kSchemas[] = {
    {"sales", "sales"},
    {"ssb", "ssb"},
};

template <typename V>
std::string Accepted(Names<V> names) {
  std::string accepted = "accepted: ";
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) accepted += ", ";
    accepted += names[i].second;
  }
  return accepted;
}

// --- Validators: "" when the value is fine, else what is wrong ---------

std::string Fraction(const double& v) {
  return v >= 0.0 && v <= 1.0 ? "" : "must be in [0, 1]";
}
std::string NotNegative(const int64_t& v) {
  return v >= 0 ? "" : "must be >= 0";
}
template <typename N>
std::string Positive(const N& v) {
  return v > 0 ? "" : "must be > 0";
}
std::string RunsPerPeriod(const uint64_t& v) {
  return v <= kMaxPeriodRuns
             ? ""
             : "must be at most " + std::to_string(kMaxPeriodRuns);
}
// The config bounds of core/advisor.h, on counts and on exact units.
template <int64_t kMin, int64_t kMax>
std::string InRange(const int64_t& v) {
  return v >= kMin && v <= kMax ? ""
                                : "must be in [" + std::to_string(kMin) +
                                      ", " + std::to_string(kMax) + "]";
}
std::string DeltaBytes(const DataSize& v) {
  return InRange<0, kMaxMaintenanceDeltaBytes>(v.bytes());
}
std::string StoragePeriod(const Months& v) {
  return InRange<0, kMaxStoragePeriodMilliMonths>(v.milli());
}
std::string SpikeAmplitude(const double& v) {
  return v >= 0.0 && v <= kMaxSpikeAmplitude
             ? ""
             : "must be in [0, " +
                   std::to_string(static_cast<int64_t>(kMaxSpikeAmplitude)) +
                   "]";
}

// --- Field tables --------------------------------------------------------
// Each wire struct declares its fields once, in wire order. The key check
// with its "accepted fields:" list, the typed reads, the validators and
// the encoder are all derived from that one table.

struct NoNames {};

template <typename T, typename M, typename N = NoNames>
struct Field {
  std::string_view name;
  M T::*member;
  N names{};  // the wire enum's {value, name} list, for enum fields
  std::string (*check)(const M&) = nullptr;
  bool required = false;
};

template <typename T, typename M>
constexpr Field<T, M> F(
    std::string_view name, M T::*member,
    std::type_identity_t<std::string (*)(const M&)> check = nullptr) {
  return {name, member, NoNames{}, check};
}

template <typename T, typename M, typename V, size_t N>
constexpr Field<T, M, Names<V>> Enum(
    std::string_view name, M T::*member,
    const std::pair<V, std::string_view> (&names)[N],
    bool required = false) {
  return {name, member, Names<V>(names), nullptr, required};
}

constexpr auto FieldsOf(const NodeGroupSpec*) {
  using S = NodeGroupSpec;
  return std::tuple{F("name", &S::name), F("replicas", &S::replicas),
                    F("zones", &S::zones), Enum("plan", &S::plan, kPlans)};
}

constexpr auto FieldsOf(const ArchitectureSpec*) {
  using S = ArchitectureSpec;
  return std::tuple{F("name", &S::name),
                    Enum("durability", &S::durability, kDurabilities),
                    F("groups", &S::groups)};
}

constexpr auto FieldsOf(const ObjectiveSpec*) {
  using S = ObjectiveSpec;
  return std::tuple{
      Enum("scenario", &S::scenario, kScenarios),
      F("budget_limit_micros", &S::budget_limit),
      F("time_limit_ms", &S::time_limit),
      F("alpha", &S::alpha, Fraction),
      F("time_includes_materialization", &S::time_includes_materialization),
      F("mv3_reference_time_ms", &S::mv3_reference_time),
      F("mv3_reference_cost_micros", &S::mv3_reference_cost),
      F("max_monthly_cost_micros", &S::max_monthly_cost),
      F("max_storage_bytes", &S::max_storage),
      F("max_makespan_ms", &S::max_makespan),
      F("frontier_epsilon", &S::frontier_epsilon),
      F("architectures", &S::architectures),
      F("architecture_inner_solver", &S::architecture_inner_solver)};
}

constexpr auto FieldsOf(const QuerySpec*) {
  using S = QuerySpec;
  return std::tuple{F("name", &S::name), F("target", &S::target),
                    F("frequency", &S::frequency, RunsPerPeriod)};
}

constexpr auto FieldsOf(const WorkloadSpec*) {
  using S = WorkloadSpec;
  return std::tuple{Enum("kind", &S::kind, kWorkloadKinds),
                    F("queries", &S::queries)};
}

constexpr auto FieldsOf(const DriftSpec*) {
  using S = DriftSpec;
  return std::tuple{Enum("kind", &S::kind, kDriftKinds, /*required=*/true),
                    F("factor", &S::factor),
                    F("floor", &S::floor),
                    F("season_length", &S::season_length),
                    F("phase", &S::phase),
                    F("amplitude", &S::amplitude, SpikeAmplitude),
                    F("rate", &S::rate),
                    F("cuboid_skew", &S::cuboid_skew),
                    F("growth_per_period", &S::growth_per_period)};
}

constexpr auto FieldsOf(const TimelineSpec*) {
  using S = TimelineSpec;
  return std::tuple{F("num_periods", &S::num_periods),
                    F("period_length_milli_months", &S::period_length),
                    F("seed", &S::seed), F("drifts", &S::drifts)};
}

constexpr auto FieldsOf(const ReselectPolicy*) {
  using S = ReselectPolicy;
  return std::tuple{Enum("kind", &S::kind, kPolicyKinds),
                    F("k", &S::every_k, Positive),
                    F("threshold", &S::drift_threshold, Fraction)};
}

constexpr auto FieldsOf(const AdvisorRequest*) {
  using S = AdvisorRequest;
  return std::tuple{
      Enum("kind", &S::kind, kAdvisorRequestKinds, /*required=*/true),
      F("session", &S::session),
      F("solver", &S::solver),
      F("objective", &S::objective),
      F("workload", &S::workload),
      F("timeline", &S::timeline),
      F("policy", &S::policy),
      F("policies", &S::policies),
      F("deadline_ms", &S::deadline_ms, NotNegative)};
}

constexpr auto FieldsOf(const CandidateGenOptions*) {
  using S = CandidateGenOptions;
  return std::tuple{F("max_candidates", &S::max_candidates, Positive),
                    F("max_size_fraction", &S::max_size_fraction),
                    F("max_rows_fraction", &S::max_rows_fraction),
                    F("maintenance_delta_bytes", &S::maintenance_delta,
                      DeltaBytes),
                    F("queries_only", &S::queries_only)};
}

constexpr auto FieldsOf(const ScenarioConfig*) {
  using S = ScenarioConfig;
  return std::tuple{
      Enum("schema", &S::schema, kSchemas),
      F("provider", &S::provider),
      F("instance_name", &S::instance_name),
      F("nb_instances", &S::nb_instances, InRange<1, kMaxInstances>),
      F("maintenance_cycles", &S::maintenance_cycles,
        InRange<0, kMaxMaintenanceCycles>),
      F("prorate_storage", &S::prorate_storage),
      F("storage_period_milli_months", &S::storage_period, StoragePeriod),
      F("single_compute_session", &S::single_compute_session),
      F("frontier_solver", &S::frontier_solver),
      F("candidates", &S::candidates)};
}

// --- Unit codecs ---------------------------------------------------------
// One overload pair per member type. Exact unit types travel as int64
// with the unit in the field name; doubles must be finite.

template <typename T>
Status ReadObject(const JsonValue& json, const Path& path, T* out);
template <typename T>
JsonValue WriteObject(const T& in);

Status ReadUnit(const JsonValue& v, const Path& path, std::string* out) {
  if (!v.is_string()) return Invalid(path, "must be a string");
  *out = v.string_value();
  return Status::OK();
}
JsonValue WriteUnit(const std::string& in) { return JsonValue::Str(in); }

Status ReadUnit(const JsonValue& v, const Path& path, bool* out) {
  if (!v.is_bool()) return Invalid(path, "must be true or false");
  *out = v.bool_value();
  return Status::OK();
}
JsonValue WriteUnit(const bool& in) { return JsonValue::Bool(in); }

Status ReadUnit(const JsonValue& v, const Path& path, int64_t* out) {
  if (!v.is_int()) return Invalid(path, "must be an integer");
  *out = v.int_value();
  return Status::OK();
}
JsonValue WriteUnit(const int64_t& in) { return JsonValue::Int(in); }

// Unsigned fields travel in [0, min(2^63, max + 1)).
template <std::unsigned_integral U>
Status ReadUnit(const JsonValue& v, const Path& path, U* out) {
  int64_t raw = 0;
  CV_RETURN_IF_ERROR(ReadUnit(v, path, &raw));
  if (raw < 0) return Invalid(path, "must be non-negative");
  if (static_cast<uint64_t>(raw) > std::numeric_limits<U>::max()) {
    return Invalid(path, "must be at most " +
                             std::to_string(std::numeric_limits<U>::max()));
  }
  *out = static_cast<U>(raw);
  return Status::OK();
}
template <std::unsigned_integral U>
JsonValue WriteUnit(const U& in) {
  return JsonValue::Int(static_cast<int64_t>(in));
}

Status ReadUnit(const JsonValue& v, const Path& path, double* out) {
  if (!v.is_number() || !std::isfinite(v.AsDouble())) {
    return Invalid(path, "must be a finite number");
  }
  *out = v.AsDouble();
  return Status::OK();
}
// + 0.0 writes -0.0 as 0, the value it parses back to.
JsonValue WriteUnit(const double& in) { return JsonValue::Double(in + 0.0); }

Status ReadUnit(const JsonValue& v, const Path& path, Money* out) {
  int64_t micros = 0;
  CV_RETURN_IF_ERROR(ReadUnit(v, path, &micros));
  *out = Money::FromMicros(micros);
  return Status::OK();
}
JsonValue WriteUnit(const Money& in) { return JsonValue::Int(in.micros()); }

Status ReadUnit(const JsonValue& v, const Path& path, Duration* out) {
  int64_t millis = 0;
  CV_RETURN_IF_ERROR(ReadUnit(v, path, &millis));
  *out = Duration::FromMillis(millis);
  return Status::OK();
}
JsonValue WriteUnit(const Duration& in) { return JsonValue::Int(in.millis()); }

Status ReadUnit(const JsonValue& v, const Path& path, DataSize* out) {
  int64_t bytes = 0;
  CV_RETURN_IF_ERROR(ReadUnit(v, path, &bytes));
  *out = DataSize::FromBytes(bytes);
  return Status::OK();
}
JsonValue WriteUnit(const DataSize& in) { return JsonValue::Int(in.bytes()); }

Status ReadUnit(const JsonValue& v, const Path& path, Months* out) {
  int64_t milli = 0;
  CV_RETURN_IF_ERROR(ReadUnit(v, path, &milli));
  *out = Months::FromMilli(milli);
  return Status::OK();
}
JsonValue WriteUnit(const Months& in) { return JsonValue::Int(in.milli()); }

Status ReadUnit(const JsonValue& v, const Path& path, ArchitectureSpec* out) {
  CV_RETURN_IF_ERROR(ReadObject(v, path, out));
  return out->Validate();
}

Status ReadUnit(const JsonValue& v, const Path& path, ReselectPolicy* out);

template <typename E>
Status ReadValue(const JsonValue& v, const Path& path, Names<E> names,
                 auto* out) {
  if (!v.is_string()) return Invalid(path, "must be a string");
  for (const auto& [value, name] : names) {
    if (name == v.string_value()) {
      *out = value;
      return Status::OK();
    }
  }
  return Invalid(path, "has no value \"" + v.string_value() + "\"; " +
                           Accepted(names));
}

template <typename E, typename M>
JsonValue WriteValue(Names<E> names, const M& in) {
  if constexpr (std::is_same_v<M, std::string>) {
    return JsonValue::Str(in);
  } else {
    for (const auto& [value, name] : names) {
      if (value == in) return JsonValue::Str(std::string(name));
    }
    return JsonValue::Str("");
  }
}

template <typename T>
Status ReadUnit(const JsonValue& v, const Path& path, T* out) {
  return ReadObject(v, path, out);
}
template <typename T>
JsonValue WriteUnit(const T& in) {
  return WriteObject(in);
}

template <typename T>
Status ReadUnit(const JsonValue& v, const Path& path, std::vector<T>* out) {
  if (!v.is_array()) return Invalid(path, "must be an array");
  out->assign(v.items().size(), T{});
  for (size_t i = 0; i < out->size(); ++i) {
    CV_RETURN_IF_ERROR(
        ReadUnit(v.items()[i], Path{&path, {}, i}, &(*out)[i]));
  }
  return Status::OK();
}
template <typename T>
JsonValue WriteUnit(const std::vector<T>& in) {
  JsonValue json = JsonValue::Array();
  for (const T& item : in) json.Push(WriteUnit(item));
  return json;
}

// A policy's fields its kind does not use keep that kind's factory
// values, so {"kind":"every-k","k":3} parses to ReselectPolicy::EveryK(3).
Status ReadUnit(const JsonValue& v, const Path& path, ReselectPolicy* out) {
  ReselectPolicy::Kind kind = ReselectPolicy::Kind::kStatic;
  if (const JsonValue* name = v.is_object() ? v.Find("kind") : nullptr) {
    CV_RETURN_IF_ERROR(ReadValue(*name, Path{&path, "kind"},
                                 Names<ReselectPolicy::Kind>(kPolicyKinds),
                                 &kind));
  }
  switch (kind) {
    case ReselectPolicy::Kind::kStatic:
      *out = ReselectPolicy::Static();
      break;
    case ReselectPolicy::Kind::kEveryK:
      *out = ReselectPolicy::EveryK(ReselectPolicy{}.every_k);
      break;
    case ReselectPolicy::Kind::kOnDrift:
      *out = ReselectPolicy::OnDrift(ReselectPolicy{}.drift_threshold);
      break;
  }
  return ReadObject(v, path, out);
}

// --- Table-driven objects ----------------------------------------------

// A field reads and writes through its enum list when it has one, else
// through its member type's unit codec.
Status ReadValue(const JsonValue& v, const Path& path, NoNames, auto* out) {
  return ReadUnit(v, path, out);
}
JsonValue WriteValue(NoNames, const auto& in) { return WriteUnit(in); }

template <typename T, typename M, typename N>
Status ReadField(const JsonValue& json, const Path& parent,
                 const Field<T, M, N>& field, T* out) {
  const Path path{&parent, field.name};
  const JsonValue* value = json.Find(field.name);
  if (value == nullptr) {
    if constexpr (std::is_same_v<N, NoNames>) {
      return Status::OK();
    } else {
      return field.required ? Invalid(path, "is required; " +
                                                Accepted(field.names))
                            : Status::OK();
    }
  }
  M* member = &(out->*field.member);
  CV_RETURN_IF_ERROR(ReadValue(*value, path, field.names, member));
  if (field.check != nullptr) {
    std::string problem = field.check(*member);
    if (!problem.empty()) return Invalid(path, problem);
  }
  return Status::OK();
}

template <typename T>
Status ReadObject(const JsonValue& json, const Path& path, T* out) {
  if (!json.is_object()) return Invalid(path, "must be a JSON object");
  constexpr auto kFields = FieldsOf(static_cast<const T*>(nullptr));
  for (const auto& [key, value] : json.members()) {
    const bool known = std::apply(
        [&](const auto&... field) { return ((field.name == key) || ...); },
        kFields);
    if (!known) {
      std::string accepted;
      std::apply(
          [&](const auto&... field) {
            ((accepted += accepted.empty() ? "" : ", ",
              accepted += field.name),
             ...);
          },
          kFields);
      return Status::InvalidArgument("unknown field \"" + key + "\" in " +
                                     path.str() +
                                     "; accepted fields: " + accepted);
    }
  }
  Status status;
  std::apply(
      [&](const auto&... field) {
        ((status = ReadField(json, path, field, out)).ok() && ...);
      },
      kFields);
  return status;
}

template <typename T>
JsonValue WriteObject(const T& in) {
  JsonValue json = JsonValue::Object();
  std::apply(
      [&](const auto&... field) {
        (json.Set(std::string(field.name),
                  WriteValue(field.names, in.*field.member)),
         ...);
      },
      FieldsOf(static_cast<const T*>(nullptr)));
  return json;
}

template <typename T>
Result<T> ParseRoot(const JsonValue& json, std::string_view root) {
  T out;
  CV_RETURN_IF_ERROR(ReadUnit(json, Path{nullptr, root}, &out));
  return out;
}

// --- Response payloads -------------------------------------------------

// Replies echo a policy with only the fields its kind uses.
JsonValue PolicyToJson(const ReselectPolicy& policy) {
  JsonValue json = JsonValue::Object();
  json.Set("kind", WriteValue(Names<ReselectPolicy::Kind>(kPolicyKinds),
                              policy.kind));
  if (policy.kind == ReselectPolicy::Kind::kEveryK) {
    json.Set("k", JsonValue::Int(policy.every_k));
  } else if (policy.kind == ReselectPolicy::Kind::kOnDrift) {
    json.Set("threshold", JsonValue::Double(policy.drift_threshold));
  }
  return json;
}

JsonValue CostToJson(const CostBreakdown& cost) {
  JsonValue json = JsonValue::Object();
  json.Set("processing_micros", JsonValue::Int(cost.processing.micros()));
  json.Set("materialization_micros",
           JsonValue::Int(cost.materialization.micros()));
  json.Set("maintenance_micros",
           JsonValue::Int(cost.maintenance.micros()));
  json.Set("storage_micros", JsonValue::Int(cost.storage.micros()));
  json.Set("transfer_micros", JsonValue::Int(cost.transfer.micros()));
  json.Set("requests_micros", JsonValue::Int(cost.requests.micros()));
  json.Set("session_rounding_micros",
           JsonValue::Int(cost.session_rounding.micros()));
  json.Set("interruption_micros",
           JsonValue::Int(cost.interruption.micros()));
  json.Set("inter_az_micros", JsonValue::Int(cost.inter_az.micros()));
  json.Set("total_micros", JsonValue::Int(cost.total().micros()));
  return json;
}

JsonValue SelectedToJson(const std::vector<size_t>& selected) {
  JsonValue json = JsonValue::Array();
  for (size_t c : selected) {
    json.Push(JsonValue::Int(static_cast<int64_t>(c)));
  }
  return json;
}

JsonValue EvaluationToJson(const SubsetEvaluation& evaluation) {
  JsonValue json = JsonValue::Object();
  json.Set("selected", SelectedToJson(evaluation.selected));
  json.Set("cost", CostToJson(evaluation.cost));
  json.Set("processing_time_ms",
           JsonValue::Int(evaluation.processing_time.millis()));
  json.Set("makespan_ms", JsonValue::Int(evaluation.makespan.millis()));
  return json;
}

JsonValue MultiToJson(const MultiScore& multi) {
  JsonValue json = JsonValue::Object();
  json.Set("monthly_cost_micros",
           JsonValue::Int(multi.monthly_cost.micros()));
  json.Set("time_ms", JsonValue::Int(multi.time.millis()));
  json.Set("storage_bytes", JsonValue::Int(multi.storage.bytes()));
  json.Set("unavailability_ppm", JsonValue::Int(multi.unavailability_ppm));
  return json;
}

JsonValue ParetoPointToJson(const ParetoPoint& point) {
  JsonValue json = JsonValue::Object();
  json.Set("score", MultiToJson(point.score));
  json.Set("selected", SelectedToJson(point.selected));
  json.Set("origin", JsonValue::Str(point.origin));
  if (!point.architecture.empty()) {
    json.Set("architecture", JsonValue::Str(point.architecture));
  }
  return json;
}

JsonValue SelectionToJson(const SelectionResult& selection) {
  JsonValue json = JsonValue::Object();
  json.Set("evaluation", EvaluationToJson(selection.evaluation));
  json.Set("feasible", JsonValue::Bool(selection.feasible));
  json.Set("objective_value", JsonValue::Double(selection.objective_value));
  json.Set("solver", JsonValue::Str(selection.solver));
  json.Set("time_ms", JsonValue::Int(selection.time.millis()));
  json.Set("multi", MultiToJson(selection.multi));
  if (!selection.architecture.empty()) {
    json.Set("architecture", JsonValue::Str(selection.architecture));
  }
  if (!selection.frontier.empty()) {
    JsonValue frontier = JsonValue::Array();
    for (const ParetoPoint& p : selection.frontier) {
      frontier.Push(ParetoPointToJson(p));
    }
    json.Set("frontier", std::move(frontier));
  }
  json.Set("cancelled", JsonValue::Bool(selection.cancelled));
  json.Set("gap_fraction", JsonValue::Double(selection.gap_fraction));
  return json;
}

JsonValue SolveRunToJson(const SolveRun& run) {
  JsonValue json = JsonValue::Object();
  json.Set("selection", SelectionToJson(run.selection));
  json.Set("baseline", EvaluationToJson(run.baseline));
  return json;
}

JsonValue FrontierRunToJson(const FrontierRun& run) {
  JsonValue json = JsonValue::Object();
  JsonValue frontier = JsonValue::Array();
  for (const ParetoPoint& p : run.frontier) {
    frontier.Push(ParetoPointToJson(p));
  }
  json.Set("frontier", std::move(frontier));
  json.Set("best", SelectionToJson(run.best));
  json.Set("baseline", EvaluationToJson(run.baseline));
  return json;
}

JsonValue JointRunToJson(const JointRun& run) {
  JsonValue json = JsonValue::Object();
  JsonValue frontier = JsonValue::Array();
  for (const ParetoPoint& p : run.frontier) {
    frontier.Push(ParetoPointToJson(p));
  }
  json.Set("frontier", std::move(frontier));
  json.Set("best", SelectionToJson(run.best));
  json.Set("best_architecture", JsonValue::Str(run.best_architecture));
  json.Set("baseline", EvaluationToJson(run.baseline));
  return json;
}

JsonValue TimelineRunToJson(const TemporalRunResult& run) {
  JsonValue json = JsonValue::Object();
  json.Set("policy", PolicyToJson(run.policy));
  json.Set("policy_name", JsonValue::Str(run.policy.Name()));
  json.Set("solver", JsonValue::Str(run.solver));
  JsonValue ledger = JsonValue::Array();
  for (const TemporalPeriodRow& row : run.ledger) {
    JsonValue r = JsonValue::Object();
    r.Set("period", JsonValue::Int(static_cast<int64_t>(row.period)));
    r.Set("selected", SelectedToJson(row.selected));
    r.Set("reselected", JsonValue::Bool(row.reselected));
    r.Set("drift", JsonValue::Double(row.drift));
    r.Set("views_added",
          JsonValue::Int(static_cast<int64_t>(row.views_added)));
    r.Set("views_dropped",
          JsonValue::Int(static_cast<int64_t>(row.views_dropped)));
    r.Set("cost", CostToJson(row.cost));
    r.Set("processing_time_ms",
          JsonValue::Int(row.processing_time.millis()));
    ledger.Push(std::move(r));
  }
  json.Set("ledger", std::move(ledger));
  json.Set("total", CostToJson(run.total));
  json.Set("solver_runs",
           JsonValue::Int(static_cast<int64_t>(run.solver_runs)));
  json.Set("warm_periods",
           JsonValue::Int(static_cast<int64_t>(run.warm_periods)));
  return json;
}

const char* GranularityName(BillingGranularity granularity) {
  switch (granularity) {
    case BillingGranularity::kHour:
      return "hour";
    case BillingGranularity::kMinute:
      return "minute";
    case BillingGranularity::kSecond:
      return "second";
  }
  return "unknown";
}

JsonValue ProviderRowToJson(const ProviderComparisonRow& row) {
  JsonValue json = JsonValue::Object();
  json.Set("provider", JsonValue::Str(row.provider));
  json.Set("instance", JsonValue::Str(row.instance));
  json.Set("granularity", JsonValue::Str(GranularityName(row.granularity)));
  json.Set("run", SolveRunToJson(row.run));
  return json;
}

JsonValue MetaToJson(const ResponseMeta& meta) {
  JsonValue json = JsonValue::Object();
  json.Set("solver", JsonValue::Str(meta.solver));
  json.Set("wall_ms", JsonValue::Int(meta.wall_ms));
  json.Set("cache_lookups",
           JsonValue::Int(static_cast<int64_t>(meta.cache_lookups)));
  json.Set("cache_hits",
           JsonValue::Int(static_cast<int64_t>(meta.cache_hits)));
  json.Set("cache_evictions",
           JsonValue::Int(static_cast<int64_t>(meta.cache_evictions)));
  json.Set("gap_fraction", JsonValue::Double(meta.gap_fraction));
  json.Set("cancelled", JsonValue::Bool(meta.cancelled));
  json.Set("warm", JsonValue::Bool(meta.warm));
  return json;
}

}  // namespace

Result<ScenarioConfig> ParseScenarioConfig(const JsonValue& json) {
  return ParseRoot<ScenarioConfig>(json, "config");
}

JsonValue ScenarioConfigToJson(const ScenarioConfig& config) {
  return WriteObject(config);
}

Result<AdvisorRequest> ParseAdvisorRequest(const JsonValue& json) {
  return ParseRoot<AdvisorRequest>(json, "request");
}

Result<AdvisorRequest> ParseAdvisorRequestText(std::string_view text) {
  CV_ASSIGN_OR_RETURN(JsonValue json, ParseJson(text));
  return ParseAdvisorRequest(json);
}

JsonValue AdvisorRequestToJson(const AdvisorRequest& request) {
  return WriteObject(request);
}

JsonValue AdvisorResponseToJson(const AdvisorResponse& response) {
  JsonValue json = JsonValue::Object();
  json.Set("kind", JsonValue::Str(AdvisorRequestKindName(response.kind)));
  json.Set("meta", MetaToJson(response.meta));
  switch (response.kind) {
    case AdvisorRequestKind::kSolve:
      json.Set("solve", SolveRunToJson(response.solve));
      break;
    case AdvisorRequestKind::kFrontier:
      json.Set("frontier", FrontierRunToJson(response.frontier));
      break;
    case AdvisorRequestKind::kTimeline:
      json.Set("timeline", TimelineRunToJson(response.timeline));
      break;
    case AdvisorRequestKind::kCompareProviders: {
      JsonValue providers = JsonValue::Array();
      for (const ProviderComparisonRow& row : response.providers) {
        providers.Push(ProviderRowToJson(row));
      }
      json.Set("providers", std::move(providers));
      break;
    }
    case AdvisorRequestKind::kComparePolicies: {
      JsonValue policies = JsonValue::Array();
      for (const TemporalRunResult& run : response.policies) {
        policies.Push(TimelineRunToJson(run));
      }
      json.Set("policies", std::move(policies));
      break;
    }
    case AdvisorRequestKind::kSolveJoint:
      json.Set("joint", JointRunToJson(response.joint));
      break;
  }
  return json;
}

}  // namespace cloudview
