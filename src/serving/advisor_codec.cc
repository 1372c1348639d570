#include "serving/advisor_codec.h"

#include <utility>

namespace cloudview {

namespace {

// --- Strict field readers ----------------------------------------------
// Every reader takes the object's wire name for error text; a request
// with a typo'd or mistyped field fails with the exact path and the
// accepted form, never a silent default.

Status CheckKeys(const JsonValue& obj, std::string_view where,
                 std::initializer_list<std::string_view> allowed) {
  for (const auto& [key, value] : obj.members()) {
    bool known = false;
    for (std::string_view a : allowed) {
      if (key == a) {
        known = true;
        break;
      }
    }
    if (!known) {
      std::string accepted;
      for (std::string_view a : allowed) {
        if (!accepted.empty()) accepted += ", ";
        accepted += a;
      }
      return Status::InvalidArgument("unknown field \"" + key + "\" in " +
                                     std::string(where) +
                                     "; accepted fields: " + accepted);
    }
  }
  return Status::OK();
}

Status RequireObject(const JsonValue& v, std::string_view where) {
  if (!v.is_object()) {
    return Status::InvalidArgument(std::string(where) +
                                   " must be a JSON object");
  }
  return Status::OK();
}

Status ReadString(const JsonValue& obj, std::string_view key,
                  std::string_view where, std::string* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::OK();
  if (!v->is_string()) {
    return Status::InvalidArgument(std::string(where) + "." +
                                   std::string(key) + " must be a string");
  }
  *out = v->string_value();
  return Status::OK();
}

Status ReadInt(const JsonValue& obj, std::string_view key,
               std::string_view where, int64_t* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::OK();
  if (!v->is_int()) {
    return Status::InvalidArgument(std::string(where) + "." +
                                   std::string(key) +
                                   " must be an integer");
  }
  *out = v->int_value();
  return Status::OK();
}

Status ReadUint(const JsonValue& obj, std::string_view key,
                std::string_view where, uint64_t* out) {
  int64_t raw = static_cast<int64_t>(*out);
  CV_RETURN_IF_ERROR(ReadInt(obj, key, where, &raw));
  if (raw < 0) {
    return Status::InvalidArgument(std::string(where) + "." +
                                   std::string(key) +
                                   " must be non-negative");
  }
  *out = static_cast<uint64_t>(raw);
  return Status::OK();
}

Status ReadDouble(const JsonValue& obj, std::string_view key,
                  std::string_view where, double* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::OK();
  if (!v->is_number()) {
    return Status::InvalidArgument(std::string(where) + "." +
                                   std::string(key) + " must be a number");
  }
  *out = v->AsDouble();
  return Status::OK();
}

Status ReadBool(const JsonValue& obj, std::string_view key,
                std::string_view where, bool* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::OK();
  if (!v->is_bool()) {
    return Status::InvalidArgument(std::string(where) + "." +
                                   std::string(key) +
                                   " must be true or false");
  }
  *out = v->bool_value();
  return Status::OK();
}

Status ReadMoney(const JsonValue& obj, std::string_view key,
                 std::string_view where, Money* out) {
  int64_t micros = out->micros();
  CV_RETURN_IF_ERROR(ReadInt(obj, key, where, &micros));
  *out = Money::FromMicros(micros);
  return Status::OK();
}

Status ReadDuration(const JsonValue& obj, std::string_view key,
                    std::string_view where, Duration* out) {
  int64_t ms = out->millis();
  CV_RETURN_IF_ERROR(ReadInt(obj, key, where, &ms));
  *out = Duration::FromMillis(ms);
  return Status::OK();
}

Status ReadDataSize(const JsonValue& obj, std::string_view key,
                    std::string_view where, DataSize* out) {
  int64_t bytes = out->bytes();
  CV_RETURN_IF_ERROR(ReadInt(obj, key, where, &bytes));
  *out = DataSize::FromBytes(bytes);
  return Status::OK();
}

Status ReadMonths(const JsonValue& obj, std::string_view key,
                  std::string_view where, Months* out) {
  int64_t milli = out->milli();
  CV_RETURN_IF_ERROR(ReadInt(obj, key, where, &milli));
  *out = Months::FromMilli(milli);
  return Status::OK();
}

// --- Architectures -----------------------------------------------------

Result<ArchitectureSpec> ParseArchitecture(const JsonValue& json) {
  constexpr std::string_view kWhere = "objective.architectures[i]";
  CV_RETURN_IF_ERROR(RequireObject(json, kWhere));
  CV_RETURN_IF_ERROR(
      CheckKeys(json, kWhere, {"name", "durability", "groups"}));
  ArchitectureSpec spec;
  CV_RETURN_IF_ERROR(ReadString(json, "name", kWhere, &spec.name));
  std::string durability = "local";
  CV_RETURN_IF_ERROR(ReadString(json, "durability", kWhere, &durability));
  if (durability == "local") {
    spec.durability = DurabilityTier::kLocal;
  } else if (durability == "zonal") {
    spec.durability = DurabilityTier::kZonal;
  } else if (durability == "regional") {
    spec.durability = DurabilityTier::kRegional;
  } else {
    return Status::InvalidArgument(
        std::string(kWhere) + ".durability \"" + durability +
        "\" is not a durability tier; accepted: local, zonal, regional");
  }
  const JsonValue* groups = json.Find("groups");
  if (groups != nullptr) {
    if (!groups->is_array()) {
      return Status::InvalidArgument(std::string(kWhere) +
                                     ".groups must be an array");
    }
    for (const JsonValue& g : groups->items()) {
      constexpr std::string_view kGroupWhere =
          "objective.architectures[i].groups[j]";
      CV_RETURN_IF_ERROR(RequireObject(g, kGroupWhere));
      CV_RETURN_IF_ERROR(CheckKeys(g, kGroupWhere,
                                   {"name", "replicas", "zones", "plan"}));
      NodeGroupSpec group;
      CV_RETURN_IF_ERROR(ReadString(g, "name", kGroupWhere, &group.name));
      CV_RETURN_IF_ERROR(
          ReadInt(g, "replicas", kGroupWhere, &group.replicas));
      CV_RETURN_IF_ERROR(ReadInt(g, "zones", kGroupWhere, &group.zones));
      std::string plan = "on-demand";
      CV_RETURN_IF_ERROR(ReadString(g, "plan", kGroupWhere, &plan));
      if (plan == "on-demand") {
        group.plan = PurchasePlan::kOnDemand;
      } else if (plan == "reserved") {
        group.plan = PurchasePlan::kReserved;
      } else if (plan == "spot") {
        group.plan = PurchasePlan::kSpot;
      } else {
        return Status::InvalidArgument(
            std::string(kGroupWhere) + ".plan \"" + plan +
            "\" is not a purchase plan; accepted: on-demand, reserved, "
            "spot");
      }
      spec.groups.push_back(std::move(group));
    }
  }
  CV_RETURN_IF_ERROR(spec.Validate());
  return spec;
}

JsonValue ArchitectureToJson(const ArchitectureSpec& spec) {
  JsonValue json = JsonValue::Object();
  json.Set("name", JsonValue::Str(spec.name));
  json.Set("durability", JsonValue::Str(ToString(spec.durability)));
  if (!spec.groups.empty()) {
    JsonValue groups = JsonValue::Array();
    for (const NodeGroupSpec& g : spec.groups) {
      JsonValue group = JsonValue::Object();
      group.Set("name", JsonValue::Str(g.name));
      group.Set("replicas", JsonValue::Int(g.replicas));
      group.Set("zones", JsonValue::Int(g.zones));
      group.Set("plan", JsonValue::Str(ToString(g.plan)));
      groups.Push(std::move(group));
    }
    json.Set("groups", std::move(groups));
  }
  return json;
}

// --- Objective ---------------------------------------------------------

Result<ObjectiveSpec> ParseObjective(const JsonValue& json) {
  CV_RETURN_IF_ERROR(RequireObject(json, "objective"));
  CV_RETURN_IF_ERROR(CheckKeys(
      json, "objective",
      {"scenario", "budget_limit_micros", "time_limit_ms", "alpha",
       "time_includes_materialization", "mv3_reference_time_ms",
       "mv3_reference_cost_micros", "max_monthly_cost_micros",
       "max_storage_bytes", "max_makespan_ms", "frontier_epsilon",
       "architectures", "architecture_inner_solver"}));
  ObjectiveSpec spec;
  std::string scenario = "mv3";
  CV_RETURN_IF_ERROR(ReadString(json, "scenario", "objective", &scenario));
  if (scenario == "mv1") {
    spec.scenario = Scenario::kMV1BudgetLimit;
  } else if (scenario == "mv2") {
    spec.scenario = Scenario::kMV2TimeLimit;
  } else if (scenario == "mv3") {
    spec.scenario = Scenario::kMV3Tradeoff;
  } else {
    return Status::InvalidArgument(
        "objective.scenario \"" + scenario +
        "\" is not a scenario; accepted: mv1, mv2, mv3");
  }
  CV_RETURN_IF_ERROR(ReadMoney(json, "budget_limit_micros", "objective",
                               &spec.budget_limit));
  CV_RETURN_IF_ERROR(
      ReadDuration(json, "time_limit_ms", "objective", &spec.time_limit));
  CV_RETURN_IF_ERROR(ReadDouble(json, "alpha", "objective", &spec.alpha));
  if (spec.alpha < 0.0 || spec.alpha > 1.0) {
    return Status::InvalidArgument("objective.alpha must be in [0, 1]");
  }
  CV_RETURN_IF_ERROR(ReadBool(json, "time_includes_materialization",
                              "objective",
                              &spec.time_includes_materialization));
  CV_RETURN_IF_ERROR(ReadDuration(json, "mv3_reference_time_ms",
                                  "objective", &spec.mv3_reference_time));
  CV_RETURN_IF_ERROR(ReadMoney(json, "mv3_reference_cost_micros",
                               "objective", &spec.mv3_reference_cost));
  CV_RETURN_IF_ERROR(ReadMoney(json, "max_monthly_cost_micros",
                               "objective", &spec.max_monthly_cost));
  CV_RETURN_IF_ERROR(ReadDataSize(json, "max_storage_bytes", "objective",
                                  &spec.max_storage));
  CV_RETURN_IF_ERROR(ReadDuration(json, "max_makespan_ms", "objective",
                                  &spec.max_makespan));
  CV_RETURN_IF_ERROR(ReadDouble(json, "frontier_epsilon", "objective",
                                &spec.frontier_epsilon));
  if (const JsonValue* architectures = json.Find("architectures")) {
    if (!architectures->is_array()) {
      return Status::InvalidArgument(
          "objective.architectures must be an array");
    }
    for (const JsonValue& a : architectures->items()) {
      CV_ASSIGN_OR_RETURN(ArchitectureSpec arch, ParseArchitecture(a));
      spec.architectures.push_back(std::move(arch));
    }
  }
  CV_RETURN_IF_ERROR(ReadString(json, "architecture_inner_solver",
                                "objective",
                                &spec.architecture_inner_solver));
  return spec;
}

JsonValue ObjectiveToJson(const ObjectiveSpec& spec) {
  JsonValue json = JsonValue::Object();
  const char* scenario = spec.scenario == Scenario::kMV1BudgetLimit ? "mv1"
                         : spec.scenario == Scenario::kMV2TimeLimit
                             ? "mv2"
                             : "mv3";
  json.Set("scenario", JsonValue::Str(scenario));
  json.Set("budget_limit_micros",
           JsonValue::Int(spec.budget_limit.micros()));
  json.Set("time_limit_ms", JsonValue::Int(spec.time_limit.millis()));
  json.Set("alpha", JsonValue::Double(spec.alpha));
  json.Set("time_includes_materialization",
           JsonValue::Bool(spec.time_includes_materialization));
  json.Set("mv3_reference_time_ms",
           JsonValue::Int(spec.mv3_reference_time.millis()));
  json.Set("mv3_reference_cost_micros",
           JsonValue::Int(spec.mv3_reference_cost.micros()));
  json.Set("max_monthly_cost_micros",
           JsonValue::Int(spec.max_monthly_cost.micros()));
  json.Set("max_storage_bytes", JsonValue::Int(spec.max_storage.bytes()));
  json.Set("max_makespan_ms", JsonValue::Int(spec.max_makespan.millis()));
  json.Set("frontier_epsilon", JsonValue::Double(spec.frontier_epsilon));
  if (!spec.architectures.empty()) {
    JsonValue architectures = JsonValue::Array();
    for (const ArchitectureSpec& a : spec.architectures) {
      architectures.Push(ArchitectureToJson(a));
    }
    json.Set("architectures", std::move(architectures));
  }
  if (!spec.architecture_inner_solver.empty()) {
    json.Set("architecture_inner_solver",
             JsonValue::Str(spec.architecture_inner_solver));
  }
  return json;
}

// --- Workload / timeline / policy --------------------------------------

Result<WorkloadSpec> ParseWorkloadSpec(const JsonValue& json) {
  CV_RETURN_IF_ERROR(RequireObject(json, "workload"));
  CV_RETURN_IF_ERROR(CheckKeys(json, "workload", {"kind", "queries"}));
  WorkloadSpec spec;
  CV_RETURN_IF_ERROR(ReadString(json, "kind", "workload", &spec.kind));
  if (spec.kind != "default" && spec.kind != "queries") {
    return Status::InvalidArgument("workload.kind \"" + spec.kind +
                                   "\" is not a workload kind; accepted: "
                                   "default, queries");
  }
  const JsonValue* queries = json.Find("queries");
  if (queries != nullptr) {
    if (!queries->is_array()) {
      return Status::InvalidArgument("workload.queries must be an array");
    }
    for (const JsonValue& q : queries->items()) {
      CV_RETURN_IF_ERROR(RequireObject(q, "workload.queries[i]"));
      CV_RETURN_IF_ERROR(CheckKeys(q, "workload.queries[i]",
                                   {"name", "target", "frequency"}));
      QuerySpec query;
      CV_RETURN_IF_ERROR(
          ReadString(q, "name", "workload.queries[i]", &query.name));
      int64_t target = 0;
      CV_RETURN_IF_ERROR(
          ReadInt(q, "target", "workload.queries[i]", &target));
      if (target < 0) {
        return Status::InvalidArgument(
            "workload.queries[i].target must be non-negative");
      }
      query.target = static_cast<CuboidId>(target);
      CV_RETURN_IF_ERROR(ReadUint(q, "frequency", "workload.queries[i]",
                                  &query.frequency));
      spec.queries.push_back(std::move(query));
    }
  }
  return spec;
}

JsonValue WorkloadSpecToJson(const WorkloadSpec& spec) {
  JsonValue json = JsonValue::Object();
  json.Set("kind", JsonValue::Str(spec.kind));
  if (!spec.queries.empty()) {
    JsonValue queries = JsonValue::Array();
    for (const QuerySpec& q : spec.queries) {
      JsonValue query = JsonValue::Object();
      query.Set("name", JsonValue::Str(q.name));
      query.Set("target", JsonValue::Int(static_cast<int64_t>(q.target)));
      query.Set("frequency",
                JsonValue::Int(static_cast<int64_t>(q.frequency)));
      queries.Push(std::move(query));
    }
    json.Set("queries", std::move(queries));
  }
  return json;
}

Result<DriftSpec> ParseDriftSpec(const JsonValue& json) {
  CV_RETURN_IF_ERROR(RequireObject(json, "timeline.drifts[i]"));
  CV_RETURN_IF_ERROR(CheckKeys(
      json, "timeline.drifts[i]",
      {"kind", "factor", "floor", "season_length", "phase", "amplitude",
       "rate", "cuboid_skew", "growth_per_period"}));
  DriftSpec spec;
  CV_RETURN_IF_ERROR(
      ReadString(json, "kind", "timeline.drifts[i]", &spec.kind));
  if (spec.kind.empty()) {
    return Status::InvalidArgument(
        "timeline.drifts[i].kind is required; accepted: frequency-decay, "
        "seasonal-spike, query-churn, dataset-growth");
  }
  CV_RETURN_IF_ERROR(
      ReadDouble(json, "factor", "timeline.drifts[i]", &spec.factor));
  CV_RETURN_IF_ERROR(
      ReadInt(json, "floor", "timeline.drifts[i]", &spec.floor));
  CV_RETURN_IF_ERROR(ReadInt(json, "season_length", "timeline.drifts[i]",
                             &spec.season_length));
  CV_RETURN_IF_ERROR(
      ReadInt(json, "phase", "timeline.drifts[i]", &spec.phase));
  CV_RETURN_IF_ERROR(ReadDouble(json, "amplitude", "timeline.drifts[i]",
                                &spec.amplitude));
  CV_RETURN_IF_ERROR(
      ReadDouble(json, "rate", "timeline.drifts[i]", &spec.rate));
  CV_RETURN_IF_ERROR(ReadDouble(json, "cuboid_skew", "timeline.drifts[i]",
                                &spec.cuboid_skew));
  CV_RETURN_IF_ERROR(ReadDouble(json, "growth_per_period",
                                "timeline.drifts[i]",
                                &spec.growth_per_period));
  return spec;
}

JsonValue DriftSpecToJson(const DriftSpec& spec) {
  JsonValue json = JsonValue::Object();
  json.Set("kind", JsonValue::Str(spec.kind));
  json.Set("factor", JsonValue::Double(spec.factor));
  json.Set("floor", JsonValue::Int(spec.floor));
  json.Set("season_length", JsonValue::Int(spec.season_length));
  json.Set("phase", JsonValue::Int(spec.phase));
  json.Set("amplitude", JsonValue::Double(spec.amplitude));
  json.Set("rate", JsonValue::Double(spec.rate));
  json.Set("cuboid_skew", JsonValue::Double(spec.cuboid_skew));
  json.Set("growth_per_period", JsonValue::Double(spec.growth_per_period));
  return json;
}

Result<TimelineSpec> ParseTimelineSpec(const JsonValue& json) {
  CV_RETURN_IF_ERROR(RequireObject(json, "timeline"));
  CV_RETURN_IF_ERROR(CheckKeys(json, "timeline",
                               {"num_periods", "period_length_milli_months",
                                "seed", "drifts"}));
  TimelineSpec spec;
  CV_RETURN_IF_ERROR(
      ReadInt(json, "num_periods", "timeline", &spec.num_periods));
  CV_RETURN_IF_ERROR(ReadMonths(json, "period_length_milli_months",
                                "timeline", &spec.period_length));
  CV_RETURN_IF_ERROR(ReadUint(json, "seed", "timeline", &spec.seed));
  const JsonValue* drifts = json.Find("drifts");
  if (drifts != nullptr) {
    if (!drifts->is_array()) {
      return Status::InvalidArgument("timeline.drifts must be an array");
    }
    for (const JsonValue& d : drifts->items()) {
      CV_ASSIGN_OR_RETURN(DriftSpec drift, ParseDriftSpec(d));
      spec.drifts.push_back(std::move(drift));
    }
  }
  return spec;
}

JsonValue TimelineSpecToJson(const TimelineSpec& spec) {
  JsonValue json = JsonValue::Object();
  json.Set("num_periods", JsonValue::Int(spec.num_periods));
  json.Set("period_length_milli_months",
           JsonValue::Int(spec.period_length.milli()));
  json.Set("seed", JsonValue::Int(static_cast<int64_t>(spec.seed)));
  if (!spec.drifts.empty()) {
    JsonValue drifts = JsonValue::Array();
    for (const DriftSpec& d : spec.drifts) drifts.Push(DriftSpecToJson(d));
    json.Set("drifts", std::move(drifts));
  }
  return json;
}

Result<ReselectPolicy> ParsePolicy(const JsonValue& json,
                                   std::string_view where) {
  CV_RETURN_IF_ERROR(RequireObject(json, where));
  CV_RETURN_IF_ERROR(CheckKeys(json, where, {"kind", "k", "threshold"}));
  std::string kind = "static";
  CV_RETURN_IF_ERROR(ReadString(json, "kind", where, &kind));
  if (kind == "static") return ReselectPolicy::Static();
  if (kind == "every-k") {
    int64_t k = 1;
    CV_RETURN_IF_ERROR(ReadInt(json, "k", where, &k));
    if (k <= 0) {
      return Status::InvalidArgument(std::string(where) +
                                     ".k must be positive");
    }
    return ReselectPolicy::EveryK(k);
  }
  if (kind == "on-drift") {
    double threshold = 0.2;
    CV_RETURN_IF_ERROR(ReadDouble(json, "threshold", where, &threshold));
    if (threshold < 0.0 || threshold > 1.0) {
      return Status::InvalidArgument(std::string(where) +
                                     ".threshold must be in [0, 1]");
    }
    return ReselectPolicy::OnDrift(threshold);
  }
  return Status::InvalidArgument(
      std::string(where) + ".kind \"" + kind +
      "\" is not a policy; accepted: static, every-k, on-drift");
}

JsonValue PolicyToJson(const ReselectPolicy& policy) {
  JsonValue json = JsonValue::Object();
  switch (policy.kind) {
    case ReselectPolicy::Kind::kStatic:
      json.Set("kind", JsonValue::Str("static"));
      break;
    case ReselectPolicy::Kind::kEveryK:
      json.Set("kind", JsonValue::Str("every-k"));
      json.Set("k", JsonValue::Int(policy.every_k));
      break;
    case ReselectPolicy::Kind::kOnDrift:
      json.Set("kind", JsonValue::Str("on-drift"));
      json.Set("threshold", JsonValue::Double(policy.drift_threshold));
      break;
  }
  return json;
}

// --- Response payloads -------------------------------------------------

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
  CV_RETURN_IF_ERROR(RequireObject(json, "config"));
  CV_RETURN_IF_ERROR(CheckKeys(
      json, "config",
      {"schema", "provider", "instance_name", "nb_instances",
       "maintenance_cycles", "prorate_storage",
       "storage_period_milli_months", "single_compute_session",
       "frontier_solver", "candidates"}));
  ScenarioConfig config;
  CV_RETURN_IF_ERROR(ReadString(json, "schema", "config", &config.schema));
  if (config.schema != "sales" && config.schema != "ssb") {
    return Status::InvalidArgument(
        "config.schema must be \"sales\" or \"ssb\", got \"" +
        config.schema + "\"");
  }
  CV_RETURN_IF_ERROR(
      ReadString(json, "provider", "config", &config.provider));
  CV_RETURN_IF_ERROR(
      ReadString(json, "instance_name", "config", &config.instance_name));
  CV_RETURN_IF_ERROR(
      ReadInt(json, "nb_instances", "config", &config.nb_instances));
  if (config.nb_instances <= 0) {
    return Status::InvalidArgument("config.nb_instances must be > 0");
  }
  CV_RETURN_IF_ERROR(ReadInt(json, "maintenance_cycles", "config",
                             &config.maintenance_cycles));
  CV_RETURN_IF_ERROR(ReadBool(json, "prorate_storage", "config",
                              &config.prorate_storage));
  CV_RETURN_IF_ERROR(ReadMonths(json, "storage_period_milli_months",
                                "config", &config.storage_period));
  CV_RETURN_IF_ERROR(ReadBool(json, "single_compute_session", "config",
                              &config.single_compute_session));
  CV_RETURN_IF_ERROR(ReadString(json, "frontier_solver", "config",
                                &config.frontier_solver));
  if (const JsonValue* candidates = json.Find("candidates")) {
    CV_RETURN_IF_ERROR(RequireObject(*candidates, "config.candidates"));
    CV_RETURN_IF_ERROR(CheckKeys(*candidates, "config.candidates",
                                 {"max_candidates", "max_size_fraction",
                                  "max_rows_fraction",
                                  "maintenance_delta_bytes",
                                  "queries_only"}));
    uint64_t max_candidates = config.candidates.max_candidates;
    CV_RETURN_IF_ERROR(ReadUint(*candidates, "max_candidates",
                                "config.candidates", &max_candidates));
    if (max_candidates == 0) {
      return Status::InvalidArgument(
          "config.candidates.max_candidates must be > 0");
    }
    config.candidates.max_candidates =
        static_cast<size_t>(max_candidates);
    CV_RETURN_IF_ERROR(ReadDouble(*candidates, "max_size_fraction",
                                  "config.candidates",
                                  &config.candidates.max_size_fraction));
    CV_RETURN_IF_ERROR(ReadDouble(*candidates, "max_rows_fraction",
                                  "config.candidates",
                                  &config.candidates.max_rows_fraction));
    CV_RETURN_IF_ERROR(
        ReadDataSize(*candidates, "maintenance_delta_bytes",
                     "config.candidates",
                     &config.candidates.maintenance_delta));
    CV_RETURN_IF_ERROR(ReadBool(*candidates, "queries_only",
                                "config.candidates",
                                &config.candidates.queries_only));
  }
  return config;
}

Result<AdvisorRequestKind> ParseAdvisorRequestKind(std::string_view name) {
  if (name == "solve") return AdvisorRequestKind::kSolve;
  if (name == "frontier") return AdvisorRequestKind::kFrontier;
  if (name == "timeline") return AdvisorRequestKind::kTimeline;
  if (name == "compare-providers") {
    return AdvisorRequestKind::kCompareProviders;
  }
  if (name == "compare-policies") {
    return AdvisorRequestKind::kComparePolicies;
  }
  if (name == "solve-joint") return AdvisorRequestKind::kSolveJoint;
  return Status::InvalidArgument(
      "\"" + std::string(name) +
      "\" is not a request kind; accepted: solve, frontier, timeline, "
      "compare-providers, compare-policies, solve-joint");
}

Result<AdvisorRequest> ParseAdvisorRequest(const JsonValue& json) {
  CV_RETURN_IF_ERROR(RequireObject(json, "request"));
  CV_RETURN_IF_ERROR(CheckKeys(json, "request",
                               {"kind", "session", "solver", "objective",
                                "workload", "timeline", "policy",
                                "policies", "deadline_ms"}));
  AdvisorRequest request;
  std::string kind;
  CV_RETURN_IF_ERROR(ReadString(json, "kind", "request", &kind));
  if (kind.empty()) {
    return Status::InvalidArgument(
        "request.kind is required; accepted: solve, frontier, timeline, "
        "compare-providers, compare-policies, solve-joint");
  }
  CV_ASSIGN_OR_RETURN(request.kind, ParseAdvisorRequestKind(kind));
  CV_RETURN_IF_ERROR(
      ReadString(json, "session", "request", &request.session));
  CV_RETURN_IF_ERROR(ReadString(json, "solver", "request", &request.solver));
  CV_RETURN_IF_ERROR(
      ReadInt(json, "deadline_ms", "request", &request.deadline_ms));
  if (request.deadline_ms < 0) {
    return Status::InvalidArgument("request.deadline_ms must be >= 0");
  }
  if (const JsonValue* objective = json.Find("objective")) {
    CV_ASSIGN_OR_RETURN(request.objective, ParseObjective(*objective));
  }
  if (const JsonValue* workload = json.Find("workload")) {
    CV_ASSIGN_OR_RETURN(request.workload, ParseWorkloadSpec(*workload));
  }
  if (const JsonValue* timeline = json.Find("timeline")) {
    CV_ASSIGN_OR_RETURN(request.timeline, ParseTimelineSpec(*timeline));
  }
  if (const JsonValue* policy = json.Find("policy")) {
    CV_ASSIGN_OR_RETURN(request.policy,
                        ParsePolicy(*policy, "request.policy"));
  }
  if (const JsonValue* policies = json.Find("policies")) {
    if (!policies->is_array()) {
      return Status::InvalidArgument("request.policies must be an array");
    }
    for (const JsonValue& p : policies->items()) {
      CV_ASSIGN_OR_RETURN(ReselectPolicy policy,
                          ParsePolicy(p, "request.policies[i]"));
      request.policies.push_back(policy);
    }
  }
  return request;
}

Result<AdvisorRequest> ParseAdvisorRequestText(std::string_view text) {
  CV_ASSIGN_OR_RETURN(JsonValue json, ParseJson(text));
  return ParseAdvisorRequest(json);
}

JsonValue AdvisorRequestToJson(const AdvisorRequest& request) {
  JsonValue json = JsonValue::Object();
  json.Set("kind", JsonValue::Str(AdvisorRequestKindName(request.kind)));
  if (!request.session.empty()) {
    json.Set("session", JsonValue::Str(request.session));
  }
  if (!request.solver.empty()) {
    json.Set("solver", JsonValue::Str(request.solver));
  }
  json.Set("objective", ObjectiveToJson(request.objective));
  json.Set("workload", WorkloadSpecToJson(request.workload));
  if (request.kind == AdvisorRequestKind::kTimeline ||
      request.kind == AdvisorRequestKind::kComparePolicies) {
    json.Set("timeline", TimelineSpecToJson(request.timeline));
  }
  if (request.kind == AdvisorRequestKind::kTimeline) {
    json.Set("policy", PolicyToJson(request.policy));
  }
  if (request.kind == AdvisorRequestKind::kComparePolicies) {
    JsonValue policies = JsonValue::Array();
    for (const ReselectPolicy& p : request.policies) {
      policies.Push(PolicyToJson(p));
    }
    json.Set("policies", std::move(policies));
  }
  if (request.deadline_ms > 0) {
    json.Set("deadline_ms", JsonValue::Int(request.deadline_ms));
  }
  return json;
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
