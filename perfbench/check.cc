// perfbench_replay check / calibrate (see commands.h).

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/architecture.h"
#include "commands.h"
#include "common/thread_pool.h"
#include "core/optimizer/candidate_generation.h"
#include "core/scenario.h"
#include "serving/advisor_codec.h"
#include "serving/json.h"
#include "trace.h"

namespace perfbench {
namespace {

using cloudview::JsonValue;
using cloudview::Result;
using cloudview::SelectionEvaluator;
using cloudview::Status;

int64_t IntAt(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.Find(key);
  return v != nullptr && v->is_int() ? v->int_value() : -1;
}

// Compares a reply's evaluation object ({selected, cost, times}) with an
// exact evaluation; returns "" when they agree, else what differs.
std::string CompareEvaluation(const JsonValue& reply,
                              const cloudview::SubsetEvaluation& exact) {
  const JsonValue* cost = reply.Find("cost");
  if (cost == nullptr) return "evaluation has no cost";
  const cloudview::CostBreakdown& c = exact.cost;
  const std::pair<const char*, int64_t> rows[] = {
      {"processing_micros", c.processing.micros()},
      {"materialization_micros", c.materialization.micros()},
      {"maintenance_micros", c.maintenance.micros()},
      {"storage_micros", c.storage.micros()},
      {"transfer_micros", c.transfer.micros()},
      {"requests_micros", c.requests.micros()},
      {"session_rounding_micros", c.session_rounding.micros()},
      {"interruption_micros", c.interruption.micros()},
      {"inter_az_micros", c.inter_az.micros()},
      {"total_micros", c.total().micros()},
  };
  for (const auto& [key, value] : rows) {
    if (IntAt(*cost, key) != value) {
      return std::string(key) + " reply " + std::to_string(IntAt(*cost, key)) +
             " vs exact " + std::to_string(value);
    }
  }
  if (IntAt(reply, "processing_time_ms") != exact.processing_time.millis() ||
      IntAt(reply, "makespan_ms") != exact.makespan.millis()) {
    return "processing_time_ms/makespan_ms differ from exact";
  }
  return "";
}

std::vector<size_t> Selected(const JsonValue& evaluation) {
  std::vector<size_t> out;
  if (const JsonValue* s = evaluation.Find("selected")) {
    for (const JsonValue& v : s->items()) {
      out.push_back(static_cast<size_t>(v.int_value()));
    }
  }
  return out;
}

// From-scratch evaluators, one per (session, workload): built in this
// process, sharing nothing with the server that produced the replies.
class Checker {
 public:
  /// \brief Checks one reply; "" when consistent.
  std::string Check(const std::string& line, const std::string& reply_line) {
    Result<JsonValue> envelope = cloudview::ParseJson(line);
    if (!envelope.ok()) return "unparseable request line";
    const JsonValue* op = envelope.value().Find("op");
    const JsonValue* name = envelope.value().Find("name");
    const std::string op_name =
        op != nullptr && op->is_string() ? op->string_value() : "";
    if (op_name == "create_session" && name != nullptr) {
      const JsonValue* config = envelope.value().Find("config");
      configs_[name->string_value()] =
          config != nullptr ? *config : JsonValue::Object();
      evaluators_.erase(name->string_value());
      return "";
    }
    if (op_name == "drop_session" && name != nullptr) {
      configs_.erase(name->string_value());
      evaluators_.erase(name->string_value());
      return "";
    }
    if (op_name != "request") return "";
    Result<cloudview::AdvisorRequest> request =
        cloudview::ParseAdvisorRequest(*envelope.value().Find("request"));
    if (!request.ok()) {
      return "unparseable request: " + request.status().ToString();
    }
    Result<JsonValue> reply = cloudview::ParseJson(reply_line);
    if (!reply.ok()) return "unparseable reply";
    const JsonValue* response = reply.value().Find("response");
    if (response == nullptr) return "";  // Failures are counted by run.py.

    const JsonValue* payload = nullptr;
    const char* selection_key = "best";
    switch (request.value().kind) {
      case cloudview::AdvisorRequestKind::kSolve:
        payload = response->Find("solve");
        selection_key = "selection";
        break;
      case cloudview::AdvisorRequestKind::kFrontier:
        payload = response->Find("frontier");
        break;
      case cloudview::AdvisorRequestKind::kSolveJoint:
        payload = response->Find("joint");
        break;
      default:
        return "";  // No single selection to re-evaluate.
    }
    if (payload == nullptr) return "response lacks its payload";
    const JsonValue* selection = payload->Find(selection_key);
    const JsonValue* baseline = payload->Find("baseline");
    if (selection == nullptr || baseline == nullptr ||
        selection->Find("evaluation") == nullptr) {
      return "response lacks a selection or baseline";
    }

    Result<const SelectionEvaluator*> evaluator =
        EvaluatorFor(request.value());
    if (!evaluator.ok()) return evaluator.status().ToString();
    const SelectionEvaluator& base = *evaluator.value();
    std::string diff = CompareEvaluation(*baseline, base.baseline());
    if (!diff.empty()) return "baseline: " + diff;

    const JsonValue& evaluation = *selection->Find("evaluation");
    const JsonValue* architecture = selection->Find("architecture");
    Result<cloudview::SubsetEvaluation> exact = Status::Internal("none");
    if (architecture == nullptr) {
      exact = base.Evaluate(Selected(evaluation));
    } else {
      Result<SelectionEvaluator> billed = Status::NotFound(
          "architecture " + architecture->string_value() + " not in roster");
      std::vector<cloudview::ArchitectureSpec> roster =
          request.value().objective.architectures.empty()
              ? cloudview::DefaultArchitectureRoster()
              : request.value().objective.architectures;
      for (const cloudview::ArchitectureSpec& spec : roster) {
        if (spec.name != architecture->string_value()) continue;
        Result<cloudview::ArchitectureModel> model =
            spec.Lower(base.cost_model().pricing(), base.deployment().instance);
        if (!model.ok()) return model.status().ToString();
        billed = base.CloneWithArchitecture(model.value());
      }
      if (!billed.ok()) return billed.status().ToString();
      exact = billed.value().Evaluate(Selected(evaluation));
    }
    if (!exact.ok()) return exact.status().ToString();
    diff = CompareEvaluation(evaluation, exact.value());
    if (!diff.empty()) return "selection: " + diff;
    ++checked_;
    return "";
  }

  size_t checked() const { return checked_; }

 private:
  Result<const SelectionEvaluator*> EvaluatorFor(
      const cloudview::AdvisorRequest& request) {
    auto config_it = configs_.find(request.session);
    if (config_it == configs_.end()) {
      return Status::NotFound("no create_session for \"" + request.session +
                              "\"");
    }
    const std::string config_text = cloudview::WriteJson(config_it->second);
    auto scenario_it = scenarios_.find(config_text);
    if (scenario_it == scenarios_.end()) {
      CV_ASSIGN_OR_RETURN(cloudview::ScenarioConfig config,
                          cloudview::ParseScenarioConfig(config_it->second));
      CV_ASSIGN_OR_RETURN(cloudview::CloudScenario scenario,
                          cloudview::CloudScenario::Create(std::move(config)));
      scenario_it =
          scenarios_
              .emplace(config_text, std::make_unique<cloudview::CloudScenario>(
                                        std::move(scenario)))
              .first;
    }
    const cloudview::CloudScenario& scenario = *scenario_it->second;
    cloudview::Workload workload;
    if (request.workload.kind == "default") {
      CV_ASSIGN_OR_RETURN(workload, scenario.DefaultWorkload());
    } else {
      workload = cloudview::Workload(request.workload.queries);
    }
    std::string key = request.workload.kind;
    for (const cloudview::QuerySpec& q : request.workload.queries) {
      key += ";" + q.name + ":" + std::to_string(q.target) + ":" +
             std::to_string(q.frequency);
    }
    std::unique_ptr<SelectionEvaluator>& slot =
        evaluators_[request.session][key];
    if (slot == nullptr) {
      CV_ASSIGN_OR_RETURN(
          cloudview::DeploymentSpec deployment,
          scenario.MakeDeployment(workload, scenario.cluster()));
      CV_ASSIGN_OR_RETURN(
          std::vector<cloudview::ViewCandidate> candidates,
          cloudview::GenerateCandidates(scenario.lattice(), workload,
                                        scenario.simulator(),
                                        scenario.cluster(),
                                        scenario.config().candidates));
      CV_ASSIGN_OR_RETURN(
          SelectionEvaluator built,
          SelectionEvaluator::Create(scenario.lattice(), workload,
                                     scenario.simulator(), scenario.cluster(),
                                     scenario.cost_model(), deployment,
                                     std::move(candidates)));
      slot = std::make_unique<SelectionEvaluator>(std::move(built));
    }
    return static_cast<const SelectionEvaluator*>(slot.get());
  }

  std::map<std::string, JsonValue> configs_;
  std::map<std::string, std::unique_ptr<cloudview::CloudScenario>> scenarios_;
  std::map<std::string,
           std::map<std::string, std::unique_ptr<SelectionEvaluator>>>
      evaluators_;
  size_t checked_ = 0;
};

}  // namespace

int RunCheck(const std::string& lines_path, const std::string& replies_path) {
  std::vector<std::string> lines;
  std::vector<std::string> replies;
  if (!ReadLines(lines_path, &lines) || !ReadLines(replies_path, &replies)) {
    return 2;
  }
  if (lines.size() != replies.size()) {
    std::fprintf(stderr, "%zu request lines but %zu replies\n", lines.size(),
                 replies.size());
    return 2;
  }
  Checker checker;
  size_t mismatches = 0;
  std::string first;
  for (size_t i = 0; i < lines.size(); ++i) {
    std::string diff = checker.Check(lines[i], replies[i]);
    if (diff.empty()) continue;
    if (mismatches++ == 0) first = "line " + std::to_string(i) + ": " + diff;
  }
  JsonValue out = JsonValue::Object();
  out.Set("checked", JsonValue::Int(static_cast<int64_t>(checker.checked())));
  out.Set("mismatches", JsonValue::Int(static_cast<int64_t>(mismatches)));
  out.Set("first", JsonValue::Str(first));
  std::printf("%s\n", cloudview::WriteJson(out).c_str());
  return mismatches == 0 ? 0 : 1;
}

int RunCalibrate() {
  // A fixed CPU-bound body with a serial dependency chain per index; the
  // iteration count is read through a volatile so it cannot be folded.
  static volatile int kIterations = 300000;
  const int iterations = kIterations;
  const size_t n = 64;
  std::vector<uint64_t> sink(n);
  auto body = [&](size_t i) {
    uint64_t x = i + 1;
    for (int k = 0; k < iterations; ++k) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    sink[i] = x;
  };
  cloudview::ParallelFor(n, body);  // Start the pool's workers.
  std::vector<double> ratios;
  for (int round = 0; round < 7; ++round) {
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < n; ++i) body(i);
    const int64_t t1 = NowNs();
    cloudview::ParallelFor(n, body);
    const int64_t t2 = NowNs();
    ratios.push_back(static_cast<double>(t1 - t0) /
                     static_cast<double>(t2 - t1));
  }
  std::sort(ratios.begin(), ratios.end());
  uint64_t checksum = 0;
  for (uint64_t v : sink) checksum ^= v;
  std::printf(
      "{\"effective_cores\":%.6f,\"pool_concurrency\":%zu,\"checksum\":%llu}\n",
      ratios[ratios.size() / 2],
      cloudview::ThreadPool::Global().concurrency(),
      static_cast<unsigned long long>(checksum));
  return 0;
}

}  // namespace perfbench
