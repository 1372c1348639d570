// perfbench_replay: the in-process half of the end-to-end advisor
// benchmark (perfbench/README.md). Subcommands:
//
//   replay     Serves a generated line stream (the exact lines
//              advisor_server receives) in process, through the same
//              public calls the server's request path makes, and writes
//              one reply line per input line. With --trace it runs two
//              identical worlds side by side: A untraced, B traced, so
//              the difference of their totals is the tracing overhead.
//   check      Re-evaluates every selection in a reply stream from
//              scratch and compares its CostBreakdown (check.cc).
//   calibrate  Measures how many cores the global pool really delivers
//              through the public ParallelFor (check.cc).
//
// The replay mirrors CloudScenario::Dispatch for session requests step
// by step so that each layer can be timed from outside the library:
// codec parse, session lookup, deployment, candidate generation,
// evaluator build, solver search, timeline generation, planner build
// and walk, provider comparison (whole Dispatch: ForProvider is
// private) and response encode. Replies must equal the server's
// (perfbench/run.py compares their digests), which pins the mirror to
// the real path.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "commands.h"
#include "core/optimizer/candidate_generation.h"
#include "core/scenario.h"
#include "serving/advisor_codec.h"
#include "serving/json.h"
#include "serving/session_manager.h"
#include "trace.h"
#include "workload/timeline.h"

namespace perfbench {
namespace {

using cloudview::AdvisorRequest;
using cloudview::AdvisorRequestKind;
using cloudview::AdvisorResponse;
using cloudview::CloudScenario;
using cloudview::JsonValue;
using cloudview::Result;
using cloudview::Status;
using cloudview::Workload;

// A session's warm-start state, as AdvisorWarmSlot keeps it inside the
// server: the prepared evaluator and the persistent cache, valid for one
// workload.
struct WarmSlot {
  std::string workload_key;
  std::shared_ptr<const cloudview::SelectionEvaluator> evaluator;
  std::shared_ptr<cloudview::EvaluationCache> cache;
};

std::string WorkloadKey(const Workload& workload) {
  std::string key;
  for (const cloudview::QuerySpec& q : workload.queries()) {
    key += q.name + ":" + std::to_string(q.target) + ":" +
           std::to_string(q.frequency) + ";";
  }
  return key;
}

JsonValue Envelope(const Status& status) {
  JsonValue out = JsonValue::Object();
  out.Set("ok", JsonValue::Bool(status.ok()));
  out.Set("code", JsonValue::Str(Status::CodeToString(status.code())));
  if (!status.message().empty()) {
    out.Set("message", JsonValue::Str(status.message()));
  }
  return out;
}

Result<std::unique_ptr<cloudview::DriftModel>> MakeDrift(
    const cloudview::DriftSpec& spec) {
  using cloudview::DriftModel;
  if (spec.kind == "frequency-decay") {
    return std::unique_ptr<DriftModel>(
        std::make_unique<cloudview::FrequencyDecayDrift>(
            spec.factor,
            static_cast<uint64_t>(spec.floor < 0 ? 0 : spec.floor)));
  }
  if (spec.kind == "seasonal-spike") {
    return std::unique_ptr<DriftModel>(
        std::make_unique<cloudview::SeasonalSpikeDrift>(
            static_cast<size_t>(spec.season_length),
            static_cast<size_t>(spec.phase), spec.amplitude));
  }
  if (spec.kind == "query-churn") {
    return std::unique_ptr<DriftModel>(
        std::make_unique<cloudview::QueryChurnDrift>(spec.rate,
                                                     spec.cuboid_skew));
  }
  if (spec.kind == "dataset-growth") {
    return std::unique_ptr<DriftModel>(
        std::make_unique<cloudview::DatasetGrowthDrift>(
            spec.growth_per_period));
  }
  return Status::InvalidArgument("replay does not model drift kind \"" +
                                 spec.kind + "\"");
}

// One in-process copy of the server's state: its sessions and their warm
// slots, plus the tracer that times this world's calls.
class World {
 public:
  Tracer& tracer() { return tracer_; }

  /// \brief Serves one envelope line and returns the reply line the
  /// server would write for it.
  std::string Handle(const std::string& line, uint64_t request_id) {
    tracer_.BeginRequest(request_id);
    Tracer::Span root(tracer_, "serving.request");
    return HandleLine(line);
  }

 private:
  std::string Encode(JsonValue reply) {
    std::string out;
    {
      Tracer::Span span(tracer_, "serving.codec.encode");
      out = cloudview::WriteJson(reply);
    }
    tracer_.Count("serving.codec.response_bytes",
                  static_cast<double>(out.size() + 1));
    return out;
  }

  std::string HandleLine(const std::string& line) {
    Result<JsonValue> parsed = Status::Internal("unparsed");
    {
      Tracer::Span span(tracer_, "serving.codec.parse");
      parsed = cloudview::ParseJson(line);
    }
    if (!parsed.ok()) return Encode(Envelope(parsed.status()));
    const JsonValue& envelope = parsed.value();
    std::string op;
    if (const JsonValue* v = envelope.Find("op");
        v != nullptr && v->is_string()) {
      op = v->string_value();
    }
    const JsonValue* name = envelope.Find("name");
    if (op == "create_session" && name != nullptr && name->is_string()) {
      cloudview::ScenarioConfig config;
      if (const JsonValue* config_json = envelope.Find("config")) {
        Result<cloudview::ScenarioConfig> parsed_config =
            Status::Internal("unparsed");
        {
          Tracer::Span span(tracer_, "serving.codec.parse");
          parsed_config = cloudview::ParseScenarioConfig(*config_json);
        }
        if (!parsed_config.ok()) {
          return Encode(Envelope(parsed_config.status()));
        }
        config = parsed_config.MoveValue();
      }
      Status status = Status::OK();
      {
        Tracer::Span span(tracer_, "serving.session.create");
        status =
            sessions_.Create(name->string_value(), std::move(config))
                .status();
      }
      return Encode(Envelope(status));
    }
    if (op == "drop_session" && name != nullptr && name->is_string()) {
      Status status = Status::OK();
      {
        Tracer::Span span(tracer_, "serving.session.drop");
        status = sessions_.Drop(name->string_value());
        slots_.erase(name->string_value());
      }
      return Encode(Envelope(status));
    }
    const JsonValue* request_json = envelope.Find("request");
    if (op != "request" || request_json == nullptr) {
      return Encode(Envelope(Status::InvalidArgument(
          "replay serves create_session, request and drop_session "
          "envelopes only, got op \"" + op + "\"")));
    }
    Result<AdvisorRequest> request = Status::Internal("unparsed");
    {
      Tracer::Span span(tracer_, "serving.codec.parse");
      request = cloudview::ParseAdvisorRequest(*request_json);
    }
    if (!request.ok()) return Encode(Envelope(request.status()));
    Result<AdvisorResponse> response = Serve(request.value());
    if (!response.ok()) return Encode(Envelope(response.status()));
    JsonValue reply = Envelope(Status::OK());
    {
      Tracer::Span span(tracer_, "serving.codec.encode");
      reply.Set("response", cloudview::AdvisorResponseToJson(
                                response.value()));
    }
    return Encode(std::move(reply));
  }

  // Mirrors CloudScenario::SolveImpl with a session warm slot.
  Result<cloudview::SolveRun> Solve(const CloudScenario& scenario,
                                    WarmSlot& slot, const Workload& workload,
                                    const cloudview::ObjectiveSpec& spec,
                                    const std::string& solver,
                                    cloudview::ResponseMeta* meta) {
    const std::string key = WorkloadKey(workload);
    const bool warm_hit = slot.evaluator != nullptr && slot.workload_key == key;
    if (!warm_hit) {
      Result<cloudview::DeploymentSpec> deployment =
          Status::Internal("unbuilt");
      {
        Tracer::Span span(tracer_, "core.deployment");
        deployment = scenario.MakeDeployment(workload, scenario.cluster());
      }
      CV_RETURN_IF_ERROR(deployment.status());
      Result<std::vector<cloudview::ViewCandidate>> candidates =
          Status::Internal("unbuilt");
      {
        Tracer::Span span(tracer_, "optimizer.candidates.generate");
        candidates = cloudview::GenerateCandidates(
            scenario.lattice(), workload, scenario.simulator(),
            scenario.cluster(), scenario.config().candidates);
      }
      CV_RETURN_IF_ERROR(candidates.status());
      tracer_.Count("optimizer.candidates.count",
                    static_cast<double>(candidates.value().size()));
      {
        Tracer::Span span(tracer_, "optimizer.evaluator.create");
        CV_ASSIGN_OR_RETURN(
            cloudview::SelectionEvaluator built,
            cloudview::SelectionEvaluator::Create(
                scenario.lattice(), workload, scenario.simulator(),
                scenario.cluster(), scenario.cost_model(),
                deployment.value(), candidates.MoveValue()));
        slot.evaluator = std::make_shared<const cloudview::SelectionEvaluator>(
            std::move(built));
      }
      slot.cache = std::make_shared<cloudview::EvaluationCache>();
      slot.workload_key = key;
    }

    const cloudview::EvaluationCache::AggregateCounts before =
        slot.cache->aggregate();
    cloudview::ViewSelector selector(*slot.evaluator, slot.cache.get());
    Result<cloudview::SelectionResult> selection =
        Status::Internal("unsolved");
    {
      Tracer::Span span(tracer_, "optimizer.solve." + solver);
      selection = selector.Solve(spec, solver);
    }
    CV_RETURN_IF_ERROR(selection.status());
    const cloudview::EvaluationCache::AggregateCounts after =
        slot.cache->aggregate();
    tracer_.Count("optimizer.cache.lookups",
                  static_cast<double>(after.lookups - before.lookups));
    tracer_.Count("optimizer.cache.hits",
                  static_cast<double>(after.hits - before.hits));
    tracer_.Count("optimizer.cache.evictions",
                  static_cast<double>(after.evictions - before.evictions));
    if (solver == "branch-and-bound") {
      tracer_.Count("optimizer.bnb.gap_fraction",
                    selection.value().gap_fraction);
    }
    meta->warm = warm_hit;
    meta->cache_lookups = after.lookups;
    meta->cache_hits = after.hits;
    meta->cache_evictions = after.evictions;
    cloudview::SolveRun run;
    run.selection = selection.MoveValue();
    run.baseline = slot.evaluator->baseline();
    return run;
  }

  Result<cloudview::TemporalPlanner> Planner(const CloudScenario& scenario,
                                             const AdvisorRequest& request,
                                             const Workload& base) {
    const cloudview::TimelineSpec& spec = request.timeline;
    if (spec.num_periods <= 0 || spec.period_length.milli() <= 0) {
      return Status::InvalidArgument("timeline needs positive periods");
    }
    std::vector<std::unique_ptr<cloudview::DriftModel>> drift;
    for (const cloudview::DriftSpec& d : spec.drifts) {
      CV_ASSIGN_OR_RETURN(std::unique_ptr<cloudview::DriftModel> model,
                          MakeDrift(d));
      drift.push_back(std::move(model));
    }
    cloudview::TimelineOptions options;
    options.num_periods = static_cast<size_t>(spec.num_periods);
    options.period_length = spec.period_length;
    options.seed = spec.seed;
    Result<cloudview::WorkloadTimeline> timeline = Status::Internal("none");
    {
      Tracer::Span span(tracer_, "workload.timeline_generate");
      timeline = cloudview::WorkloadTimeline::Generate(
          scenario.lattice(), base, std::move(drift), options);
    }
    CV_RETURN_IF_ERROR(timeline.status());
    Tracer::Span span(tracer_, "optimizer.planner.create");
    return cloudview::TemporalPlanner::Create(
        scenario.lattice(), scenario.simulator(), scenario.cluster(),
        scenario.cost_model(), timeline.MoveValue(),
        scenario.config().candidates, scenario.config().maintenance_cycles);
  }

  // Mirrors CloudScenario::Dispatch for a session request.
  Result<AdvisorResponse> Serve(const AdvisorRequest& request) {
    const int64_t start_ns = NowNs();
    Result<std::shared_ptr<cloudview::AdvisorSession>> session =
        Status::Internal("unfound");
    {
      Tracer::Span span(tracer_, "serving.session.find");
      session = sessions_.Find(request.session);
    }
    CV_RETURN_IF_ERROR(session.status());
    const CloudScenario& scenario = session.value()->scenario();
    WarmSlot& slot = slots_[request.session];

    if (request.kind == AdvisorRequestKind::kCompareProviders) {
      // CloudScenario::ForProvider is private, so the whole Dispatch is
      // the span.
      Tracer::Span span(tracer_, "core.compare_providers");
      return scenario.Dispatch(request);
    }

    AdvisorResponse response;
    response.kind = request.kind;
    std::string solver = request.solver;
    if (solver.empty()) {
      solver = request.kind == AdvisorRequestKind::kFrontier
                   ? scenario.config().frontier_solver
               : request.kind == AdvisorRequestKind::kSolveJoint
                   ? std::string("arch-sweep")
                   : std::string(cloudview::kDefaultSolverName);
    }
    response.meta.solver = solver;

    Workload workload;
    if (request.workload.kind == "default") {
      CV_ASSIGN_OR_RETURN(workload, scenario.DefaultWorkload());
    } else if (request.workload.kind == "queries" &&
               !request.workload.queries.empty()) {
      workload = Workload(request.workload.queries);
    } else {
      return Status::InvalidArgument("replay needs a default or non-empty "
                                     "queries workload");
    }

    switch (request.kind) {
      case AdvisorRequestKind::kSolve: {
        CV_ASSIGN_OR_RETURN(response.solve,
                            Solve(scenario, slot, workload, request.objective,
                                  solver, &response.meta));
        response.meta.cancelled = response.solve.selection.cancelled;
        response.meta.gap_fraction = response.solve.selection.gap_fraction;
        break;
      }
      case AdvisorRequestKind::kFrontier: {
        CV_ASSIGN_OR_RETURN(cloudview::SolveRun run,
                            Solve(scenario, slot, workload, request.objective,
                                  solver, &response.meta));
        cloudview::FrontierRun& out = response.frontier;
        out.baseline = std::move(run.baseline);
        out.best = std::move(run.selection);
        out.frontier = std::move(out.best.frontier);
        out.best.frontier.clear();
        if (out.frontier.empty() && out.best.feasible) {
          out.frontier.push_back(cloudview::ParetoPoint{
              out.best.multi, out.best.evaluation.selected, out.best.solver});
        }
        tracer_.Count("optimizer.frontier.points",
                      static_cast<double>(out.frontier.size()));
        response.meta.cancelled = out.best.cancelled;
        response.meta.gap_fraction = out.best.gap_fraction;
        break;
      }
      case AdvisorRequestKind::kSolveJoint: {
        CV_ASSIGN_OR_RETURN(cloudview::SolveRun run,
                            Solve(scenario, slot, workload, request.objective,
                                  solver, &response.meta));
        cloudview::JointRun& out = response.joint;
        out.baseline = std::move(run.baseline);
        out.best = std::move(run.selection);
        out.frontier = std::move(out.best.frontier);
        out.best.frontier.clear();
        out.best_architecture = out.best.architecture;
        tracer_.Count("optimizer.frontier.points",
                      static_cast<double>(out.frontier.size()));
        response.meta.cancelled = out.best.cancelled;
        response.meta.gap_fraction = out.best.gap_fraction;
        break;
      }
      case AdvisorRequestKind::kTimeline: {
        CV_ASSIGN_OR_RETURN(cloudview::TemporalPlanner planner,
                            Planner(scenario, request, workload));
        Tracer::Span span(tracer_, "optimizer.planner.run");
        CV_ASSIGN_OR_RETURN(response.timeline,
                            planner.Run(request.objective, request.policy,
                                        solver));
        break;
      }
      case AdvisorRequestKind::kComparePolicies: {
        if (request.policies.empty()) {
          return Status::InvalidArgument(
              "compare-policies needs a non-empty policies list");
        }
        CV_ASSIGN_OR_RETURN(cloudview::TemporalPlanner planner,
                            Planner(scenario, request, workload));
        Tracer::Span span(tracer_, "optimizer.planner.compare_policies");
        CV_ASSIGN_OR_RETURN(response.policies,
                            planner.ComparePolicies(request.objective,
                                                    request.policies,
                                                    solver));
        break;
      }
      case AdvisorRequestKind::kCompareProviders:
        break;  // Served above.
    }
    response.meta.wall_ms = (NowNs() - start_ns) / 1'000'000;
    return response;
  }

  Tracer tracer_;
  cloudview::SessionManager sessions_;
  std::map<std::string, WarmSlot> slots_;
};

struct ReplayArgs {
  std::string lines_path;
  std::string out_dir;
  size_t timed_from = 0;
  double seconds = 0.0;
  bool trace = false;
  size_t trace_from = 0;
  size_t trace_to = 0;
};

bool WriteLines(const std::string& path,
                const std::vector<std::string>& lines) {
  std::ofstream out(path);
  for (const std::string& line : lines) out << line << "\n";
  return static_cast<bool>(out);
}

int RunReplay(const ReplayArgs& args) {
  std::vector<std::string> lines;
  if (!ReadLines(args.lines_path, &lines)) return 2;
  if (args.timed_from > lines.size()) {
    std::fprintf(stderr, "--timed-from %zu is past the %zu lines\n",
                 args.timed_from, lines.size());
    return 2;
  }

  World untraced;
  World traced;
  std::vector<World*> worlds = {&untraced};
  if (args.trace) worlds.push_back(&traced);
  std::vector<std::vector<std::string>> replies(worlds.size());

  int64_t timed_ns[2] = {0, 0};
  size_t timed = 0;
  int64_t timed_start = 0;
  const int64_t budget_ns = static_cast<int64_t>(args.seconds * 1e9);
  size_t i = 0;
  for (; i < lines.size(); ++i) {
    const bool in_timed = i >= args.timed_from;
    if (in_timed) {
      if (timed_start == 0) timed_start = NowNs();
      if (NowNs() - timed_start >= budget_ns) break;
    }
    traced.tracer().set_enabled(
        in_timed || (i >= args.trace_from && i < args.trace_to));
    // Alternate which world goes first so neither always runs on a
    // cache the other just warmed.
    for (size_t k = 0; k < worlds.size(); ++k) {
      const size_t w = (i + k) % worlds.size();
      const int64_t before = NowNs();
      replies[w].push_back(worlds[w]->Handle(lines[i], i));
      if (in_timed) timed_ns[w] += NowNs() - before;
    }
    if (in_timed) ++timed;
  }
  if (args.seconds > 0.0 && i == lines.size()) {
    std::fprintf(stderr,
                 "replay ran out of lines after %zu timed requests; "
                 "generate a longer stream\n",
                 timed);
    return 2;
  }

  if (!WriteLines(args.out_dir + "/replies_a.jsonl", replies[0])) return 2;
  if (args.trace) {
    if (!WriteLines(args.out_dir + "/replies_b.jsonl", replies[1])) return 2;
    std::ofstream spans(args.out_dir + "/spans.jsonl");
    traced.tracer().Write(spans);
    if (!spans) return 2;
  }
  std::printf(
      "{\"lines\":%zu,\"timed\":%zu,\"untraced_ns\":%lld,"
      "\"traced_ns\":%lld}\n",
      i, timed, static_cast<long long>(timed_ns[0]),
      static_cast<long long>(timed_ns[1]));
  return 0;
}

}  // namespace

bool ReadLines(const std::string& path, std::vector<std::string>* lines) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines->push_back(line);
  }
  return true;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const char* usage =
      "usage: perfbench_replay replay --lines F --out DIR --timed-from N\n"
      "                               --seconds S [--trace --trace-from P\n"
      "                               --trace-to Q]\n"
      "       perfbench_replay check --lines F --replies F\n"
      "       perfbench_replay calibrate\n";
  if (argc < 2) {
    std::fputs(usage, stderr);
    return 2;
  }
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--trace") {
      flags[arg] = "1";
    } else if (arg.rfind("--", 0) == 0 && i + 1 < argc) {
      flags[arg] = argv[++i];
    } else {
      std::fprintf(stderr, "bad argument %s\n%s", arg.c_str(), usage);
      return 2;
    }
  }
  if (command == "replay") {
    ReplayArgs args;
    args.lines_path = flags["--lines"];
    args.out_dir = flags["--out"];
    args.timed_from = std::strtoull(flags["--timed-from"].c_str(), nullptr, 10);
    args.seconds = std::atof(flags["--seconds"].c_str());
    args.trace = flags.count("--trace") > 0;
    args.trace_from = std::strtoull(flags["--trace-from"].c_str(), nullptr, 10);
    args.trace_to = std::strtoull(flags["--trace-to"].c_str(), nullptr, 10);
    if (args.lines_path.empty() || args.out_dir.empty()) {
      std::fputs(usage, stderr);
      return 2;
    }
    return RunReplay(args);
  }
  if (command == "check") {
    if (flags["--lines"].empty() || flags["--replies"].empty()) {
      std::fputs(usage, stderr);
      return 2;
    }
    return RunCheck(flags["--lines"], flags["--replies"]);
  }
  if (command == "calibrate") return RunCalibrate();
  std::fputs(usage, stderr);
  return 2;
}
