// CloudScenario::Dispatch and the impl bodies behind each request kind
// (DESIGN.md §14). Lives in its own TU so the advisor
// API surface (advisor.h) and the deployment wiring (scenario.cc)
// evolve independently.

#include "core/advisor.h"

#include <chrono>
#include <memory>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/str_format.h"
#include "core/optimizer/candidate_generation.h"
#include "core/scenario.h"
#include "pricing/provider_registry.h"

namespace cloudview {

namespace {

/// Identity of a solve for warm-slot reuse: the resolved workload, the
/// rented cluster, and the candidate-generation knobs. Everything else
/// a session could vary (objective, solver, deadline) shares the same
/// prepared evaluator, which is exactly the point of the slot.
uint64_t SolveFingerprint(const Workload& workload,
                          const ClusterSpec& cluster,
                          const CandidateGenOptions& options) {
  uint64_t h = Fnv1a64(cluster.instance.name);
  h = HashCombine(h, static_cast<uint64_t>(cluster.nodes));
  h = HashCombine(h, static_cast<uint64_t>(options.max_candidates));
  h = HashCombine(h, static_cast<uint64_t>(
                         options.max_size_fraction * 1e9));
  h = HashCombine(h, static_cast<uint64_t>(
                         options.max_rows_fraction * 1e9));
  h = HashCombine(h, static_cast<uint64_t>(options.queries_only));
  h = HashCombine(h,
                  static_cast<uint64_t>(options.maintenance_delta.bytes()));
  for (const QuerySpec& q : workload.queries()) {
    h = HashCombine(h, Fnv1a64(q.name));
    h = HashCombine(h, static_cast<uint64_t>(q.target));
    h = HashCombine(h, q.frequency);
  }
  return h;
}

Result<std::unique_ptr<DriftModel>> MakeDriftModel(
    const DriftSpec& spec, const CubeLattice& lattice) {
  if (spec.kind == "frequency-decay") {
    if (spec.factor <= 0.0 || spec.factor > 1.0) {
      return Status::InvalidArgument(
          "frequency-decay drift needs factor in (0, 1], got " +
          std::to_string(spec.factor));
    }
    return std::unique_ptr<DriftModel>(std::make_unique<FrequencyDecayDrift>(
        spec.factor, static_cast<uint64_t>(spec.floor < 0 ? 0 : spec.floor)));
  }
  if (spec.kind == "seasonal-spike") {
    if (spec.season_length <= 0 || spec.phase < 0 ||
        spec.phase >= spec.season_length) {
      return Status::InvalidArgument(
          "seasonal-spike drift needs season_length > 0 and phase in "
          "[0, season_length)");
    }
    return std::unique_ptr<DriftModel>(std::make_unique<SeasonalSpikeDrift>(
        static_cast<size_t>(spec.season_length),
        static_cast<size_t>(spec.phase), spec.amplitude));
  }
  if (spec.kind == "query-churn") {
    if (spec.rate < 0.0 || spec.rate > 1.0) {
      return Status::InvalidArgument(
          "query-churn drift needs rate in [0, 1], got " +
          std::to_string(spec.rate));
    }
    return std::unique_ptr<DriftModel>(
        std::make_unique<QueryChurnDrift>(spec.rate, spec.cuboid_skew));
  }
  if (spec.kind == "dataset-growth") {
    // See kMaxGrownFactBytes.
    const double fact = static_cast<double>(lattice.fact_scan_size().bytes());
    const double max_growth =
        (static_cast<double>(kMaxGrownFactBytes) / fact - 1.0) /
        static_cast<double>(kMaxTimelinePeriods);
    if (!(spec.growth_per_period >= 0.0 &&
          spec.growth_per_period <= max_growth)) {
      return Status::InvalidArgument(StrFormat(
          "dataset-growth drift needs growth_per_period in [0, %.17g] on "
          "this lattice, got %g",
          max_growth, spec.growth_per_period));
    }
    return std::unique_ptr<DriftModel>(
        std::make_unique<DatasetGrowthDrift>(spec.growth_per_period));
  }
  return Status::InvalidArgument(
      "unknown drift kind \"" + spec.kind +
      "\"; expected frequency-decay, seasonal-spike, query-churn, or "
      "dataset-growth");
}

/// Refuses a period mix that runs more than kMaxPeriodRuns queries.
Status CheckPeriodRuns(const Workload& workload) {
  uint64_t runs = 0;
  for (const QuerySpec& q : workload.queries()) {
    if (q.frequency > kMaxPeriodRuns - runs) {
      return Status::InvalidArgument(
          "a period may run at most " + std::to_string(kMaxPeriodRuns) +
          " queries (the sum of their frequency)");
    }
    runs += q.frequency;
  }
  return Status::OK();
}

}  // namespace

const char* AdvisorRequestKindName(AdvisorRequestKind kind) {
  for (const auto& [value, name] : kAdvisorRequestKinds) {
    if (value == kind) return name.data();
  }
  return "unknown";
}

double SolveRun::TimeImprovement(const ObjectiveSpec& spec) const {
  // The baseline has no views, so its makespan equals its processing
  // time; either metric reads the same.
  Duration base = spec.time_includes_materialization
                      ? baseline.makespan
                      : baseline.processing_time;
  if (base.is_zero()) return 0.0;
  return 1.0 - static_cast<double>(selection.time.millis()) /
                   static_cast<double>(base.millis());
}

double SolveRun::CostImprovement() const {
  Money base = baseline.cost.total();
  if (base.is_zero()) return 0.0;
  return 1.0 -
         static_cast<double>(selection.evaluation.cost.total().micros()) /
             static_cast<double>(base.micros());
}

Result<Workload> CloudScenario::ResolveWorkload(
    const AdvisorRequest& request) const {
  if (request.inline_workload != nullptr) return *request.inline_workload;
  const WorkloadSpec& spec = request.workload;
  if (spec.kind == "default") return DefaultWorkload();
  if (spec.kind == "queries") {
    if (spec.queries.empty()) {
      return Status::InvalidArgument(
          "workload kind \"queries\" needs a non-empty queries list");
    }
    for (const QuerySpec& q : spec.queries) {
      if (q.target >= lattice_->num_nodes()) {
        return Status::InvalidArgument(
            "query \"" + q.name + "\" targets cuboid " +
            std::to_string(q.target) + " but the lattice has " +
            std::to_string(lattice_->num_nodes()) + " cuboids");
      }
      if (q.frequency == 0) {
        return Status::InvalidArgument("query \"" + q.name +
                                       "\" has zero frequency");
      }
    }
    Workload workload(spec.queries);
    CV_RETURN_IF_ERROR(CheckPeriodRuns(workload));
    return workload;
  }
  return Status::InvalidArgument("unknown workload kind \"" + spec.kind +
                                 "\"; expected default or queries");
}

Result<WorkloadTimeline> CloudScenario::ResolveTimeline(
    const AdvisorRequest& request, const Workload& base) const {
  if (request.inline_timeline != nullptr) return *request.inline_timeline;
  const TimelineSpec& spec = request.timeline;
  if (spec.num_periods <= 0 || spec.num_periods > kMaxTimelinePeriods) {
    return Status::InvalidArgument(
        "timeline needs num_periods in [1, " +
        std::to_string(kMaxTimelinePeriods) + "], got " +
        std::to_string(spec.num_periods));
  }
  if (spec.period_length.milli() <= 0) {
    return Status::InvalidArgument("timeline needs a positive period_length");
  }
  std::vector<std::unique_ptr<DriftModel>> drift;
  drift.reserve(spec.drifts.size());
  for (const DriftSpec& d : spec.drifts) {
    CV_ASSIGN_OR_RETURN(std::unique_ptr<DriftModel> model,
                        MakeDriftModel(d, *lattice_));
    drift.push_back(std::move(model));
  }
  TimelineOptions options;
  options.num_periods = static_cast<size_t>(spec.num_periods);
  options.period_length = spec.period_length;
  options.seed = spec.seed;
  CV_ASSIGN_OR_RETURN(
      WorkloadTimeline timeline,
      WorkloadTimeline::Generate(*lattice_, base, std::move(drift), options));
  for (const TimelinePeriod& period : timeline.periods()) {
    CV_RETURN_IF_ERROR(CheckPeriodRuns(period.workload));
  }
  return timeline;
}

Result<SolveRun> CloudScenario::SolveImpl(const Workload& workload,
                                          const ObjectiveSpec& spec,
                                          std::string_view solver,
                                          const ClusterSpec* cluster_override,
                                          AdvisorWarmSlot* warm,
                                          ResponseMeta* meta) const {
  if (workload.empty()) {
    return Status::InvalidArgument("cannot run an empty workload");
  }
  const ClusterSpec& cluster =
      cluster_override != nullptr ? *cluster_override : cluster_;
  // A cluster override is a one-off sweep point; it never touches the
  // session's slot.
  const bool warm_eligible = warm != nullptr && cluster_override == nullptr;
  const uint64_t fingerprint =
      warm_eligible ? SolveFingerprint(workload, cluster, config_.candidates)
                    : 0;
  const bool warm_hit = warm_eligible && warm->evaluator != nullptr &&
                        warm->fingerprint == fingerprint;

  std::shared_ptr<const SelectionEvaluator> evaluator;
  if (warm_hit) {
    evaluator = warm->evaluator;
    ++warm->warm_hits;
  } else {
    CV_ASSIGN_OR_RETURN(DeploymentSpec deployment,
                        MakeDeployment(workload, cluster));
    CV_ASSIGN_OR_RETURN(
        std::vector<ViewCandidate> candidates,
        GenerateCandidates(*lattice_, workload, *simulator_, cluster,
                           config_.candidates));
    CV_ASSIGN_OR_RETURN(
        SelectionEvaluator built,
        SelectionEvaluator::Create(*lattice_, workload, *simulator_,
                                   cluster, *cost_model_, deployment,
                                   std::move(candidates)));
    evaluator =
        std::make_shared<const SelectionEvaluator>(std::move(built));
    if (warm_eligible) {
      warm->evaluator = evaluator;
      warm->cache = std::make_shared<EvaluationCache>();
      warm->fingerprint = fingerprint;
      warm->warm_hits = 0;
    }
  }

  // The session slot's cache is the only memo shared between solves; a
  // one-shot solve runs uncached (DESIGN.md §9.3 rule 4).
  EvaluationCache* cache = warm_eligible ? warm->cache.get() : nullptr;
  ViewSelector selector(*evaluator, cache);
  CV_ASSIGN_OR_RETURN(SelectionResult selection,
                      selector.Solve(spec, solver));
  if (meta != nullptr) {
    meta->warm = warm_hit;
    if (cache != nullptr) {
      EvaluationCache::AggregateCounts counts = cache->aggregate();
      meta->cache_lookups = counts.lookups;
      meta->cache_hits = counts.hits;
      meta->cache_evictions = counts.evictions;
    }
  }
  SolveRun run;
  run.selection = std::move(selection);
  run.baseline = evaluator->baseline();
  return run;
}

Result<AdvisorResponse> CloudScenario::Dispatch(
    const AdvisorRequest& request, AdvisorWarmSlot* warm) const {
  const auto start = std::chrono::steady_clock::now();
  AdvisorResponse response;
  response.kind = request.kind;

  std::string_view solver = request.solver;
  if (solver.empty()) {
    switch (request.kind) {
      case AdvisorRequestKind::kFrontier:
        solver = config_.frontier_solver;
        break;
      case AdvisorRequestKind::kSolveJoint:
        solver = "arch-sweep";
        break;
      default:
        solver = kDefaultSolverName;
        break;
    }
  }
  response.meta.solver = std::string(solver);

  CV_ASSIGN_OR_RETURN(Workload workload, ResolveWorkload(request));

  switch (request.kind) {
    case AdvisorRequestKind::kSolve: {
      CV_ASSIGN_OR_RETURN(
          response.solve,
          SolveImpl(workload, request.objective, solver,
                    request.cluster_override, warm, &response.meta));
      response.meta.cancelled = response.solve.selection.cancelled;
      response.meta.gap_fraction = response.solve.selection.gap_fraction;
      break;
    }
    case AdvisorRequestKind::kFrontier:
    case AdvisorRequestKind::kSolveJoint: {
      // One solve under a multi-objective strategy; the reply lifts the
      // frontier it carries out of the best selection.
      CV_ASSIGN_OR_RETURN(SolveRun run,
                          SolveImpl(workload, request.objective, solver,
                                    nullptr, warm, &response.meta));
      SelectionResult best = std::move(run.selection);
      std::vector<ParetoPoint> frontier = std::move(best.frontier);
      best.frontier.clear();
      response.meta.cancelled = best.cancelled;
      response.meta.gap_fraction = best.gap_fraction;
      if (request.kind == AdvisorRequestKind::kSolveJoint) {
        response.joint.best_architecture = best.architecture;
        response.joint.frontier = std::move(frontier);
        response.joint.best = std::move(best);
        response.joint.baseline = std::move(run.baseline);
        break;
      }
      if (frontier.empty() && best.feasible) {
        // A single-objective strategy was named: degenerate to its one
        // operating point rather than returning an empty frontier.
        frontier.push_back(
            ParetoPoint{best.multi, best.evaluation.selected, best.solver});
      }
      response.frontier.frontier = std::move(frontier);
      response.frontier.best = std::move(best);
      response.frontier.baseline = std::move(run.baseline);
      break;
    }
    case AdvisorRequestKind::kTimeline:
    case AdvisorRequestKind::kComparePolicies: {
      if (request.kind == AdvisorRequestKind::kComparePolicies &&
          request.policies.empty()) {
        return Status::InvalidArgument(
            "compare-policies needs a non-empty policies list");
      }
      CV_ASSIGN_OR_RETURN(WorkloadTimeline timeline,
                          ResolveTimeline(request, workload));
      CV_ASSIGN_OR_RETURN(
          TemporalPlanner planner,
          TemporalPlanner::Create(*lattice_, *simulator_, cluster_,
                                  *cost_model_, std::move(timeline),
                                  config_.candidates,
                                  config_.maintenance_cycles));
      if (request.kind == AdvisorRequestKind::kTimeline) {
        CV_ASSIGN_OR_RETURN(
            response.timeline,
            planner.Run(request.objective, request.policy, solver));
      } else {
        CV_ASSIGN_OR_RETURN(
            response.policies,
            planner.ComparePolicies(request.objective, request.policies,
                                    solver));
      }
      break;
    }
    case AdvisorRequestKind::kCompareProviders: {
      // One row per registered sheet, in name order: each rebuilds its
      // own deployment (scenario, evaluator, selector) from scratch and
      // solves uncached, so the reply's cache counts stay 0.
      for (const std::string& name : ProviderRegistry::Global().Names()) {
        ProviderComparisonRow& row = response.providers.emplace_back();
        row.provider = name;
        CV_ASSIGN_OR_RETURN(
            CloudScenario scenario,
            ForProvider(name, &row.instance, &row.granularity));
        CV_ASSIGN_OR_RETURN(row.run,
                            scenario.SolveImpl(workload, request.objective,
                                               solver, nullptr, nullptr,
                                               nullptr));
      }
      break;
    }
  }

  // The solve kinds read truncation off the SelectionResult; the sweep
  // and timeline kinds observe the token directly.
  if (!response.meta.cancelled && request.objective.cancel != nullptr &&
      request.objective.cancel->cancelled()) {
    response.meta.cancelled = true;
  }
  response.meta.wall_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  return response;
}

}  // namespace cloudview
