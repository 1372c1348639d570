#include "core/optimizer/temporal_planner.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/str_format.h"
#include "core/optimizer/solver.h"

namespace cloudview {

namespace {

/// The union mix candidate generation sees: every cuboid queried in any
/// period, its frequency summed over the horizon — so a view that only
/// matters in month 9 is still in Vcand from month 0.
Workload UnionWorkload(const WorkloadTimeline& timeline) {
  std::map<CuboidId, QuerySpec> merged;
  for (const TimelinePeriod& period : timeline.periods()) {
    for (const QuerySpec& q : period.workload.queries()) {
      auto [it, inserted] = merged.emplace(q.target, q);
      if (!inserted) it->second.frequency += q.frequency;
    }
  }
  std::vector<QuerySpec> queries;
  queries.reserve(merged.size());
  for (auto& [target, query] : merged) queries.push_back(std::move(query));
  return Workload(std::move(queries));
}

/// Indices in `next` not in `prev` (both ascending).
std::vector<size_t> SetDifference(const std::vector<size_t>& next,
                                  const std::vector<size_t>& prev) {
  std::vector<size_t> out;
  std::set_difference(next.begin(), next.end(), prev.begin(), prev.end(),
                      std::back_inserter(out));
  return out;
}

}  // namespace

std::string ReselectPolicy::Name() const {
  switch (kind) {
    case Kind::kStatic:
      return "static";
    case Kind::kEveryK:
      return StrFormat("every-%lld", static_cast<long long>(every_k));
    case Kind::kOnDrift:
      return StrFormat("drift-%.2f", drift_threshold);
  }
  return "unknown";
}

Duration TemporalRunResult::TotalProcessingTime() const {
  Duration total = Duration::Zero();
  for (const TemporalPeriodRow& row : ledger) total += row.processing_time;
  return total;
}

Result<TemporalPlanner> TemporalPlanner::Create(
    const CubeLattice& lattice, const MapReduceSimulator& simulator,
    const ClusterSpec& cluster, const CloudCostModel& cost_model,
    WorkloadTimeline timeline, const CandidateGenOptions& options,
    int64_t maintenance_cycles) {
  if (maintenance_cycles < 0) {
    return Status::InvalidArgument("maintenance cycles must be >= 0");
  }
  TemporalPlanner planner(lattice, simulator, cluster, cost_model,
                          std::move(timeline), maintenance_cycles);
  CV_ASSIGN_OR_RETURN(
      planner.candidates_,
      GenerateCandidates(lattice, UnionWorkload(planner.timeline_),
                         simulator, cluster, options));
  if (planner.candidates_.empty()) {
    return Status::FailedPrecondition(
        "candidate generation produced no views for the timeline");
  }
  planner.base_at_period_.reserve(planner.timeline_.num_periods() + 1);
  DataSize base = lattice.fact_scan_size();
  planner.base_at_period_.push_back(base);
  for (const TimelinePeriod& period : planner.timeline_.periods()) {
    base += period.base_growth;
    planner.base_at_period_.push_back(base);
  }

  // Pre-materialize each period's evaluator (timing table + baseline),
  // the walk-independent bulk of a planner's cost. Built from the full
  // candidate pool; the walk later snapshots them with the carried
  // views' builds zeroed.
  size_t periods = planner.timeline_.num_periods();
  planner.period_evaluators_.reserve(periods);
  for (size_t p = 0; p < periods; ++p) {
    CV_ASSIGN_OR_RETURN(
        SelectionEvaluator evaluator,
        SelectionEvaluator::Create(
            lattice, planner.timeline_.period(p).workload, simulator,
            planner.cluster_, cost_model, planner.PeriodDeployment(p),
            planner.candidates_));
    planner.period_evaluators_.push_back(
        std::make_unique<const SelectionEvaluator>(std::move(evaluator)));
  }
  return planner;
}

bool TemporalPlanner::ShouldReselect(const ReselectPolicy& policy,
                                     size_t p, double drift) {
  if (p == 0) return true;  // Every policy needs an initial selection.
  switch (policy.kind) {
    case ReselectPolicy::Kind::kStatic:
      return false;
    case ReselectPolicy::Kind::kEveryK:
      return p % static_cast<size_t>(policy.every_k) == 0;
    case ReselectPolicy::Kind::kOnDrift:
      return drift >= policy.drift_threshold;
  }
  return false;
}

DeploymentSpec TemporalPlanner::PeriodDeployment(size_t p) const {
  DeploymentSpec deployment;
  deployment.instance = cluster_.instance;
  deployment.nb_instances = cluster_.nodes;
  deployment.storage_period = timeline_.period_length();
  deployment.base_storage = StorageTimeline(base_at_period_[p]);
  // Ingress the solver scores against: the initial upload in period 0
  // and the period's base-data growth. The transition ingress of views
  // it might add is charged by the ledger, not scored here (it depends
  // on the previous period's selection, which the stand-alone period
  // problem does not see).
  if (p == 0) {
    deployment.ingress.initial_dataset = base_at_period_[0];
  }
  deployment.ingress.inserted_data =
      base_at_period_[p + 1] - base_at_period_[p];
  deployment.maintenance_cycles = maintenance_cycles_;
  deployment.single_compute_session = false;
  return deployment;
}

Result<TemporalRunResult> TemporalPlanner::Run(
    const ObjectiveSpec& spec, const ReselectPolicy& policy,
    std::string_view solver) const {
  return Walk(spec, policy, solver, nullptr);
}

Result<TemporalRunResult> TemporalPlanner::Walk(
    const ObjectiveSpec& spec, const ReselectPolicy& policy,
    std::string_view solver_name, WinnerMemo* memo) const {
  if (policy.kind == ReselectPolicy::Kind::kEveryK &&
      policy.every_k <= 0) {
    return Status::InvalidArgument("every_k must be positive");
  }
  if (policy.kind == ReselectPolicy::Kind::kOnDrift &&
      (policy.drift_threshold < 0.0 || policy.drift_threshold > 1.0)) {
    return Status::InvalidArgument("drift threshold outside [0, 1]");
  }
  CV_ASSIGN_OR_RETURN(const Solver* solver,
                      SolverRegistry::Global().Find(solver_name));

  TemporalRunResult result;
  result.policy = policy;
  result.solver = std::string(solver_name);

  const ComputeCostModel& compute = cost_model_->compute();
  const TransferCostModel& transfer = cost_model_->transfer();
  const StorageCostModel& storage = cost_model_->storage();

  // The horizon-long storage ledger: base data (with growth events) plus
  // view add/drop events appended as the walk decides them.
  StorageTimeline horizon_storage(base_at_period_[0]);
  for (size_t p = 1; p < timeline_.num_periods(); ++p) {
    DataSize growth = base_at_period_[p] - base_at_period_[p - 1];
    if (growth.bytes() != 0) {
      CV_RETURN_IF_ERROR(
          horizon_storage.AddDelta(timeline_.PeriodStart(p), growth));
    }
  }
  Money storage_billed;  // Cumulative Formula 5 up to the period walked.

  std::vector<size_t> prev_selected;
  Workload last_solve_mix;
  for (size_t p = 0; p < timeline_.num_periods(); ++p) {
    // Cancellation poll (DESIGN.md §14): an expired request stops at
    // the next period head and returns the ledger walked so far.
    if (spec.cancel != nullptr && spec.cancel->cancelled()) break;
    const TimelinePeriod& period = timeline_.period(p);
    DeploymentSpec deployment = PeriodDeployment(p);
    // Transition-aware period problem: carried views' build time is
    // sunk, so their materialization is zeroed — the solver charges
    // builds only for views it newly adds (and a dropped-then-readded
    // view pays its build again). This is what makes holding a good
    // selection free and replacing a stale one a one-time charge.
    // The snapshot shares the pre-built timing table; only the
    // candidate pool and memo are per-walk.
    CV_ASSIGN_OR_RETURN(
        SelectionEvaluator evaluator,
        period_evaluators_[p]->CloneWithSunkBuilds(prev_selected));

    // Warm start: the previous period's selection, rebuilt by
    // incremental adds — no cold Evaluate of the carried subset.
    SubsetState state(evaluator);
    for (size_t c : prev_selected) state.Add(c);

    TemporalPeriodRow row;
    row.period = p;
    row.drift = p == 0 ? 0.0
                       : WorkloadTimeline::Drift(period.workload,
                                                 last_solve_mix);
    row.reselected = ShouldReselect(policy, p, row.drift);

    if (row.reselected) {
      // The winner depends only on (p, prev_selected) — spec, solver and
      // period evaluator are fixed for the planner's request — so a memo
      // shared across policies may answer it without re-solving.
      const std::vector<size_t>* memoized = nullptr;
      if (memo != nullptr) {
        auto it = memo->find({p, prev_selected});
        if (it != memo->end()) memoized = &it->second;
      }
      std::vector<size_t> winner;
      if (memoized != nullptr) {
        winner = *memoized;
      } else {
        // No EvaluationCache: one period solve revisits too few subsets
        // to pay for filling one (as in branch-and-bound's walk).
        SolverContext context(evaluator, spec);
        CV_ASSIGN_OR_RETURN(SelectionResult fresh,
                            solver->Solve(spec, context));
        // Hill-climbed warm start: often as good as the fresh solve and
        // closer to the carried selection. Ties prefer it — fewer
        // transitions at equal score.
        SubsetState climbed = state;
        context.HillClimb(climbed);
        CV_ASSIGN_OR_RETURN(SelectionResult warm,
                            context.Finalize(climbed));
        winner = context.ScoreOf(warm.evaluation) <=
                         context.ScoreOf(fresh.evaluation)
                     ? std::move(warm.evaluation.selected)
                     : std::move(fresh.evaluation.selected);
        ++result.fresh_solves;
        // A truncated solve is not this subproblem's answer: never
        // memoize it.
        if (memo != nullptr && !context.Cancelled()) {
          memo->emplace(std::pair(p, prev_selected), winner);
        }
      }
      // Move the warm state to the winning selection incrementally.
      for (size_t c = 0; c < candidates_.size(); ++c) {
        bool want = std::binary_search(winner.begin(), winner.end(), c);
        if (want != state.contains(c)) state.Toggle(c);
      }
      last_solve_mix = period.workload;
      ++result.solver_runs;
    } else {
      ++result.warm_periods;
    }
    row.selected = state.Selected();

    // --- Transition: build what was added, retire what was dropped ---
    std::vector<size_t> added = SetDifference(row.selected, prev_selected);
    std::vector<size_t> dropped =
        SetDifference(prev_selected, row.selected);
    row.views_added = added.size();
    row.views_dropped = dropped.size();
    DataSize added_bytes;
    for (size_t c : added) added_bytes += candidates_[c].size;
    // With carried builds zeroed, the warm state's materialization
    // total is exactly the added views' build time.
    Duration added_build = state.materialization_time();
    DataSize dropped_bytes;
    for (size_t c : dropped) dropped_bytes += candidates_[c].size;

    Months at = timeline_.PeriodStart(p);
    if (added_bytes.bytes() != 0) {
      CV_RETURN_IF_ERROR(horizon_storage.AddDelta(at, added_bytes));
    }
    if (dropped_bytes.bytes() != 0) {
      CV_RETURN_IF_ERROR(horizon_storage.AddDelta(
          at, DataSize::FromBytes(-dropped_bytes.bytes())));
    }

    // --- The period's bill -------------------------------------------
    row.processing_time = state.processing_time();
    row.cost.processing = compute.TimeCost(
        state.processing_time(), deployment.instance,
        deployment.nb_instances);
    row.cost.materialization = compute.TimeCost(
        added_build, deployment.instance, deployment.nb_instances);
    row.cost.maintenance =
        compute.TimeCost(state.maintenance_time(), deployment.instance,
                         deployment.nb_instances) *
        maintenance_cycles_;
    // Transition ingress: newly built views are written into cloud
    // storage — billed as inserted data where ingress is not free.
    IngressVolumes ingress = deployment.ingress;
    ingress.inserted_data += added_bytes;
    const WorkloadCostInput& workload_input =
        evaluator.baseline().workload_input;
    row.cost.transfer = transfer.GeneralTransferCost(workload_input,
                                                     ingress);
    row.cost.requests = transfer.RequestCost(workload_input);
    // This period's slice of the horizon storage bill (marginal, so the
    // slices sum to the exact horizon Formula 5 under tiered rates).
    CV_ASSIGN_OR_RETURN(
        Money storage_to_here,
        storage.Cost(horizon_storage, timeline_.PeriodStart(p + 1)));
    row.cost.storage = storage_to_here - storage_billed;
    storage_billed = storage_to_here;

    result.total += row.cost;
    prev_selected = row.selected;
    result.ledger.push_back(std::move(row));
  }
  return result;
}

Result<std::vector<TemporalRunResult>> TemporalPlanner::ComparePolicies(
    const ObjectiveSpec& spec,
    const std::vector<ReselectPolicy>& policies,
    std::string_view solver) const {
  // One walk per policy, in policy order, sharing one winner memo: every
  // policy re-selects period 0 from the same empty start, and cadences
  // that coincide share later (period, carried selection) subproblems.
  WinnerMemo memo;
  std::vector<TemporalRunResult> runs;
  runs.reserve(policies.size());
  for (const ReselectPolicy& policy : policies) {
    CV_ASSIGN_OR_RETURN(TemporalRunResult run,
                        Walk(spec, policy, solver, &memo));
    runs.push_back(std::move(run));
  }
  return runs;
}

}  // namespace cloudview
