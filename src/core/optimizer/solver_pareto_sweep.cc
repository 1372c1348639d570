// "pareto-sweep": the multi-objective wrapper that turns the existing
// single-objective registry into a frontier builder (DESIGN.md §10, in
// the spirit of arXiv 2408.00253's budget sweeps).
//
// Three task families, run in one sequential pass:
//   * anchors — every registered single-objective solver runs once on
//     the caller's own spec, so the frontier always contains (or
//     dominates) each strategy's lexicographic optimum, including the
//     exact branch-and-bound one (DESIGN.md §10.3);
//   * weight sweep — a cheap solver roster re-solves the instance as an
//     MV3 tradeoff across a fixed grid of alpha weights, tracing the
//     middle of the time/cost frontier the anchors skip;
//   * storage slices — the epsilon-constraint method on the third axis:
//     the same MV3 endpoints re-solved under tightening max_storage
//     caps (fractions of the total candidate bytes), surfacing the
//     low-storage points no time/cost scalarization can reach. Hard
//     constraints ride along on every swept spec (caps only ever
//     tighten a caller-provided max_storage).
//
// Every task runs on the caller's evaluator and the caller's evaluation
// cache (one local cache when the caller runs uncached). Cache entries
// are spec-independent subset totals and the tasks' searches converge
// heavily, so a probe one task paid for is a hit for every later task —
// and, on a session cache, for the session's next request. The roster
// tasks never read the caller's alpha, so a session's frontiers share
// them: each one that ran to completion is stored in the cache's pick
// memo, and a later sweep on the same cache reduces the stored pick
// instead of solving the task again (DESIGN.md §10.3). The task list is
// a pure function of the registry contents and the spec, and each pick
// is reduced into the ParetoFront in task order, so the frontier is
// bit-identical at any thread count (pinned by pareto_property_test)
// and with or without memo hits. The sweep polls the spec's CancelToken
// between tasks: a fired token stops launching tasks, and what already
// ran is still reduced and finalized.

#include <set>
#include <string>
#include <vector>

#include "core/optimizer/pareto.h"
#include "core/optimizer/solver.h"

namespace cloudview {
namespace {

/// Solvers the sweep runs at all: not frontier builders themselves
/// (Solver::multi_objective; a sweep must not recurse into them).
bool IsSweepAnchor(const std::string& name) {
  Result<const Solver*> solver = SolverRegistry::Global().Find(name);
  return solver.ok() && !solver.value()->multi_objective();
}

/// Every anchor but the exact one re-runs once per weight vector;
/// branch-and-bound is too expensive for that and anchors the frontier
/// with its one solve on the caller's spec.
bool IsSweepRosterMember(const std::string& name) {
  return IsSweepAnchor(name) && name != "branch-and-bound";
}

/// The alpha grid the roster re-solves MV3 on (endpoints included:
/// alpha 1 is pure time, alpha 0 pure cost).
constexpr double kAlphaGrid[] = {0.0, 0.1, 0.2, 0.3, 0.4, 0.5,
                                 0.6, 0.7, 0.8, 0.9, 1.0};

struct SweepTask {
  std::string solver;
  ObjectiveSpec spec;
  std::string origin;
  /// Roster tasks go through the pick memo. Anchors run on the caller's
  /// own spec, whose alpha varies request to request, so storing them
  /// would only churn the memo.
  bool memoized = true;
};

class ParetoSweepSolver : public Solver {
 public:
  std::string_view name() const override { return "pareto-sweep"; }
  std::string_view description() const override {
    return "sweeps registered solvers across weight vectors and reduces "
           "their picks to a Pareto frontier";
  }
  bool multi_objective() const override { return true; }

  Result<SelectionResult> Solve(const ObjectiveSpec& spec,
                                SolverContext& context) const override {
    DataSize total_bytes = DataSize::Zero();
    for (const ViewCandidate& candidate :
         context.evaluator().candidates()) {
      total_bytes += candidate.size;
    }
    std::vector<SweepTask> tasks = BuildTasks(spec, total_bytes);
    EvaluationCache local_cache;
    EvaluationCache* cache =
        context.cache() != nullptr ? context.cache() : &local_cache;

    // Exact re-evaluation of every distinct pick, then frontier
    // insertion in task order. The tasks' picks converge heavily (many
    // weight vectors share an optimum), so identical subsets are
    // evaluated once — the first task's origin label wins.
    ParetoFront front(spec.frontier_epsilon);
    std::set<std::vector<size_t>> seen;
    std::vector<size_t> best_selected;
    SolverContext::Score best_score{};
    bool have_best = false;

    auto consider = [&](const std::vector<size_t>& selected,
                        const std::string& origin) -> Status {
      if (!seen.insert(selected).second) return Status::OK();
      CV_ASSIGN_OR_RETURN(SubsetEvaluation eval,
                          context.Evaluate(selected));
      SolverContext::Probe probe = context.ProbeOf(eval);
      if (context.Feasible(probe)) {
        front.Insert(
            ParetoPoint{context.MultiScoreOf(probe), selected, origin});
      }
      SolverContext::Score score = context.ScoreOf(probe);
      if (!have_best || score < best_score) {
        best_score = score;
        best_selected = selected;
        have_best = true;
      }
      return Status::OK();
    };

    // The empty set is always a legal frontier candidate (zero storage,
    // the baseline bill) and the deterministic first insertion.
    CV_RETURN_IF_ERROR(consider({}, "baseline"));
    for (const SweepTask& task : tasks) {
      if (context.Cancelled()) break;
      std::string key;
      if (task.memoized) {
        key = SolvePickKey(task.solver, task.spec);
        if (const std::vector<size_t>* pick = cache->FindPick(key)) {
          CV_RETURN_IF_ERROR(consider(*pick, task.origin));
          continue;
        }
      }
      CV_ASSIGN_OR_RETURN(const Solver* solver,
                          SolverRegistry::Global().Find(task.solver));
      SolverContext local(context.evaluator(), task.spec, cache);
      Result<SelectionResult> result = solver->Solve(task.spec, local);
      SolverContext::Counters counters = local.counters();
      ++counters.fresh_tasks;
      context.MergeCounters(counters);
      CV_RETURN_IF_ERROR(result.status());
      const std::vector<size_t>& selected = result.value().evaluation.selected;
      CV_RETURN_IF_ERROR(consider(selected, task.origin));
      // A truncated search's pick is not the task's pick.
      if (task.memoized && !local.Cancelled() && !result.value().cancelled) {
        cache->InsertPick(std::move(key), selected);
      }
    }

    CV_ASSIGN_OR_RETURN(SelectionResult result,
                        context.Finalize(best_selected));
    result.frontier = front.points();
    return result;
  }

 private:
  /// The fixed task list for `spec`: anchors first (sorted registry
  /// order), then roster x alpha grid, then roster x alpha endpoints x
  /// storage caps.
  static std::vector<SweepTask> BuildTasks(const ObjectiveSpec& spec,
                                           DataSize total_candidate_bytes) {
    std::vector<SweepTask> tasks;
    std::vector<std::string> names = SolverRegistry::Global().Names();
    for (const std::string& name : names) {
      if (IsSweepAnchor(name)) {
        tasks.push_back(SweepTask{name, spec, name, /*memoized=*/false});
      }
    }
    for (const std::string& name : names) {
      if (!IsSweepRosterMember(name)) continue;
      for (double alpha : kAlphaGrid) {
        ObjectiveSpec swept = spec;
        swept.scenario = Scenario::kMV3Tradeoff;
        swept.alpha = alpha;
        tasks.push_back(SweepTask{
            name, swept,
            name + " a=" + std::to_string(alpha).substr(0, 3)});
      }
    }
    if (total_candidate_bytes > DataSize::Zero()) {
      for (const std::string& name : names) {
        if (!IsSweepRosterMember(name)) continue;
        for (double alpha : {0.0, 0.5, 1.0}) {
          for (int64_t pct : {5, 15, 30, 60}) {
            DataSize cap = DataSize::FromBytes(
                total_candidate_bytes.bytes() * pct / 100);
            if (cap <= DataSize::Zero()) continue;
            // A cap that does not tighten the caller's own max_storage
            // would duplicate an alpha-grid task verbatim.
            if (spec.max_storage > DataSize::Zero() &&
                cap >= spec.max_storage) {
              continue;
            }
            ObjectiveSpec swept = spec;
            swept.scenario = Scenario::kMV3Tradeoff;
            swept.alpha = alpha;
            swept.max_storage = cap;
            tasks.push_back(
                SweepTask{name, swept,
                          name + " a=" + std::to_string(alpha).substr(
                                             0, 3) +
                              " s<=" + std::to_string(pct) + "%"});
          }
        }
      }
    }
    return tasks;
  }
};

CLOUDVIEW_REGISTER_SOLVER(ParetoSweepSolver)

}  // namespace
}  // namespace cloudview
