// "arch-sweep": joint (deployment architecture, view set) optimization.
//
// The paper fixes the deployment and selects views; this solver races
// one shared-nothing single-objective solve per candidate architecture
// (catalog/architecture.h) on the global ThreadPool and reduces the
// per-architecture optima onto one four-axis Pareto frontier (monthly
// cost, time, storage, unavailability ppm). The winning (architecture,
// view set) pair is returned as the selection; the frontier keeps the
// non-dominated losers — a cheap spot fleet and a durable multi-AZ
// fleet typically both survive, trading cost against availability.
//
// Determinism (DESIGN.md §9/§10): the task list is a pure function of
// the spec's roster (or DefaultArchitectureRoster()); architectures
// that fail to lower against the deployment's sheet/instance (e.g. a
// reserved plan on a sheet without reserved rates) are skipped by
// roster index before any task runs, so the task list never depends on
// execution order. Every task runs on its own
// SelectionEvaluator::CloneWithArchitecture with a private context and
// cache; the reduction walks outcomes in task-index order, so the
// frontier and the winner are bit-identical at any thread count
// (pinned by architecture_property_test).

#include <string>
#include <utility>
#include <vector>

#include "catalog/architecture.h"
#include "common/thread_pool.h"
#include "core/optimizer/pareto.h"
#include "core/optimizer/solver.h"

namespace cloudview {
namespace {

/// What one per-architecture task reports to the index-ordered
/// reduction. The result is finalized by the task's own context — the
/// parent context bills under the identity architecture and must never
/// re-score another architecture's pick.
struct ArchOutcome {
  Status status = Status::OK();
  SelectionResult result;
  /// Lexicographic score of the pick's absolute (time, cost) probe on
  /// the PARENT context's scale. Each task's own context normalizes
  /// kMV3Tradeoff by its own baseline — which the architecture also
  /// scales, so self-relative scores are incomparable across fleets
  /// (a spot fleet that cheapens bill and baseline alike would look no
  /// better). One common identity-baseline yardstick ranks them.
  SolverContext::Score score{};
  bool feasible = false;
  /// The architecture's empty-selection position (always a legal
  /// frontier candidate: the baseline bill under that fleet).
  MultiScore baseline_score;
  bool baseline_feasible = false;
  SolverContext::Counters counters;
};

class ArchSweepSolver : public Solver {
 public:
  std::string_view name() const override { return "arch-sweep"; }
  std::string_view description() const override {
    return "races a single-objective solve per deployment architecture "
           "and reduces the optima to a cost/time/storage/availability "
           "frontier";
  }
  bool multi_objective() const override { return true; }

  Result<SelectionResult> Solve(const ObjectiveSpec& spec,
                                SolverContext& context) const override {
    const std::string inner_name =
        spec.architecture_inner_solver.empty()
            ? std::string(kDefaultSolverName)
            : spec.architecture_inner_solver;
    CV_ASSIGN_OR_RETURN(const Solver* inner,
                        SolverRegistry::Global().Find(inner_name));
    if (inner->multi_objective()) {
      return Status::InvalidArgument(
          "arch-sweep needs a single-objective inner solver, got '" +
          inner_name + "'");
    }

    const SelectionEvaluator& shared = context.evaluator();
    if (!shared.deployment().architecture.is_identity()) {
      return Status::InvalidArgument(
          "arch-sweep expects an identity-architecture deployment as "
          "its base (it supplies the architectures itself)");
    }

    // Lower the roster up front, in roster order. Skips (plans the
    // sheet cannot price) are deterministic: they depend only on the
    // spec and the sheet, never on execution order.
    std::vector<ArchitectureSpec> roster =
        spec.architectures.empty() ? DefaultArchitectureRoster()
                                   : spec.architectures;
    std::vector<std::pair<std::string, ArchitectureModel>> lowered;
    for (const ArchitectureSpec& arch : roster) {
      Result<ArchitectureModel> model = arch.Lower(
          shared.cost_model().pricing(), shared.deployment().instance);
      if (!model.ok()) continue;
      lowered.emplace_back(arch.name, std::move(model).value());
    }
    if (lowered.empty()) {
      return Status::InvalidArgument(
          "no architecture in the roster lowers against sheet '" +
          shared.cost_model().pricing().name() + "' and instance '" +
          shared.deployment().instance.name + "'");
    }

    std::vector<ArchOutcome> outcomes(lowered.size());
    ParallelFor(lowered.size(), [&](size_t i) {
      outcomes[i] = RunTask(shared, context, *inner, spec,
                            lowered[i].second);
    });

    // Index-ordered reduction: per architecture, the baseline point
    // then the solved point, so the frontier is a pure function of the
    // roster order.
    ParetoFront front(spec.frontier_epsilon);
    size_t best = lowered.size();
    for (size_t i = 0; i < lowered.size(); ++i) {
      CV_RETURN_IF_ERROR(outcomes[i].status);
      context.MergeCounters(outcomes[i].counters);
      const std::string& arch_name = lowered[i].first;
      if (outcomes[i].baseline_feasible) {
        front.Insert(ParetoPoint{outcomes[i].baseline_score,
                                 {},
                                 "baseline",
                                 arch_name});
      }
      if (outcomes[i].feasible) {
        front.Insert(ParetoPoint{outcomes[i].result.multi,
                                 outcomes[i].result.evaluation.selected,
                                 inner_name, arch_name});
      }
      if (best == lowered.size() ||
          Better(outcomes[i], outcomes[best])) {
        best = i;
      }
    }

    SelectionResult result = std::move(outcomes[best].result);
    result.architecture = lowered[best].first;
    result.frontier = front.points();
    return result;
  }

 private:
  /// Winner order: feasible beats infeasible, then the lexicographic
  /// scenario score, then the lower task index (the caller of the
  /// reduction loop supplies index order).
  static bool Better(const ArchOutcome& a, const ArchOutcome& b) {
    if (a.feasible != b.feasible) return a.feasible;
    return a.score < b.score;
  }

  /// One shared-nothing task: re-bill a clone under `model`, run the
  /// inner solver on a private context, and score the pick and the
  /// baseline under that same context.
  static ArchOutcome RunTask(const SelectionEvaluator& shared,
                             const SolverContext& parent,
                             const Solver& inner,
                             const ObjectiveSpec& spec,
                             const ArchitectureModel& model) {
    ArchOutcome out;
    auto run = [&]() -> Status {
      CV_ASSIGN_OR_RETURN(SelectionEvaluator evaluator,
                          shared.CloneWithArchitecture(model));
      EvaluationCache cache = parent.NewTaskCache();
      SolverContext local(evaluator, spec, &cache);
      CV_ASSIGN_OR_RETURN(SelectionResult result,
                          inner.Solve(spec, local));
      SolverContext::Probe probe =
          local.ProbeOf(result.evaluation);
      // Judged on the parent's scale (see ArchOutcome::score); the
      // probe itself carries this architecture's absolute bill.
      // Feasibility is probe-absolute, so parent and local agree.
      out.score = parent.ScoreOf(probe);
      out.feasible = parent.Feasible(probe);
      SolverContext::Probe baseline =
          local.ProbeOf(evaluator.baseline());
      out.baseline_score = local.MultiScoreOf(baseline);
      out.baseline_feasible = parent.Feasible(baseline);
      out.result = std::move(result);
      out.counters = local.counters();
      return Status::OK();
    };
    out.status = run();
    return out;
  }
};

CLOUDVIEW_REGISTER_SOLVER(ArchSweepSolver)

}  // namespace
}  // namespace cloudview
