// "arch-sweep": joint (deployment architecture, view set) optimization.
//
// The paper fixes the deployment and selects views; this solver runs
// one single-objective solve per candidate architecture
// (catalog/architecture.h) and reduces the per-architecture optima onto
// one four-axis Pareto frontier (monthly cost, time, storage,
// unavailability ppm). The winning (architecture, view set) pair is
// returned as the selection; the frontier keeps the non-dominated
// losers — a cheap spot fleet and a durable multi-AZ fleet typically
// both survive, trading cost against availability.
//
// The architectures run in one sequential pass in roster order; a
// request never fans out (DESIGN.md §9). Architectures that fail to
// lower against the deployment's sheet/instance (e.g. a reserved plan
// on a sheet without reserved rates) are skipped up front. Each
// architecture solves on its own SelectionEvaluator::CloneWithArchitecture
// (the timing tables are shared, the bills differ) on a context with
// no cache: a cache keyed by subset alone cannot serve two bills, and
// one inner solve revisits too few subsets to repay its own (an
// annealing inner solve still builds its solve-local memo). The
// caller's cache sees no inner probe. The winner and the frontier are
// a pure function of the roster order (pinned by
// architecture_property_test).

#include <string>
#include <utility>
#include <vector>

#include "catalog/architecture.h"
#include "core/optimizer/pareto.h"
#include "core/optimizer/solver.h"

namespace cloudview {
namespace {

class ArchSweepSolver : public Solver {
 public:
  std::string_view name() const override { return "arch-sweep"; }
  std::string_view description() const override {
    return "runs a single-objective solve per deployment architecture "
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
    // sheet cannot price) depend only on the spec and the sheet.
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

    // Per architecture, the baseline point then the solved point, so
    // the frontier is a pure function of the roster order.
    ParetoFront front(spec.frontier_epsilon);
    SelectionResult best;
    SolverContext::Score best_score{};
    bool best_feasible = false;
    bool have_best = false;
    for (const auto& [arch_name, model] : lowered) {
      CV_ASSIGN_OR_RETURN(SelectionEvaluator evaluator,
                          shared.CloneWithArchitecture(model));
      SolverContext local(evaluator, spec);
      CV_ASSIGN_OR_RETURN(SelectionResult result, inner->Solve(spec, local));
      context.MergeCounters(local.counters());

      // The result is finalized by the local context: the parent bills
      // under the identity architecture and must never re-score another
      // architecture's pick. Fleets are ranked on the parent's scale
      // instead: the local context normalizes kMV3Tradeoff by its own
      // baseline, which the architecture also scales, so self-relative
      // scores are incomparable across fleets (a spot fleet that
      // cheapens bill and baseline alike would look no better).
      // Feasibility is probe-absolute, so parent and local agree.
      SolverContext::Probe probe = local.ProbeOf(result.evaluation);
      SolverContext::Score score = context.ScoreOf(probe);
      bool feasible = context.Feasible(probe);
      SolverContext::Probe baseline = local.ProbeOf(evaluator.baseline());
      if (context.Feasible(baseline)) {
        front.Insert(ParetoPoint{local.MultiScoreOf(baseline),
                                 {},
                                 "baseline",
                                 arch_name});
      }
      if (feasible) {
        front.Insert(ParetoPoint{result.multi, result.evaluation.selected,
                                 inner_name, arch_name});
      }
      // Feasible beats infeasible, then the lexicographic score; ties
      // keep the earlier architecture.
      if (!have_best ||
          (feasible != best_feasible ? feasible : score < best_score)) {
        best = std::move(result);
        best.architecture = arch_name;
        best_score = score;
        best_feasible = feasible;
        have_best = true;
      }
    }

    best.frontier = front.points();
    return best;
  }
};

CLOUDVIEW_REGISTER_SOLVER(ArchSweepSolver)

}  // namespace
}  // namespace cloudview
