// "knapsack-dp": the paper's primary solver (Section 5.2) — a 0/1
// knapsack DP over additive standalone benefits seeds the subset, and
// the exact interaction-aware hill climb repairs and improves it.
//
// The DP seeding is objective-specific (the two knapsack duals plus an
// additive filter for MV3); the repair pass is the shared
// SolverContext::HillClimb, scored on the exact evaluation substrate.

#include <algorithm>
#include <vector>

#include "core/optimizer/knapsack.h"
#include "core/optimizer/solver.h"

namespace cloudview {
namespace {

class KnapsackDpSolver : public Solver {
 public:
  std::string_view name() const override { return "knapsack-dp"; }
  std::string_view description() const override {
    return "the paper's knapsack DP over additive benefits + exact repair";
  }

  Result<SelectionResult> Solve(const ObjectiveSpec& spec,
                                SolverContext& context) const override {
    std::vector<size_t> seed;
    switch (spec.scenario) {
      case Scenario::kMV1BudgetLimit: {
        CV_ASSIGN_OR_RETURN(seed, SeedMV1(spec, context));
        break;
      }
      case Scenario::kMV2TimeLimit: {
        CV_ASSIGN_OR_RETURN(seed, SeedMV2(spec, context));
        break;
      }
      case Scenario::kMV3Tradeoff:
        seed = SeedMV3(context);
        break;
    }

    SubsetState state(context.evaluator());
    for (size_t c : seed) state.Add(c);
    context.HillClimb(state);
    return context.Finalize(state);
  }

 private:
  /// Additive standalone time saving under the spec's time metric.
  static Duration StandaloneSaving(const ObjectiveSpec& spec,
                                   const SelectionEvaluator& evaluator,
                                   size_t c) {
    Duration saving = evaluator.StandaloneProcessingSaving(c);
    if (spec.time_includes_materialization) {
      saving -= evaluator.candidates()[c].materialization_time;
    }
    return saving;
  }

  /// MV1: additive standalone savings as values, standalone cost
  /// footprints as weights, leftover budget as capacity.
  static Result<std::vector<size_t>> SeedMV1(const ObjectiveSpec& spec,
                                             SolverContext& context) {
    const SelectionEvaluator& evaluator = context.evaluator();
    const SubsetEvaluation& base = evaluator.baseline();
    if (base.cost.total() > spec.budget_limit) {
      // No leftover budget to spend; the repair pass does what it can.
      return std::vector<size_t>{};
    }
    std::vector<KnapsackItem> items(evaluator.num_candidates());
    for (size_t c = 0; c < items.size(); ++c) {
      items[c].value = StandaloneSaving(spec, evaluator, c).millis();
      CV_ASSIGN_OR_RETURN(Money delta, evaluator.StandaloneCostDelta(c));
      items[c].weight = delta.micros();
    }
    int64_t capacity = (spec.budget_limit - base.cost.total()).micros();
    CV_ASSIGN_OR_RETURN(KnapsackSolution sol,
                        MaximizeValue(items, capacity));
    return sol.selected;
  }

  /// MV2 (dual knapsack): cheapest additive footprint reaching the
  /// required saving. Footprints are clamped to >= 1 micro-dollar so
  /// the DP prefers genuinely small sets (interactions are repaired by
  /// the climb).
  static Result<std::vector<size_t>> SeedMV2(const ObjectiveSpec& spec,
                                             SolverContext& context) {
    const SelectionEvaluator& evaluator = context.evaluator();
    Duration needed =
        context.TimeMetric(evaluator.baseline().processing_time,
                           evaluator.baseline().makespan) -
        spec.time_limit;
    if (needed <= Duration::Zero()) return std::vector<size_t>{};

    std::vector<KnapsackItem> items(evaluator.num_candidates());
    for (size_t c = 0; c < items.size(); ++c) {
      items[c].value = StandaloneSaving(spec, evaluator, c).millis();
      CV_ASSIGN_OR_RETURN(Money delta, evaluator.StandaloneCostDelta(c));
      items[c].weight = std::max<int64_t>(1, delta.micros());
    }
    auto sol = MinimizeWeightForValue(items, needed.millis());
    if (sol.ok()) return sol.value().selected;
    if (!sol.status().IsNotFound()) return sol.status();
    // NotFound: additive savings cannot reach the target; start from
    // the empty set and let the climb do what it can.
    return std::vector<size_t>{};
  }

  /// MV3 (additive seeding): every candidate whose standalone blend
  /// improves on the baseline; the climb repairs interactions.
  static std::vector<size_t> SeedMV3(SolverContext& context) {
    const SubsetEvaluation& base = context.evaluator().baseline();
    double base_objective = context.TradeoffObjective(base);
    std::vector<size_t> seed;
    SubsetState state(context.evaluator());
    for (size_t c = 0; c < context.num_candidates(); ++c) {
      state.AddUndoable(c);
      SolverContext::Probe solo = context.ProbeState(state);
      state.UndoAdd();
      if (context.TradeoffObjective(solo.time, solo.cost) <
          base_objective) {
        seed.push_back(c);
      }
    }
    return seed;
  }
};

CLOUDVIEW_REGISTER_SOLVER(KnapsackDpSolver)

}  // namespace
}  // namespace cloudview
