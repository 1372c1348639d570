// "greedy": best-improvement hill climbing from the empty set — the
// baseline the paper's knapsack seeding is measured against. Each round
// applies the single add/remove move that improves the lexicographic
// score the most, until no move does. The marginal-gain round is one
// SolverContext::ProbeToggleBatch over all candidates (DESIGN.md §11),
// not n separate probes.

#include "core/optimizer/solver.h"

namespace cloudview {
namespace {

class GreedySolver : public Solver {
 public:
  std::string_view name() const override { return "greedy"; }
  std::string_view description() const override {
    return "best-improvement hill climbing from the empty set (baseline)";
  }

  Result<SelectionResult> Solve(const ObjectiveSpec& spec,
                                SolverContext& context) const override {
    (void)spec;
    SubsetState state(context.evaluator());
    context.HillClimb(state);
    return context.Finalize(state);
  }
};

CLOUDVIEW_REGISTER_SOLVER(GreedySolver)

}  // namespace
}  // namespace cloudview
