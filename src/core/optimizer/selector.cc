#include "core/optimizer/selector.h"

#include <string>

#include "core/optimizer/solver.h"

namespace cloudview {

const char* ToString(Scenario scenario) {
  switch (scenario) {
    case Scenario::kMV1BudgetLimit:
      return "MV1 (budget limit)";
    case Scenario::kMV2TimeLimit:
      return "MV2 (time limit)";
    case Scenario::kMV3Tradeoff:
      return "MV3 (tradeoff)";
  }
  return "?";
}

Result<SelectionResult> ViewSelector::Solve(const ObjectiveSpec& spec,
                                            std::string_view solver) const {
  if (spec.scenario == Scenario::kMV3Tradeoff &&
      (spec.alpha < 0.0 || spec.alpha > 1.0)) {
    return Status::InvalidArgument("alpha must be within [0, 1]");
  }
  CV_ASSIGN_OR_RETURN(const Solver* strategy,
                      SolverRegistry::Global().Find(solver));
  SolverContext context(*evaluator_, spec, cache_);
  CV_ASSIGN_OR_RETURN(SelectionResult result,
                      strategy->Solve(spec, context));
  result.solver = std::string(solver);
  return result;
}

}  // namespace cloudview
