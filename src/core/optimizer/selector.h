// ViewSelector: the paper's Section 5 optimization process.
//
// Three objective functions over the candidate set Vcand:
//   MV1 (budget limit Bl):    minimize time    s.t. C <= Bl   (Formula 13)
//   MV2 (time limit Tl):      minimize C       s.t. T <= Tl   (Formula 14)
//   MV3 (tradeoff, alpha):    minimize alpha*T + (1-alpha)*C  (Formula 15)
//
// All three are one generic constrained-optimization problem: minimize a
// lexicographic (constraint violation, primary objective, tie-breaker)
// score over subsets of Vcand. How the subset space is *searched* is a
// pluggable strategy: ViewSelector looks the solver up by name in the
// SolverRegistry (see solver.h) and runs it against a SolverContext that
// carries the scenario scoring plus the caller's evaluation memo, if
// any. The built-in single-objective strategies are "knapsack-dp" (the
// paper's DP + exact repair), "greedy", "annealing", "local-search" and
// "branch-and-bound" (exact; DESIGN.md §13).
//
// MV3 mixes hours with dollars; we evaluate the blend on
// baseline-normalized terms (T/T0, C/C0) so alpha is a unit-free
// preference weight (DESIGN.md §5.8). The raw blend is also reported.

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "catalog/architecture.h"
#include "common/cancellation.h"
#include "common/data_size.h"
#include "common/duration.h"
#include "common/money.h"
#include "common/result.h"
#include "core/optimizer/evaluator.h"
#include "core/optimizer/pareto.h"

namespace cloudview {

/// \brief Which of the paper's three scenarios to optimize.
enum class Scenario { kMV1BudgetLimit, kMV2TimeLimit, kMV3Tradeoff };

const char* ToString(Scenario scenario);

/// \brief The registry name of the paper's primary solver.
inline constexpr std::string_view kDefaultSolverName = "knapsack-dp";

/// \brief Scenario parameters.
struct ObjectiveSpec {
  Scenario scenario = Scenario::kMV3Tradeoff;
  /// MV1: the financial budget Bl.
  Money budget_limit;
  /// MV2: the response-time limit Tl.
  Duration time_limit;
  /// MV3: weight on time (1 - alpha weighs cost).
  double alpha = 0.5;
  /// Time metric: when true (default) the workload-run response time
  /// includes one-time view materialization (the Section 6 experiments'
  /// MV1 semantics); when false, pure TprocessingQ (Formula 9, the MV2
  /// constraint as written).
  bool time_includes_materialization = true;
  /// MV3 normalization overrides: when nonzero, T/C are normalized by
  /// these instead of this evaluator's own baseline. Used when comparing
  /// deployments (e.g. instance tiers) against one common reference.
  Duration mv3_reference_time = Duration::Zero();
  Money mv3_reference_cost = Money::Zero();

  // --- Hard constraints (DESIGN.md §10) --------------------------------
  // Orthogonal to the scenario's own objective: every registered solver
  // treats a violation as lexicographically worse than any feasible
  // subset (SolverContext folds them into the score's violation term),
  // and SelectionResult::feasible reports them. Zero means
  // unconstrained.

  /// Cap on the total cost normalized to one month of the billed
  /// storage period ("$X/month budget").
  Money max_monthly_cost = Money::Zero();
  /// Cap on the duplicated bytes stored for the selected views.
  DataSize max_storage = DataSize::Zero();
  /// Cap on the workload-run makespan (processing + one-time
  /// materialization), regardless of the scenario's time metric.
  Duration max_makespan = Duration::Zero();

  /// Relative dedup tolerance for the frontier the multi-objective
  /// solvers return (see ParetoFront); ignored by single-objective
  /// strategies.
  double frontier_epsilon = 1e-6;

  // --- Joint architecture search ("arch-sweep" only) -------------------

  /// Deployment architectures to race (catalog/architecture.h). Empty
  /// means DefaultArchitectureRoster(). Architectures that do not lower
  /// against the deployment's sheet/instance (e.g. a reserved plan on a
  /// sheet without reserved rates) are skipped deterministically.
  std::vector<ArchitectureSpec> architectures;
  /// Single-objective strategy the arch-sweep runs per architecture;
  /// empty means kDefaultSolverName.
  std::string architecture_inner_solver;

  /// Cooperative cancellation (DESIGN.md §14): when non-null, solvers
  /// poll the token (SolverContext::Cancelled) in their inner loops and
  /// truncate the search like a node-budget cutoff — the best incumbent
  /// found so far is still finalized and SelectionResult::cancelled is
  /// set. Riding on the spec (not serialized, in no cache key) means every
  /// solver that runs others — pareto-sweep tasks, arch-sweep inner
  /// solves, provider rows — forwards it without new plumbing.
  /// Borrowed: the token must outlive the solve.
  const CancelToken* cancel = nullptr;

  friend bool operator==(const ObjectiveSpec&, const ObjectiveSpec&) = default;
};

/// \brief The selected view set and how it scores.
struct SelectionResult {
  SubsetEvaluation evaluation;
  /// False when the scenario constraint or a hard constraint cannot be
  /// met even by the best subset; `evaluation` then holds the
  /// best-effort subset.
  bool feasible = true;
  /// MV3 only: the normalized blended objective of the selection.
  double objective_value = 0.0;
  /// Registry name of the solver that produced this selection.
  std::string solver;

  /// \brief The time metric the objective used (makespan or processing).
  Duration time;

  /// \brief The selection's position in the (monthly cost, time,
  /// storage) objective space (DESIGN.md §10).
  MultiScore multi;

  /// \brief Multi-objective strategies only ("pareto-sweep",
  /// "pareto-genetic"): the non-dominated frontier discovered during the
  /// solve, in ParetoPoint order. Empty for single-objective solvers.
  std::vector<ParetoPoint> frontier;

  /// \brief "arch-sweep" only: the deployment architecture the winning
  /// selection is billed under. Empty for every other strategy (the
  /// evaluator's fixed architecture applies).
  std::string architecture;

  /// \brief True when the solve was truncated by the spec's CancelToken
  /// (explicit cancel or deadline): `evaluation` then holds the best
  /// incumbent found before the cutoff, exactly re-evaluated.
  bool cancelled = false;

  /// \brief Optimality-gap certificate in [0, 1]: 0 when the selection
  /// is proven optimal (or the solver is heuristic and ran to
  /// completion), 1 when nothing is certified. Branch-and-bound fills
  /// this from its smallest unexplored lower bound (SearchStats);
  /// truncated heuristics report 1.
  double gap_fraction = 0.0;
};

/// \brief Solves the three scenarios against a SelectionEvaluator by
/// dispatching to a registered solver strategy.
///
/// Concurrency contract (DESIGN.md §9): one selector per task. The
/// selector holds no state of its own; Solve() memoizes only into the
/// cache it was given, so two threads must not share that cache. The
/// evaluator is read-only and may be shared. The "arch-sweep" solver
/// scores each architecture on its own uncached SolverContext over a
/// SelectionEvaluator::CloneWithArchitecture(), which shares only the
/// immutable timing tables. Memoization never changes results, only
/// speed.
class ViewSelector {
 public:
  /// \brief Keeps a reference; `evaluator` must outlive the selector.
  /// `cache` (optional) is the memo every Solve() probes — the serving
  /// layer's cross-request warm-start seam: a session hands the same
  /// cache to every solve on a workload, so repeat tenants hit entries
  /// earlier requests paid for (DESIGN.md §14). Without one, solves run
  /// uncached (annealing and pareto-sweep keep a solve-local memo). The
  /// cache must outlive the selector and obeys the same
  /// one-task-at-a-time contract as the selector itself.
  explicit ViewSelector(const SelectionEvaluator& evaluator,
                        EvaluationCache* cache = nullptr)
      : evaluator_(&evaluator), cache_(cache) {}

  /// \brief Runs the scenario with the named solver (see
  /// SolverRegistry::Names() for what is available). NotFound for an
  /// unregistered name.
  Result<SelectionResult> Solve(
      const ObjectiveSpec& spec,
      std::string_view solver = kDefaultSolverName) const;

 private:
  const SelectionEvaluator* evaluator_;
  EvaluationCache* cache_ = nullptr;
};

}  // namespace cloudview

