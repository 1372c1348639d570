// "annealing": simulated-annealing view selection (the paper's
// Section 8 notes that "optimization techniques are the most efficient
// when combined").
//
// Annealing explores the subset space with random single-view toggles
// and a geometric cooling schedule; unlike the exact local search it can
// escape local optima on rugged instances (strong view interactions,
// stepwise hour billing). Proposals are O(queries) incremental
// SubsetState moves. The schedule is fixed, so the walk is
// deterministic.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "core/optimizer/solver.h"

namespace cloudview {
namespace {

// The schedule: total toggle proposals, the initial acceptance
// temperature as a fraction of the baseline objective (0.05 accepts
// ~5%-worse moves early on), the geometric cooling factor applied every
// proposal, and the walk's seed.
constexpr int kIterations = 2000;
constexpr double kInitialTemperature = 0.05;
constexpr double kCooling = 0.995;
constexpr uint64_t kSeed = 1848;  // Metropolis et al., by spirit.

// Scalarized objective: normalized primary objective plus a heavy
// penalty per unit of constraint violation (also normalized). Hard
// constraints (max_monthly_cost / max_storage / max_makespan) join the
// penalty through the context's normalized blend, so the walk is pulled
// into the fully feasible region first.
// The baseline normalizers are loop-invariant — computed once per walk
// (Norms) instead of per proposed move, where re-deriving them from the
// baseline evaluation dominated short walks.
struct Norms {
  double base_time;
  double base_cost;
};

Norms NormsOf(const SolverContext& context) {
  const SubsetEvaluation& baseline = context.evaluator().baseline();
  return Norms{
      static_cast<double>(context.TimeMetric(baseline).millis()),
      static_cast<double>(baseline.cost.total().micros())};
}

double Scalarize(const SolverContext& context, const Norms& norms,
                 const SolverContext::Probe& probe) {
  constexpr double kViolationPenalty = 100.0;
  const ObjectiveSpec& spec = context.spec();
  double base_time = norms.base_time;
  double base_cost = norms.base_cost;
  Duration time = probe.time;
  Money cost = probe.cost;
  double hard_penalty =
      kViolationPenalty * context.HardViolationBlend(probe);

  switch (spec.scenario) {
    case Scenario::kMV1BudgetLimit: {
      double violation = std::max(
          0.0, static_cast<double>(cost.micros()) -
                   static_cast<double>(spec.budget_limit.micros()));
      return static_cast<double>(time.millis()) / base_time +
             kViolationPenalty * violation / base_cost + hard_penalty;
    }
    case Scenario::kMV2TimeLimit: {
      double violation = std::max(
          0.0, static_cast<double>(time.millis()) -
                   static_cast<double>(spec.time_limit.millis()));
      return static_cast<double>(cost.micros()) / base_cost +
             kViolationPenalty * violation / base_time + hard_penalty;
    }
    case Scenario::kMV3Tradeoff:
      return context.TradeoffObjective(time, cost) + hard_penalty;
  }
  return 0.0;
}

// The walk returns the best selection visited (always at least as good
// as the empty set). Constraint handling matches the hill-climb
// strategies: the lexicographic score's violation term is folded into
// the scalar with a large penalty, so the walk is pulled into the
// feasible region before optimizing within it.
Result<SelectionResult> Anneal(SolverContext& context) {
  size_t n = context.num_candidates();

  SubsetState current(context.evaluator());
  Norms norms = NormsOf(context);
  double current_score = Scalarize(context, norms, context.ProbeState(current));
  std::vector<size_t> best = current.Selected();
  double best_score = current_score;

  Rng rng(kSeed);
  double temperature = kInitialTemperature;
  for (int it = 0; it < kIterations && n > 0; ++it) {
    // Cancellation poll every 64 proposals (DESIGN.md §14): break out
    // with the best subset seen; Finalize flags the truncation.
    if ((it & 63) == 0 && context.Cancelled()) break;
    size_t flip = static_cast<size_t>(rng.Uniform(n));
    double trial_score =
        Scalarize(context, norms, context.ProbeToggle(current, flip));
    double delta = trial_score - current_score;
    if (delta <= 0.0 ||
        rng.UniformDouble() < std::exp(-delta / std::max(1e-12,
                                                         temperature))) {
      current.Toggle(flip);  // Accept: commit the proposal.
      current_score = trial_score;
      if (current_score < best_score) {
        best = current.Selected();
        best_score = current_score;
      }
    }
    temperature *= kCooling;
  }
  return context.Finalize(best);
}

class AnnealingSolver : public Solver {
 public:
  std::string_view name() const override { return "annealing"; }
  std::string_view description() const override {
    return "simulated annealing with random toggles (escapes local optima)";
  }

  Result<SelectionResult> Solve(const ObjectiveSpec& spec,
                                SolverContext& context) const override {
    (void)spec;  // The context carries the spec.
    if (context.cache() != nullptr) return Anneal(context);
    // An uncached caller (the temporal walk): the late, low-temperature
    // toggles revisit the same few subsets, so a solve-local memo pays
    // for itself even though nothing outlives the solve.
    EvaluationCache local_cache;
    SolverContext local(context.evaluator(), context.spec(), &local_cache);
    Result<SelectionResult> result = Anneal(local);
    context.MergeCounters(local.counters());
    return result;
  }
};

CLOUDVIEW_REGISTER_SOLVER(AnnealingSolver)

}  // namespace
}  // namespace cloudview
