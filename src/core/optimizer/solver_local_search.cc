// "local-search": iterated local search with an add/remove/swap
// neighborhood, after the local-search view-selection line of
// arXiv 2606.03772 — registered through the same open seam as the
// built-ins (it arrived after the registry and needed no selector
// changes).
//
// The swap neighborhood (remove one member, add one non-member) crosses
// same-size plateaus that single toggles cannot; the perturb-and-reclimb
// restarts escape the local optima the climb itself cannot. Every
// neighborhood scan is a batched ProbeToggleBatch pass — hash-first
// cache probes, then one PeekToggle per miss (DESIGN.md §11) — making
// this solver the headline consumer of the incremental evaluation layer
// (bench_solvers measures the subsets/sec gap against full
// re-evaluation).
// Deterministic: restarts draw from a fixed-seed Rng.

#include <vector>

#include "common/random.h"
#include "core/optimizer/solver.h"

namespace cloudview {
namespace {

class LocalSearchSolver : public Solver {
 public:
  static constexpr int kRestarts = 4;
  static constexpr int kPerturbToggles = 2;
  static constexpr uint64_t kSeed = 2606'03772;  // The neighborhood's paper.

  std::string_view name() const override { return "local-search"; }
  std::string_view description() const override {
    return "iterated add/remove/swap local search (arXiv 2606.03772)";
  }

  Result<SelectionResult> Solve(const ObjectiveSpec& spec,
                                SolverContext& context) const override {
    (void)spec;
    SubsetState state(context.evaluator());
    context.HillClimb(state, /*with_swaps=*/true);
    SolverContext::Score best_score = context.ScoreState(state);
    std::vector<size_t> best = state.Selected();

    Rng rng(kSeed);
    size_t n = context.num_candidates();
    for (int restart = 0; restart < kRestarts && n > 0; ++restart) {
      // Perturb the incumbent, not the wreckage of the last restart.
      SubsetState trial(context.evaluator());
      for (size_t c : best) trial.Add(c);
      for (int t = 0; t < kPerturbToggles; ++t) {
        trial.Toggle(static_cast<size_t>(rng.Uniform(n)));
      }
      context.HillClimb(trial, /*with_swaps=*/true);
      SolverContext::Score score = context.ScoreState(trial);
      if (score < best_score) {
        best_score = score;
        best = trial.Selected();
      }
    }
    return context.Finalize(best);
  }
};

CLOUDVIEW_REGISTER_SOLVER(LocalSearchSolver)

}  // namespace
}  // namespace cloudview
