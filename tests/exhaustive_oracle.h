// The exhaustive oracle: full subset enumeration, the ground truth the
// registered strategies are tested against. Test-only — it is not a
// registered solver, because "branch-and-bound" returns the same
// answer bit-for-bit on every instance small enough to enumerate and
// is orders of magnitude faster there.
//
// Enumerates in Gray-code order so consecutive subsets differ by one
// toggle: each probe is an O(queries) incremental SubsetState move
// instead of a from-scratch rebuild, which is what makes 2^20 subsets
// tractable. The winner is re-evaluated exactly by Finalize().
//
// Ties resolve to the lexicographically smallest selected-index vector
// — the project-wide exact-solver tie-break (DESIGN.md §13.3), shared
// with "branch-and-bound" so the two agree bit-for-bit, not just
// score-for-score.

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/str_format.h"
#include "core/optimizer/solver.h"

namespace cloudview {

/// Largest candidate count the oracle enumerates (2^20 subsets).
inline constexpr size_t kExhaustiveMaxCandidates = 20;

/// \brief The lexicographically optimal selection for `spec`, found by
/// visiting every subset. InvalidArgument past kExhaustiveMaxCandidates.
/// Runs uncached: the walk visits each subset exactly once.
inline Result<SelectionResult> ExhaustiveSolve(
    const SelectionEvaluator& evaluator, const ObjectiveSpec& spec) {
  const size_t n = evaluator.num_candidates();
  if (n > kExhaustiveMaxCandidates) {
    return Status::InvalidArgument(
        StrFormat("exhaustive search supports at most %zu candidates, "
                  "got %zu; use \"branch-and-bound\" for exact solves "
                  "past that wall",
                  kExhaustiveMaxCandidates, n));
  }
  SolverContext context(evaluator, spec);
  SubsetState state(evaluator);
  SolverContext::Score best_score = context.ScoreState(state);
  std::vector<size_t> best = state.Selected();

  // Gray-code walk: subset i is mask i ^ (i >> 1); stepping from i-1
  // to i toggles exactly bit ctz(i).
  for (uint64_t i = 1; i < (uint64_t{1} << n); ++i) {
    state.Toggle(static_cast<size_t>(__builtin_ctzll(i)));
    SolverContext::Score score = context.ScoreState(state);
    if (score > best_score) continue;
    if (score < best_score) {
      best_score = score;
      best = state.Selected();
      continue;
    }
    // Equal score: keep the lexicographically smallest subset. The
    // Selected() materialization only happens on exact ties.
    std::vector<size_t> selected = state.Selected();
    if (selected < best) best = std::move(selected);
  }
  return context.Finalize(best);
}

}  // namespace cloudview
