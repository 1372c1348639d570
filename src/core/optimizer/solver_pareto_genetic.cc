// "pareto-genetic": an NSGA-II-style multi-objective genetic search
// over the subset space (DESIGN.md §10; in the spirit of
// arXiv 2403.19906's multi-objective GA for view selection).
//
// Individuals are membership bitstrings scored on the MultiScore axes
// (monthly cost, time metric, storage). Selection follows Deb's
// constraint-domination: feasible individuals dominate infeasible ones,
// infeasible ones compare by total violation (scenario + hard
// constraints), feasible ones by Pareto dominance. Ranking is fast
// non-dominated sort; ties within a rank break by crowding distance
// (then by genome, so the ordering — and therefore the whole run — is
// deterministic in the fixed seed).
//
// Every feasible individual ever evaluated is offered to a ParetoFront
// archive in evaluation order; the archive is the returned frontier and
// the best archived subset under the caller's lexicographic score is
// the returned selection. The walk is sequential by design, as is the
// "pareto-sweep" wrapper's pass over the single-objective solvers. It
// probes through the caller's context, memo or none: every individual
// is built by SubsetState Adds before its probe, so a memo hit only
// skips the cheap totals-to-score step and a solve-local memo does not
// pay (EXPERIMENTS.md, "Memoize only where reuse pays").

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/optimizer/pareto.h"
#include "core/optimizer/solver.h"

namespace cloudview {
namespace {

/// One evaluated individual.
struct Individual {
  std::vector<uint8_t> genes;
  /// (monthly cost micros, time millis, storage bytes) — minimized.
  std::array<int64_t, 3> objectives{};
  /// Scenario + hard constraint excess; 0 means feasible.
  int64_t violation = 0;
  MultiScore multi;
  std::vector<size_t> selected;
  // Filled by the non-dominated sort.
  size_t rank = 0;
  double crowding = 0.0;
};

/// Deb's constraint-domination.
bool ConstrainedDominates(const Individual& a, const Individual& b) {
  if (a.violation == 0 && b.violation > 0) return true;
  if (a.violation > 0 && b.violation == 0) return false;
  if (a.violation > 0) return a.violation < b.violation;
  bool no_worse = true;
  bool better = false;
  for (size_t k = 0; k < 3; ++k) {
    if (a.objectives[k] > b.objectives[k]) no_worse = false;
    if (a.objectives[k] < b.objectives[k]) better = true;
  }
  return no_worse && better;
}

/// (rank, -crowding) tournament order; genome as the deterministic
/// final tie-break.
bool TournamentLess(const Individual& a, const Individual& b) {
  if (a.rank != b.rank) return a.rank < b.rank;
  if (a.crowding != b.crowding) return a.crowding > b.crowding;
  return a.genes < b.genes;
}

/// Reused allocation scratch for RankPopulation: the sort runs twice per
/// generation, and re-growing its dominance lists, front lists, and sort
/// orders each call dominated the (tiny-instance) solve wall.
struct RankScratch {
  std::vector<std::vector<size_t>> dominates;
  std::vector<size_t> dominated_by;
  std::vector<std::vector<size_t>> fronts;
  std::vector<size_t> order;
};

/// Fast non-dominated sort + per-front crowding distances (in place).
void RankPopulation(std::vector<Individual>& pop, RankScratch& scratch) {
  size_t n = pop.size();
  std::vector<std::vector<size_t>>& dominates = scratch.dominates;
  if (dominates.size() < n) dominates.resize(n);
  for (size_t i = 0; i < n; ++i) dominates[i].clear();
  std::vector<size_t>& dominated_by = scratch.dominated_by;
  dominated_by.assign(n, 0);
  std::vector<std::vector<size_t>>& fronts = scratch.fronts;
  for (std::vector<size_t>& front : fronts) front.clear();
  if (fronts.empty()) fronts.emplace_back();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      if (ConstrainedDominates(pop[i], pop[j])) {
        dominates[i].push_back(j);
      } else if (ConstrainedDominates(pop[j], pop[i])) {
        ++dominated_by[i];
      }
    }
    if (dominated_by[i] == 0) {
      pop[i].rank = 0;
      fronts[0].push_back(i);
    }
  }
  for (size_t f = 0; !fronts[f].empty(); ++f) {
    if (f + 1 >= fronts.size()) fronts.emplace_back();
    for (size_t i : fronts[f]) {
      for (size_t j : dominates[i]) {
        if (--dominated_by[j] == 0) {
          pop[j].rank = f + 1;
          fronts[f + 1].push_back(j);
        }
      }
    }
  }

  for (const std::vector<size_t>& front : fronts) {
    for (size_t i : front) pop[i].crowding = 0.0;
    if (front.size() <= 2) {
      for (size_t i : front) {
        pop[i].crowding = std::numeric_limits<double>::infinity();
      }
      continue;
    }
    for (size_t k = 0; k < 3; ++k) {
      std::vector<size_t>& order = scratch.order;
      order.assign(front.begin(), front.end());
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        if (pop[a].objectives[k] != pop[b].objectives[k]) {
          return pop[a].objectives[k] < pop[b].objectives[k];
        }
        return pop[a].genes < pop[b].genes;  // Deterministic ties.
      });
      int64_t lo = pop[order.front()].objectives[k];
      int64_t hi = pop[order.back()].objectives[k];
      pop[order.front()].crowding =
          std::numeric_limits<double>::infinity();
      pop[order.back()].crowding =
          std::numeric_limits<double>::infinity();
      if (hi == lo) continue;
      double span = static_cast<double>(hi - lo);
      for (size_t p = 1; p + 1 < order.size(); ++p) {
        pop[order[p]].crowding +=
            static_cast<double>(pop[order[p + 1]].objectives[k] -
                                pop[order[p - 1]].objectives[k]) /
            span;
      }
    }
  }
}

class ParetoGeneticSolver : public Solver {
 public:
  static constexpr size_t kPopulation = 32;
  static constexpr int kGenerations = 40;
  static constexpr double kCrossoverRate = 0.9;
  static constexpr uint64_t kSeed = 2403'19906;  // The MOGA paper.

  std::string_view name() const override { return "pareto-genetic"; }
  std::string_view description() const override {
    return "NSGA-II-style genetic search returning the (cost, time, "
           "storage) Pareto frontier";
  }
  bool multi_objective() const override { return true; }

  Result<SelectionResult> Solve(const ObjectiveSpec& spec,
                                SolverContext& context) const override {
    size_t n = context.num_candidates();
    ParetoFront archive(spec.frontier_epsilon);
    std::vector<size_t> best_selected;
    SolverContext::Score best_score{};
    bool have_best = false;

    // Evaluates `genes`, archives it when feasible, tracks the
    // lexicographic best. All probes run through the caller's context;
    // the totals come from the Adds, memo or not. One reused
    // SubsetState: Reset() + the genes' Adds instead of a fresh
    // allocation per individual.
    SubsetState state(context.evaluator());
    auto evaluate = [&](Individual& ind) {
      state.Reset();
      for (size_t c = 0; c < ind.genes.size(); ++c) {
        if (ind.genes[c]) state.Add(c);
      }
      SolverContext::Probe probe = context.ProbeState(state);
      ind.multi = context.MultiScoreOf(probe);
      ind.objectives = {ind.multi.monthly_cost.micros(),
                        ind.multi.time.millis(),
                        ind.multi.storage.bytes()};
      SolverContext::Score score = context.ScoreOf(probe);
      ind.violation = score[0];
      ind.selected = state.Selected();
      if (ind.violation == 0) {  // Scenario- and hard-feasible.
        archive.Insert(
            ParetoPoint{ind.multi, ind.selected, "pareto-genetic"});
      }
      if (!have_best || score < best_score) {
        best_score = score;
        best_selected = ind.selected;
        have_best = true;
      }
    };

    if (n == 0) return context.Finalize(std::vector<size_t>{});

    Rng rng(kSeed);
    std::vector<Individual> pop;
    pop.reserve(2 * kPopulation);
    // Seeded spread: the empty set, single-view sets, then random
    // subsets across densities.
    pop.push_back(Individual{std::vector<uint8_t>(n, 0)});
    for (size_t c = 0; c < n && pop.size() < kPopulation / 2; ++c) {
      Individual ind{std::vector<uint8_t>(n, 0)};
      ind.genes[c] = 1;
      pop.push_back(std::move(ind));
    }
    while (pop.size() < kPopulation) {
      Individual ind{std::vector<uint8_t>(n, 0)};
      double density = 0.1 + 0.8 * rng.UniformDouble();
      for (size_t c = 0; c < n; ++c) {
        ind.genes[c] = rng.Bernoulli(density) ? 1 : 0;
      }
      pop.push_back(std::move(ind));
    }
    RankScratch scratch;
    for (Individual& ind : pop) evaluate(ind);
    RankPopulation(pop, scratch);

    double mutation = 1.0 / static_cast<double>(n);
    for (int gen = 0; gen < kGenerations; ++gen) {
      // Offspring: binary tournaments, uniform crossover, bit-flip
      // mutation.
      std::vector<Individual> offspring;
      offspring.reserve(kPopulation);
      auto pick = [&]() -> const Individual& {
        const Individual& a = pop[rng.Uniform(pop.size())];
        const Individual& b = pop[rng.Uniform(pop.size())];
        return TournamentLess(a, b) ? a : b;
      };
      while (offspring.size() < kPopulation) {
        const Individual& mother = pick();
        const Individual& father = pick();
        Individual child{std::vector<uint8_t>(n, 0)};
        bool cross = rng.UniformDouble() < kCrossoverRate;
        for (size_t c = 0; c < n; ++c) {
          child.genes[c] = cross
                               ? (rng.Bernoulli(0.5) ? mother.genes[c]
                                                     : father.genes[c])
                               : mother.genes[c];
          if (rng.UniformDouble() < mutation) {
            child.genes[c] ^= 1;
          }
        }
        offspring.push_back(std::move(child));
      }
      for (Individual& ind : offspring) evaluate(ind);

      // (mu + lambda) environmental selection.
      for (Individual& ind : offspring) pop.push_back(std::move(ind));
      RankPopulation(pop, scratch);
      std::sort(pop.begin(), pop.end(), TournamentLess);
      pop.resize(kPopulation);
    }

    CV_ASSIGN_OR_RETURN(SelectionResult result,
                        context.Finalize(best_selected));
    result.frontier = archive.points();
    return result;
  }
};

CLOUDVIEW_REGISTER_SOLVER(ParetoGeneticSolver)

}  // namespace
}  // namespace cloudview
