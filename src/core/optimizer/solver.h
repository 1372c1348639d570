// The solver strategy seam: how the subset space is searched is a
// pluggable, name-keyed strategy over one shared evaluation substrate.
//
//   Solver          — the strategy interface: Solve(spec, context).
//   SolverContext   — everything a strategy needs: the evaluator, the
//                     scenario's lexicographic scoring, the incremental
//                     SubsetState probes, the shared evaluation memo,
//                     and a best-improvement hill-climb helper.
//   SolverRegistry  — name -> strategy; self-registration via
//                     CLOUDVIEW_REGISTER_SOLVER keeps the set open
//                     (built-ins and downstream solvers register the
//                     same way).
//
// Built-in strategies: "knapsack-dp" (the paper's Section 5.2 DP plus
// exact repair), "greedy", "annealing", "local-search" (add/remove/swap
// iterated local search in the spirit of arXiv 2606.03772),
// "branch-and-bound" (the exact solver; DESIGN.md §13), and the
// multi-objective strategies "pareto-sweep" (one sequential pass of the
// single-objective solvers over weight vectors, on the caller's
// evaluator and cache) / "pareto-genetic", which additionally return
// the (monthly cost, time, storage) Pareto frontier (DESIGN.md §10), and
// "arch-sweep" (the joint view-and-architecture race). See DESIGN.md
// §5.11.

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/optimizer/evaluator.h"
#include "core/optimizer/pareto.h"
#include "core/optimizer/selector.h"

namespace cloudview {

/// \brief The scenario-and-evaluator bundle a solver runs against.
///
/// Scoring is uniform across the three scenarios: a subset is reduced to
/// a Probe (time metric, makespan, total cost, view bytes) and ranked by
/// the lexicographic Score (constraint violation, primary objective,
/// tie-breaker) — lower is better, violation 0 means feasible. The
/// violation term sums the scenario's own constraint with the spec's
/// hard constraints (max_monthly_cost / max_storage / max_makespan), so
/// every registered strategy honors them without strategy-specific code.
/// Probes go through the memo cache and the incremental fast path
/// (FastTotalCost, pinned bit-for-bit to the exact Evaluate() by the
/// property suite); Finalize re-evaluates the pick exactly.
class SolverContext {
 public:
  /// Lexicographic move score; lower is better.
  using Score = std::array<int64_t, 3>;

  /// \brief What one subset probe reduces to: everything the scalar
  /// score, the hard constraints, and the MultiScore consume.
  struct Probe {
    /// The scenario's time metric (makespan or processing time).
    Duration time;
    /// processing + one-time materialization, regardless of the metric
    /// (what ObjectiveSpec::max_makespan binds on).
    Duration makespan;
    Money cost;
    /// Duplicated bytes stored for the subset
    /// (ObjectiveSpec::max_storage binds on this).
    DataSize storage;
  };

  /// \brief Per-run evaluation counters (reported by bench_solvers).
  struct Counters {
    /// Exact Evaluate() calls (ground-truth path).
    uint64_t full_evaluations = 0;
    /// Incremental fast-path probes (SubsetState + FastTotalCost).
    uint64_t incremental_probes = 0;
    /// Probes answered from the shared evaluation memo.
    uint64_t cache_hits = 0;
    /// Tasks a frontier sweep solved rather than read from the cache's
    /// pick memo ("pareto-sweep"; zero for every other strategy).
    uint64_t fresh_tasks = 0;
    uint64_t subsets_scored() const {
      return full_evaluations + incremental_probes + cache_hits;
    }
  };

  /// \brief Keeps references; `evaluator` and `spec` must outlive the
  /// context. `cache` (optional) is the cross-run evaluation memo.
  SolverContext(const SelectionEvaluator& evaluator,
                const ObjectiveSpec& spec,
                EvaluationCache* cache = nullptr);

  const SelectionEvaluator& evaluator() const { return *evaluator_; }
  const ObjectiveSpec& spec() const { return *spec_; }
  /// \brief The cross-run evaluation memo, or nullptr when uncached.
  EvaluationCache* cache() const { return cache_; }
  size_t num_candidates() const { return evaluator_->num_candidates(); }

  // --- Cooperative cancellation (DESIGN.md §14) ------------------------

  /// \brief True once the spec's CancelToken fired (explicit cancel or
  /// deadline). Strategies poll this at loop heads — HillClimb's outer
  /// pass, annealing's iteration loop, branch-and-bound's node
  /// expansion — and truncate like a budget cutoff: keep the incumbent,
  /// stop searching. One relaxed atomic load when a token is present;
  /// free when not.
  bool Cancelled() const {
    return spec_->cancel != nullptr && spec_->cancel->cancelled();
  }

  // --- Objective helpers -----------------------------------------------

  /// \brief The scenario's time metric for a pair of time totals.
  Duration TimeMetric(Duration processing, Duration makespan) const {
    return spec_->time_includes_materialization ? makespan : processing;
  }
  Duration TimeMetric(const SubsetEvaluation& eval) const {
    return TimeMetric(eval.processing_time, eval.makespan);
  }

  /// \brief MV3's baseline-normalized blend (Formula 15 on T/T0, C/C0).
  double TradeoffObjective(Duration time, Money cost) const;
  double TradeoffObjective(const SubsetEvaluation& eval) const {
    return TradeoffObjective(TimeMetric(eval), eval.cost.total());
  }

  /// \brief The probe a finished exact evaluation reduces to.
  Probe ProbeOf(const SubsetEvaluation& eval) const {
    return Probe{TimeMetric(eval), eval.makespan, eval.cost.total(),
                 eval.view_input.TotalSize()};
  }

  /// \brief Total cost normalized to one month of the deployment's
  /// billed storage period — the MultiScore's monetary axis and what
  /// ObjectiveSpec::max_monthly_cost binds on. Exact rational scaling;
  /// a non-positive period degenerates to the unscaled total.
  Money MonthlyCost(Money total) const;

  /// \brief The probe's position in the objective space (DESIGN.md
  /// §10). The unavailability axis comes from the evaluator's
  /// deployment architecture — every probe through one context shares
  /// it (zero under the identity default), so single-architecture
  /// frontiers are unchanged; the arch-sweep reduction compares scores
  /// from per-architecture contexts.
  MultiScore MultiScoreOf(const Probe& probe) const {
    return MultiScore{
        MonthlyCost(probe.cost), probe.time, probe.storage,
        evaluator_->deployment().architecture.unavailability_ppm};
  }
  MultiScore MultiScoreOf(const SubsetEvaluation& eval) const {
    return MultiScoreOf(ProbeOf(eval));
  }

  /// \brief Sum of hard-constraint excesses (micro-dollars + bytes +
  /// millis; saturating): 0 iff max_monthly_cost / max_storage /
  /// max_makespan all hold. Folded into the score's violation term, so
  /// every strategy is pulled toward the hard-feasible region first.
  int64_t HardViolation(const Probe& probe) const;

  /// \brief HardViolation normalized per constraint (excess as a
  /// fraction of each limit, summed) — the penalty scalarizing walks
  /// (annealing) mix into their double-valued objective.
  double HardViolationBlend(const Probe& probe) const;

  /// \brief Whether the probe satisfies the scenario's constraint AND
  /// every hard constraint.
  bool Feasible(const Probe& probe) const;
  bool Feasible(const SubsetEvaluation& eval) const {
    return Feasible(ProbeOf(eval));
  }

  Score ScoreOf(const Probe& probe) const;
  Score ScoreOf(const SubsetEvaluation& eval) const {
    return ScoreOf(ProbeOf(eval));
  }

  // --- Evaluation paths ------------------------------------------------

  /// \brief Scores the state via memo -> incremental fast path. Bumps
  /// the counters. Probes cannot fail: the evaluator validated the
  /// deployment when it billed the baseline (DESIGN.md §5.12).
  Probe ProbeState(const SubsetState& state);
  Score ScoreState(const SubsetState& state);

  /// \brief Scores the subset `state` would become after Toggle(c),
  /// WITHOUT mutating it (SubsetState::PeekToggle) — the move-probing
  /// primitive of every neighborhood loop: no commit, no revert.
  /// Hash-first: the toggled subset's memo key is one XOR away from
  /// state.hash(), so a cache hit costs O(1) and skips the O(queries)
  /// peek entirely.
  Probe ProbeToggle(const SubsetState& state, size_t c);

  /// \brief ProbeToggle over many candidates — the neighborhood-scan
  /// primitive (DESIGN.md §11.2). One tight pass answers every memo hit
  /// hash-first; a second pass peeks the misses. On a warm cache a scan
  /// is nearly all hits, and this split is what keeps the served
  /// local-search solves as fast as they are (EXPERIMENTS.md, "One
  /// probe path"). `out` is resized to candidates.size(); out[i] equals
  /// ProbeToggle(state, candidates[i]) bit-for-bit, counters included.
  void ProbeToggleBatch(const SubsetState& state,
                        std::span<const size_t> candidates,
                        std::vector<Probe>& out);

  /// \brief Exact ground-truth evaluation (counted as a full eval).
  Result<SubsetEvaluation> Evaluate(const std::vector<size_t>& selected);

  // --- Shared search building blocks -----------------------------------

  /// \brief Best-improvement hill climbing on `state` over single
  /// add/remove moves (plus remove+add swap moves when `with_swaps`)
  /// until no move improves the score. The exact repair pass every
  /// heuristic runs after seeding.
  void HillClimb(SubsetState& state, bool with_swaps = false);

  /// \brief Exact re-evaluation of the final pick, packaged with
  /// feasibility, the time metric, and the normalized blend.
  Result<SelectionResult> Finalize(const std::vector<size_t>& selected);
  Result<SelectionResult> Finalize(const SubsetState& state) {
    return Finalize(state.Selected());
  }

  // --- Knobs and telemetry ---------------------------------------------

  /// \brief When off, probes skip the shared memo entirely. Walks that
  /// rarely revisit a subset (branch-and-bound's node expansion) turn
  /// this off so they don't flood the cache with single-use entries.
  void set_use_cache(bool on) { use_cache_ = on; }
  bool use_cache() const { return use_cache_; }

  const Counters& counters() const { return counters_; }

  /// \brief Folds another context's counters into this one — how a
  /// solver that runs others on child contexts (the "pareto-sweep"'s
  /// tasks, the "arch-sweep"'s per-architecture solves) reports the
  /// probes they performed.
  void MergeCounters(const Counters& other) {
    counters_.full_evaluations += other.full_evaluations;
    counters_.incremental_probes += other.incremental_probes;
    counters_.cache_hits += other.cache_hits;
    counters_.fresh_tasks += other.fresh_tasks;
  }

 private:
  /// The scenario's own (violation, objective, tie-break) score, before
  /// hard constraints are folded in.
  Score ScenarioScore(Duration time, Money cost) const;
  /// The scenario's own constraint (budget or time limit).
  bool ScenarioFeasible(Duration time, Money cost) const;

  /// Memo-or-compute for a peeked/committed totals bundle.
  Probe ProbeTotals(const SubsetTotals& totals);
  /// The compute leg of ProbeTotals, after the memo already missed.
  Probe ProbeTotalsMiss(const SubsetTotals& totals);
  /// Memo entry for `hash`, or nullptr (also when the cache is off).
  /// Does not bump counters — callers count the hit.
  const EvaluationCache::Entry* CachedEntry(uint64_t hash) const {
    if (cache_ == nullptr || !use_cache_) return nullptr;
    return cache_->Find(hash);
  }
  Probe ProbeOfEntry(const EvaluationCache::Entry& entry) const {
    return Probe{TimeMetric(entry.processing_time, entry.makespan),
                 entry.makespan, entry.total_cost, entry.view_bytes};
  }

  const SelectionEvaluator* evaluator_;
  const ObjectiveSpec* spec_;
  EvaluationCache* cache_;
  /// MV3 normalization denominators (baseline or spec overrides).
  double t0_millis_ = 0.0;
  double c0_micros_ = 0.0;
  bool use_cache_ = true;
  Counters counters_;

  // Batch scratch (ProbeToggleBatch / HillClimb), reused across calls
  // so neighborhood scans only allocate on growth.
  std::vector<size_t> scratch_iota_;
  std::vector<size_t> scratch_swap_ins_;
  std::vector<size_t> scratch_miss_;
  std::vector<Probe> scratch_probes_;
};

/// \brief The exact EvaluationCache pick-memo key of running `solver`
/// on `spec`: the name, then every ObjectiveSpec field a
/// single-objective solver's pick reads, as fixed-width bytes. Leaves
/// out `cancel` (a completed solve's pick does not depend on it) and the
/// fields only multi-objective strategies read (`frontier_epsilon`,
/// `architectures`, `architecture_inner_solver`).
std::string SolvePickKey(std::string_view solver, const ObjectiveSpec& spec);

/// \brief One search strategy over the subset space.
///
/// Implementations must be stateless across Solve() calls (per-run state
/// lives on the stack or in the context); the registry hands out one
/// shared instance per name.
class Solver {
 public:
  virtual ~Solver() = default;

  /// \brief Registry key, e.g. "knapsack-dp".
  virtual std::string_view name() const = 0;
  /// \brief One-line description for listings.
  virtual std::string_view description() const = 0;
  /// \brief Whether this strategy returns a Pareto frontier on
  /// SelectionResult::frontier (DESIGN.md §10). Frontier builders that
  /// enumerate the registry (the sweep) skip strategies that answer
  /// true — including downstream registrations — so two frontier
  /// builders can never recurse into each other.
  virtual bool multi_objective() const { return false; }

  /// \brief Searches the subset space for `spec`'s objective. The
  /// returned result must come from SolverContext::Finalize (exact
  /// re-evaluation of the pick).
  virtual Result<SelectionResult> Solve(const ObjectiveSpec& spec,
                                        SolverContext& context) const = 0;
};

/// \brief Name-keyed strategy registry. Open for extension: link a
/// translation unit with CLOUDVIEW_REGISTER_SOLVER (or call Register at
/// startup) and the solver is selectable everywhere by name.
class SolverRegistry {
 public:
  /// \brief The process-wide registry the built-ins register into.
  static SolverRegistry& Global();

  /// \brief Registers `solver` under solver->name(). AlreadyExists when
  /// the name is taken.
  Status Register(std::unique_ptr<Solver> solver);

  /// \brief Looks a strategy up by name; NotFound lists what exists.
  Result<const Solver*> Find(std::string_view name) const;

  bool Contains(std::string_view name) const;

  /// \brief Registered names, sorted.
  std::vector<std::string> Names() const;

 private:
  std::vector<std::unique_ptr<Solver>> solvers_;
};

namespace internal {
/// \brief Static registrar behind CLOUDVIEW_REGISTER_SOLVER.
struct SolverRegistrar {
  explicit SolverRegistrar(std::unique_ptr<Solver> solver);
};
}  // namespace internal

/// \brief Registers `SolverClass` (default-constructed) into the global
/// registry at static-initialization time. Place one per solver
/// translation unit; the build links the library as objects, so
/// registrars are never dead-stripped.
#define CLOUDVIEW_REGISTER_SOLVER(SolverClass)                      \
  static const ::cloudview::internal::SolverRegistrar               \
      cv_solver_registrar_##SolverClass{                            \
          std::make_unique<SolverClass>()};

}  // namespace cloudview

