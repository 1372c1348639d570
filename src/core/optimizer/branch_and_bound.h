// Branch-and-bound over the candidate subset space — the exact search
// that scales past full enumeration's 2^n wall (DESIGN.md §13): one
// sequential depth-first walk that prunes against a live incumbent,
// warm-started from greedy plus a hill climb.
//
// The search tree: candidates are ordered once (descending standalone
// benefit) and each node decides the next candidate in or out, so a node
// is the pair (committed set C, relaxed set R) with C ⊆ S ⊆ R for every
// subset S in its subtree. Both sets are maintained incrementally as
// SubsetStates (O(queries) per move, like every other solver).
//
// The admissible bound (§13.2): every component of the lexicographic
// score is monotone in the probe components (time, makespan, cost,
// storage), and each probe component is bounded below from the node —
// processing from R (adding views never slows a query), maintenance and
// duplicated bytes from C, and makespan by C's materialization plus a
// facility-location charge that amortizes each undecided view's build
// time over the queries it can serve. Cost is the monetary fast path
// over those totals, except that storage takes its minimum over every
// byte total a completion can store: compute bills never fall as time
// grows, but a flat-bracket storage bill falls at a bracket edge
// (FastTotalCostFloor). Pushed through ScoreOf, that is a
// lexicographic lower bound on every completion, so pruning
// `bound > incumbent` never discards an optimum — ties survive the
// strict compare, which is what makes the lex-smallest tie-break exact.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/optimizer/solver.h"

namespace cloudview {

/// \brief Per-solve search telemetry (reported by bench_solvers).
struct SearchStats {
  /// Nodes expanded (both branches generated).
  uint64_t nodes_expanded = 0;
  /// Subtrees discarded because their bound exceeded the incumbent.
  uint64_t pruned_by_bound = 0;
  /// Node lower bounds computed (one per visited node).
  uint64_t bound_evaluations = 0;
  /// True when the walk ran to completion within its node budget: the
  /// returned selection is the proven lexicographic optimum.
  bool proven_optimal = false;
  /// When not proven: the relative gap between the incumbent's primary
  /// objective and the smallest unexplored lower bound (0 when proven;
  /// 1 when the bound says nothing, e.g. a feasibility mismatch).
  double gap_fraction = 0.0;
};

/// \brief Branch-and-bound knobs. The defaults are what the registered
/// "branch-and-bound" strategy runs with; tests and benches tighten
/// them (the knobs trade proof completeness for time, never
/// correctness of the returned incumbent).
struct BranchAndBoundOptions {
  /// Node budget. A walk that exhausts it reports the best incumbent
  /// found plus the smallest lower bound among its unexplored subtrees
  /// (the gap certificate). Deterministic: the walk is sequential, so
  /// the nodes it visits before the cutoff depend only on the instance.
  uint64_t max_nodes = 4'000'000;
  /// When non-null, filled with this solve's search telemetry.
  SearchStats* stats = nullptr;
};

/// \brief One search node (C, R) with its admissible lower bound.
///
/// Starts at the root (C = {}, R = every candidate, all undecided). The
/// walker decides a candidate by taking it out of the undecided set
/// R\C (Decide), then either adds it to committed() (include branch) or
/// removes it from relaxed() (exclude branch); Undecide reverses
/// Decide once both branches are done. The bound's per-query argmin
/// over R\C follows Decide/Undecide incrementally, so LowerBound() is
/// O(queries).
class SearchNode {
 public:
  /// \brief The root node. Keeps a reference; `evaluator` must outlive
  /// the node.
  explicit SearchNode(const SelectionEvaluator& evaluator);

  /// \brief Takes undecided candidate `c` out of R\C.
  void Decide(size_t c);
  /// \brief Returns decided candidate `c` to R\C.
  void Undecide(size_t c);

  /// \brief C: grows on include branches.
  SubsetState& committed() { return committed_; }
  const SubsetState& committed() const { return committed_; }
  /// \brief R: shrinks on exclude branches.
  SubsetState& relaxed() { return relaxed_; }
  const SubsetState& relaxed() const { return relaxed_; }

  /// \brief The component-wise lower-bound probe over every completion
  /// C ⊆ S ⊆ R, in `context`'s time metric:
  ///  * makespan: the larger of R's processing plus C's materialization
  ///    and the amortized charge
  ///      mat(C) + Σ_q min(f_q·t_C(q),
  ///                       min_{v∈R\C} f_q·t(q,v) + ⌊m_v/k_v⌋),
  ///    where k_v counts the queries whose ranked_candidates list holds
  ///    v (DESIGN.md §13.2);
  ///  * time: the makespan bound when the metric includes
  ///    materialization, R's processing otherwise;
  ///  * cost: FastTotalCostFloor of R's processing with C's other
  ///    totals, storage minimized over byte totals from C's to R's;
  ///  * storage: C's duplicated bytes.
  SolverContext::Probe LowerBound(const SolverContext& context) const;

 private:
  /// One undecided view's amortized charge for a query it can serve:
  /// f_q·t(q,v) + ⌊m_v/k_v⌋.
  struct Charge {
    int64_t value;
    uint32_t candidate;
  };
  /// Where candidate v sits in query q's charge list.
  struct Slot {
    uint32_t query;
    uint32_t position;
  };

  const SelectionEvaluator* evaluator_;
  SubsetState committed_;
  SubsetState relaxed_;
  // undecided_[v]: v ∈ R\C.
  std::vector<uint8_t> undecided_;
  // charges_[q]: the views that can serve q, ascending by charge (ties
  // by index); cursor_[q] is the first undecided one (size() = none).
  std::vector<std::vector<Charge>> charges_;
  std::vector<uint32_t> cursor_;
  // slots_[v]: every (query, position) at which v appears in charges_.
  std::vector<std::vector<Slot>> slots_;
};

/// \brief Runs branch-and-bound on `context` and returns the exact
/// lexicographic optimum (proven when stats->proven_optimal; otherwise
/// the best incumbent with a gap certificate). Ties between
/// equal-scoring subsets resolve to the lexicographically smallest
/// selected-index vector — the same rule the test suite's exhaustive
/// oracle applies, so the two agree bit-for-bit. Node probes
/// bypass the context's evaluation cache (each committed subset is
/// visited once); only the warm start's hill climb uses it. The
/// registered "branch-and-bound" strategy calls this with default
/// options.
Result<SelectionResult> SolveBranchAndBound(
    SolverContext& context, const BranchAndBoundOptions& options = {});

}  // namespace cloudview
