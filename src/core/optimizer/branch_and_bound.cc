// Branch-and-bound (see branch_and_bound.h and DESIGN.md §13 for the
// design; this file is the mechanics).
//
// Layout:
//   * SearchNode — the (committed, relaxed) SubsetState pair plus the
//     amortized-materialization argmin that makes the bound tight.
//   * Walker — the sequential depth-first walk over include/exclude
//     decisions, pruning against the live incumbent.
//   * SolveBranchAndBound — candidate ordering, greedy warm start, the
//     walk, and the gap certificate.
//   * BranchAndBoundSolver — the registry seam.

#include "core/optimizer/branch_and_bound.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

namespace cloudview {

// ---------------------------------------------------------------------------
// SearchNode

SearchNode::SearchNode(const SelectionEvaluator& evaluator)
    : evaluator_(&evaluator),
      committed_(evaluator),
      relaxed_(evaluator),
      undecided_(evaluator.num_candidates(), 1),
      charges_(evaluator.num_queries()),
      cursor_(evaluator.num_queries(), 0),
      slots_(evaluator.num_candidates()) {
  const size_t n = evaluator.num_candidates();
  const size_t m = evaluator.num_queries();
  // The root relaxation includes every candidate: relaxed processing
  // is the per-query best-achievable time over all undecided views.
  for (size_t c = 0; c < n; ++c) relaxed_.Add(c);

  // k_v: how many queries v can serve at all. A view in S serves a
  // query only when it beats the base table, i.e. only from its
  // ranked_candidates lists, so charging ⌊m_v/k_v⌋ per served query
  // never sums past m_v.
  std::vector<int64_t> servable(n, 0);
  for (size_t q = 0; q < m; ++q) {
    for (uint32_t v : evaluator.ranked_candidates(q)) ++servable[v];
  }
  for (size_t q = 0; q < m; ++q) {
    std::vector<Charge>& charges = charges_[q];
    for (uint32_t v : evaluator.ranked_candidates(q)) {
      int64_t share =
          evaluator.candidates()[v].materialization_time.millis() /
          servable[v];
      charges.push_back(Charge{
          evaluator.frequency(q) * evaluator.view_time(q, v).millis() +
              share,
          v});
    }
    std::sort(charges.begin(), charges.end(),
              [](const Charge& a, const Charge& b) {
                if (a.value != b.value) return a.value < b.value;
                return a.candidate < b.candidate;
              });
    for (size_t i = 0; i < charges.size(); ++i) {
      slots_[charges[i].candidate].push_back(
          Slot{static_cast<uint32_t>(q), static_cast<uint32_t>(i)});
    }
  }
}

void SearchNode::Decide(size_t c) {
  undecided_[c] = 0;
  // Only queries whose argmin was c move; like SubsetState::Remove,
  // walk forward to the next view still undecided.
  for (const Slot& slot : slots_[c]) {
    uint32_t& cursor = cursor_[slot.query];
    if (cursor != slot.position) continue;
    const std::vector<Charge>& charges = charges_[slot.query];
    do {
      ++cursor;
    } while (cursor < charges.size() &&
             undecided_[charges[cursor].candidate] == 0);
  }
}

void SearchNode::Undecide(size_t c) {
  undecided_[c] = 1;
  for (const Slot& slot : slots_[c]) {
    uint32_t& cursor = cursor_[slot.query];
    cursor = std::min(cursor, slot.position);
  }
}

SolverContext::Probe SearchNode::LowerBound(
    const SolverContext& context) const {
  // Each query is served either from C (or the base table) or by one
  // undecided view, paying that view's amortized build share.
  const int64_t* frequency = evaluator_->frequency_data();
  int64_t served_ms = 0;
  for (size_t q = 0; q < charges_.size(); ++q) {
    int64_t best = committed_.best_time_ms(q) * frequency[q];
    if (cursor_[q] < charges_[q].size()) {
      best = std::min(best, charges_[q][cursor_[q]].value);
    }
    served_ms += best;
  }
  SubsetTotals totals;
  totals.processing = relaxed_.processing_time();
  totals.materialization = committed_.materialization_time();
  totals.maintenance = committed_.maintenance_time();
  totals.view_bytes = committed_.view_bytes();
  Duration makespan =
      std::max(totals.makespan(),
               totals.materialization + Duration::FromMillis(served_ms));
  // Every completion stores between C's bytes and R's.
  DataSize max_bytes = relaxed_.view_bytes();
  Money cost = evaluator_->FastTotalCostFloor(totals, max_bytes);
  return SolverContext::Probe{
      context.TimeMetric(totals.processing, makespan), makespan, cost,
      totals.view_bytes};
}

namespace {

using Score = SolverContext::Score;

/// The best (score, subset) seen so far. Ties resolve to the
/// lexicographically smallest selected-index vector — the project-wide
/// tie-break rule exact solvers share (the tests' exhaustive oracle
/// applies the same one).
struct Incumbent {
  Score score{};
  std::vector<size_t> selected;

  /// Folds a scored subset in; `state` is only materialized to an index
  /// vector when it actually improves or ties the score.
  void Offer(const Score& offered, const SubsetState& state) {
    if (offered > score) return;
    std::vector<size_t> sel = state.Selected();
    if (offered < score || sel < selected) {
      score = offered;
      selected = std::move(sel);
    }
  }
};

/// The depth-first walker: one SearchNode, one live incumbent.
class Walker {
 public:
  Walker(SolverContext& context, const std::vector<uint32_t>& order,
         Incumbent incumbent, uint64_t max_nodes)
      : context_(context),
        order_(order),
        node_(context.evaluator()),
        incumbent_(std::move(incumbent)),
        max_nodes_(max_nodes) {}

  /// Visits the node whose first `depth` decisions are applied.
  /// `committed_changed` marks edges that grew the committed set (the
  /// include branch and the root), whose subset is the one new complete
  /// solution this node contributes.
  void Visit(size_t depth, bool committed_changed) {
    ++stats_.bound_evaluations;
    Score lb = context_.ScoreOf(node_.LowerBound(context_));
    // Bound pruning: lb underestimates every completion in this
    // subtree, so a strictly worse bound proves the subtree cannot beat
    // the incumbent. Strict — equal-scoring subsets survive so the
    // lex-smallest tie-break stays exact.
    if (lb > incumbent_.score) {
      ++stats_.pruned_by_bound;
      return;
    }
    if (committed_changed) {
      incumbent_.Offer(context_.ScoreState(node_.committed()),
                       node_.committed());
    }
    if (depth == order_.size()) return;
    if (stats_.nodes_expanded >= max_nodes_ ||
        ((stats_.nodes_expanded & 255) == 0 && context_.Cancelled())) {
      // Budget cutoff — or a cancellation/deadline observed at the
      // poll, which truncates through the identical path: the subtree
      // stays unexplored; its bound becomes part of the gap
      // certificate. Deterministic — the poll cadence is a pure
      // function of the node count.
      if (!truncated_ || lb < min_unexplored_) min_unexplored_ = lb;
      truncated_ = true;
      return;
    }
    ++stats_.nodes_expanded;
    size_t c = order_[depth];
    // c leaves R\C on both branches. The include edge backs out by
    // undo (no ranking rescan); the exclude edge needs Remove's rescan,
    // because R really loses c and each query it served falls to the
    // next member of R.
    node_.Decide(c);
    node_.committed().AddUndoable(c);
    Visit(depth + 1, /*committed_changed=*/true);
    node_.committed().UndoAdd();
    node_.relaxed().Remove(c);
    Visit(depth + 1, /*committed_changed=*/false);
    node_.relaxed().Add(c);
    node_.Undecide(c);
  }

  const Incumbent& incumbent() const { return incumbent_; }
  const SearchStats& stats() const { return stats_; }
  /// Whether a cutoff left some subtree unexplored; if so,
  /// min_unexplored() is the smallest bound among them.
  bool truncated() const { return truncated_; }
  const Score& min_unexplored() const { return min_unexplored_; }

 private:
  SolverContext& context_;
  const std::vector<uint32_t>& order_;
  SearchNode node_;
  Incumbent incumbent_;
  uint64_t max_nodes_;
  SearchStats stats_;
  bool truncated_ = false;
  Score min_unexplored_{};
};

/// Branch order: descending standalone processing saving, ties by
/// index — the strongest single-view decisions first, so committed
/// materialization costs and relaxation collapses show up at shallow
/// depths and the bound bites early. A pure function of the evaluator.
std::vector<uint32_t> BranchOrder(const SelectionEvaluator& evaluator) {
  std::vector<uint32_t> order(evaluator.num_candidates());
  std::iota(order.begin(), order.end(), 0u);
  std::vector<int64_t> saving_ms(order.size());
  for (size_t c = 0; c < order.size(); ++c) {
    saving_ms[c] = evaluator.StandaloneProcessingSaving(c).millis();
  }
  std::sort(order.begin(), order.end(),
            [&saving_ms](uint32_t a, uint32_t b) {
              if (saving_ms[a] != saving_ms[b]) {
                return saving_ms[a] > saving_ms[b];
              }
              return a < b;
            });
  return order;
}

/// The relative optimality gap the incumbent is certified to, from the
/// smallest unexplored bound. 0 when nothing unexplored can beat the
/// incumbent; 1 ("no certificate") when the two disagree on the
/// violation term, where relative distance on the primary objective
/// means nothing.
double GapFraction(const Score& best, const Score& min_unexplored) {
  if (min_unexplored >= best) return 0.0;
  if (min_unexplored[0] != best[0]) return 1.0;
  double incumbent = static_cast<double>(best[1]);
  double bound = static_cast<double>(min_unexplored[1]);
  if (incumbent < 1.0) return 1.0;
  double gap = (incumbent - bound) / incumbent;
  return std::min(1.0, std::max(0.0, gap));
}

}  // namespace

Result<SelectionResult> SolveBranchAndBound(
    SolverContext& context, const BranchAndBoundOptions& options) {
  SearchStats local_stats;
  SearchStats& stats =
      options.stats != nullptr ? *options.stats : local_stats;
  stats = SearchStats{};

  // Warm upper bound: the greedy swap climb from the empty set. It
  // revisits neighborhoods, so it keeps the context's evaluation cache.
  SubsetState warm_state(context.evaluator());
  context.HillClimb(warm_state, /*with_swaps=*/true);
  Incumbent warm{context.ScoreState(warm_state), warm_state.Selected()};

  if (context.num_candidates() == 0) {
    stats.proven_optimal = true;
    return context.Finalize(warm.selected);
  }

  // The walk scores each committed subset once; caching those probes
  // would only crowd the session cache with single-use entries.
  const bool use_cache = context.use_cache();
  context.set_use_cache(false);
  const std::vector<uint32_t> order = BranchOrder(context.evaluator());
  Walker walker(context, order, std::move(warm), options.max_nodes);
  walker.Visit(0, /*committed_changed=*/true);
  context.set_use_cache(use_cache);

  stats = walker.stats();
  context.MergeCounters({0, stats.bound_evaluations, 0});
  stats.proven_optimal = !walker.truncated();
  stats.gap_fraction =
      stats.proven_optimal
          ? 0.0
          : GapFraction(walker.incumbent().score, walker.min_unexplored());
  CV_ASSIGN_OR_RETURN(SelectionResult result,
                      context.Finalize(walker.incumbent().selected));
  // The certificate beats Finalize's no-information default: a
  // cancelled search still reports how far the incumbent is certified
  // to be from optimal (the kCancelled + incumbent + gap contract).
  result.gap_fraction = stats.gap_fraction;
  return result;
}

namespace {

// "branch-and-bound": the exact solver, at any candidate count.
// Registered like any other strategy, so the frontier, temporal and
// provider machinery pick it up by name.
class BranchAndBoundSolver : public Solver {
 public:
  std::string_view name() const override { return "branch-and-bound"; }
  std::string_view description() const override {
    return "branch-and-bound; exact (or certified-gap) optimum at any "
           "candidate count";
  }

  Result<SelectionResult> Solve(const ObjectiveSpec&,
                                SolverContext& context) const override {
    // Default knobs; tests and benches that need tighter budgets or
    // telemetry call SolveBranchAndBound directly.
    return SolveBranchAndBound(context);
  }
};

CLOUDVIEW_REGISTER_SOLVER(BranchAndBoundSolver)

}  // namespace
}  // namespace cloudview
