// SelectionEvaluator: exact, interaction-aware evaluation of a candidate
// subset — the ground truth every registered solver optimizes against.
//
// "Interaction-aware" means a query is answered by the *best* view in the
// selected set (or the base table), so view benefits do not simply add
// up. The knapsack formulation uses additive standalone benefits (the
// paper's approach); the solvers then re-evaluate their pick exactly
// through this class and repair if needed.
//
// Two evaluation paths are provided (DESIGN.md §5.12):
//  * Evaluate(): the exact ground truth — rebuilds the per-query argmin
//    and the full CostBreakdown from scratch, O(queries x |subset|).
//  * SubsetState + FastTotalCost(): incremental re-scoring for
//    local-search moves — a single add/remove updates the per-query
//    argmin and the running Formula 7/11 totals in O(queries), and the
//    monetary total is recomputed from those totals alone. The property
//    tests assert the two paths agree bit-for-bit.

#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/lattice.h"
#include "common/hash.h"
#include "common/result.h"
#include "core/cost/cloud_cost_model.h"
#include "core/optimizer/view_candidate.h"
#include "engine/cluster.h"
#include "workload/workload.h"

namespace cloudview {

class SubsetState;

/// \brief Zobrist token of candidate `c`: subset hashes are XORs of
/// member tokens, so they update in O(1) per add/remove and are
/// independent of insertion order.
inline uint64_t CandidateToken(size_t c) {
  return Mix64(static_cast<uint64_t>(c) + 0x9E3779B97F4A7C15ULL);
}

/// \brief Order-independent hash of a candidate subset (memo-cache key).
inline uint64_t SubsetHash(const std::vector<size_t>& selected) {
  uint64_t h = 0;
  for (size_t c : selected) h ^= CandidateToken(c);
  return h;
}

/// \brief The running totals a subset is scored on: everything the
/// objectives and the monetary fast path consume, plus the memo key.
struct SubsetTotals {
  /// Formula 9 total (frequency-weighted).
  Duration processing;
  /// Formula 7 total.
  Duration materialization;
  /// Formula 11 total (per cycle).
  Duration maintenance;
  /// Duplicated bytes stored for the subset.
  DataSize view_bytes;
  /// SubsetHash of the subset.
  uint64_t hash = 0;

  Duration makespan() const { return processing + materialization; }
};

/// \brief Everything the objectives need to know about one subset.
struct SubsetEvaluation {
  /// Candidate indices, ascending.
  std::vector<size_t> selected;
  /// Per-query t_iV and result sizes for the subset.
  WorkloadCostInput workload_input;
  /// Formula 7/11 totals and duplicated bytes for the subset.
  ViewSetCostInput view_input;
  /// Full monetary breakdown (Formula 1/6).
  CostBreakdown cost;
  /// Formula 9: TprocessingQ with the subset in place.
  Duration processing_time;
  /// processing + one-time materialization (the workload-run response
  /// time reported by the Section 6 experiments; see DESIGN.md §5.6).
  Duration makespan;
};

/// \brief Precomputes the query-x-candidate timing matrix and evaluates
/// subsets exactly.
///
/// The workload and deployment are copied in (both are small); the
/// lattice and cost model are borrowed and must outlive the evaluator.
///
/// Concurrency contract (DESIGN.md §9): safe to share. An evaluator is
/// read-only after construction — FastTotalCost() bills every probe
/// directly, with no memo — so any number of threads may probe one
/// instance. The two variants (CloneWithSunkBuilds,
/// CloneWithArchitecture) share the immutable query-x-candidate timing
/// tables by reference, so deriving one is O(queries + candidates), not
/// O(queries x candidates).
class SelectionEvaluator {
 public:
  /// \brief Builds the evaluator. `lattice` and `cost_model` must
  /// outlive it; `workload` and `deployment` are copied.
  static Result<SelectionEvaluator> Create(
      const CubeLattice& lattice, const Workload& workload,
      const MapReduceSimulator& simulator, const ClusterSpec& cluster,
      const CloudCostModel& cost_model, const DeploymentSpec& deployment,
      std::vector<ViewCandidate> candidates);

  const std::vector<ViewCandidate>& candidates() const {
    return candidates_;
  }
  size_t num_candidates() const { return candidates_.size(); }
  const Workload& workload() const { return workload_; }
  size_t num_queries() const { return workload_.size(); }
  const DeploymentSpec& deployment() const { return deployment_; }
  const CloudCostModel& cost_model() const { return *cost_model_; }

  /// \brief Query `q` answered from the base table (precomputed).
  Duration base_time(size_t q) const {
    return Duration::FromMillis(timing_->base_time_ms[q]);
  }
  /// \brief Query `q` answered from candidate `c`; a huge sentinel when
  /// `c` cannot answer `q` (never wins a min against base_time). Indexes
  /// the candidate-major matrix — the single copy (DESIGN.md §11).
  Duration view_time(size_t q, size_t c) const {
    return Duration::FromMillis(
        timing_->view_time_ms[c * workload_.size() + q]);
  }
  /// \brief Candidate `c`'s timing column in raw milliseconds,
  /// contiguous over queries — what SubsetState's probe loops stream.
  const int64_t* view_time_ms_of(size_t c) const {
    return timing_->view_time_ms.data() + c * workload_.size();
  }
  /// \brief Per-query base times / frequency weights as flat arrays
  /// (the probe loops' other operands).
  const int64_t* base_time_ms_data() const {
    return timing_->base_time_ms.data();
  }
  const int64_t* frequency_data() const {
    return timing_->frequency.data();
  }
  /// \brief Candidates that can beat the base table for query `q`,
  /// ascending by view_time — SubsetState::Remove's argmin repair walks
  /// this and stops at the first surviving member (expected O(1)).
  const std::vector<uint32_t>& ranked_candidates(size_t q) const {
    return timing_->ranked_candidates[q];
  }
  /// \brief Frequency weight of query `q` (Formula 9).
  int64_t frequency(size_t q) const { return timing_->frequency[q]; }

  /// \brief A copy with `sunk` candidates' materialization time zeroed
  /// — the temporal planner's transition-aware period problem (carried
  /// views' builds are sunk costs; see temporal_planner.h). The timing
  /// tables are shared unchanged (they never depend on build time), so
  /// this is O(queries + candidates). InvalidArgument on an
  /// out-of-range index.
  Result<SelectionEvaluator> CloneWithSunkBuilds(
      const std::vector<size_t>& sunk) const;

  /// \brief A copy re-billed under `architecture` — what the arch-sweep
  /// solver scores each architecture on. Timing tables are shared (an
  /// architecture rescales money, never query times); the baseline is
  /// re-billed under the new architecture. InvalidArgument when the
  /// deployment bills compute as a single session and the architecture
  /// is not the identity (a replicated or spot fleet is not one rental
  /// session).
  Result<SelectionEvaluator> CloneWithArchitecture(
      const ArchitectureModel& architecture) const;

  /// \brief Exact evaluation of a subset (indices into candidates()).
  Result<SubsetEvaluation> Evaluate(
      const std::vector<size_t>& selected) const;

  /// \brief The no-view evaluation (cached).
  const SubsetEvaluation& baseline() const { return baseline_; }

  /// \brief Total monetary cost recomputed from running totals alone —
  /// no per-query rebuild. Matches Evaluate(...).cost.total() exactly:
  /// compute charges are functions of the three time totals, transfer is
  /// subset-independent (Section 4.1), and storage depends only on the
  /// duplicated view bytes. Cannot fail: Create() and the clones already
  /// billed the baseline, which validates everything a probe's totals
  /// can reach.
  Money FastTotalCost(const SubsetTotals& totals) const;
  Money FastTotalCost(const SubsetState& state) const;

  /// \brief A lower bound on FastTotalCost over every subset whose three
  /// time totals are at least `totals`' and whose duplicated bytes lie
  /// in [totals.view_bytes, max_view_bytes] — branch-and-bound's cost
  /// bound. Compute charges never fall as time grows, but a
  /// flat-bracket storage bill falls where a volume crosses into a
  /// cheaper bracket, so the storage term is the bill's minimum over
  /// that byte range (DESIGN.md §13.2). Equals FastTotalCost(totals)
  /// when no such drop lies in the range.
  Money FastTotalCostFloor(const SubsetTotals& totals,
                           DataSize max_view_bytes) const;

  /// \brief Transfer cost, constant across subsets (cached).
  Money transfer_cost() const { return baseline_.cost.transfer; }

  /// \brief Per-request I/O charges, constant across subsets (cached):
  /// views change which bytes a query touches, not how many API calls
  /// the workload makes.
  Money request_cost() const { return baseline_.cost.requests; }

  /// \brief Processing time saved by materializing candidate `c` alone
  /// (additive knapsack approximation).
  Duration StandaloneProcessingSaving(size_t c) const;

  /// \brief cost({c}).total() - cost({}).total(): the candidate's
  /// standalone monetary footprint (may be negative when compute savings
  /// outweigh storage/materialization).
  Result<Money> StandaloneCostDelta(size_t c) const;

 private:
  /// The precomputed query-x-candidate tables — the expensive, immutable
  /// part of an evaluator. Built once, shared read-only via shared_ptr
  /// with every variant (the arch-sweep's per-architecture re-billing,
  /// the temporal planner's sunk-build copies), so a variant never
  /// rebuilds or duplicates the matrix.
  ///
  /// Structure-of-arrays (DESIGN.md §11): every hot-path quantity is a
  /// flat int64 array in raw milliseconds, and the timing matrix exists
  /// in exactly one layout — candidate-major — so a probe streams one
  /// contiguous column per candidate. The old
  /// query-major nested-vector duplicate is gone (the matrix was stored
  /// twice); query-major reads go through view_time(q, c), which just
  /// strides the candidate-major array.
  struct TimingTable {
    // base_time_ms[q]: query q answered from the base table.
    std::vector<int64_t> base_time_ms;
    // frequency[q]: per-query frequency weight (hot-path copy).
    std::vector<int64_t> frequency;
    // view_time_ms[c * num_queries + q]: query q answered from
    // candidate c; a huge sentinel when c cannot answer q.
    std::vector<int64_t> view_time_ms;
    // ranked_candidates[q]: candidates beating base_time[q], ascending
    // by view_time (ties by index, matching Evaluate()'s scan order).
    std::vector<std::vector<uint32_t>> ranked_candidates;
    // result_bytes[q]: logical result volume of query q.
    std::vector<DataSize> result_bytes;
  };

  SelectionEvaluator(const CubeLattice& lattice, const Workload& workload,
                     const MapReduceSimulator& simulator,
                     const ClusterSpec& cluster,
                     const CloudCostModel& cost_model,
                     const DeploymentSpec& deployment,
                     std::vector<ViewCandidate> candidates);

  const CubeLattice* lattice_;
  Workload workload_;
  const CloudCostModel* cost_model_;
  DeploymentSpec deployment_;
  std::vector<ViewCandidate> candidates_;

  // Immutable after construction; shared with every variant.
  std::shared_ptr<const TimingTable> timing_;

  SubsetEvaluation baseline_;

  /// One coalesced size-change event of the base storage timeline,
  /// pre-filtered to the deployment's storage period.
  struct StorageEvent {
    Months at;
    DataSize delta;
  };
  /// deployment_.base_storage flattened once at construction: the
  /// coalesced (month, delta) events below storage_period, time-ordered.
  /// Every probe replays StorageTimeline::Intervals() over this tiny
  /// flat vector with the subset's duplicated bytes folded in at
  /// month 0 — the identical interval walk and StorageCost calls, minus
  /// the per-probe std::map copy and interval-vector allocation.
  std::vector<StorageEvent> base_storage_events_;

  /// Duplicated-byte totals, ascending, at which the storage bill may
  /// fall: for each base-timeline interval and each flat-bracket edge
  /// followed by a cheaper rate, the smallest total that carries that
  /// interval's volume past the edge. Between two neighbours the bill
  /// never falls as bytes grow (empty under marginal tiers, which never
  /// fall anywhere). What FastTotalCostFloor minimizes over.
  std::vector<int64_t> storage_drops_;

  /// Formula 6 compute bill for `busy` time on the deployment's fleet.
  Money ComputeBill(Duration busy) const;
};

/// \brief Incrementally maintained evaluation of one evolving subset.
///
/// Tracks, across single add/remove moves:
///  * per-query best-view argmin and best time (ties broken toward the
///    base table, matching Evaluate()'s strict-min scan),
///  * the frequency-weighted processing total (Formula 9),
///  * the running materialization / maintenance / duplicated-bytes
///    totals (Formulas 7 and 11),
///  * the Zobrist subset hash (memo-cache key).
///
/// Add() is O(queries); Remove() is O(queries) plus an argmin rescan of
/// the remaining members for the queries that lose their best view. All
/// totals are integer arithmetic, so they equal a from-scratch
/// Evaluate() exactly, not just approximately.
///
/// Searches that back out of an add in last-in-first-out order (the
/// branch-and-bound include edge, a probe-and-revert) use
/// AddUndoable()/UndoAdd() instead of Add()/Remove(): the undo restores
/// the journaled pre-add entries in O(queries the add improved) and
/// never rescans a ranking (DESIGN.md §13.1).
class SubsetState {
 public:
  /// \brief The empty selection. Keeps a reference; `evaluator` must
  /// outlive the state.
  explicit SubsetState(const SelectionEvaluator& evaluator);

  /// \brief Back to the empty selection — equivalent to a freshly
  /// constructed state but without reallocating, for callers that score
  /// many subsets from scratch (the genetic solver's per-individual
  /// rebuild). Drops any open undo frames.
  void Reset();

  /// \brief Adds candidate `c` (must not be a member). No undo frame
  /// may be open.
  void Add(size_t c);
  /// \brief Removes candidate `c` (must be a member). No undo frame
  /// may be open.
  void Remove(size_t c);

  /// \brief Adds candidate `c` (must not be a member) and opens an undo
  /// frame journaling every (query, previous best time, previous argmin)
  /// entry the add overwrites plus the previous totals. Frames nest:
  /// until the matching UndoAdd(), the state may change only through
  /// further AddUndoable()/UndoAdd() pairs.
  void AddUndoable(size_t c);
  /// \brief Closes the newest undo frame, restoring the state exactly
  /// as it was before that frame's AddUndoable(): totals, hash,
  /// membership and every per-query argmin.
  void UndoAdd();

  /// \brief Adds or removes `c`, whichever applies.
  void Toggle(size_t c) { contains(c) ? Remove(c) : Add(c); }

  /// \brief The totals this state would have after Toggle(c), computed
  /// read-only — the move-scoring primitive search loops probe
  /// neighborhoods with (no commit, no revert, no writes).
  SubsetTotals PeekToggle(size_t c) const;

  /// \brief This state's current totals.
  SubsetTotals totals() const {
    return SubsetTotals{processing_, materialization_, maintenance_,
                        view_bytes_, hash_};
  }

  bool contains(size_t c) const { return member_[c] != 0; }
  /// \brief Number of selected candidates.
  size_t size() const { return count_; }
  /// \brief Member indices, ascending (materialized on demand).
  std::vector<size_t> Selected() const;

  /// \brief Order-independent subset hash (matches SubsetHash()).
  uint64_t hash() const { return hash_; }

  /// \brief Formula 9 total with this subset in place.
  Duration processing_time() const { return processing_; }
  /// \brief Formula 7 total.
  Duration materialization_time() const { return materialization_; }
  /// \brief Formula 11 total (per maintenance cycle).
  Duration maintenance_time() const { return maintenance_; }
  /// \brief processing + one-time materialization (see SubsetEvaluation).
  Duration makespan() const { return processing_ + materialization_; }
  /// \brief Duplicated bytes stored for the subset.
  DataSize view_bytes() const { return view_bytes_; }
  /// \brief Query `q`'s best time from the subset or the base table,
  /// in raw milliseconds (unweighted by frequency).
  int64_t best_time_ms(size_t q) const { return best_time_ms_[q]; }

  const SelectionEvaluator& evaluator() const { return *evaluator_; }

 private:
  const SelectionEvaluator* evaluator_;
  // kFromBase in best_view_[q] means the base table answers q best.
  static constexpr uint32_t kFromBase =
      std::numeric_limits<uint32_t>::max();

  std::vector<uint8_t> member_;
  size_t count_ = 0;
  // SoA hot state (DESIGN.md §11): the per-query argmin as two flat
  // arrays the probe loops read and write directly.
  std::vector<uint32_t> best_view_;
  std::vector<int64_t> best_time_ms_;
  Duration processing_;
  Duration materialization_;
  Duration maintenance_;
  DataSize view_bytes_;
  uint64_t hash_ = 0;

  /// One argmin entry an undoable add overwrote.
  struct ArgminEntry {
    uint32_t query;
    uint32_t view;
    int64_t time_ms;
  };
  /// One open AddUndoable(): the candidate, the totals before it, and
  /// where its entries start in undo_entries_.
  struct UndoFrame {
    uint32_t candidate;
    size_t first_entry;
    SubsetTotals totals;
  };
  // The open frames' entries are undo_entries_[0, undo_size_); the
  // buffer past undo_size_ is scratch the next AddUndoable writes.
  std::vector<ArgminEntry> undo_entries_;
  size_t undo_size_ = 0;
  std::vector<UndoFrame> undo_frames_;
};

/// \brief Memo of compact subset evaluations keyed by SubsetHash.
///
/// Stores only what the objectives score on — the two time metrics, the
/// monetary total, and the view bytes — so repeated probes of the same
/// subset (a serving session's requests probing the same region,
/// annealing re-proposing a toggle) skip even the fast incremental cost
/// path. Shared by every solve on one serving session's warm slot; a
/// one-shot solve runs without one.
///
/// Implementation: open-addressing with linear probing over a flat
/// power-of-two slot array. Keys are Zobrist hashes (already avalanche
/// mixed), so the raw key indexes well; a memo probe is a handful of
/// contiguous loads, not a node-based map walk — this sits on the hot
/// path of every solver move.
///
/// Entries are keyed by the 64-bit hash alone — a colliding subset
/// would silently read another subset's entry. The accepted tradeoff:
/// at the millions-of-entries scale a session can accumulate, the
/// collision probability is ~n^2/2^65 (< 1e-6), and final results are
/// immune because Finalize() re-scores through exact Evaluate().
///
/// A second, much smaller table memoizes whole solver picks (DESIGN.md
/// §10.3): a single-objective solver's pick is a pure function of
/// (evaluator, solver, spec) — caches change speed, never a pick (§9.3
/// rule 4) — so "pareto-sweep" stores each roster task it ran to
/// completion under SolvePickKey() and answers the same task on a later
/// sweep from here. Pick keys are exact byte strings, never hashes: a
/// collision would return another task's pick. Like the entries, picks
/// are only valid for the one evaluator the cache serves.
class EvaluationCache {
 public:
  /// \brief The cache's lookup, hit and eviction counts as one value.
  struct AggregateCounts {
    uint64_t lookups = 0;
    uint64_t hits = 0;
    uint64_t evictions = 0;
    uint64_t misses() const { return lookups - hits; }
  };

  struct Entry {
    Duration processing_time;
    Duration makespan;
    Money total_cost;
    /// Duplicated view bytes — carried so cache hits can rebuild the
    /// full Probe (storage constraints, MultiScore) without recomputing.
    DataSize view_bytes;
  };

  /// Default entry cap (~40MB of slots at full load). Long solves used
  /// to grow the table without bound; now reaching the cap drops the
  /// epoch (see Insert) and counts it, so memory stays bounded and the
  /// degradation is visible in telemetry instead of silent.
  static constexpr size_t kDefaultMaxEntries = size_t{1} << 20;

  /// Starts small and doubles on load: besides each serving session's
  /// one cache, annealing and pareto-sweep build a solve-local memo
  /// when their caller has none, so the initial footprint is per-solve
  /// setup cost — a 2^12-slot start cost ~200KB of zeroing per solve.
  /// 2^8 keeps that setup at ~8KB while skipping the first two growth
  /// rehashes of an annealing run (a few thousand distinct subsets).
  explicit EvaluationCache(size_t max_entries = kDefaultMaxEntries)
      : max_entries_(max_entries > 0 ? max_entries : 1) {
    Rehash(1 << 8);
  }

  /// \brief The counts as one value (what a session reports as
  /// `meta.cache_*`).
  AggregateCounts aggregate() const {
    return AggregateCounts{lookups_, hits_, evictions_};
  }

  /// \brief Returns the entry for `key`, or nullptr on a miss.
  const Entry* Find(uint64_t key) const {
    ++lookups_;
    if (key == kEmptySubsetKey) {
      if (!has_empty_) return nullptr;
      ++hits_;
      return &empty_entry_;
    }
    size_t mask = slots_.size() - 1;
    for (size_t i = key & mask;; i = (i + 1) & mask) {
      if (slots_[i].key == kEmptySubsetKey) return nullptr;
      if (slots_[i].key == key) {
        ++hits_;
        return &slots_[i].entry;
      }
    }
  }

  void Insert(uint64_t key, const Entry& entry) {
    if (key == kEmptySubsetKey) {
      empty_entry_ = entry;
      has_empty_ = true;
      return;
    }
    if (size_ >= max_entries_) {
      // Epoch eviction (was: unbounded growth): drop every entry, keep
      // the slot array, count the eviction. Entries are pure functions of
      // their key, so re-misses just recompute — results never change,
      // only speed (DESIGN.md §13.4).
      slots_.assign(slots_.size(), Slot{});
      size_ = 0;
      ++evictions_;
    }
    if ((size_ + 1) * 4 > slots_.size() * 3) Rehash(slots_.size() * 2);
    size_t mask = slots_.size() - 1;
    for (size_t i = key & mask;; i = (i + 1) & mask) {
      if (slots_[i].key == key) return;  // Entries are immutable.
      if (slots_[i].key == kEmptySubsetKey) {
        slots_[i] = Slot{key, entry};
        ++size_;
        return;
      }
    }
  }

  size_t size() const { return size_ + (has_empty_ ? 1 : 0); }
  size_t max_entries() const { return max_entries_; }

  /// Pick-memo cap: about eleven distinct caller constraint sets of the
  /// sweep's 92 roster tasks. Reaching it drops every pick, like the
  /// entry table's epoch, so callers that vary their hard caps cannot
  /// grow the memo without bound.
  static constexpr size_t kMaxPicks = 1024;

  /// \brief The stored pick for `key` (a SolvePickKey()), or nullptr.
  const std::vector<size_t>* FindPick(const std::string& key) const {
    auto it = picks_.find(key);
    return it != picks_.end() ? &it->second : nullptr;
  }

  /// \brief Stores a completed solve's pick; clears the memo first when
  /// it is full. Invalidates pointers FindPick() returned.
  void InsertPick(std::string key, std::vector<size_t> selected) {
    if (picks_.size() >= kMaxPicks) picks_.clear();
    picks_.emplace(std::move(key), std::move(selected));
  }

  /// \brief Every stored pick by key.
  const std::unordered_map<std::string, std::vector<size_t>>& picks() const {
    return picks_;
  }

 private:
  /// SubsetHash({}) == 0; the zero key marks empty slots instead and the
  /// empty subset gets a dedicated side entry.
  static constexpr uint64_t kEmptySubsetKey = 0;

  struct Slot {
    uint64_t key = kEmptySubsetKey;
    Entry entry;
  };

  void Rehash(size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    size_t mask = capacity - 1;
    for (const Slot& slot : old) {
      if (slot.key == kEmptySubsetKey) continue;
      for (size_t i = slot.key & mask;; i = (i + 1) & mask) {
        if (slots_[i].key == kEmptySubsetKey) {
          slots_[i] = slot;
          break;
        }
      }
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t max_entries_ = kDefaultMaxEntries;
  uint64_t evictions_ = 0;
  bool has_empty_ = false;
  Entry empty_entry_;
  // Telemetry bumped by const Find().
  // thread-compat: unsynchronized counters — one cache per task/solver
  // run, per DESIGN.md §9.2.
  mutable uint64_t lookups_ = 0;
  mutable uint64_t hits_ = 0;
  std::unordered_map<std::string, std::vector<size_t>> picks_;
};

}  // namespace cloudview

