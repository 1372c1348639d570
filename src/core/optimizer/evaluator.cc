#include "core/optimizer/evaluator.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace cloudview {

namespace {

// Large enough never to win a min against any base time, small enough
// that (sentinel - best) * frequency cannot overflow int64.
constexpr int64_t kUnanswerableMs = std::numeric_limits<int64_t>::max() / 2;

}  // namespace

SelectionEvaluator::SelectionEvaluator(
    const CubeLattice& lattice, const Workload& workload,
    const MapReduceSimulator& simulator, const ClusterSpec& cluster,
    const CloudCostModel& cost_model, const DeploymentSpec& deployment,
    std::vector<ViewCandidate> candidates)
    : lattice_(&lattice),
      workload_(workload),
      cost_model_(&cost_model),
      deployment_(deployment),
      candidates_(std::move(candidates)) {
  auto timing = std::make_shared<TimingTable>();
  size_t m = workload.size();
  size_t n = candidates_.size();
  timing->base_time_ms.resize(m);
  timing->frequency.resize(m);
  timing->result_bytes.resize(m);
  for (size_t q = 0; q < m; ++q) {
    CuboidId target = workload.query(q).target;
    timing->frequency[q] =
        static_cast<int64_t>(workload.query(q).frequency);
    timing->base_time_ms[q] =
        simulator.QueryTimeFromFact(target, cluster).millis();
    timing->result_bytes[q] = lattice.EstimateSize(target);
  }
  // Candidate-major fill: one contiguous column per candidate, written
  // in the order the probe loops will stream it.
  timing->view_time_ms.assign(m * n, kUnanswerableMs);
  for (size_t c = 0; c < n; ++c) {
    int64_t* column = timing->view_time_ms.data() + c * m;
    for (size_t q = 0; q < m; ++q) {
      CuboidId target = workload.query(q).target;
      if (lattice.CanAnswer(candidates_[c].view, target)) {
        column[q] = simulator
                        .QueryTimeFromView(candidates_[c].view, target,
                                           cluster)
                        .millis();
      }
    }
  }
  timing->ranked_candidates.resize(m);
  for (size_t q = 0; q < m; ++q) {
    for (size_t c = 0; c < n; ++c) {
      if (timing->view_time_ms[c * m + q] < timing->base_time_ms[q]) {
        timing->ranked_candidates[q].push_back(static_cast<uint32_t>(c));
      }
    }
    std::stable_sort(timing->ranked_candidates[q].begin(),
                     timing->ranked_candidates[q].end(),
                     [&](uint32_t a, uint32_t b) {
                       return timing->view_time_ms[a * m + q] <
                              timing->view_time_ms[b * m + q];
                     });
  }
  timing_ = std::move(timing);

  // Flatten the base storage timeline once so a FastTotalCost probe
  // never copies a std::map (see base_storage_events_).
  for (const auto& [at, delta] : deployment_.base_storage.CoalescedEvents(
           deployment_.storage_period)) {
    base_storage_events_.push_back(StorageEvent{at, delta});
  }

  // Where the storage bill can fall (see storage_drops_): a flat-bracket
  // bill drops just past an edge whose next bracket is cheaper. Each
  // interval of the base timeline holds its own base volume, so each
  // edge yields one drop point per distinct interval volume.
  const PricingModel& pricing = cost_model_->pricing();
  if (pricing.storage_billing() == StorageBilling::kFlatBracket) {
    const std::vector<RateTier>& tiers = pricing.storage_schedule().tiers();
    auto add_drops = [&](DataSize base) {
      for (size_t k = 0; k + 1 < tiers.size(); ++k) {
        if (tiers[k + 1].rate_per_gb >= tiers[k].rate_per_gb) continue;
        int64_t past_edge = tiers[k].upper_bound.bytes() + 1 - base.bytes();
        if (past_edge > 0) storage_drops_.push_back(past_edge);
      }
    };
    DataSize size = DataSize::Zero();
    Months cursor = Months::Zero();
    for (const StorageEvent& event : base_storage_events_) {
      if (event.at > cursor) {
        add_drops(size);
        cursor = event.at;
      }
      size += event.delta;
    }
    if (cursor < deployment_.storage_period) add_drops(size);
    std::sort(storage_drops_.begin(), storage_drops_.end());
    storage_drops_.erase(
        std::unique(storage_drops_.begin(), storage_drops_.end()),
        storage_drops_.end());
  }
}

Result<SelectionEvaluator> SelectionEvaluator::CloneWithSunkBuilds(
    const std::vector<size_t>& sunk) const {
  SelectionEvaluator clone = *this;
  for (size_t c : sunk) {
    if (c >= clone.candidates_.size()) {
      return Status::InvalidArgument("sunk candidate index out of range");
    }
    clone.candidates_[c].materialization_time = Duration::Zero();
  }
  return clone;
}

Result<SelectionEvaluator> SelectionEvaluator::CloneWithArchitecture(
    const ArchitectureModel& architecture) const {
  SelectionEvaluator clone = *this;
  clone.deployment_.architecture = architecture;
  // Re-bill the baseline under the new architecture; this also rejects
  // the single_compute_session conflict (CloudCostModel does).
  CV_ASSIGN_OR_RETURN(clone.baseline_, clone.Evaluate({}));
  return clone;
}

Result<SelectionEvaluator> SelectionEvaluator::Create(
    const CubeLattice& lattice, const Workload& workload,
    const MapReduceSimulator& simulator, const ClusterSpec& cluster,
    const CloudCostModel& cost_model, const DeploymentSpec& deployment,
    std::vector<ViewCandidate> candidates) {
  if (workload.empty()) {
    return Status::InvalidArgument("evaluator needs a non-empty workload");
  }
  SelectionEvaluator evaluator(lattice, workload, simulator, cluster,
                               cost_model, deployment,
                               std::move(candidates));
  CV_ASSIGN_OR_RETURN(evaluator.baseline_, evaluator.Evaluate({}));
  return evaluator;
}

Result<SubsetEvaluation> SelectionEvaluator::Evaluate(
    const std::vector<size_t>& selected) const {
  SubsetEvaluation eval;
  eval.selected = selected;
  std::sort(eval.selected.begin(), eval.selected.end());
  for (size_t i = 0; i < eval.selected.size(); ++i) {
    if (eval.selected[i] >= candidates_.size()) {
      return Status::InvalidArgument("candidate index out of range");
    }
    if (i > 0 && eval.selected[i] == eval.selected[i - 1]) {
      return Status::InvalidArgument("duplicate candidate in subset");
    }
  }

  // Per-query best source among the subset (and base).
  for (size_t q = 0; q < workload_.size(); ++q) {
    const QuerySpec& spec = workload_.query(q);
    Duration best = base_time(q);
    for (size_t c : eval.selected) {
      if (view_time(q, c) < best) best = view_time(q, c);
    }
    eval.workload_input.queries.push_back(QueryCostInput{
        spec.name, best, timing_->result_bytes[q], DataSize::Zero(),
        spec.frequency});
  }

  for (size_t c : eval.selected) {
    const ViewCandidate& candidate = candidates_[c];
    eval.view_input.views.push_back(
        ViewCostInput{candidate.name, candidate.materialization_time,
                      candidate.maintenance_time, candidate.size});
  }

  eval.processing_time = eval.workload_input.TotalProcessingTime();
  eval.makespan =
      eval.processing_time + eval.view_input.TotalMaterializationTime();

  if (eval.selected.empty()) {
    CV_ASSIGN_OR_RETURN(
        eval.cost,
        cost_model_->CostWithoutViews(eval.workload_input, deployment_));
  } else {
    CV_ASSIGN_OR_RETURN(
        eval.cost,
        cost_model_->CostWithViews(eval.workload_input, eval.view_input,
                                   deployment_));
  }
  return eval;
}

Money SelectionEvaluator::ComputeBill(Duration busy) const {
  return cost_model_->pricing().ComputeCost(deployment_.instance, busy,
                                            deployment_.nb_instances);
}

Money SelectionEvaluator::FastTotalCost(const SubsetTotals& totals) const {
  // Compute charges (Formula 6): functions of the three time totals only.
  // Mirrors CloudCostModel::CostWithViews — in the single-session mode
  // the per-activity exact charges cancel against the rounding surcharge,
  // so the compute total is the rounded bill of the whole busy span.
  const ArchitectureModel& arch = deployment_.architecture;
  Money compute;
  if (deployment_.single_compute_session) {
    // single_compute_session never pairs with a non-identity
    // architecture: Create()/CloneWithArchitecture() reject the combo
    // through CloudCostModel before a state can probe it.
    Duration busy = totals.processing + totals.materialization +
                    totals.maintenance * deployment_.maintenance_cycles;
    compute = ComputeBill(busy);
  } else if (arch.is_identity()) {
    compute = ComputeBill(totals.processing);
    if (!totals.materialization.is_zero()) {
      compute += ComputeBill(totals.materialization);
    }
    if (deployment_.maintenance_cycles != 0 &&
        !totals.maintenance.is_zero()) {
      compute += ComputeBill(totals.maintenance) *
                 deployment_.maintenance_cycles;
    }
  } else {
    // The ApplyArchitecture mirror (cloud_cost_model.cc): identical
    // ScaleBy chains on the per-activity bills, cycles multiplied in
    // BEFORE the fanout scaling — the order the exact path uses, and
    // rational ScaleBy floors, so order matters for the bit-equality
    // the property suite pins. ComputeBill(0) == 0
    // exactly, so the zero-total skips below change nothing.
    Money processing = ComputeBill(totals.processing)
                           .ScaleBy(arch.compute_num, arch.compute_den);
    Money materialization;
    if (!totals.materialization.is_zero()) {
      materialization =
          ComputeBill(totals.materialization)
              .ScaleBy(arch.fanout_num, arch.fanout_den);
    }
    Money maintenance;
    if (deployment_.maintenance_cycles != 0 &&
        !totals.maintenance.is_zero()) {
      maintenance = (ComputeBill(totals.maintenance) *
                     deployment_.maintenance_cycles)
                        .ScaleBy(arch.fanout_num, arch.fanout_den);
    }
    compute = processing + materialization + maintenance +
              (materialization + maintenance)
                  .ScaleBy(arch.interruption_num, arch.interruption_den);
  }

  // Storage (Formula 5): base timeline plus the duplicated bytes from
  // month 0. Replay StorageTimeline::Intervals() over the pre-flattened
  // base events with the subset's bytes folded in at month 0: identical
  // walk, identical StorageCost calls in the same order, but no
  // per-probe timeline copy or interval vector.
  // Neither check below can fire on a built evaluator: Create() and
  // CloneWithArchitecture() bill the baseline through
  // StorageTimeline::Intervals(), which rejects a negative period and a
  // timeline that dips below zero; a probe only adds non-negative view
  // bytes at month 0, and CloneWithSunkBuilds() changes build times only.
  Months end = deployment_.storage_period;
  CV_DCHECK(!end.is_negative()) << "storage period end before month 0";
  Money storage = Money::Zero();
  DataSize size = totals.view_bytes;
  Months cursor = Months::Zero();
  for (const StorageEvent& event : base_storage_events_) {
    if (event.at > cursor) {
      if (!size.is_zero()) {
        storage += cost_model_->storage().ConstantCost(size,
                                                       event.at - cursor);
      }
      cursor = event.at;
    }
    size += event.delta;
    CV_DCHECK(!size.is_negative())
        << "storage timeline deletes more data than it holds";
  }
  if (cursor < end && !size.is_zero()) {
    storage += cost_model_->storage().ConstantCost(size, end - cursor);
  }
  if (!arch.is_identity()) {
    // Replica/durability storage scaling and the inter-AZ egress on
    // replicated writes: the same chains as ApplyArchitecture.
    storage = storage.ScaleBy(arch.storage_num, arch.storage_den);
    if (arch.cross_az_copies > 0) {
      DataSize written = ReplicatedWriteBytes(
          deployment_.ingress.initial_dataset, totals.view_bytes,
          deployment_.maintenance_cycles);
      storage += cost_model_->pricing().InterAzCost(DataSize::FromBytes(
          written.bytes() * arch.cross_az_copies));
    }
  }

  // Transfer (Section 4.1) and request charges: views never leave the
  // cloud and the workload issues the same API calls, so both are the
  // baseline's, whatever the subset.
  return compute + storage + transfer_cost() + request_cost();
}

Money SelectionEvaluator::FastTotalCostFloor(const SubsetTotals& totals,
                                             DataSize max_view_bytes) const {
  // Between two drop points the storage bill never falls as bytes grow,
  // so its minimum over the range sits at the range's start or at one
  // of the drop points inside it. The time totals are the same at every
  // byte total tried, so comparing whole bills compares storage.
  auto drop = std::upper_bound(storage_drops_.begin(), storage_drops_.end(),
                               totals.view_bytes.bytes());
  if (drop == storage_drops_.end() || *drop > max_view_bytes.bytes()) {
    return FastTotalCost(totals);
  }
  Money floor = FastTotalCost(totals);
  SubsetTotals at = totals;
  for (; drop != storage_drops_.end() && *drop <= max_view_bytes.bytes();
       ++drop) {
    at.view_bytes = DataSize::FromBytes(*drop);
    floor = std::min(floor, FastTotalCost(at));
  }
  return floor;
}

Money SelectionEvaluator::FastTotalCost(const SubsetState& state) const {
  CV_CHECK(&state.evaluator() == this) << "state built on another evaluator";
  return FastTotalCost(state.totals());
}

Duration SelectionEvaluator::StandaloneProcessingSaving(size_t c) const {
  CV_CHECK(c < candidates_.size()) << "candidate index out of range";
  const int64_t* column = view_time_ms_of(c);
  const int64_t* base = base_time_ms_data();
  const int64_t* freq = frequency_data();
  int64_t saved_ms = 0;
  for (size_t q = 0; q < workload_.size(); ++q) {
    if (column[q] < base[q]) saved_ms += (base[q] - column[q]) * freq[q];
  }
  return Duration::FromMillis(saved_ms);
}

Result<Money> SelectionEvaluator::StandaloneCostDelta(size_t c) const {
  if (c >= candidates_.size()) {
    return Status::InvalidArgument("candidate index out of range");
  }
  CV_ASSIGN_OR_RETURN(SubsetEvaluation solo, Evaluate({c}));
  return solo.cost.total() - baseline_.cost.total();
}

// ---------------------------------------------------------------------------
// SubsetState: incremental argmin + running totals, SoA over flat
// millisecond arrays so Add/Peek are one pass over a timing column.

SubsetState::SubsetState(const SelectionEvaluator& evaluator)
    : evaluator_(&evaluator),
      member_(evaluator.num_candidates(), 0),
      best_view_(evaluator.num_queries(), kFromBase),
      best_time_ms_(evaluator.num_queries()) {
  const int64_t* base = evaluator.base_time_ms_data();
  const int64_t* freq = evaluator.frequency_data();
  int64_t processing_ms = 0;
  for (size_t q = 0; q < best_time_ms_.size(); ++q) {
    best_time_ms_[q] = base[q];
    processing_ms += base[q] * freq[q];
  }
  processing_ = Duration::FromMillis(processing_ms);
}

void SubsetState::Reset() {
  undo_size_ = 0;
  undo_frames_.clear();
  std::fill(member_.begin(), member_.end(), uint8_t{0});
  count_ = 0;
  hash_ = 0;
  materialization_ = Duration::Zero();
  maintenance_ = Duration::Zero();
  view_bytes_ = DataSize::Zero();
  const int64_t* base = evaluator_->base_time_ms_data();
  const int64_t* freq = evaluator_->frequency_data();
  int64_t processing_ms = 0;
  for (size_t q = 0; q < best_time_ms_.size(); ++q) {
    best_view_[q] = kFromBase;
    best_time_ms_[q] = base[q];
    processing_ms += base[q] * freq[q];
  }
  processing_ = Duration::FromMillis(processing_ms);
}

void SubsetState::Add(size_t c) {
  CV_CHECK(c < member_.size()) << "candidate index out of range";
  CV_CHECK(!member_[c]) << "candidate " << c << " already selected";
  CV_CHECK(undo_frames_.empty()) << "Add inside an open undo frame";
  member_[c] = 1;
  ++count_;
  hash_ ^= CandidateToken(c);

  const ViewCandidate& candidate = evaluator_->candidates()[c];
  materialization_ += candidate.materialization_time;
  maintenance_ += candidate.maintenance_time;
  view_bytes_ += candidate.size;

  // Formula 9 delta plus the argmin commit on every improved query.
  const int64_t* column = evaluator_->view_time_ms_of(c);
  const int64_t* freq = evaluator_->frequency_data();
  int64_t* best = best_time_ms_.data();
  uint32_t* view = best_view_.data();
  size_t m = best_time_ms_.size();
  int64_t delta_ms = 0;
  for (size_t q = 0; q < m; ++q) {
    if (column[q] < best[q]) {
      delta_ms += (column[q] - best[q]) * freq[q];
      best[q] = column[q];
      view[q] = static_cast<uint32_t>(c);
    }
  }
  processing_ += Duration::FromMillis(delta_ms);
}

void SubsetState::Remove(size_t c) {
  CV_CHECK(c < member_.size()) << "candidate index out of range";
  CV_CHECK(member_[c]) << "candidate " << c << " not selected";
  CV_CHECK(undo_frames_.empty()) << "Remove inside an open undo frame";
  member_[c] = 0;
  --count_;
  hash_ ^= CandidateToken(c);

  const ViewCandidate& candidate = evaluator_->candidates()[c];
  materialization_ -= candidate.materialization_time;
  maintenance_ -= candidate.maintenance_time;
  view_bytes_ -= candidate.size;

  // Only queries that lost their argmin need repair. The replacement is
  // the first surviving member on the query's precomputed ranking
  // (ascending view_time), or the base table when none survives — the
  // same minimum Evaluate()'s strict-min pass finds, located in
  // expected O(1) instead of a member scan.
  const int64_t* base = evaluator_->base_time_ms_data();
  const int64_t* freq = evaluator_->frequency_data();
  int64_t delta_ms = 0;
  size_t m = best_time_ms_.size();
  for (size_t q = 0; q < m; ++q) {
    if (best_view_[q] != c) continue;
    int64_t best = base[q];
    uint32_t argmin = kFromBase;
    for (uint32_t ranked : evaluator_->ranked_candidates(q)) {
      if (member_[ranked]) {
        best = evaluator_->view_time(q, ranked).millis();
        argmin = ranked;
        break;
      }
    }
    delta_ms += (best - best_time_ms_[q]) * freq[q];
    best_time_ms_[q] = best;
    best_view_[q] = argmin;
  }
  processing_ += Duration::FromMillis(delta_ms);
}

void SubsetState::AddUndoable(size_t c) {
  CV_CHECK(c < member_.size()) << "candidate index out of range";
  CV_CHECK(!member_[c]) << "candidate " << c << " already selected";
  size_t m = best_time_ms_.size();
  undo_frames_.push_back(
      UndoFrame{static_cast<uint32_t>(c), undo_size_, totals()});
  // Room for one entry per query up front, so the loop below writes
  // without capacity checks; the buffer only grows (to the deepest
  // nesting seen), never shrinks.
  if (undo_entries_.size() < undo_size_ + m) {
    undo_entries_.resize(undo_size_ + m);
  }
  member_[c] = 1;
  ++count_;
  hash_ ^= CandidateToken(c);

  const ViewCandidate& candidate = evaluator_->candidates()[c];
  materialization_ += candidate.materialization_time;
  maintenance_ += candidate.maintenance_time;
  view_bytes_ += candidate.size;

  // Add's loop, journaling each argmin entry before overwriting it.
  const int64_t* column = evaluator_->view_time_ms_of(c);
  const int64_t* freq = evaluator_->frequency_data();
  int64_t* best = best_time_ms_.data();
  uint32_t* view = best_view_.data();
  ArgminEntry* journal = undo_entries_.data() + undo_size_;
  size_t journaled = 0;
  int64_t delta_ms = 0;
  for (size_t q = 0; q < m; ++q) {
    if (column[q] < best[q]) {
      journal[journaled++] =
          ArgminEntry{static_cast<uint32_t>(q), view[q], best[q]};
      delta_ms += (column[q] - best[q]) * freq[q];
      best[q] = column[q];
      view[q] = static_cast<uint32_t>(c);
    }
  }
  undo_size_ += journaled;
  processing_ += Duration::FromMillis(delta_ms);
}

void SubsetState::UndoAdd() {
  CV_CHECK(!undo_frames_.empty()) << "UndoAdd without an open frame";
  const UndoFrame& frame = undo_frames_.back();
  for (size_t i = frame.first_entry; i < undo_size_; ++i) {
    const ArgminEntry& entry = undo_entries_[i];
    best_view_[entry.query] = entry.view;
    best_time_ms_[entry.query] = entry.time_ms;
  }
  undo_size_ = frame.first_entry;
  member_[frame.candidate] = 0;
  --count_;
  processing_ = frame.totals.processing;
  materialization_ = frame.totals.materialization;
  maintenance_ = frame.totals.maintenance;
  view_bytes_ = frame.totals.view_bytes;
  hash_ = frame.totals.hash;
  undo_frames_.pop_back();
}

SubsetTotals SubsetState::PeekToggle(size_t c) const {
  CV_CHECK(c < member_.size()) << "candidate index out of range";
  SubsetTotals totals{processing_, materialization_, maintenance_,
                      view_bytes_, hash_ ^ CandidateToken(c)};
  const ViewCandidate& candidate = evaluator_->candidates()[c];
  if (!member_[c]) {
    totals.materialization += candidate.materialization_time;
    totals.maintenance += candidate.maintenance_time;
    totals.view_bytes += candidate.size;
    // The read-only Formula 9 delta: Add's loop without the writes.
    const int64_t* column = evaluator_->view_time_ms_of(c);
    const int64_t* best = best_time_ms_.data();
    const int64_t* freq = evaluator_->frequency_data();
    size_t m = best_time_ms_.size();
    int64_t delta_ms = 0;
    for (size_t q = 0; q < m; ++q) {
      if (column[q] < best[q]) {
        delta_ms += (column[q] - best[q]) * freq[q];
      }
    }
    totals.processing += Duration::FromMillis(delta_ms);
  } else {
    totals.materialization -= candidate.materialization_time;
    totals.maintenance -= candidate.maintenance_time;
    totals.view_bytes -= candidate.size;
    const int64_t* base = evaluator_->base_time_ms_data();
    const int64_t* freq = evaluator_->frequency_data();
    int64_t delta_ms = 0;
    for (size_t q = 0; q < best_time_ms_.size(); ++q) {
      if (best_view_[q] != c) continue;
      int64_t best = base[q];
      for (uint32_t ranked : evaluator_->ranked_candidates(q)) {
        if (ranked != c && member_[ranked]) {
          best = evaluator_->view_time(q, ranked).millis();
          break;
        }
      }
      delta_ms += (best - best_time_ms_[q]) * freq[q];
    }
    totals.processing += Duration::FromMillis(delta_ms);
  }
  return totals;
}

std::vector<size_t> SubsetState::Selected() const {
  std::vector<size_t> out;
  out.reserve(count_);
  for (size_t c = 0; c < member_.size(); ++c) {
    if (member_[c]) out.push_back(c);
  }
  return out;
}

}  // namespace cloudview
