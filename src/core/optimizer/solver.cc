#include "core/optimizer/solver.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/str_format.h"

namespace cloudview {

namespace {

constexpr size_t kNoMove = static_cast<size_t>(-1);

int64_t SaturatingAdd(int64_t a, int64_t b) {
  int64_t sum;
  if (__builtin_add_overflow(a, b, &sum)) {
    return a > 0 ? std::numeric_limits<int64_t>::max()
                 : std::numeric_limits<int64_t>::min();
  }
  return sum;
}

}  // namespace

// ---------------------------------------------------------------------------
// SolverContext

SolverContext::SolverContext(const SelectionEvaluator& evaluator,
                             const ObjectiveSpec& spec,
                             EvaluationCache* cache)
    : evaluator_(&evaluator), spec_(&spec), cache_(cache) {
  const SubsetEvaluation& base = evaluator.baseline();
  t0_millis_ = spec.mv3_reference_time.is_zero()
                   ? static_cast<double>(TimeMetric(base).millis())
                   : static_cast<double>(spec.mv3_reference_time.millis());
  c0_micros_ = spec.mv3_reference_cost.is_zero()
                   ? static_cast<double>(base.cost.total().micros())
                   : static_cast<double>(spec.mv3_reference_cost.micros());
  CV_CHECK(t0_millis_ > 0.0 && c0_micros_ > 0.0)
      << "degenerate baseline for MV3";
}

double SolverContext::TradeoffObjective(Duration time, Money cost) const {
  double t = static_cast<double>(time.millis());
  double c = static_cast<double>(cost.micros());
  return spec_->alpha * (t / t0_millis_) +
         (1.0 - spec_->alpha) * (c / c0_micros_);
}

Money SolverContext::MonthlyCost(Money total) const {
  Months period = evaluator_->deployment().storage_period;
  if (period.milli() <= 0) return total;
  return total.ScaleBy(Months::kMilliPerMonth, period.milli());
}

int64_t SolverContext::HardViolation(const Probe& probe) const {
  int64_t violation = 0;
  if (spec_->max_monthly_cost > Money::Zero()) {
    violation = SaturatingAdd(
        violation,
        std::max<int64_t>(
            0, (MonthlyCost(probe.cost) - spec_->max_monthly_cost)
                   .micros()));
  }
  if (spec_->max_storage > DataSize::Zero()) {
    violation = SaturatingAdd(
        violation, std::max<int64_t>(
                       0, (probe.storage - spec_->max_storage).bytes()));
  }
  if (spec_->max_makespan > Duration::Zero()) {
    violation = SaturatingAdd(
        violation,
        std::max<int64_t>(
            0, (probe.makespan - spec_->max_makespan).millis()));
  }
  return violation;
}

double SolverContext::HardViolationBlend(const Probe& probe) const {
  double blend = 0.0;
  if (spec_->max_monthly_cost > Money::Zero()) {
    double excess = static_cast<double>(
        (MonthlyCost(probe.cost) - spec_->max_monthly_cost).micros());
    if (excess > 0.0) {
      blend +=
          excess / static_cast<double>(spec_->max_monthly_cost.micros());
    }
  }
  if (spec_->max_storage > DataSize::Zero()) {
    double excess = static_cast<double>(
        (probe.storage - spec_->max_storage).bytes());
    if (excess > 0.0) {
      blend += excess / static_cast<double>(spec_->max_storage.bytes());
    }
  }
  if (spec_->max_makespan > Duration::Zero()) {
    double excess = static_cast<double>(
        (probe.makespan - spec_->max_makespan).millis());
    if (excess > 0.0) {
      blend += excess / static_cast<double>(spec_->max_makespan.millis());
    }
  }
  return blend;
}

bool SolverContext::ScenarioFeasible(Duration time, Money cost) const {
  switch (spec_->scenario) {
    case Scenario::kMV1BudgetLimit:
      return cost <= spec_->budget_limit;
    case Scenario::kMV2TimeLimit:
      return time <= spec_->time_limit;
    case Scenario::kMV3Tradeoff:
      return true;
  }
  return true;
}

bool SolverContext::Feasible(const Probe& probe) const {
  return ScenarioFeasible(probe.time, probe.cost) &&
         HardViolation(probe) == 0;
}

SolverContext::Score SolverContext::ScoreOf(const Probe& probe) const {
  Score score = ScenarioScore(probe.time, probe.cost);
  score[0] = SaturatingAdd(score[0], HardViolation(probe));
  return score;
}

SolverContext::Score SolverContext::ScenarioScore(Duration time,
                                                  Money cost) const {
  switch (spec_->scenario) {
    case Scenario::kMV1BudgetLimit: {
      // Respect the budget, then minimize time, then prefer cheaper.
      int64_t violation = std::max<int64_t>(
          0, (cost - spec_->budget_limit).micros());
      return {violation, time.millis(), cost.micros()};
    }
    case Scenario::kMV2TimeLimit: {
      // Get under the limit, then cheapen, then prefer faster.
      int64_t violation =
          std::max<int64_t>(0, (time - spec_->time_limit).millis());
      return {violation, cost.micros(), time.millis()};
    }
    case Scenario::kMV3Tradeoff: {
      // The blend is a double; scale to fixed point for the
      // lexicographic comparator (1e-12 resolution is far below any
      // real difference).
      double objective = TradeoffObjective(time, cost);
      return {0, static_cast<int64_t>(std::llround(objective * 1e12)),
              cost.micros()};
    }
  }
  return {0, 0, 0};
}

SolverContext::Probe SolverContext::ProbeTotals(
    const SubsetTotals& totals) {
  if (const EvaluationCache::Entry* entry = CachedEntry(totals.hash)) {
    ++counters_.cache_hits;
    return ProbeOfEntry(*entry);
  }
  return ProbeTotalsMiss(totals);
}

SolverContext::Probe SolverContext::ProbeTotalsMiss(
    const SubsetTotals& totals) {
  ++counters_.incremental_probes;
  Money cost = evaluator_->FastTotalCost(totals);
  if (cache_ != nullptr && use_cache_) {
    cache_->Insert(totals.hash, {totals.processing, totals.makespan(),
                                 cost, totals.view_bytes});
  }
  return Probe{TimeMetric(totals.processing, totals.makespan()),
               totals.makespan(), cost, totals.view_bytes};
}

SolverContext::Probe SolverContext::ProbeState(const SubsetState& state) {
  return ProbeTotals(state.totals());
}

SolverContext::Score SolverContext::ScoreState(const SubsetState& state) {
  return ScoreOf(ProbeState(state));
}

SolverContext::Probe SolverContext::ProbeToggle(const SubsetState& state,
                                               size_t c) {
  // Hash-first: the toggled subset's memo key is one XOR away, so a
  // cache hit never pays the O(queries) peek.
  if (const EvaluationCache::Entry* entry =
          CachedEntry(state.hash() ^ CandidateToken(c))) {
    ++counters_.cache_hits;
    return ProbeOfEntry(*entry);
  }
  return ProbeTotalsMiss(state.PeekToggle(c));
}

void SolverContext::ProbeToggleBatch(const SubsetState& state,
                                     std::span<const size_t> candidates,
                                     std::vector<Probe>& out) {
  out.resize(candidates.size());
  // Split the batch by memo state: every hit resolves in one tight
  // pass, then each miss pays its O(queries) peek. Every candidate has
  // its own memo key, so answering the hits first changes no count.
  scratch_miss_.clear();
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (const EvaluationCache::Entry* entry =
            CachedEntry(state.hash() ^ CandidateToken(candidates[i]))) {
      ++counters_.cache_hits;
      out[i] = ProbeOfEntry(*entry);
    } else {
      scratch_miss_.push_back(i);
    }
  }
  for (size_t i : scratch_miss_) {
    out[i] = ProbeTotalsMiss(state.PeekToggle(candidates[i]));
  }
}

Result<SubsetEvaluation> SolverContext::Evaluate(
    const std::vector<size_t>& selected) {
  ++counters_.full_evaluations;
  return evaluator_->Evaluate(selected);
}

void SolverContext::HillClimb(SubsetState& state, bool with_swaps) {
  Score current_score = ScoreState(state);

  if (scratch_iota_.size() != num_candidates()) {
    scratch_iota_.resize(num_candidates());
    for (size_t c = 0; c < num_candidates(); ++c) scratch_iota_[c] = c;
  }

  bool improved = true;
  while (improved) {
    // Cancellation poll (DESIGN.md §14): stop improving, keep the state
    // where it stands — the caller finalizes the incumbent.
    if (Cancelled()) return;
    improved = false;
    Score best_score = current_score;
    size_t best_add = kNoMove;
    size_t best_remove = kNoMove;

    // Single add/remove moves, probed read-only in one batched pass.
    // Scanning the probes in ascending candidate order with a strict <
    // keeps the chosen move identical to the old one-at-a-time loop.
    ProbeToggleBatch(state, scratch_iota_, scratch_probes_);
    for (size_t c = 0; c < num_candidates(); ++c) {
      Score trial = ScoreOf(scratch_probes_[c]);
      if (trial < best_score) {
        best_score = trial;
        best_add = state.contains(c) ? kNoMove : c;
        best_remove = state.contains(c) ? c : kNoMove;
        improved = true;
      }
    }

    // Swap moves (remove one member, add one non-member): the
    // neighborhood that escapes same-size plateaus single toggles
    // cannot cross (arXiv 2606.03772). One committed removal per
    // member; the adds are one batched read-only peek per member.
    if (with_swaps) {
      std::vector<size_t> members = state.Selected();
      for (size_t out : members) {
        state.Remove(out);
        scratch_swap_ins_.clear();
        for (size_t in = 0; in < num_candidates(); ++in) {
          if (in == out || state.contains(in)) continue;
          scratch_swap_ins_.push_back(in);
        }
        ProbeToggleBatch(state, scratch_swap_ins_, scratch_probes_);
        for (size_t j = 0; j < scratch_swap_ins_.size(); ++j) {
          Score trial = ScoreOf(scratch_probes_[j]);
          if (trial < best_score) {
            best_score = trial;
            best_add = scratch_swap_ins_[j];
            best_remove = out;
            improved = true;
          }
        }
        state.Add(out);
      }
    }

    if (improved) {
      if (best_remove != kNoMove) state.Remove(best_remove);
      if (best_add != kNoMove) state.Add(best_add);
      current_score = best_score;
    }
  }
}

Result<SelectionResult> SolverContext::Finalize(
    const std::vector<size_t>& selected) {
  CV_ASSIGN_OR_RETURN(SubsetEvaluation eval, Evaluate(selected));
  SelectionResult result;
  Probe probe = ProbeOf(eval);
  result.time = probe.time;
  result.feasible = Feasible(probe);
  result.objective_value = TradeoffObjective(probe.time, probe.cost);
  result.multi = MultiScoreOf(probe);
  result.evaluation = std::move(eval);
  // A truncated solve is still exactly evaluated — but flagged, with no
  // certificate by default (branch-and-bound overwrites gap_fraction
  // with its unexplored-bound certificate).
  result.cancelled = Cancelled();
  result.gap_fraction = result.cancelled ? 1.0 : 0.0;
  return result;
}

std::string SolvePickKey(std::string_view solver, const ObjectiveSpec& spec) {
  // A new ObjectiveSpec field changes this size (LP64, libstdc++): decide
  // whether it changes a single-objective pick, and append it if so.
  static_assert(sizeof(ObjectiveSpec) == 152,
                "ObjectiveSpec changed: review SolvePickKey");
  std::string key(solver);
  key.push_back('\0');  // Registry names hold no NUL.
  auto append = [&key](auto value) {
    key.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  append(spec.scenario);
  append(spec.budget_limit.micros());
  append(spec.time_limit.millis());
  append(spec.alpha);
  append(spec.time_includes_materialization);
  append(spec.mv3_reference_time.millis());
  append(spec.mv3_reference_cost.micros());
  append(spec.max_monthly_cost.micros());
  append(spec.max_storage.bytes());
  append(spec.max_makespan.millis());
  return key;
}

// ---------------------------------------------------------------------------
// SolverRegistry

SolverRegistry& SolverRegistry::Global() {
  static SolverRegistry* registry = new SolverRegistry();
  return *registry;
}

Status SolverRegistry::Register(std::unique_ptr<Solver> solver) {
  CV_CHECK(solver != nullptr) << "null solver";
  if (Contains(solver->name())) {
    return Status::AlreadyExists(
        StrFormat("solver '%s' already registered",
                  std::string(solver->name()).c_str()));
  }
  solvers_.push_back(std::move(solver));
  return Status::OK();
}

Result<const Solver*> SolverRegistry::Find(std::string_view name) const {
  for (const auto& solver : solvers_) {
    if (solver->name() == name) return solver.get();
  }
  std::string known;
  for (const std::string& n : Names()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  return Status::NotFound(StrFormat("no solver named '%s' (registered: %s)",
                                    std::string(name).c_str(),
                                    known.c_str()));
}

bool SolverRegistry::Contains(std::string_view name) const {
  for (const auto& solver : solvers_) {
    if (solver->name() == name) return true;
  }
  return false;
}

std::vector<std::string> SolverRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(solvers_.size());
  for (const auto& solver : solvers_) {
    names.emplace_back(solver->name());
  }
  std::sort(names.begin(), names.end());
  return names;
}

namespace internal {

SolverRegistrar::SolverRegistrar(std::unique_ptr<Solver> solver) {
  Status status = SolverRegistry::Global().Register(std::move(solver));
  CV_CHECK(status.ok()) << status.ToString();
}

}  // namespace internal

}  // namespace cloudview
