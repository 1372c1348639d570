#include "workload/timeline.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "common/str_format.h"

namespace cloudview {

namespace {

/// Scales every frequency by `factor`, rounding to nearest, never below
/// `floor`.
void ScaleFrequencies(Workload& workload, double factor, uint64_t floor) {
  std::vector<QuerySpec> queries = workload.queries();
  for (QuerySpec& q : queries) {
    double scaled = static_cast<double>(q.frequency) * factor;
    uint64_t rounded =
        static_cast<uint64_t>(std::llround(std::max(scaled, 0.0)));
    q.frequency = std::max(rounded, floor);
  }
  workload = Workload(std::move(queries));
}

}  // namespace

Status FrequencyDecayDrift::Apply(const CubeLattice& lattice, Rng& rng,
                                  TimelinePeriod& period) const {
  (void)lattice;
  (void)rng;  // Deterministic model: decay needs no draws.
  if (factor_ <= 0.0 || factor_ > 1.0) {
    return Status::InvalidArgument(
        StrFormat("decay factor %.3f outside (0, 1]", factor_));
  }
  ScaleFrequencies(period.workload, factor_, floor_);
  return Status::OK();
}

Status SeasonalSpikeDrift::Apply(const CubeLattice& lattice, Rng& rng,
                                 TimelinePeriod& period) const {
  (void)lattice;
  (void)rng;  // Deterministic model: the spike schedule needs no draws.
  if (season_length_ == 0) {
    return Status::InvalidArgument("season length must be positive");
  }
  if (amplitude_ < 0.0) {
    return Status::InvalidArgument("spike amplitude must be >= 0");
  }
  if (period.index % season_length_ != phase_ % season_length_) {
    return Status::OK();
  }
  ScaleFrequencies(period.workload, 1.0 + amplitude_, 1);
  return Status::OK();
}

Status QueryChurnDrift::Apply(const CubeLattice& lattice, Rng& rng,
                              TimelinePeriod& period) const {
  if (rate_ < 0.0 || rate_ > 1.0) {
    return Status::InvalidArgument(
        StrFormat("churn rate %.3f outside [0, 1]", rate_));
  }
  // The lattice's coarse-to-fine order, as in workload/generator.cc:
  // the Zipf head sits on the coarse roll-ups analysts mostly ask for.
  std::vector<CuboidId> nodes;
  nodes.reserve(lattice.num_nodes());
  for (CuboidId id : lattice.CoarseToFine()) {
    if (id == lattice.base_id()) continue;  // Full scans churn nowhere.
    nodes.push_back(id);
  }
  if (nodes.empty()) {
    return Status::InvalidArgument(
        "lattice has no aggregate cuboids to churn to");
  }
  ZipfDistribution dist(nodes.size(), cuboid_skew_);

  std::vector<QuerySpec> queries = period.workload.queries();
  for (QuerySpec& q : queries) {
    if (!rng.Bernoulli(rate_)) continue;
    CuboidId fresh = nodes[dist.Sample(rng)];
    q.target = fresh;
    q.name = StrFormat("profit per %s", lattice.NameOf(fresh).c_str());
    // Frequency is inherited: churn relocates load, it does not add any.
  }
  period.workload = Workload(std::move(queries));
  return Status::OK();
}

Status DatasetGrowthDrift::Apply(const CubeLattice& lattice, Rng& rng,
                                 TimelinePeriod& period) const {
  (void)rng;  // Deterministic model: growth is a fixed fraction.
  if (growth_per_period_ < 0.0) {
    return Status::InvalidArgument("dataset growth must be >= 0");
  }
  DataSize base = lattice.fact_scan_size();
  period.base_growth += DataSize::FromBytes(static_cast<int64_t>(
      static_cast<double>(base.bytes()) * growth_per_period_));
  return Status::OK();
}

Result<WorkloadTimeline> WorkloadTimeline::Generate(
    const CubeLattice& lattice, const Workload& base,
    std::vector<std::unique_ptr<DriftModel>> drift,
    const TimelineOptions& options) {
  if (options.num_periods == 0) {
    return Status::InvalidArgument("timeline needs >= 1 period");
  }
  if (!(options.period_length > Months::Zero())) {
    return Status::InvalidArgument("period length must be positive");
  }
  if (base.empty()) {
    return Status::InvalidArgument("base workload is empty");
  }
  for (const std::unique_ptr<DriftModel>& model : drift) {
    if (model == nullptr) {
      return Status::InvalidArgument("null drift model");
    }
  }

  Rng master(options.seed);
  std::vector<TimelinePeriod> periods;
  periods.reserve(options.num_periods);
  // `carried` accumulates the persistent drift (decay, churn); transient
  // effects (seasonal spikes) apply to the emitted period only.
  Workload carried = base;
  for (size_t p = 0; p < options.num_periods; ++p) {
    // One forked stream per period: adding a drift model changes this
    // period's draws, not every later period's.
    Rng rng = master.Fork();
    TimelinePeriod persistent;
    persistent.index = p;
    persistent.workload = carried;
    for (const std::unique_ptr<DriftModel>& model : drift) {
      if (model->transient()) continue;
      CV_RETURN_IF_ERROR(model->Apply(lattice, rng, persistent));
    }
    carried = persistent.workload;

    TimelinePeriod emitted = persistent;
    for (const std::unique_ptr<DriftModel>& model : drift) {
      if (!model->transient()) continue;
      CV_RETURN_IF_ERROR(model->Apply(lattice, rng, emitted));
    }
    periods.push_back(std::move(emitted));
  }
  return WorkloadTimeline(std::move(periods), options.period_length);
}

const TimelinePeriod& WorkloadTimeline::period(size_t p) const {
  CV_CHECK(p < periods_.size()) << "period index out of range";
  return periods_[p];
}

double WorkloadTimeline::Drift(const Workload& a, const Workload& b) {
  // Ordered maps: the L1 reduction below accumulates doubles in
  // iteration order, and unordered_map order varies across standard
  // libraries — the sum must not (cloudview-lint rule D2).
  std::map<CuboidId, double> share_a;
  std::map<CuboidId, double> share_b;
  double total_a = 0.0;
  double total_b = 0.0;
  for (const QuerySpec& q : a.queries()) {
    total_a += static_cast<double>(q.frequency);
  }
  for (const QuerySpec& q : b.queries()) {
    total_b += static_cast<double>(q.frequency);
  }
  if (total_a <= 0.0 || total_b <= 0.0) {
    // Both totals empty -> identical (drift 0); exactly one empty ->
    // maximal drift. Spelled as sign tests, not double equality
    // (cloudview-lint rule D3).
    return (total_a <= 0.0 && total_b <= 0.0) ? 0.0 : 1.0;
  }
  for (const QuerySpec& q : a.queries()) {
    share_a[q.target] += static_cast<double>(q.frequency) / total_a;
  }
  for (const QuerySpec& q : b.queries()) {
    share_b[q.target] += static_cast<double>(q.frequency) / total_b;
  }
  // Total-variation distance: half the L1 gap over the union support.
  double l1 = 0.0;
  for (const auto& [cuboid, share] : share_a) {
    auto it = share_b.find(cuboid);
    double other = it == share_b.end() ? 0.0 : it->second;
    l1 += std::abs(share - other);
  }
  for (const auto& [cuboid, share] : share_b) {
    if (share_a.find(cuboid) == share_a.end()) l1 += share;
  }
  return 0.5 * l1;
}

}  // namespace cloudview
