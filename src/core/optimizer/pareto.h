// The multi-objective seam (DESIGN.md §10): instead of collapsing a
// subset to one lexicographic scalar, score it on the three axes a
// cloud tenant actually trades off —
//
//   MultiScore   — (monthly cost, time metric, storage footprint); all
//                  three integer-exact, so dominance checks and frontier
//                  membership never depend on float rounding.
//   ParetoPoint  — a MultiScore plus the subset that achieved it and the
//                  strategy that found it.
//   ParetoFront  — insert-if-non-dominated container with relative
//                  epsilon dedup and a deterministic total order, the
//                  structure "pareto-sweep"/"pareto-genetic" return and
//                  a kFrontier CloudScenario::Dispatch request exposes.
//
// This header is deliberately free of evaluator/solver dependencies so
// both the spec layer (selector.h) and the strategies can use it.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/data_size.h"
#include "common/duration.h"
#include "common/money.h"

namespace cloudview {

/// \brief One subset's position in the objective space. Lower is
/// better on every axis.
struct MultiScore {
  /// Total deployment cost normalized to one month of the billed
  /// storage period (what a tenant's invoice trends on).
  Money monthly_cost;
  /// The scenario's time metric: workload makespan when the spec counts
  /// one-time materialization, pure processing time otherwise.
  Duration time;
  /// Duplicated bytes stored for the selected views.
  DataSize storage;
  /// Expected system unavailability of the deployment architecture the
  /// subset is billed under, in parts per million
  /// (catalog/architecture.h). Zero for the legacy three-axis scoring —
  /// a zero axis never changes dominance among same-architecture
  /// points, so existing frontiers are unaffected; the joint solver
  /// fills it so a cheap spot fleet and a durable multi-AZ fleet can
  /// coexist on one frontier.
  int64_t unavailability_ppm = 0;

  /// \brief Strict Pareto dominance: no worse on every axis, strictly
  /// better on at least one.
  bool Dominates(const MultiScore& other) const {
    bool no_worse = monthly_cost <= other.monthly_cost &&
                    time <= other.time && storage <= other.storage &&
                    unavailability_ppm <= other.unavailability_ppm;
    bool better = monthly_cost < other.monthly_cost ||
                  time < other.time || storage < other.storage ||
                  unavailability_ppm < other.unavailability_ppm;
    return no_worse && better;
  }

  /// \brief Dominates-or-equals (weak dominance).
  bool WeaklyDominates(const MultiScore& other) const {
    return monthly_cost <= other.monthly_cost && time <= other.time &&
           storage <= other.storage &&
           unavailability_ppm <= other.unavailability_ppm;
  }

  /// \brief Per-axis relative closeness: |a-b| <= eps * max(|a|, |b|)
  /// on all axes. Used by the frontier's dedup, so points that
  /// differ by rounding noise do not bloat it.
  bool WithinEpsilon(const MultiScore& other, double epsilon) const;

  /// \brief Deterministic total order (cost, time, storage,
  /// unavailability) — the frontier's presentation order.
  auto AsTuple() const {
    return std::make_tuple(monthly_cost.micros(), time.millis(),
                           storage.bytes(), unavailability_ppm);
  }

  friend bool operator==(const MultiScore& a, const MultiScore& b) {
    return a.AsTuple() == b.AsTuple();
  }
  friend bool operator!=(const MultiScore& a, const MultiScore& b) {
    return !(a == b);
  }
};

/// \brief A frontier member: where it sits, which subset realizes it,
/// and which strategy (or weight vector) produced it.
struct ParetoPoint {
  MultiScore score;
  /// Candidate indices, ascending.
  std::vector<size_t> selected;
  /// Provenance label, e.g. "knapsack-dp" or "greedy a=0.3".
  std::string origin;
  /// Deployment architecture the point is billed under; empty for the
  /// legacy single-architecture frontiers.
  std::string architecture;
};

/// \brief The set of mutually non-dominated points seen so far.
///
/// Insert() keeps the invariant: a new point dominated by (or
/// epsilon-indistinguishable from) a member is rejected; members the new
/// point dominates are evicted. Points are held sorted by
/// MultiScore::AsTuple() (ties broken by subset, then origin), so the
/// frontier's contents and order are a pure function of the insertion
/// *sequence* — parallel producers must insert in a fixed order (the
/// sweep reduces task results by index before inserting; DESIGN.md §10).
class ParetoFront {
 public:
  /// \brief `epsilon` is the relative dedup tolerance; 0 dedups only
  /// exact score ties.
  explicit ParetoFront(double epsilon = 0.0) : epsilon_(epsilon) {}

  /// \brief Adds `point` if no member weakly dominates it (or sits
  /// within epsilon of it), evicting members it dominates. Returns
  /// whether the point was kept.
  bool Insert(ParetoPoint point);

  /// \brief Whether some member weakly dominates `score` (within the
  /// epsilon tolerance) — i.e. the frontier already accounts for it.
  bool Covers(const MultiScore& score) const;

  /// \brief Members, sorted by (cost, time, storage).
  const std::vector<ParetoPoint>& points() const { return points_; }
  size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }
  double epsilon() const { return epsilon_; }

 private:
  double epsilon_;
  std::vector<ParetoPoint> points_;
};

}  // namespace cloudview

