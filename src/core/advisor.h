// Advisor API: the one request/response pair every CloudScenario
// question speaks (DESIGN.md §14).
//
// An AdvisorRequest is a tagged variant over the six operations —
// solve, frontier, joint solve, timeline, provider comparison, policy
// comparison — and an AdvisorResponse is a tagged variant over their
// results plus one shared ResponseMeta (wall time, cache counters,
// cancellation flag, optimality gap). CloudScenario::Dispatch is the
// only way in, for in-process callers and the serving layer alike;
// src/serving/advisor_codec.h gives the pair a JSON form.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/months.h"
#include "core/optimizer/evaluator.h"
#include "core/optimizer/selector.h"
#include "core/optimizer/temporal_planner.h"
#include "engine/cluster.h"
#include "pricing/pricing_model.h"
#include "workload/timeline.h"
#include "workload/workload.h"

namespace cloudview {

/// \brief The operations CloudScenario::Dispatch serves.
enum class AdvisorRequestKind {
  kSolve,
  kFrontier,
  kTimeline,
  kCompareProviders,
  kComparePolicies,
  kSolveJoint,
};

/// \brief Every request kind with its wire name.
inline constexpr std::pair<AdvisorRequestKind, std::string_view>
    kAdvisorRequestKinds[] = {
        {AdvisorRequestKind::kSolve, "solve"},
        {AdvisorRequestKind::kFrontier, "frontier"},
        {AdvisorRequestKind::kTimeline, "timeline"},
        {AdvisorRequestKind::kCompareProviders, "compare-providers"},
        {AdvisorRequestKind::kComparePolicies, "compare-policies"},
        {AdvisorRequestKind::kSolveJoint, "solve-joint"},
};

/// \brief Registry name of a request kind ("solve", "frontier", ...).
const char* AdvisorRequestKindName(AdvisorRequestKind kind);

/// \brief A workload by value or by reference to the scenario's
/// default. Serializable — the serving codec round-trips this, unlike
/// an inline Workload.
struct WorkloadSpec {
  /// "default" runs the scenario's DefaultWorkload() (the paper's
  /// 10-query mix on the sales schema, the SSB 13-query mix on ssb);
  /// "queries" runs `queries` verbatim.
  std::string kind = "default";
  std::vector<QuerySpec> queries;

  friend bool operator==(const WorkloadSpec&, const WorkloadSpec&) = default;
};

/// \brief One drift model in a serializable timeline description.
/// `kind` selects the model; only that model's fields are read.
struct DriftSpec {
  /// One of "frequency-decay", "seasonal-spike", "query-churn",
  /// "dataset-growth" (workload/timeline.h).
  std::string kind;
  // frequency-decay: frequencies scale by `factor`, never below `floor`.
  double factor = 0.9;
  int64_t floor = 1;
  // seasonal-spike: spike of `amplitude` when
  // period % season_length == phase.
  int64_t season_length = 4;
  int64_t phase = 0;
  double amplitude = 0.5;
  // query-churn: retire probability per query per period, Zipf skew of
  // the replacement cuboid draw.
  double rate = 0.1;
  double cuboid_skew = 0.5;
  // dataset-growth: fraction of the base fact size ingested per period.
  double growth_per_period = 0.02;

  friend bool operator==(const DriftSpec&, const DriftSpec&) = default;
};

/// \brief The most periods a timeline request may unroll: 100 years of
/// monthly periods. A timeline is generated eagerly, so an unbounded
/// count lets one request line exhaust memory or hold the server.
inline constexpr int64_t kMaxTimelinePeriods = 1200;

/// \brief Bounds on the request numbers that scale the int64 sums a
/// request is billed by. A period sums frequency x (one query's ms or
/// result bytes), and the temporal planner sums a query's frequency over
/// up to kMaxTimelinePeriods < 2^11 periods. On the served lattices one
/// query's ms and result bytes are below 2^32 (SSB's base cuboid holds
/// 3.1e9 bytes), so at most 2^19 runs per period keep every such sum,
/// summed over the horizon, below 2^19 x 2^11 x 2^32 = 2^62. A seasonal
/// spike multiplies a period's frequencies by 1 + amplitude, so its
/// amplitude may lift a one-run workload to the cap and no further.
/// Dataset growth adds growth_per_period x the fact's bytes each period;
/// over kMaxTimelinePeriods periods the grown fact stays below 2^50
/// bytes, so base, view and ingress bytes and the micro-dollars they are
/// billed stay below 2^62 too.
inline constexpr uint64_t kMaxPeriodRuns = uint64_t{1} << 19;
inline constexpr double kMaxSpikeAmplitude = kMaxPeriodRuns - 1;
inline constexpr int64_t kMaxGrownFactBytes = int64_t{1} << 50;

/// \brief Bounds on the session config numbers that multiply those sums,
/// derived the same way. A run's wall time on n instances is the job
/// startup (45 s < 2^16 ms) plus data phases that shrink as 1/n, and its
/// compute bill is n x that wall time: at most 2^10 instances keep the
/// startup share below 2^26 instance-ms per run, under the 2^32 its data
/// phases may already bill. A maintenance cycle scans each view plus the
/// delta at 3 MB/s per compute unit; a delta of at most 2^40 bytes (the
/// served facts are below 2^34) keeps one view's cycle below 2^29 ms, so
/// at most 2^12 cycles per period over the at most 2^8 views of a served
/// lattice and kMaxTimelinePeriods < 2^11 periods stay below 2^60, and
/// the view bytes replicated once per cycle below 2^62. The storage
/// period spans at most the longest timeline, kMaxTimelinePeriods months.
inline constexpr int64_t kMaxInstances = int64_t{1} << 10;
inline constexpr int64_t kMaxMaintenanceCycles = int64_t{1} << 12;
inline constexpr int64_t kMaxMaintenanceDeltaBytes = int64_t{1} << 40;
inline constexpr int64_t kMaxStoragePeriodMilliMonths =
    kMaxTimelinePeriods * Months::kMilliPerMonth;

/// \brief Serializable WorkloadTimeline description: the base workload
/// (WorkloadSpec) unrolled over `num_periods` (1..kMaxTimelinePeriods)
/// under `drifts`.
struct TimelineSpec {
  int64_t num_periods = 12;
  Months period_length = Months::FromMonths(1);
  uint64_t seed = 7;
  std::vector<DriftSpec> drifts;

  friend bool operator==(const TimelineSpec&, const TimelineSpec&) = default;
};

/// \brief One advisor call: a tagged variant over the operations.
/// Only the fields of the selected `kind` are read.
struct AdvisorRequest {
  AdvisorRequestKind kind = AdvisorRequestKind::kSolve;

  /// Serving-session name; empty for one-shot calls. The library layer
  /// ignores it — SessionManager routes on it.
  std::string session;

  /// Registered solver name; empty selects the kind's default
  /// (kDefaultSolverName, or config().frontier_solver for kFrontier).
  std::string solver;

  /// The objective every kind solves under (per period for kTimeline /
  /// kComparePolicies). The embedded `cancel` token, when set, is
  /// polled by solver inner loops.
  ObjectiveSpec objective;

  /// The workload (all kinds; the timeline kinds use it as the base
  /// mix of TimelineSpec).
  WorkloadSpec workload;

  /// kTimeline / kComparePolicies: horizon shape and drift models.
  TimelineSpec timeline;

  /// kTimeline: the re-selection policy to walk under.
  ReselectPolicy policy = ReselectPolicy::Static();

  /// kComparePolicies: the policies to compare (result rows in this
  /// order).
  std::vector<ReselectPolicy> policies;

  /// Soft deadline for the serving layer (0 = none): AdvisorService
  /// arms a CancelToken with it and threads the token through
  /// `objective.cancel`. The library layer does not read it.
  int64_t deadline_ms = 0;

  // --- In-process fast paths (not serialized) --------------------------
  // Borrowed pointers for callers that already hold the objects the
  // specs above describe; they win over the specs when set and must
  // outlive the Dispatch call.

  /// Overrides `workload`.
  const Workload* inline_workload = nullptr;
  /// Overrides `timeline` + `workload` for the timeline kinds.
  const WorkloadTimeline* inline_timeline = nullptr;
  /// kSolve only: replaces the scenario's configured cluster (instance
  /// tier sweeps).
  const ClusterSpec* cluster_override = nullptr;

  friend bool operator==(const AdvisorRequest&,
                         const AdvisorRequest&) = default;
};

/// \brief Telemetry shared by every response kind.
struct ResponseMeta {
  /// Registered solver that ran (after empty-name defaulting).
  std::string solver;
  /// Wall-clock time spent inside Dispatch.
  int64_t wall_ms = 0;
  /// Counters of the session cache the request probed
  /// (EvaluationCache::aggregate), cumulative across the session's
  /// requests; 0 when it probed none (a sessionless or
  /// `cluster_override` solve, compare-providers, the timeline kinds).
  /// arch-sweep's per-architecture solves run uncached, so a solve-joint
  /// request leaves the counters where the session had them.
  uint64_t cache_lookups = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_evictions = 0;
  /// Optimality-gap certificate of the solve (0 when proven optimal or
  /// when the solver offers no bound; see SelectionResult).
  double gap_fraction = 0.0;
  /// True when the solve was truncated by cancellation or deadline;
  /// the payload still holds the best incumbent.
  bool cancelled = false;
  /// True when the request was served from a warm session slot
  /// (prepared evaluator + persistent cache).
  bool warm = false;
};

/// \brief A selection outcome paired with its no-view baseline
/// (kSolve, and each kCompareProviders row).
struct SolveRun {
  SelectionResult selection;
  SubsetEvaluation baseline;

  /// Improvement of the run's time metric over the baseline, e.g. 0.25
  /// for the paper's "IP rate 25%".
  double TimeImprovement(const ObjectiveSpec& spec) const;
  /// Improvement of total cost over the baseline ("IC rate").
  double CostImprovement() const;
};

/// \brief A frontier solve paired with its baseline: the mutually
/// non-dominated (monthly cost, time, storage) points, plus the spec's
/// own best selection (kFrontier; DESIGN.md §10).
struct FrontierRun {
  /// Non-dominated points in ParetoPoint order (cost, time, storage).
  std::vector<ParetoPoint> frontier;
  /// The lexicographic best under the spec itself — always one of the
  /// frontier's subsets when the spec is satisfiable.
  SelectionResult best;
  SubsetEvaluation baseline;
};

/// \brief A joint (deployment architecture, view set) solve
/// (kSolveJoint): the four-axis frontier the "arch-sweep" strategy
/// reduces its per-architecture optima onto, plus the winning pair and
/// the identity-architecture baseline.
struct JointRun {
  /// Non-dominated (monthly cost, time, storage, unavailability ppm)
  /// points in ParetoPoint order, each tagged with the architecture it
  /// is billed under.
  std::vector<ParetoPoint> frontier;
  /// The spec's own best selection, billed under `best_architecture`.
  SelectionResult best;
  /// Name of the winning deployment architecture
  /// (== best.architecture; lifted out for serving convenience).
  std::string best_architecture;
  /// The no-view baseline under the identity single-node architecture
  /// — the paper's reference bill the frontier is judged against.
  SubsetEvaluation baseline;
};

/// \brief One provider's row in a kCompareProviders sweep.
struct ProviderComparisonRow {
  /// Registry name of the provider.
  std::string provider;
  /// Instance type actually rented under this provider's catalog.
  std::string instance;
  /// The sheet's native compute billing granularity.
  BillingGranularity granularity = BillingGranularity::kHour;
  /// The sheet's solve. Under a multi-objective solver
  /// ("pareto-sweep") run.selection.frontier holds the sheet's whole
  /// frontier, so one request compares trade-off curves across CSPs.
  SolveRun run;
};

/// \brief The result variant: `kind` says which payload member is
/// populated; `meta` is always populated.
struct AdvisorResponse {
  AdvisorRequestKind kind = AdvisorRequestKind::kSolve;
  ResponseMeta meta;

  /// kSolve.
  SolveRun solve;
  /// kFrontier.
  FrontierRun frontier;
  /// kTimeline.
  TemporalRunResult timeline;
  /// kCompareProviders, in sorted provider-name order.
  std::vector<ProviderComparisonRow> providers;
  /// kComparePolicies, in request-policy order.
  std::vector<TemporalRunResult> policies;
  /// kSolveJoint.
  JointRun joint;
};

/// \brief A session's warm-start state: the prepared evaluator and the
/// persistent cross-request EvaluationCache, keyed by a fingerprint of
/// (workload, cluster, candidate options). Dispatch reuses a matching
/// slot — skipping candidate generation and evaluator construction —
/// and repopulates it on mismatch. Owned by the serving session; the
/// caller serializes access (Dispatch does not lock).
struct AdvisorWarmSlot {
  std::shared_ptr<const SelectionEvaluator> evaluator;
  std::shared_ptr<EvaluationCache> cache;
  uint64_t fingerprint = 0;
  /// Requests served from this slot since it was last (re)built.
  uint64_t warm_hits = 0;
};

}  // namespace cloudview
