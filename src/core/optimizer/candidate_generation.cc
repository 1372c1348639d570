#include "core/optimizer/candidate_generation.h"

#include <algorithm>
#include <set>
#include <vector>

namespace cloudview {
namespace {

/// One candidate with its HRU benefit (the ranking key).
struct Scored {
  ViewCandidate candidate;
  double benefit = 0.0;
};

}  // namespace

Result<std::vector<ViewCandidate>> GenerateCandidates(
    const CubeLattice& lattice, const Workload& workload,
    const MapReduceSimulator& simulator, const ClusterSpec& cluster,
    const CandidateGenOptions& options) {
  if (workload.empty()) {
    return Status::InvalidArgument("cannot generate candidates for an "
                                   "empty workload");
  }
  if (options.max_candidates == 0) {
    return Status::InvalidArgument("max_candidates must be positive");
  }
  if (options.max_size_fraction <= 0.0) {
    return Status::InvalidArgument("max_size_fraction must be positive");
  }
  if (options.max_rows_fraction <= 0.0) {
    return Status::InvalidArgument("max_rows_fraction must be positive");
  }

  double fact_bytes =
      static_cast<double>(lattice.fact_scan_size().bytes());

  // Pool: cuboids that can answer >= 1 query (they are exactly the
  // descendants-or-equal of workload cuboids in lattice order). The
  // finest cuboid is a legitimate candidate: its aggregate is far
  // smaller than the raw fact table it would replace as a scan target.
  std::set<CuboidId> pool;
  for (const QuerySpec& q : workload.queries()) {
    for (CuboidId source : lattice.AnswerSources(q.target)) {
      if (options.queries_only && source != q.target) continue;
      pool.insert(source);
    }
  }

  // HRU benefit: frequency-weighted time saved across the workload when
  // the candidate is materialized alone.
  double fact_rows =
      static_cast<double>(lattice.schema().stats().fact_rows);
  std::vector<Scored> scored;
  for (CuboidId id : pool) {
    double size_fraction =
        static_cast<double>(lattice.EstimateSize(id).bytes()) / fact_bytes;
    if (size_fraction > options.max_size_fraction) continue;
    double rows_fraction =
        static_cast<double>(lattice.EstimateRows(id)) / fact_rows;
    if (rows_fraction > options.max_rows_fraction) continue;

    Scored entry;
    entry.candidate.view = id;
    entry.candidate.name = lattice.NameOf(id);
    entry.candidate.size = lattice.EstimateSize(id);
    entry.candidate.materialization_time =
        simulator.MaterializationTimeFromFact(id, cluster);
    entry.candidate.maintenance_time =
        simulator.MaintenanceTime(id, options.maintenance_delta, cluster);
    for (const QuerySpec& q : workload.queries()) {
      if (!lattice.CanAnswer(id, q.target)) continue;
      Duration from_fact = simulator.QueryTimeFromFact(q.target, cluster);
      Duration from_view =
          simulator.QueryTimeFromView(id, q.target, cluster);
      if (from_view < from_fact) {
        entry.benefit += static_cast<double>(q.frequency) *
                         static_cast<double>((from_fact - from_view).millis());
      }
    }
    if (entry.benefit > 0.0) scored.push_back(std::move(entry));
  }

  // Total order (lint D3: no float-equal tie decides placement): benefit
  // descending, CuboidId ascending on ties — so the ranking, and the
  // resize() truncation below it, are deterministic whatever the sort.
  std::sort(scored.begin(), scored.end(),
            [](const Scored& a, const Scored& b) {
              if (a.benefit > b.benefit) return true;
              if (b.benefit > a.benefit) return false;
              return a.candidate.view < b.candidate.view;
            });

  if (scored.size() > options.max_candidates) {
    scored.resize(options.max_candidates);
  }

  std::vector<ViewCandidate> out;
  out.reserve(scored.size());
  for (Scored& entry : scored) out.push_back(std::move(entry.candidate));
  return out;
}

}  // namespace cloudview
