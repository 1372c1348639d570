// Candidate generation: builds Vcand from the lattice and the workload.
//
// The paper delegates this to "an existing algorithm such as [8]"
// (Baril & Bellahsene's cost-based selection). We implement the standard
// lattice approach in that spirit: every cuboid that can answer at least
// one workload query is scored with its Harinarayan-Rajaraman-Ullman
// benefit (time saved across the workload if materialized alone), and
// the top candidates under a size cap are kept.

#pragma once

#include <vector>

#include "catalog/lattice.h"
#include "common/result.h"
#include "core/optimizer/view_candidate.h"
#include "engine/cluster.h"
#include "workload/workload.h"

namespace cloudview {

/// \brief Knobs for candidate generation.
struct CandidateGenOptions {
  /// Keep at most this many candidates (ranked by HRU benefit).
  size_t max_candidates = 32;
  /// Skip cuboids larger than this fraction of the base table (a view
  /// nearly as big as the fact table saves nothing).
  double max_size_fraction = 0.5;
  /// Skip cuboids whose estimated row count exceeds this fraction of the
  /// fact rows. External candidate selectors (the paper defers to [8])
  /// discard near-fact-granularity views that barely aggregate; the
  /// Section 6 reproduction uses 0.05 (see EXPERIMENTS.md).
  double max_rows_fraction = 1.0;
  /// Logical delta bytes per maintenance cycle (drives t_maintenance).
  DataSize maintenance_delta = DataSize::Zero();
  /// Restrict candidates to the workload's own cuboids when true
  /// (exact-match views only; no shared ancestors).
  bool queries_only = false;

  friend bool operator==(const CandidateGenOptions&,
                         const CandidateGenOptions&) = default;
};

/// \brief Generates Vcand for `workload` on `cluster`. Candidate
/// materialization times assume views are built from the base table.
/// Never returns the base cuboid itself.
Result<std::vector<ViewCandidate>> GenerateCandidates(
    const CubeLattice& lattice, const Workload& workload,
    const MapReduceSimulator& simulator, const ClusterSpec& cluster,
    const CandidateGenOptions& options);

}  // namespace cloudview

