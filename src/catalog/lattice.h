// CubeLattice: the partial order of group-by cuboids over a star schema.
//
// Every combination of one level per dimension is a *cuboid* (a potential
// materialized view). Cuboid A can answer cuboid B's query iff A is finer
// or equal to B on every dimension — the classic data-cube lattice of
// Harinarayan, Rajaraman & Ullman, which is also the candidate space the
// paper's view-selection step (Section 5.2) explores.
//
// Row counts per cuboid are estimated with Cardenas' formula
// (expected distinct groups among `n` facts over `d` possible keys).
// Build() evaluates it once per node and keeps three per-node tables —
// the row estimate, the flat level vector, and the coarse-to-fine node
// order — so the hot queries (EstimateRows, EstimateSize, CanAnswer)
// are table lookups that never allocate.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/data_size.h"
#include "common/result.h"

namespace cloudview {

/// \brief A cuboid: one hierarchy level per dimension.
/// levels[d] indexes schema.dimension(d)'s levels (0 = finest, last = ALL).
struct Cuboid {
  std::vector<uint8_t> levels;

  friend bool operator==(const Cuboid&, const Cuboid&) = default;
};

/// \brief Dense identifier of a cuboid within its lattice (mixed-radix
/// encoding of the level vector).
using CuboidId = uint32_t;

/// \brief The full lattice of cuboids over a StarSchema.
class CubeLattice {
 public:
  /// \brief Builds the lattice; fails if the schema would produce more
  /// than `kMaxNodes` cuboids.
  static Result<CubeLattice> Build(StarSchema schema);

  static constexpr size_t kMaxNodes = 1u << 20;

  const StarSchema& schema() const { return schema_; }

  /// \brief Total number of cuboids (product of per-dimension level
  /// counts, ALL included).
  size_t num_nodes() const { return num_nodes_; }

  /// \brief Dense id of a cuboid; the cuboid must be well-formed for this
  /// schema.
  CuboidId IdOf(const Cuboid& cuboid) const;

  /// \brief Inverse of IdOf.
  Cuboid CuboidOf(CuboidId id) const;

  /// \brief Id of the finest cuboid (the fact table itself).
  CuboidId base_id() const { return IdOf(base_); }

  /// \brief Id of the coarsest cuboid (grand total).
  CuboidId apex_id() const;

  /// \brief Cuboid by (dimension level name...) lookup, e.g.
  /// NodeByLevels({"year", "country"}). One name per dimension, in schema
  /// dimension order; "ALL" selects the ALL level.
  Result<CuboidId> NodeByLevels(
      const std::vector<std::string>& level_names) const;

  /// \brief True iff `view` is finer-or-equal to `query` on every
  /// dimension, i.e. the view can answer the query by further roll-up.
  bool CanAnswer(CuboidId view, CuboidId query) const;

  /// \brief Every node ordered coarse-to-fine: by EstimateRows
  /// ascending, ties by id. The Zipf rank order of the workload
  /// generator and of query churn (analysts ask mostly coarse roll-ups).
  const std::vector<CuboidId>& CoarseToFine() const {
    return coarse_to_fine_;
  }

  /// \brief Immediate parents: one level coarser on exactly one dimension.
  std::vector<CuboidId> Parents(CuboidId id) const;

  /// \brief Immediate children: one level finer on exactly one dimension.
  std::vector<CuboidId> Children(CuboidId id) const;

  /// \brief All cuboids that can answer `id` (including itself and base).
  std::vector<CuboidId> AnswerSources(CuboidId id) const;

  /// \brief Expected distinct rows in the cuboid's *aggregate* (Cardenas'
  /// formula over its key space, capped by the fact row count). Note the
  /// finest cuboid is still an aggregate — the raw fact table (with its
  /// duplicate keys) lives outside the lattice; see fact_scan_size().
  uint64_t EstimateRows(CuboidId id) const;

  /// \brief Estimated materialized size: rows x bytes_per_view_row.
  DataSize EstimateSize(CuboidId id) const;

  /// \brief Bytes scanned when answering from the raw fact table instead
  /// of a materialized cuboid (the whole stored dataset).
  DataSize fact_scan_size() const { return schema_.fact_size(); }

  /// \brief Display name, e.g. "(month, country)".
  std::string NameOf(CuboidId id) const;

 private:
  explicit CubeLattice(StarSchema schema);

  uint64_t KeySpace(const Cuboid& cuboid) const;
  /// Cardenas' estimate for one cuboid (what rows_ caches).
  uint64_t CardenasRows(const Cuboid& cuboid) const;
  /// levels[d] of node `id` lives at levels_[id * radix_.size() + d].
  const uint8_t* LevelsOf(CuboidId id) const;

  StarSchema schema_;
  std::vector<uint32_t> radix_;  // Levels per dimension.
  size_t num_nodes_ = 0;
  Cuboid base_;
  // Per-node tables, filled once by the constructor.
  std::vector<uint8_t> levels_;
  std::vector<uint64_t> rows_;
  std::vector<CuboidId> coarse_to_fine_;
};

}  // namespace cloudview

