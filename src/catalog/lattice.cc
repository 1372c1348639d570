#include "catalog/lattice.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/str_format.h"

namespace cloudview {

CubeLattice::CubeLattice(StarSchema schema) : schema_(std::move(schema)) {
  radix_.reserve(schema_.num_dimensions());
  num_nodes_ = 1;
  for (size_t d = 0; d < schema_.num_dimensions(); ++d) {
    radix_.push_back(
        static_cast<uint32_t>(schema_.dimension(d).num_levels()));
    num_nodes_ *= radix_.back();
  }
  base_.levels.assign(schema_.num_dimensions(), 0);

  const size_t dims = radix_.size();
  levels_.reserve(num_nodes_ * dims);
  rows_.reserve(num_nodes_);
  coarse_to_fine_.reserve(num_nodes_);
  for (CuboidId id = 0; id < num_nodes_; ++id) {
    Cuboid cuboid = CuboidOf(id);
    levels_.insert(levels_.end(), cuboid.levels.begin(),
                   cuboid.levels.end());
    rows_.push_back(CardenasRows(cuboid));
    coarse_to_fine_.push_back(id);
  }
  std::stable_sort(coarse_to_fine_.begin(), coarse_to_fine_.end(),
                   [&](CuboidId a, CuboidId b) {
                     return rows_[a] < rows_[b];
                   });
}

Result<CubeLattice> CubeLattice::Build(StarSchema schema) {
  size_t nodes = 1;
  for (size_t d = 0; d < schema.num_dimensions(); ++d) {
    nodes *= schema.dimension(d).num_levels();
    if (nodes > kMaxNodes) {
      return Status::ResourceExhausted(
          StrFormat("lattice would exceed %zu cuboids", kMaxNodes));
    }
  }
  return CubeLattice(std::move(schema));
}

CuboidId CubeLattice::IdOf(const Cuboid& cuboid) const {
  CV_CHECK(cuboid.levels.size() == radix_.size())
      << "cuboid has wrong dimension count";
  uint64_t id = 0;
  for (size_t d = 0; d < radix_.size(); ++d) {
    CV_CHECK(cuboid.levels[d] < radix_[d])
        << "level out of range on dimension " << d;
    id = id * radix_[d] + cuboid.levels[d];
  }
  return static_cast<CuboidId>(id);
}

Cuboid CubeLattice::CuboidOf(CuboidId id) const {
  CV_CHECK(id < num_nodes_) << "cuboid id out of range";
  Cuboid cuboid;
  cuboid.levels.assign(radix_.size(), 0);
  uint64_t rest = id;
  for (size_t d = radix_.size(); d-- > 0;) {
    cuboid.levels[d] = static_cast<uint8_t>(rest % radix_[d]);
    rest /= radix_[d];
  }
  return cuboid;
}

CuboidId CubeLattice::apex_id() const {
  Cuboid apex;
  apex.levels.reserve(radix_.size());
  for (uint32_t r : radix_) {
    apex.levels.push_back(static_cast<uint8_t>(r - 1));
  }
  return IdOf(apex);
}

Result<CuboidId> CubeLattice::NodeByLevels(
    const std::vector<std::string>& level_names) const {
  if (level_names.size() != radix_.size()) {
    return Status::InvalidArgument(
        StrFormat("expected %zu level names, got %zu", radix_.size(),
                  level_names.size()));
  }
  Cuboid cuboid;
  cuboid.levels.reserve(radix_.size());
  for (size_t d = 0; d < radix_.size(); ++d) {
    CV_ASSIGN_OR_RETURN(size_t idx,
                        schema_.dimension(d).LevelIndex(level_names[d]));
    cuboid.levels.push_back(static_cast<uint8_t>(idx));
  }
  return IdOf(cuboid);
}

const uint8_t* CubeLattice::LevelsOf(CuboidId id) const {
  CV_CHECK(id < num_nodes_) << "cuboid id out of range";
  return levels_.data() + static_cast<size_t>(id) * radix_.size();
}

bool CubeLattice::CanAnswer(CuboidId view, CuboidId query) const {
  const uint8_t* v = LevelsOf(view);
  const uint8_t* q = LevelsOf(query);
  for (size_t d = 0; d < radix_.size(); ++d) {
    if (v[d] > q[d]) return false;
  }
  return true;
}

std::vector<CuboidId> CubeLattice::Parents(CuboidId id) const {
  Cuboid cuboid = CuboidOf(id);
  std::vector<CuboidId> out;
  for (size_t d = 0; d < radix_.size(); ++d) {
    if (cuboid.levels[d] + 1u < radix_[d]) {
      Cuboid parent = cuboid;
      parent.levels[d] += 1;
      out.push_back(IdOf(parent));
    }
  }
  return out;
}

std::vector<CuboidId> CubeLattice::Children(CuboidId id) const {
  Cuboid cuboid = CuboidOf(id);
  std::vector<CuboidId> out;
  for (size_t d = 0; d < radix_.size(); ++d) {
    if (cuboid.levels[d] > 0) {
      Cuboid child = cuboid;
      child.levels[d] -= 1;
      out.push_back(IdOf(child));
    }
  }
  return out;
}

std::vector<CuboidId> CubeLattice::AnswerSources(CuboidId id) const {
  std::vector<CuboidId> out;
  for (CuboidId candidate = 0; candidate < num_nodes_; ++candidate) {
    if (CanAnswer(candidate, id)) out.push_back(candidate);
  }
  return out;
}

uint64_t CubeLattice::KeySpace(const Cuboid& cuboid) const {
  // Saturating product of level cardinalities.
  uint64_t space = 1;
  for (size_t d = 0; d < radix_.size(); ++d) {
    uint64_t card = schema_.dimension(d).level(cuboid.levels[d]).cardinality;
    if (card != 0 && space > UINT64_MAX / card) return UINT64_MAX;
    space *= card;
  }
  return space;
}

uint64_t CubeLattice::CardenasRows(const Cuboid& cuboid) const {
  uint64_t d = KeySpace(cuboid);
  uint64_t n = schema_.stats().fact_rows;
  if (d == 0) return 0;
  // Cardenas: expected distinct keys among n facts over d possible keys,
  // d(1 - (1-1/d)^n) ~= d(1 - e^(-n/d)); capped by both n and d.
  long double dd = static_cast<long double>(d);
  long double nn = static_cast<long double>(n);
  long double expected = dd * (1.0L - std::exp(-nn / dd));
  uint64_t est = static_cast<uint64_t>(expected);
  if (est > d) est = d;
  if (est > n) est = n;
  return est == 0 ? 1 : est;
}

uint64_t CubeLattice::EstimateRows(CuboidId id) const {
  CV_CHECK(id < num_nodes_) << "cuboid id out of range";
  return rows_[id];
}

DataSize CubeLattice::EstimateSize(CuboidId id) const {
  uint64_t rows = EstimateRows(id);
  return DataSize::FromBytes(static_cast<int64_t>(rows) *
                             schema_.stats().bytes_per_view_row);
}

std::string CubeLattice::NameOf(CuboidId id) const {
  Cuboid cuboid = CuboidOf(id);
  std::vector<std::string> parts;
  parts.reserve(radix_.size());
  for (size_t d = 0; d < radix_.size(); ++d) {
    parts.push_back(
        schema_.dimension(d).level(cuboid.levels[d]).name);
  }
  return "(" + Join(parts, ", ") + ")";
}

}  // namespace cloudview
