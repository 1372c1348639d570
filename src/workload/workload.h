// Workload: the query mix Q = {Q1..Qm} the cost models price.
//
// Paper Section 6.1: "10 queries that calculate the total profit per day,
// month, year and per country, department, and region" — the 3x3 level
// combinations plus a tenth query ("total profit per year"; the paper
// lists only nine combinations for its ten queries, see DESIGN.md §5.10).
// Experiments use deterministic prefixes of 3, 5 and 10 queries.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/lattice.h"
#include "common/result.h"

namespace cloudview {

/// \brief One workload query: a target cuboid plus how often it runs per
/// billing period.
struct QuerySpec {
  std::string name;
  CuboidId target = 0;
  uint64_t frequency = 1;

  friend bool operator==(const QuerySpec&, const QuerySpec&) = default;
};

/// \brief An immutable list of QuerySpecs.
class Workload {
 public:
  Workload() = default;
  explicit Workload(std::vector<QuerySpec> queries)
      : queries_(std::move(queries)) {}

  const std::vector<QuerySpec>& queries() const { return queries_; }
  size_t size() const { return queries_.size(); }
  bool empty() const { return queries_.empty(); }
  const QuerySpec& query(size_t i) const;

  /// \brief Total query executions per period (sum of frequencies).
  uint64_t TotalFrequency() const;

  /// \brief First `n` queries (n <= size()).
  Workload Prefix(size_t n) const;

 private:
  std::vector<QuerySpec> queries_;
};

/// \brief The paper's 10-query workload over a sales lattice, ordered so
/// that Prefix(3) and Prefix(5) give the paper's smaller workloads (the
/// paper does not state which queries its 3/5-query runs used; this
/// order interleaves time and geography levels so the small prefixes mix
/// coarse and fine queries):
///   1 (year, country)   2 (month, region)   3 (day, department)
///   4 (year, department) 5 (day, country)   6 (month, country)
///   7 (year, region)    8 (month, department) 9 (day, region)
///   10 (year, ALL) — "total profit per year".
Result<Workload> MakePaperWorkload(const CubeLattice& lattice);

}  // namespace cloudview

