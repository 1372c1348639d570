#include "workload/generator.h"

#include <vector>

#include "common/random.h"
#include "common/str_format.h"

namespace cloudview {

Result<Workload> GenerateWorkload(const CubeLattice& lattice,
                                  const WorkloadGenOptions& options) {
  if (options.num_queries == 0) {
    return Status::InvalidArgument("workload needs >= 1 query");
  }
  if (options.min_frequency == 0 ||
      options.min_frequency > options.max_frequency) {
    return Status::InvalidArgument("bad frequency range");
  }
  size_t pool = lattice.num_nodes() - (options.exclude_base ? 1 : 0);
  if (!options.allow_duplicates && options.num_queries > pool) {
    return Status::InvalidArgument(
        StrFormat("cannot draw %zu distinct cuboids from %zu",
                  options.num_queries, pool));
  }

  // The lattice's coarse-to-fine order: analysts ask mostly coarse
  // roll-ups, so the Zipf head sits on the coarse end.
  std::vector<CuboidId> nodes;
  nodes.reserve(lattice.num_nodes());
  for (CuboidId id : lattice.CoarseToFine()) {
    if (options.exclude_base && id == lattice.base_id()) continue;
    nodes.push_back(id);
  }

  Rng rng(options.seed);
  ZipfDistribution dist(nodes.size(), options.cuboid_skew);
  std::vector<bool> used(nodes.size(), false);
  std::vector<QuerySpec> queries;
  queries.reserve(options.num_queries);
  while (queries.size() < options.num_queries) {
    uint64_t rank = dist.Sample(rng);
    if (!options.allow_duplicates) {
      if (used[rank]) continue;
      used[rank] = true;
    }
    CuboidId id = nodes[rank];
    uint64_t freq = static_cast<uint64_t>(rng.UniformInt(
        static_cast<int64_t>(options.min_frequency),
        static_cast<int64_t>(options.max_frequency)));
    queries.push_back(QuerySpec{
        StrFormat("profit per %s", lattice.NameOf(id).c_str()), id, freq});
  }
  return Workload(std::move(queries));
}

}  // namespace cloudview
