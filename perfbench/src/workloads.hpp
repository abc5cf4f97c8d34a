// The benchmark's workloads: each one is a sweep grid built through the
// user path (graph::build_paper_benchmark or cnn::lower_workload) from the
// benchmark's seed argument.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dse/sweep.hpp"

namespace perfbench {

/// Iterations every cell models (the paper's throughput horizon).
inline constexpr std::int64_t kIterations = 100;

struct GraphSeed {
  std::string graph;
  std::uint64_t seed{0};
};

/// A built workload: the grid plus the seeds its graphs were built from.
struct Workload {
  paraconv::dse::GridSpec spec;
  /// The derived generator seed per Table-1 graph; empty for zoo_batch,
  /// whose lowering is deterministic and takes no seed.
  std::vector<GraphSeed> graph_seeds;
  /// Tasks of the graphs lowered from CNNs (0 for the Table-1 workloads).
  std::int64_t lowered_tasks{0};
};

const std::vector<std::string>& workload_names();

/// The generator seed a Table-1 graph is built from under benchmark seed
/// `seed`. Seed 0 keeps the published per-benchmark seed.
std::uint64_t table1_graph_seed(std::uint64_t published, std::uint64_t seed);

/// Builds (set-up) workload `name`. Graph construction is wrapped in
/// `graph.build` / `cnn.lower` spans, which cost nothing untraced. Throws
/// std::invalid_argument on an unknown name.
Workload build_workload(const std::string& name, std::uint64_t seed);

/// The EXPERIMENTS.md Table-1 `ratio%` (Para-CONV / SPARTA total time) of
/// one benchmark at 16, 32 and 64 PEs under the topological packer and the
/// knapsack DP, at the published seeds.
struct Table1Ratio {
  const char* benchmark;
  double ratio_pct[3];
};
inline constexpr int kTable1Pes[3] = {16, 32, 64};
const std::vector<Table1Ratio>& table1_ratios();

}  // namespace perfbench
