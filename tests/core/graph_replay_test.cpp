// Launch-graph replay equivalence suite (DESIGN.md §3i): for every
// registered algorithm, Options::graph_replay must be a pure execution-mode
// switch — capture-once/replay-per-iteration may elide barriers and skip
// per-launch dispatch setup, but the coloring contract cannot move. The
// binary runs under whatever GCOL_THREADS the harness sets;
// tests/CMakeLists.txt registers it at 1 worker (serial record-order replay
// is bit-identical to eager execution, so colors AND per-kernel launch
// counts must match byte-for-byte for every algorithm) and 4 workers (real
// concurrency; algorithms whose replayed intervals fuse racing kernels —
// the async-JP regime — and the raced proposal/resolution algorithms are
// verify-only, mirroring the frontier-mode suite's exclusions). The TSan CI
// job runs both, so the fused intervals' relaxed-atomic snapshot traffic is
// race-checked under replay.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/registry.hpp"
#include "core/verify.hpp"
#include "graph/build.hpp"
#include "graph/generators/erdos_renyi.hpp"
#include "graph/generators/rgg.hpp"
#include "graph/generators/rmat.hpp"
#include "gunrock/frontier.hpp"
#include "sim/device.hpp"

namespace gcol::color {
namespace {

enum class Family { kErdosRenyi, kRmat, kRgg };

const char* family_name(Family family) {
  switch (family) {
    case Family::kErdosRenyi: return "Gnm";
    case Family::kRmat: return "Rmat";
    case Family::kRgg: return "Rgg";
  }
  return "Unknown";
}

graph::Csr make_graph(Family family) {
  switch (family) {
    case Family::kErdosRenyi:
      // Sparse: long shrinking-frontier tails, the regime replay targets.
      return graph::build_csr(graph::generate_erdos_renyi(600, 3000, 42));
    case Family::kRmat:
      // Power-law: skewed degrees move the push/pull boundary, so both the
      // replayed pull graphs and the eager push fallback run.
      return graph::build_csr(graph::generate_rmat(9, 8, {.seed = 5}));
    case Family::kRgg:
      return graph::build_csr(graph::generate_rgg(9, {.seed = 7}));
  }
  return {};
}

Coloring run(const AlgorithmSpec& spec, const graph::Csr& csr, bool replay) {
  Options options;
  options.seed = 99;
  options.graph_replay = replay;
  return spec.run(csr, options);
}

/// Algorithms whose replayed graphs FUSE kernels that race on shared color
/// state: the elided barrier turns the BSP round into its asynchronous
/// variant (proper colors, but palette sweeps may observe neighbors colored
/// later in the same interval), so bitwise identity with the eager BSP run
/// only holds when one worker serializes the interval. The raced
/// proposal/resolution algorithms are excluded for the frontier-mode
/// suite's reason: they are nondeterministic at width > 1 even eagerly.
bool replay_async_on_multiworker(const std::string& name) {
  if (sim::Device::instance().num_workers() <= 1) return false;
  return name == "jp_random" || name == "jp_ldf" || name == "jp_sdl" ||
         name == "jp_hybrid" || name == "gunrock_hash" ||
         name == "gm_speculative";
}

using Param = std::tuple<std::string, Family>;

class GraphReplayTest : public ::testing::TestWithParam<Param> {};

TEST_P(GraphReplayTest, ReplayMatchesEager) {
  const auto& [algorithm_name, family] = GetParam();
  const AlgorithmSpec* spec = find_algorithm(algorithm_name);
  ASSERT_NE(spec, nullptr);
  const graph::Csr csr = make_graph(family);

  const Coloring replayed = run(*spec, csr, true);
  ASSERT_EQ(replayed.colors.size(),
            static_cast<std::size_t>(csr.num_vertices));
  const auto violation = find_violation(csr, replayed.colors);
  EXPECT_FALSE(violation.has_value())
      << algorithm_name << " (replay) on " << family_name(family)
      << ": violation at vertex " << (violation ? violation->vertex : -1);
  EXPECT_EQ(replayed.num_colors, count_colors(replayed.colors));

  if (replay_async_on_multiworker(algorithm_name)) {
    GTEST_SKIP() << "fused-interval async regime on multi-worker device: "
                    "verify-only";
  }
  const Coloring eager = run(*spec, csr, false);
  EXPECT_EQ(replayed.colors, eager.colors)
      << algorithm_name << " replay diverged from eager execution on "
      << family_name(family);
  EXPECT_EQ(replayed.num_colors, eager.num_colors);
  EXPECT_EQ(replayed.iterations, eager.iterations);
  // Replay advances the launch counter once per NODE, so the paper's
  // global-sync proxy (kernel_launches by name) is mode-invariant; only
  // barrier_intervals — reported via telemetry — shrinks. The GraphBLAS
  // family ignores replay altogether, so equality holds there trivially.
  EXPECT_EQ(replayed.kernel_launches, eager.kernel_launches)
      << algorithm_name << " launch accounting moved under replay on "
      << family_name(family);
}

std::vector<Param> make_params() {
  std::vector<Param> params;
  const Family families[] = {Family::kErdosRenyi, Family::kRmat,
                             Family::kRgg};
  for (const AlgorithmSpec& spec : all_algorithms()) {
    for (const Family family : families) {
      params.emplace_back(spec.name, family);
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsReplay, GraphReplayTest, ::testing::ValuesIn(make_params()),
    [](const ::testing::TestParamInfo<Param>& param_info) {
      // No structured bindings here: the macro would split on their commas.
      return std::get<0>(param_info.param) + "_" +
             family_name(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace gcol::color
