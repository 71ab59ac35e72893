// Frontier-mode equivalence suite: for every registered algorithm, the
// frontier representation / traversal direction (sparse compacted lists,
// bitmap forced-push, bitmap forced-pull, occupancy-adaptive auto) must be
// an implementation detail — the colors must come out byte-identical to the
// sparse-list reference and pass the independent verifier. The binary runs
// under whatever GCOL_THREADS the harness sets; tests/CMakeLists.txt
// registers it at 1 worker (where every algorithm is deterministic, so the
// identity check is exact for all of them) and 4 workers (real concurrency;
// the raced proposal/resolution algorithms are verify-only there, same
// exclusion as the determinism property test). The TSan CI job runs both,
// so the bitmap kernels' word-owner writes and atomic-OR publishes get
// race-checked under every direction.
//
// The Gunrock AR colorings additionally match a serial reference in every
// mode, on shapes whose hubs span more than one bitmap word and more than
// one merge-path segment: a round colors each uncolored vertex whose packed
// priority beats every neighbor that was uncolored when the round began.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
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
#include "sim/rng.hpp"
#include "testing/fixtures.hpp"

namespace gcol::color {
namespace {

enum class Family { kErdosRenyi, kRgg };

const char* family_name(Family family) {
  switch (family) {
    case Family::kErdosRenyi: return "Gnm";
    case Family::kRgg: return "Rgg";
  }
  return "Unknown";
}

graph::Csr make_graph(Family family) {
  switch (family) {
    case Family::kErdosRenyi:
      // Sparse enough that shrinking frontiers stay in push territory for a
      // while before any pull crossover: exercises the adaptive switch.
      return graph::build_csr(graph::generate_erdos_renyi(600, 3000, 42));
    case Family::kRgg:
      return graph::build_csr(graph::generate_rgg(9, {.seed = 7}));
  }
  return {};
}

Coloring run(const AlgorithmSpec& spec, const graph::Csr& csr,
             gr::FrontierMode mode) {
  Options options;
  options.seed = 99;
  options.frontier_mode = mode;
  return spec.run(csr, options);
}

/// Bitwise identity across representations only holds when the algorithm
/// itself is deterministic under the current worker count; the raced
/// proposal/resolution algorithms are checked for validity only on
/// multi-worker devices (mirrors property_test's DeterministicForSeed).
bool raced_on_multiworker(const std::string& name) {
  return sim::Device::instance().num_workers() > 1 &&
         (name == "gunrock_hash" || name == "gm_speculative");
}

using Param = std::tuple<std::string, Family, gr::FrontierMode>;

class FrontierModeTest : public ::testing::TestWithParam<Param> {};

TEST_P(FrontierModeTest, MatchesSparseReference) {
  const auto& [algorithm_name, family, mode] = GetParam();
  const AlgorithmSpec* spec = find_algorithm(algorithm_name);
  ASSERT_NE(spec, nullptr);
  const graph::Csr csr = make_graph(family);

  const Coloring result = run(*spec, csr, mode);
  ASSERT_EQ(result.colors.size(), static_cast<std::size_t>(csr.num_vertices));
  const auto violation = find_violation(csr, result.colors);
  EXPECT_FALSE(violation.has_value())
      << algorithm_name << " (" << gr::to_string(mode) << ") on "
      << family_name(family) << ": violation at vertex "
      << (violation ? violation->vertex : -1);
  EXPECT_EQ(result.num_colors, count_colors(result.colors));

  if (raced_on_multiworker(algorithm_name)) {
    GTEST_SKIP() << "raced algorithm on multi-worker device: verify-only";
  }
  const Coloring reference = run(*spec, csr, gr::FrontierMode::kSparse);
  EXPECT_EQ(result.colors, reference.colors)
      << algorithm_name << " (" << gr::to_string(mode)
      << ") diverged from the sparse-list reference on "
      << family_name(family);
}

std::vector<Param> make_params() {
  std::vector<Param> params;
  const Family families[] = {Family::kErdosRenyi, Family::kRgg};
  const gr::FrontierMode modes[] = {
      gr::FrontierMode::kSparse, gr::FrontierMode::kBitmapPush,
      gr::FrontierMode::kBitmapPull, gr::FrontierMode::kAuto};
  for (const AlgorithmSpec& spec : all_algorithms()) {
    for (const Family family : families) {
      for (const gr::FrontierMode mode : modes) {
        params.emplace_back(spec.name, family, mode);
      }
    }
  }
  return params;
}

std::string mode_tag(gr::FrontierMode mode) {
  switch (mode) {
    case gr::FrontierMode::kSparse: return "sparse";
    case gr::FrontierMode::kBitmapPush: return "push";
    case gr::FrontierMode::kBitmapPull: return "pull";
    case gr::FrontierMode::kAuto: return "auto";
  }
  return "unknown";
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAllModes, FrontierModeTest, ::testing::ValuesIn(make_params()),
    [](const ::testing::TestParamInfo<Param>& param_info) {
      // No structured bindings here: the macro would split on their commas.
      return std::get<0>(param_info.param) + "_" +
             family_name(std::get<1>(param_info.param)) + "_" +
             mode_tag(std::get<2>(param_info.param));
    });

// ---- Gunrock AR serial reference --------------------------------------------

enum class Shape { kRmatHub, kStar, kClique, kErdosRenyi };

const char* shape_name(Shape shape) {
  switch (shape) {
    case Shape::kRmatHub: return "RmatHub";
    case Shape::kStar: return "Star200";
    case Shape::kClique: return "K65";
    case Shape::kErdosRenyi: return "Gnm";
  }
  return "Unknown";
}

graph::Csr make_shape(Shape shape) {
  switch (shape) {
    case Shape::kRmatHub:
      return graph::build_csr(graph::generate_rmat(9, 8, {.seed = 5}));
    case Shape::kStar: return testing::star_graph(201);  // K_{1,200}
    case Shape::kClique: return testing::clique_graph(65);
    case Shape::kErdosRenyi:
      return graph::build_csr(graph::generate_erdos_renyi(600, 3000, 42));
  }
  return {};
}

/// Algorithm 7 run serially, one BSP round at a time. The plain variant
/// gives round r's local maxima color r; the fused variant gives them 2r
/// and the remaining local minima 2r + 1.
std::vector<std::int32_t> ar_reference(const graph::Csr& csr,
                                       std::uint64_t seed, bool fused) {
  const auto un = static_cast<std::size_t>(csr.num_vertices);
  const sim::CounterRng rng(seed);
  std::vector<std::int64_t> priority(un);
  for (vid_t v = 0; v < csr.num_vertices; ++v) {
    priority[static_cast<std::size_t>(v)] =
        (static_cast<std::int64_t>(
             rng.uniform_int31(static_cast<std::uint64_t>(v)))
         << 32) |
        v;
  }
  std::vector<std::int32_t> colors(un, kUncolored);
  for (std::int32_t round = 0;
       std::count(colors.begin(), colors.end(), kUncolored) > 0; ++round) {
    const std::vector<std::int32_t> start = colors;
    for (vid_t v = 0; v < csr.num_vertices; ++v) {
      const auto uv = static_cast<std::size_t>(v);
      if (start[uv] != kUncolored) continue;
      std::int64_t max = std::numeric_limits<std::int64_t>::min();
      std::int64_t min = std::numeric_limits<std::int64_t>::max();
      for (const vid_t u : csr.neighbors(v)) {
        const auto uu = static_cast<std::size_t>(u);
        if (start[uu] != kUncolored) continue;
        max = std::max(max, priority[uu]);
        min = std::min(min, priority[uu]);
      }
      if (priority[uv] > max) {
        colors[uv] = fused ? 2 * round : round;
      } else if (fused && priority[uv] < min) {
        colors[uv] = 2 * round + 1;
      }
    }
  }
  return colors;
}

using ArParam = std::tuple<std::string, Shape, gr::FrontierMode>;

class ArReferenceTest : public ::testing::TestWithParam<ArParam> {};

TEST_P(ArReferenceTest, MatchesSerialReference) {
  const auto& [algorithm_name, shape, mode] = GetParam();
  const graph::Csr csr = make_shape(shape);
  if (shape == Shape::kRmatHub || shape == Shape::kStar) {
    ASSERT_GT(csr.max_degree(), 64) << "hub must span more than one word";
  }
  const Coloring result = run(*find_algorithm(algorithm_name), csr, mode);
  EXPECT_EQ(result.colors,
            ar_reference(csr, 99, algorithm_name == "gunrock_ar_fused"))
      << algorithm_name << " (" << gr::to_string(mode) << ") on "
      << shape_name(shape);
  EXPECT_TRUE(is_valid_coloring(csr, result.colors));
}

std::vector<ArParam> make_ar_params() {
  std::vector<ArParam> params;
  for (const char* name : {"gunrock_ar", "gunrock_ar_fused"}) {
    for (const Shape shape : {Shape::kRmatHub, Shape::kStar, Shape::kClique,
                              Shape::kErdosRenyi}) {
      for (const gr::FrontierMode mode :
           {gr::FrontierMode::kSparse, gr::FrontierMode::kBitmapPush,
            gr::FrontierMode::kBitmapPull, gr::FrontierMode::kAuto}) {
        params.emplace_back(name, shape, mode);
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    GunrockAr, ArReferenceTest, ::testing::ValuesIn(make_ar_params()),
    [](const ::testing::TestParamInfo<ArParam>& param_info) {
      return std::get<0>(param_info.param) + "_" +
             shape_name(std::get<1>(param_info.param)) + "_" +
             mode_tag(std::get<2>(param_info.param));
    });

}  // namespace
}  // namespace gcol::color
