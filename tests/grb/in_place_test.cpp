// Pins of the in-place execution model (ops.hpp): each operation below is
// ONE kernel launch that writes into the output's own buffers, and a loop
// shaped like Algorithm 2's rounds reuses the same allocations throughout.

#include <gtest/gtest.h>

#include <cstdint>

#include "graph/build.hpp"
#include "graph/generators/erdos_renyi.hpp"
#include "graphblas/grb.hpp"
#include "sim/device.hpp"

namespace gcol::grb {
namespace {

using Weight = std::int64_t;

/// Launches issued by `fn` on the calling thread's context.
template <typename Fn>
std::uint64_t launches_of(Fn&& fn) {
  auto& device = sim::Device::instance();
  const std::uint64_t before = device.launch_count();
  fn();
  return device.launch_count() - before;
}

/// A bitmap vector with nonzero entries at every third position.
Vector<Weight> make_bitmap(Index n) {
  Vector<Weight> mask(n);
  mask.fill(0);
  for (Index i = 0; i < n; i += 3) mask.set_element(i, 1);
  Vector<Weight> out(n);
  Descriptor desc;
  desc.replace = true;
  EXPECT_EQ(assign(out, &mask, Weight{5}, desc), Info::kSuccess);
  EXPECT_TRUE(out.is_bitmap());
  return out;
}

TEST(InPlace, MaskedAssignIntoDenseIsOneLaunch) {
  constexpr Index kN = 1000;
  Vector<Weight> w(kN);
  w.fill(7);
  const Vector<Weight> mask = make_bitmap(kN);
  EXPECT_EQ(launches_of([&] { assign(w, &mask, Weight{2}); }), 1u);
  EXPECT_TRUE(w.is_dense());
  const auto values = w.dense_values();
  EXPECT_EQ(values[0], 2);
  EXPECT_EQ(values[1], 7);
  EXPECT_EQ(values[3], 2);
}

TEST(InPlace, EWiseAddOfDenseAndBitmapIsOneLaunch) {
  constexpr Index kN = 1000;
  Vector<Weight> u(kN);
  u.fill(4);
  const Vector<Weight> v = make_bitmap(kN);
  Vector<Weight> w(kN);
  EXPECT_EQ(launches_of([&] { eWiseAdd(w, nullptr, Plus{}, u, v); }), 1u);
  EXPECT_TRUE(w.is_dense());
  EXPECT_EQ(w.dense_values()[0], 9);
  EXPECT_EQ(w.dense_values()[1], 4);
}

TEST(InPlace, PullVxmIsOneLaunch) {
  const graph::Csr csr =
      graph::build_csr(graph::generate_erdos_renyi(1000, 4000, 3));
  const Matrix<Weight> a(csr);
  Vector<Weight> u(csr.num_vertices);
  u.fill(1);
  const Vector<Weight> mask = make_bitmap(csr.num_vertices);
  Vector<Weight> w(csr.num_vertices);
  Descriptor desc;
  desc.replace = true;
  desc.vxm_mode = VxmMode::kPull;
  EXPECT_EQ(launches_of([&] {
              vxm(w, &mask, max_times_semiring<Weight>(), u, a, desc);
            }),
            1u);
  // Entries only where the mask allows a row with at least one neighbor.
  for (vid_t j = 0; j < csr.num_vertices; ++j) {
    EXPECT_EQ(w.has(j), j % 3 == 0 && csr.degree(j) > 0) << j;
  }
}

TEST(InPlace, DenseReduceIsOneLaunch) {
  constexpr Index kN = 1000;
  Vector<Weight> u(kN);
  u.fill(3);
  Weight total = 0;
  EXPECT_EQ(launches_of([&] { reduce(&total, plus_monoid<Weight>(), u); }),
            1u);
  EXPECT_EQ(total, 3 * kN);
}

/// Algorithm 2's round (masked max vxm, union compare, booleanize, reduce,
/// two masked assigns) must keep c, weight and frontier in the buffers they
/// had after the first round: no operation reallocates its output.
TEST(InPlace, RoundLoopKeepsBuffers) {
  const graph::Csr csr =
      graph::build_csr(graph::generate_erdos_renyi(2000, 8000, 11));
  const Index n = csr.num_vertices;
  const Matrix<Weight> a(csr);
  Vector<std::int32_t> c(n);
  Vector<Weight> weight(n), max(n), frontier(n);
  assign(c, nullptr, std::int32_t{0});
  assign(weight, nullptr, Weight{0});
  apply_indexed(
      weight, nullptr, [](Index i, Weight) { return (i * 7919) % 4093 + 1; },
      weight);
  Descriptor replace;
  replace.replace = true;

  const void* c_data = nullptr;
  const void* weight_data = nullptr;
  const void* frontier_data = nullptr;
  int rounds = 0;
  for (std::int32_t color = 1; color <= 100; ++color) {
    vxm(max, &weight, max_times_semiring<Weight>(), weight, a, replace);
    eWiseAdd(frontier, nullptr, Greater{}, weight, max);
    apply(frontier, nullptr, [](Weight x) { return Weight{x != 0 ? 1 : 0}; },
          frontier);
    Weight succ = 0;
    reduce(&succ, plus_monoid<Weight>(), frontier);
    if (succ == 0) break;
    assign(c, &frontier, color);
    assign(weight, &frontier, Weight{0});
    ++rounds;
    ASSERT_TRUE(c.is_dense());
    ASSERT_TRUE(weight.is_dense());
    ASSERT_TRUE(frontier.is_dense());
    if (color == 1) {
      c_data = c.dense_values().data();
      weight_data = weight.dense_values().data();
      frontier_data = frontier.dense_values().data();
      continue;
    }
    EXPECT_EQ(c.dense_values().data(), c_data) << "round " << color;
    EXPECT_EQ(weight.dense_values().data(), weight_data) << "round " << color;
    EXPECT_EQ(frontier.dense_values().data(), frontier_data)
        << "round " << color;
  }
  EXPECT_GT(rounds, 2);
  for (const std::int32_t color : c.dense_values()) EXPECT_GT(color, 0);
}

}  // namespace
}  // namespace gcol::grb
