// Model-checking sweep: apply long random sequences of GraphBLAS operations
// simultaneously to a grb::Vector (which switches between sparse, dense and
// bitmap representations under the hood) and to a trivially-correct
// reference model (index -> value map). After every operation the two must
// agree exactly on structure and values. This is the test that catches
// representation-conversion and in-place aliasing bugs no hand-written case
// thinks of.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <tuple>

#include "graph/build.hpp"
#include "graph/generators/erdos_renyi.hpp"
#include "graphblas/grb.hpp"
#include "sim/rng.hpp"

namespace gcol::grb {
namespace {

using Value = std::int64_t;
using Model = std::map<Index, Value>;

/// Reference-model mask predicate: value semantics (entry present and
/// nonzero) by default, structure semantics (entry present) on request.
bool model_mask_set(const Model& mask, Index i, bool structure) {
  const auto it = mask.find(i);
  return it != mask.end() && (structure || it->second != 0);
}

void expect_agree(const Vector<Value>& vec, const Model& model,
                  const std::string& context) {
  ASSERT_EQ(vec.nvals(), static_cast<Index>(model.size())) << context;
  for (Index i = 0; i < vec.size(); ++i) {
    Value value = 0;
    const bool present = vec.extract_element(&value, i) == Info::kSuccess;
    const auto it = model.find(i);
    ASSERT_EQ(present, it != model.end())
        << context << ": presence mismatch at " << i;
    if (present) {
      ASSERT_EQ(value, it->second)
          << context << ": value mismatch at " << i;
    }
  }
}

/// One output vector evolves under random masked operations over fixed
/// inputs (value-semantics mask, no aliasing beyond w == u in eWise*).
class ModelCheckTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModelCheckTest, RandomOpSequenceAgreesWithReference) {
  constexpr Index kSize = 40;
  const sim::CounterRng rng(GetParam());
  std::uint64_t counter = 0;
  auto draw = [&](std::uint64_t bound) {
    return rng.uniform_below(counter++, bound);
  };

  Vector<Value> w(kSize), u(kSize), mask(kSize);
  Model w_model, u_model, mask_model;

  // Keep u and mask in fixed random states (sparse-ish) refreshed rarely;
  // mutate w with random masked operations.
  auto refresh = [&](Vector<Value>& vec, Model& model, std::uint64_t fill) {
    vec.clear();
    model.clear();
    for (Index i = 0; i < kSize; ++i) {
      if (draw(100) < fill) {
        const auto value = static_cast<Value>(draw(5));  // zeros included
        ASSERT_EQ(vec.set_element(i, value), Info::kSuccess);
        model[i] = value;
      }
    }
  };
  refresh(u, u_model, 60);
  refresh(mask, mask_model, 50);

  for (int step = 0; step < 300; ++step) {
    const std::uint64_t op = draw(8);
    const bool use_mask = draw(2) == 0;
    Descriptor desc;
    desc.replace = draw(3) == 0;
    desc.mask_complement = use_mask && draw(3) == 0;
    const Vector<Value>* mask_ptr = use_mask ? &mask : nullptr;
    auto allows = [&](Index i) {
      if (!use_mask) return !desc.mask_complement;
      const bool set = model_mask_set(mask_model, i, /*structure=*/false);
      return desc.mask_complement ? !set : set;
    };
    // Generic model write-back for an op whose produced entries are given
    // by `produced(i)` returning optional<Value>.
    auto model_write_back = [&](auto produced) {
      Model next;
      for (Index i = 0; i < kSize; ++i) {
        const std::optional<Value> out = produced(i);
        if (allows(i) && out.has_value()) {
          next[i] = *out;
        } else if (!desc.replace) {
          const auto it = w_model.find(i);
          if (it != w_model.end()) next[i] = it->second;
        }
      }
      w_model = std::move(next);
    };

    switch (op) {
      case 0: {  // assign scalar
        const auto value = static_cast<Value>(draw(100));
        ASSERT_EQ(assign(w, mask_ptr, value, desc), Info::kSuccess);
        model_write_back(
            [&](Index) { return std::optional<Value>(value); });
        break;
      }
      case 1: {  // apply +1 on u
        ASSERT_EQ(apply(w, mask_ptr, [](Value x) { return x + 1; }, u, desc),
                  Info::kSuccess);
        model_write_back([&](Index i) -> std::optional<Value> {
          const auto it = u_model.find(i);
          if (it == u_model.end()) return std::nullopt;
          return it->second + 1;
        });
        break;
      }
      case 2: {  // eWiseAdd(w, u)
        const Model before = w_model;
        ASSERT_EQ(eWiseAdd(w, mask_ptr, Plus{}, w, u, desc), Info::kSuccess);
        model_write_back([&](Index i) -> std::optional<Value> {
          const auto a = before.find(i);
          const auto b = u_model.find(i);
          if (a == before.end() && b == u_model.end()) return std::nullopt;
          if (a == before.end()) return b->second;
          if (b == u_model.end()) return a->second;
          return a->second + b->second;
        });
        break;
      }
      case 3: {  // eWiseMult(w, u)
        const Model before = w_model;
        ASSERT_EQ(eWiseMult(w, mask_ptr, Times{}, w, u, desc),
                  Info::kSuccess);
        model_write_back([&](Index i) -> std::optional<Value> {
          const auto a = before.find(i);
          const auto b = u_model.find(i);
          if (a == before.end() || b == u_model.end()) return std::nullopt;
          return a->second * b->second;
        });
        break;
      }
      case 4: {  // set_element
        const auto i = static_cast<Index>(draw(static_cast<std::uint64_t>(kSize)));
        const auto value = static_cast<Value>(draw(100));
        ASSERT_EQ(w.set_element(i, value), Info::kSuccess);
        w_model[i] = value;
        break;
      }
      case 5: {  // clear (occasionally)
        if (draw(4) == 0) {
          w.clear();
          w_model.clear();
        }
        break;
      }
      case 6: {  // reduce must match the model sum (read-only)
        Value total = 0;
        ASSERT_EQ(reduce(&total, plus_monoid<Value>(), w), Info::kSuccess);
        Value expected = 0;
        for (const auto& [i, value] : w_model) expected += value;
        ASSERT_EQ(total, expected) << "step " << step;
        break;
      }
      default: {  // densify with a random fill
        const auto fill = static_cast<Value>(draw(10));
        w.densify(fill);
        for (Index i = 0; i < kSize; ++i) {
          if (w_model.find(i) == w_model.end()) w_model[i] = fill;
        }
        break;
      }
    }
    expect_agree(w, w_model, ("after step " + std::to_string(step)).c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelCheckTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& p) {
                           return "Seed" + std::to_string(p.param);
                         });

/// Binary ops for the element-wise cases: non-commutative, so a swapped
/// operand shows, and bounded, so aliased repeats (w = w op w) never
/// overflow.
constexpr auto kAddOp = [](Value x, Value y) { return (x + 2 * y) % 1000; };
constexpr auto kMultOp = [](Value x, Value y) { return (x * y + x) % 1000; };

/// Sizes below, at and well past one 64-position word and the per-slot
/// split of a multi-worker device.
using Param = std::tuple<std::uint64_t, Index>;

class AliasingModelCheckTest : public ::testing::TestWithParam<Param> {};

/// Three vectors evolve under random operations whose output, inputs and
/// mask are each drawn from the same three, so every aliasing the
/// algorithms use — w == u (booleanize), w == mask, mask == u
/// (vxm(max, &cand, ..., cand)), w == v — occurs, with and without
/// replace, complement and structure masks.
TEST_P(AliasingModelCheckTest, RandomOpSequenceAgreesWithReference) {
  const auto [seed, size] = GetParam();
  const sim::CounterRng rng(seed);
  std::uint64_t counter = 0;
  auto draw = [&](std::uint64_t bound) {
    return rng.uniform_below(counter++, bound);
  };
  const graph::Csr csr = graph::build_csr(graph::generate_erdos_renyi(
      static_cast<vid_t>(size), size * 2, seed));
  const Matrix<Value> a(csr);

  Vector<Value> vecs[3] = {Vector<Value>(size), Vector<Value>(size),
                           Vector<Value>(size)};
  Model models[3];
  auto refresh = [&](int k, std::uint64_t fill) {
    vecs[k].clear();
    models[k].clear();
    for (Index i = 0; i < size; ++i) {
      if (draw(100) < fill) {
        const auto value = static_cast<Value>(draw(5));  // zeros included
        ASSERT_EQ(vecs[k].set_element(i, value), Info::kSuccess);
        models[k][i] = value;
      }
    }
  };
  refresh(1, 60);
  refresh(2, 50);

  for (int step = 0; step < 300; ++step) {
    const std::uint64_t op = draw(9);
    const auto out = static_cast<int>(draw(3));
    const auto in_u = static_cast<int>(draw(3));
    const auto in_v = static_cast<int>(draw(3));
    const int mask_k = static_cast<int>(draw(4)) - 1;  // -1: no mask
    Descriptor desc;
    desc.replace = draw(3) == 0;
    desc.mask_complement = draw(4) == 0;
    desc.mask_structure = draw(4) == 0;
    const Vector<Value>* mask_ptr = mask_k >= 0 ? &vecs[mask_k] : nullptr;
    Vector<Value>& w = vecs[out];
    const Vector<Value>& u = vecs[in_u];
    const Vector<Value>& v = vecs[in_v];
    // Snapshots: an aliased output must not perturb its own reference.
    const Model u_model = models[in_u];
    const Model v_model = models[in_v];
    const Model mask_model = mask_k >= 0 ? models[mask_k] : Model{};
    const Model w_before = models[out];
    auto allows = [&](Index i) {
      if (mask_k < 0) return !desc.mask_complement;
      const bool set = model_mask_set(mask_model, i, desc.mask_structure);
      return desc.mask_complement ? !set : set;
    };
    // Generic model write-back for an op whose produced entries are given
    // by `produced(i)` returning optional<Value>.
    auto model_write_back = [&](auto produced) {
      Model next;
      for (Index i = 0; i < size; ++i) {
        const std::optional<Value> result = produced(i);
        if (allows(i) && result.has_value()) {
          next[i] = *result;
        } else if (!desc.replace) {
          const auto it = w_before.find(i);
          if (it != w_before.end()) next[i] = it->second;
        }
      }
      models[out] = std::move(next);
    };
    auto lookup = [](const Model& model, Index i) -> std::optional<Value> {
      const auto it = model.find(i);
      if (it == model.end()) return std::nullopt;
      return it->second;
    };

    switch (op) {
      case 0: {  // assign scalar
        const auto value = static_cast<Value>(draw(100));
        ASSERT_EQ(assign(w, mask_ptr, value, desc), Info::kSuccess);
        model_write_back(
            [&](Index) { return std::optional<Value>(value); });
        break;
      }
      case 1: {  // apply +1
        ASSERT_EQ(apply(w, mask_ptr, [](Value x) { return x + 1; }, u, desc),
                  Info::kSuccess);
        model_write_back([&](Index i) -> std::optional<Value> {
          const auto x = lookup(u_model, i);
          if (!x) return std::nullopt;
          return *x + 1;
        });
        break;
      }
      case 2: {  // eWiseAdd
        ASSERT_EQ(eWiseAdd(w, mask_ptr, kAddOp, u, v, desc), Info::kSuccess);
        model_write_back([&](Index i) -> std::optional<Value> {
          const auto x = lookup(u_model, i);
          const auto y = lookup(v_model, i);
          if (x && y) return kAddOp(*x, *y);
          return x ? x : y;
        });
        break;
      }
      case 3: {  // eWiseMult
        ASSERT_EQ(eWiseMult(w, mask_ptr, kMultOp, u, v, desc),
                  Info::kSuccess);
        model_write_back([&](Index i) -> std::optional<Value> {
          const auto x = lookup(u_model, i);
          const auto y = lookup(v_model, i);
          if (!x || !y) return std::nullopt;
          return kMultOp(*x, *y);
        });
        break;
      }
      case 4: {  // vxm over max-times, every traversal
        desc.vxm_mode = static_cast<VxmMode>(draw(3));
        ASSERT_EQ(vxm(w, mask_ptr, max_times_semiring<Value>(), u, a, desc),
                  Info::kSuccess);
        model_write_back([&](Index j) -> std::optional<Value> {
          std::optional<Value> acc;
          for (const vid_t i : csr.neighbors(static_cast<vid_t>(j))) {
            const auto x = lookup(u_model, i);
            if (x) acc = acc ? std::max(*acc, *x) : *x;
          }
          return acc;
        });
        break;
      }
      case 5: {  // set_element / occasional clear
        if (draw(8) == 0) {
          w.clear();
          models[out].clear();
          break;
        }
        const auto i =
            static_cast<Index>(draw(static_cast<std::uint64_t>(size)));
        const auto value = static_cast<Value>(draw(100));
        ASSERT_EQ(w.set_element(i, value), Info::kSuccess);
        models[out][i] = value;
        break;
      }
      case 6: {  // reduce must match the model sum (read-only)
        Value total = 0;
        ASSERT_EQ(reduce(&total, plus_monoid<Value>(), u), Info::kSuccess);
        Value expected = 0;
        for (const auto& [i, value] : u_model) expected += value;
        ASSERT_EQ(total, expected) << "step " << step;
        break;
      }
      case 7: {  // densify with a random fill
        const auto fill = static_cast<Value>(draw(10));
        w.densify(fill);
        for (Index i = 0; i < size; ++i) {
          if (models[out].find(i) == models[out].end()) models[out][i] = fill;
        }
        break;
      }
      default: {  // a fresh sparse state, so sparse inputs keep occurring
        refresh(out, draw(100));
        break;
      }
    }
    for (int k = 0; k < 3; ++k) {
      expect_agree(vecs[k], models[k],
                   "vector " + std::to_string(k) + " after step " +
                       std::to_string(step) + " (op " + std::to_string(op) +
                       ")");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, AliasingModelCheckTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u),
                       ::testing::Values(Index{40})),
    [](const ::testing::TestParamInfo<Param>& p) {
      return "Seed" + std::to_string(std::get<0>(p.param));
    });

INSTANTIATE_TEST_SUITE_P(
    SeedsAndSizes, AliasingModelCheckTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u),
                       ::testing::Values(Index{130}, Index{1000})),
    [](const ::testing::TestParamInfo<Param>& p) {
      return "Seed" + std::to_string(std::get<0>(p.param)) + "_N" +
             std::to_string(std::get<1>(p.param));
    });

}  // namespace
}  // namespace gcol::grb
