#pragma once
// Shared pieces of the GraphBLAS coloring implementations (Algorithms 2-4).

#include <cstdint>

#include "core/result.hpp"
#include "graphblas/grb.hpp"
#include "sim/rng.hpp"

namespace gcol::color::detail {

/// Weight type for the random-priority vectors. The paper uses GrB_INT32
/// weights; we widen to 64 bits and append the vertex id in the low bits so
/// weights are pairwise distinct — Luby-style selection then provably
/// terminates (equal int32 draws would leave tied vertices uncolorable
/// forever). The high 31 bits stay uniformly random, so selection
/// probabilities are unchanged except on ties.
using Weight = std::int64_t;

/// The paper's `set_random()`: a counter-RNG draw keyed by *original* vertex
/// id (Options::original_id), made unique by packing that id into the low
/// bits. Always > 0, so weight 0 can mean "colored / not a candidate".
/// Because the max/min reductions the GraphBLAS algorithms run over these
/// weights are order-free and the weights attach to logical vertices, the
/// resulting colorings are invariant to the registry's reorder strategies.
inline grb::Info set_random_weights(grb::Vector<Weight>& weight,
                                    const Options& options) {
  // Stream 0xB1A5 keeps GraphBLAST draws independent of the Gunrock
  // family's (stream 0) for the same user seed, as distinct cuRAND streams
  // would be on the GPU.
  const sim::CounterRng rng(options.seed, 0xB1A5);
  GRB_TRY(grb::assign(weight, nullptr, Weight{0}));
  return grb::apply_indexed(
      weight, nullptr,
      [&rng, &options](grb::Index i, Weight) {
        const auto orig = static_cast<std::uint64_t>(
            options.original_id(static_cast<vid_t>(i)));
        const auto draw = static_cast<Weight>(rng.uniform_int31(orig));
        return (((draw + 1) << 31) |
                static_cast<Weight>(orig & 0x7fffffff)) &
               0x7fffffffffffffff;
      },
      weight);
}

/// Replace semantics: positions the mask or the operation leaves out end
/// with no entry, so an output reused round after round needs no clear().
/// With the weight vector as value mask (nonzero == uncolored), the
/// selection vxm gives colored vertices no max entry and never gathers
/// their rows (paper §III-A1).
inline constexpr grb::Descriptor kReplace{.replace = true};

/// Collapses a vector to exact 0/1 values in place. The GT comparisons of
/// Algorithms 2-3 can leave raw weights at union-only positions; the paper's
/// subsequent Plus-reduce "succ" test only needs emptiness, but booleanizing
/// keeps the reduction overflow-free and the masks crisp.
template <typename T>
grb::Info booleanize(grb::Vector<T>& v) {
  return grb::apply(
      v, nullptr, [](T x) { return static_cast<T>(x != T{0} ? 1 : 0); }, v);
}

}  // namespace gcol::color::detail
