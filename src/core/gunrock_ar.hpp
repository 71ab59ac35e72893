#pragma once
// Gunrock Advance Neighbor-Reduce coloring — the paper's Algorithm 7
// (`Gunrock/Color_AR`, the Table II baseline). It replaces IS's serial
// per-vertex neighbor loop with a load-balanced advance + segmented
// reduction over the neighbor frontier. The paper finds that materializing
// the neighbor frontier and the extra global synchronizations outweigh the
// load-balancing benefit on mesh graphs. Here the neighbor-reduce is fused
// (no materialized neighbor frontier) and colored vertices retire to the
// reduce identity, so each neighbor visit is one load; AR still pays more
// launches per round than IS, but not more time (EXPERIMENTS.md, Table II).
//
// One color per iteration: "the Reduce operator consumes the Advance
// neighbor frontier; reusing the frontier for a second comparison is not
// permitted" (§IV-B3), so the min-max trick does not apply — unless the
// reduction itself is widened. The paper names that as future work:
// "Another future optimization is to fuse the max and min operations and
// use a single reduce operator to avoid a global synchronization."
// `fused_minmax` implements it: one segmented reduction over (max, min)
// pairs recovers two colors per iteration at no extra pass.

#include "core/result.hpp"
#include "graph/csr.hpp"

namespace gcol::color {

struct GunrockArOptions : Options {
  /// Fuse max and min into one segmented reduction (paper §IV-B3 future
  /// work): two colors per iteration, same pass count.
  bool fused_minmax = false;
};

[[nodiscard]] Coloring gunrock_ar_color(const graph::Csr& csr,
                                        const GunrockArOptions& options = {});

}  // namespace gcol::color
