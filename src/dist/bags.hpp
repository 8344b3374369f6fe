// Distributed construction of the canonical bags (paper Lemma 5.3).
//
// Proceeds top-down along the elimination tree: the root starts with
// B_root = {root}; every node, upon receiving (B_parent, G[B_parent]) with
// the weights and labels of the bag members, extends it with itself and its
// own incident edges into the bag, and forwards the result to its children.
// Bag payloads are O(|B| log n + |B|^2) bits and are fragmented over the
// CONGEST bandwidth, for O(2^d) payload rounds per level and O(2^{2d})
// total rounds, as in the paper.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "congest/network.hpp"
#include "dist/elim_tree.hpp"

namespace dmc::dist {

/// What a node knows about its canonical bag after the protocol.
struct LocalBag {
  std::vector<VertexId> bag;  // ascending *global ids*, includes self
  std::vector<Weight> weights;             // per bag member
  std::vector<std::uint32_t> vlabel_bits;  // per member, over vlabel_names
  struct BagEdge {
    int i = 0, j = 0;  // indices into `bag`, i < j
    Weight weight = 1;
    std::uint32_t elabel_bits = 0;
    bool operator==(const BagEdge&) const = default;
  };
  std::vector<BagEdge> edges;  // G[B], ordered lexicographically

  bool operator==(const LocalBag&) const = default;
};

struct BagsResult {
  std::vector<LocalBag> bags;  // per graph vertex
  long rounds = 0;
  /// Degraded endings (see congest::RunOutcome) leave `bags` incomplete;
  /// callers must check run.ok() before using them.
  congest::RunOutcome run;
};

/// Runs the top-down bag construction. `vlabel_names` / `elabel_names` fix
/// the label-bit order (from the engine config; nodes know the formula).
BagsResult run_bags(congest::Network& net, const ElimTreeResult& tree,
                    const std::vector<std::string>& vlabel_names,
                    const std::vector<std::string>& elabel_names);

/// Coordinator-side mirror of the protocol: bag of v = its root path,
/// members sorted by network id, edges = G[B] in (i, j) order —
/// bit-identical to what run_bags distributes, for zero rounds. The churn
/// engine rebuilds a repaired tree's bags with it.
std::vector<LocalBag> bags_for_tree(
    const congest::Network& net, const ElimTreeResult& tree,
    const std::vector<std::string>& vlabel_names,
    const std::vector<std::string>& elabel_names);

}  // namespace dmc::dist
