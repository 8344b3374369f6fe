// Distributed elimination-tree construction: the paper's Algorithm 2
// (Lemma 5.1).
//
// Given a treedepth budget d, the protocol runs D-1 = 2^d - 2 phases. Each
// phase performs a component-restricted leader election among unmarked
// nodes (min-id flooding for 2^d + 1 rounds — enough because graphs of
// treedepth <= d contain no path on 2^d vertices, Lemma 2.5), after which
// each unmarked node reports its component leader to its neighbors, and
// each marked node of the previous depth adopts, per component, the
// minimum-id reporter as its child. If any node is still unmarked after all
// phases, td(G) > d is reported (that node rejects).
//
// Total rounds: O(2^{2d}), independent of n — the quantity benchmarked in
// EXPERIMENTS.md E1.
#pragma once

#include <memory>
#include <vector>

#include "congest/network.hpp"

namespace dmc::dist {

struct ElimTreeResult {
  bool success = false;  // false => some node rejected: td(G) > d
  /// Per graph vertex (not id): parent vertex (-1 for the root), depth
  /// (1-based), and children (graph vertices). Valid only on success.
  std::vector<int> parent;
  std::vector<int> depth;
  std::vector<std::vector<int>> children;
  long rounds = 0;
  /// How the underlying run ended. When !run.ok() (round budget exhausted
  /// or crash-stop faults) the protocol outputs are untrusted: success is
  /// forced false and must not be read as "td(G) > d".
  congest::RunOutcome run;
};

struct ElimTreeOptions {
  /// Change-only flooding, tuned for the sparse scheduler
  /// (NetworkConfig::sparse_stepping): an unmarked node floods its
  /// component minimum only when it improves (plus the mandatory seed at
  /// each phase's step 0), marked nodes stop flooding entirely, and every
  /// node sleeps between its mandatory steps, waking on traffic or its
  /// next scheduled step. Min-flooding is monotone and idempotent, so the
  /// elected leaders — and hence the resulting tree and the round count —
  /// are identical to the dense schedule; only the message count drops.
  /// Off by default: the dense flood schedule is Algorithm 2's literal
  /// cost model and the E1/E12 baselines gate its exact message counts.
  bool sparse_flood = false;
};

/// The largest treedepth budget d whose Algorithm 2 schedule of
/// (2^d - 1)(2^d + 3) + 1 rounds fits an int.
inline constexpr int kMaxBudget = 15;

/// Runs Algorithm 2 on the network. Stats accumulate in net.stats().
/// Throws std::invalid_argument unless 1 <= d <= kMaxBudget.
ElimTreeResult run_elim_tree(congest::Network& net, int d,
                             const ElimTreeOptions& opts = {});

}  // namespace dmc::dist
