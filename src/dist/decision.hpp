// Distributed MSO model checking (paper Theorem 6.1, decision part).
//
// Pipeline: Algorithm 2 (elimination tree, O(2^{2d}) rounds) -> Lemma 5.3
// (bags, O(2^{2d}) rounds) -> bottom-up class convergecast along the
// elimination tree (depth(T) < 2^d rounds, messages of ceil(log |C|) bits)
// -> verdict at the root, broadcast down (depth rounds, 1-bit messages).
//
// Every node's per-round computation is the local composition of Lemma 4.3,
// performed with the shared BPT engine (the class set C and the update
// functions are computable from (phi, w) alone — Theorem 4.2 — so sharing
// one interner across simulated nodes is sound; class ids in messages are
// charged ceil(log2 |C|) bits).
#pragma once

#include "bpt/engine.hpp"
#include "congest/network.hpp"
#include "dist/bags.hpp"
#include "dist/elim_tree.hpp"
#include "dist/tree_fold.hpp"
#include "mso/ast.hpp"

namespace dmc::dist {

struct DecisionOutcome {
  bool treedepth_exceeded = false;  // some node rejected during Algorithm 2
  bool holds = false;               // G |= phi (valid unless exceeded)
  long rounds_elim = 0;
  long rounds_bags = 0;
  long rounds_updown = 0;
  std::size_t num_classes = 0;      // |C| reached by the engine
  int max_class_bits = 0;           // bits of the largest class message
  long folds = 0;                   // BPT folds performed (= n on a full run)
  /// How the pipeline ended. When !run.ok() (round budget exhausted or
  /// crash-stop faults in any stage) `holds` and `treedepth_exceeded` are
  /// untrusted and must not be interpreted.
  congest::RunOutcome run;

  long total_rounds() const { return rounds_elim + rounds_bags + rounds_updown; }
};

/// Incremental-refold state for the churn engine: per-vertex subtree
/// classes (see FoldCache).
using DecisionCache = FoldCache<bpt::TypeId>;

/// Decides the closed formula on the network, with treedepth budget d.
/// If `engine` is non-null it is used (and filled) instead of a fresh one —
/// useful for running many instances against one class universe.
/// `tree_opts` tunes the elimination-tree prologue (e.g. change-only
/// flooding for the sparse scheduler); the verdict is unaffected.
DecisionOutcome run_decision(congest::Network& net,
                             const mso::FormulaPtr& formula, int d,
                             bpt::Engine* engine = nullptr,
                             const ElimTreeOptions& tree_opts = {});

/// Solve phase only: the class convergecast + verdict broadcast over an
/// externally supplied elimination tree and bag set (`bags[v]` for graph
/// vertex v). This is the seam the churn engine re-enters after an
/// incremental repair — the elim/bags prologue of run_decision is skipped,
/// so a repaired epoch costs only the up/down rounds. When `cache` is
/// non-null it supplies the refold plan and, on a completed run, is
/// refreshed with every vertex's class (refold flags cleared).
DecisionOutcome run_decision_solve(congest::Network& net,
                                   const mso::FormulaPtr& formula,
                                   const ElimTreeResult& tree,
                                   const std::vector<LocalBag>& bags,
                                   bpt::Engine* engine = nullptr,
                                   DecisionCache* cache = nullptr);

}  // namespace dmc::dist
