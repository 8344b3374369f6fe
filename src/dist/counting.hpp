// Distributed MSO counting (paper Section 6, COUNT tables).
//
// Bottom-up convergecast of COUNT tables along the elimination tree; the
// root sums the counts of accepting classes and broadcasts the result.
// Works for any number of free set variables (e.g. triangle counting uses
// three singleton vertex-set variables; the count is 6x the number of
// triangles because assignments are ordered).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bpt/engine.hpp"
#include "bpt/tables.hpp"
#include "congest/network.hpp"
#include "dist/bags.hpp"
#include "dist/elim_tree.hpp"
#include "dist/tree_fold.hpp"
#include "mso/ast.hpp"

namespace dmc::dist {

struct CountingOutcome {
  bool treedepth_exceeded = false;
  std::uint64_t count = 0;
  long rounds_elim = 0, rounds_bags = 0, rounds_solve = 0;
  std::size_t num_classes = 0;
  long folds = 0;  // COUNT-table folds performed (= n on a full run)
  /// How the pipeline ended. When !run.ok() every other field is untrusted.
  congest::RunOutcome run;

  long total_rounds() const { return rounds_elim + rounds_bags + rounds_solve; }
};

/// Incremental-refold state for the churn engine: per-vertex root COUNT
/// tables (see FoldCache).
using CountingCache = FoldCache<bpt::CountTable>;

/// Counts satisfying assignments of the free variables (slot order =
/// `vars`) distributively, with treedepth budget d. When `engine` is
/// non-null it is used instead of a fresh one (its config must match
/// `config_for(lower(formula, vars), vars)`); this is how the CLI injects
/// a cache-warmed universe.
CountingOutcome run_count(
    congest::Network& net, const mso::FormulaPtr& formula,
    const std::vector<std::pair<std::string, mso::Sort>>& vars, int d,
    bpt::Engine* engine = nullptr, const ElimTreeOptions& tree_opts = {});

/// Solve phase only, over an externally supplied elimination tree and bag
/// set — the churn-engine seam (see run_decision_solve). When `cache` is
/// non-null it supplies the refold plan and, on a completed run, is
/// refreshed with every vertex's root COUNT table.
CountingOutcome run_count_solve(
    congest::Network& net, const mso::FormulaPtr& formula,
    const std::vector<std::pair<std::string, mso::Sort>>& vars,
    const dist::ElimTreeResult& tree, const std::vector<LocalBag>& bags,
    bpt::Engine* engine = nullptr, CountingCache* cache = nullptr);

}  // namespace dmc::dist
