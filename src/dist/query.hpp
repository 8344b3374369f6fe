// One query entry point for the Theorem 6.1 pipelines.
//
// Decision, optimization, counting and optmarked are instances of one
// algorithm: elimination tree (Algorithm 2), bags (Lemma 5.3), then a
// table-algebra convergecast (tree_fold.hpp). A Query names the instance;
// run() and run_solve() are the only code that picks its typed entry point
// (run_decision, ...) and read the typed outcome back into one Verdict.
// dmc, dmcd and the churn engine go through them, and through the one
// verdict -> text / exit-code mapping (docs/ROBUSTNESS.md) and the option
// parser (make_query) below.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "bpt/engine.hpp"
#include "congest/network.hpp"
#include "dist/bags.hpp"
#include "dist/counting.hpp"
#include "dist/decision.hpp"
#include "dist/elim_tree.hpp"
#include "graph/graph.hpp"
#include "mso/ast.hpp"

namespace dmc::dist {

enum class Pipeline { kDecision, kCount, kMaximize, kMinimize, kOptMarked };

/// The pipeline a front-end verb names (decide, maximize, minimize, count);
/// nullopt for anything else.
std::optional<Pipeline> pipeline_for_verb(const std::string& verb);

/// One model-checking question: a pipeline, its formula and free variables.
struct Query {
  Pipeline pipeline = Pipeline::kDecision;
  mso::FormulaPtr formula;
  /// Free variables for kCount (slot order).
  Frees vars;
  /// Free variable for kMaximize / kMinimize / kOptMarked.
  std::string var;
  mso::Sort var_sort = mso::Sort::VertexSet;
  /// kOptMarked: verify against the minimum instead of the maximum.
  bool minimize_marked = false;

  /// The free-variable slots the pipeline's engine is configured over.
  Frees frees() const;
};

/// The schedule-independent verdict of one run; the digest is what
/// incremental-vs-oracle equality is checked on (src/churn/).
struct Verdict {
  bool treedepth_exceeded = false;
  bool holds = false;            // kDecision
  std::uint64_t count = 0;       // kCount
  bool feasible = false;         // kMaximize / kMinimize
  Weight best_weight = 0;        // kMaximize / kMinimize / kOptMarked
  bool satisfies = false;        // kOptMarked
  bool is_optimal = false;       // kOptMarked
  Weight marked_weight = 0;      // kOptMarked

  std::uint64_t digest(Pipeline pipeline) const;
};

/// A typed pipeline outcome read back through the Query.
struct QueryOutcome {
  Verdict verdict;
  /// How the run ended. When !run.ok() the verdict is untrusted.
  congest::RunOutcome run;
  long rounds = 0;              // all phases that ran
  long folds = 0;               // BPT folds (decision / counting)
  std::size_t num_classes = 0;  // |C| reached by the engine
  int max_class_bits = 0;       // kDecision: widest class message
  /// kMaximize / kMinimize: the selected set, by graph vertex / edge.
  std::vector<bool> vertices, edges;
};

/// Per-vertex fold cache: classes for kDecision, COUNT tables for kCount.
using SolveCache = std::variant<DecisionCache, CountingCache>;

/// Runs the whole pipeline (elimination tree, bags, solve) with treedepth
/// budget d. `engine` non-null injects a shared (possibly warm) universe
/// whose config matches the query; kOptMarked always builds its own.
QueryOutcome run(congest::Network& net, const Query& query, int d,
                 bpt::Engine* engine = nullptr,
                 const ElimTreeOptions& tree_opts = {});

/// Solve phase only, over a supplied elimination tree and bag set (the
/// churn engine's seam). Only kDecision and kCount use `cache`.
QueryOutcome run_solve(congest::Network& net, const Query& query,
                       const ElimTreeResult& tree,
                       const std::vector<LocalBag>& bags,
                       bpt::Engine* engine = nullptr,
                       SolveCache* cache = nullptr);

/// Canonical text of a trusted verdict: holds | fails (decision and
/// optmarked), optimum=K | infeasible, count=N.
std::string verdict_text(Pipeline pipeline, const Verdict& verdict);

/// Canonical text of any ending: the verdict text, "treedepth>D", or
/// "degraded: crashed" / "degraded: round budget exhausted" (no verdict).
std::string answer_text(Pipeline pipeline, const QueryOutcome& out, int d);

/// The CLI exit code of an ending: 0 holds / optimum / count, 1 fails /
/// infeasible, 3 treedepth exceeded, 6 round budget exhausted, 7
/// crash-stop faults.
int exit_code(Pipeline pipeline, const QueryOutcome& out);

/// The query a front-end verb's options name: `var` and `sort` ("vset" |
/// "eset") for kMaximize / kMinimize, the free-variable list `vars`
/// ("NAME:vset|eset[,...]", distinct non-empty names) for kCount; the
/// strings a pipeline does not use are ignored. Throws
/// std::invalid_argument ("var: ...", "sort: ...", "vars: ...") on a
/// missing variable, an unknown sort or a bad list.
Query make_query(Pipeline pipeline, mso::FormulaPtr formula,
                 const std::string& var, const std::string& sort,
                 const std::string& vars);

/// Selected-set witness "selected: v1 v3 e0(0-1)": vertex ids ascending,
/// then edge ids ascending with their endpoints.
std::string selected_text(const Graph& g, const std::vector<bool>& vertices,
                          const std::vector<bool>& edges);

}  // namespace dmc::dist
