#include "seq/courcelle.hpp"

#include <algorithm>
#include <stdexcept>

#include "bpt/engine.hpp"
#include "bpt/plan.hpp"
#include "bpt/tables.hpp"
#include "graph/algorithms.hpp"
#include "mso/lower.hpp"
#include "td/elimination_forest.hpp"

namespace dmc::seq {

namespace {

struct Prepared {
  mso::FormulaPtr lowered;
  bpt::Engine engine;
  bpt::Plan plan;
};

Prepared prepare(const Graph& g, const mso::FormulaPtr& formula,
                 const std::vector<std::pair<std::string, mso::Sort>>& frees,
                 const TreeDecomposition& td) {
  mso::FormulaPtr lowered = mso::lower(formula, frees);
  bpt::EngineConfig cfg = bpt::config_for(*lowered, frees);
  return Prepared{std::move(lowered), bpt::Engine(std::move(cfg)),
                  bpt::build_global_plan(g, td)};
}

}  // namespace

TreeDecomposition decomposition_for(const Graph& g) {
  return canonical_tree_decomposition(g, balanced_elimination_forest(g));
}

bool decide(const Graph& g, const mso::FormulaPtr& formula,
            const TreeDecomposition& td) {
  if (g.num_vertices() == 0)
    throw std::invalid_argument("decide: empty graph");
  Prepared p = prepare(g, formula, {}, td);
  const bpt::TypeId root = bpt::fold_type(p.engine, p.plan, g);
  bpt::Evaluator eval(p.engine, p.lowered);
  return eval.eval(root);
}

bool decide(const Graph& g, const mso::FormulaPtr& formula) {
  return decide(g, formula, decomposition_for(g));
}

std::optional<OptResult> maximize(const Graph& g,
                                  const mso::FormulaPtr& formula,
                                  const std::string& var, mso::Sort var_sort,
                                  const TreeDecomposition& td) {
  if (g.num_vertices() == 0)
    throw std::invalid_argument("maximize: empty graph");
  const std::vector<std::pair<std::string, mso::Sort>> frees{{var, var_sort}};
  Prepared p = prepare(g, formula, frees, td);
  bpt::OptSolver solver(p.engine, p.plan, g);
  bpt::Evaluator eval(p.engine, p.lowered, frees);
  const auto best = bpt::best_accepting(solver.root_table(), eval);
  if (!best) return std::nullopt;
  auto sol = solver.reconstruct(best->first);
  return OptResult{best->second, std::move(sol.vertices),
                   std::move(sol.edges)};
}

std::optional<OptResult> maximize(const Graph& g,
                                  const mso::FormulaPtr& formula,
                                  const std::string& var, mso::Sort var_sort) {
  return maximize(g, formula, var, var_sort, decomposition_for(g));
}

std::optional<OptResult> minimize(const Graph& g,
                                  const mso::FormulaPtr& formula,
                                  const std::string& var, mso::Sort var_sort,
                                  const TreeDecomposition& td) {
  Graph negated = g;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    negated.set_vertex_weight(v, -g.vertex_weight(v));
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    negated.set_edge_weight(e, -g.edge_weight(e));
  auto result = maximize(negated, formula, var, var_sort, td);
  if (result) result->weight = -result->weight;
  return result;
}

std::optional<OptResult> minimize(const Graph& g,
                                  const mso::FormulaPtr& formula,
                                  const std::string& var, mso::Sort var_sort) {
  return minimize(g, formula, var, var_sort, decomposition_for(g));
}

std::uint64_t count(const Graph& g, const mso::FormulaPtr& formula,
                    const std::vector<std::pair<std::string, mso::Sort>>& vars,
                    const TreeDecomposition& td) {
  if (g.num_vertices() == 0)
    throw std::invalid_argument("count: empty graph");
  Prepared p = prepare(g, formula, vars, td);
  const auto tables = bpt::fold_count(p.engine, p.plan, g);
  bpt::Evaluator eval(p.engine, p.lowered, vars);
  return bpt::count_accepting(tables[p.plan.root], eval);
}

std::uint64_t count(const Graph& g, const mso::FormulaPtr& formula,
                    const std::vector<std::pair<std::string, mso::Sort>>& vars) {
  return count(g, formula, vars, decomposition_for(g));
}

}  // namespace dmc::seq
