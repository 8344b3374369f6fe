// The class algebra's fold memo (src/dist/decision.cpp, FoldMemo): a node
// whose id-free fold key repeats takes the class a previous fold computed
// instead of folding again. These tests check the memo against the fold it
// replaces: every vertex's class must equal bpt::fold_type run directly on
// the vertex's fold context, and the protocol-level fold count must still
// read one fold per vertex (n on a full run, the refold set under churn).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bpt/engine.hpp"
#include "bpt/tables.hpp"
#include "churn/engine.hpp"
#include "congest/network.hpp"
#include "dist/bags.hpp"
#include "dist/decision.hpp"
#include "dist/elim_tree.hpp"
#include "dist/query.hpp"
#include "dist/tree_fold.hpp"
#include "graph/generators.hpp"
#include "metrics/metrics.hpp"
#include "mso/formulas.hpp"
#include "mso/lower.hpp"

namespace dmc::dist {
namespace {

namespace lib = mso::lib;

/// Runs the decision pipeline phase by phase with a fold cache, so every
/// vertex's class is visible, then refolds each vertex with
/// bpt::fold_type on its fold context and the classes its children sent.
/// Returns the memo's hit count.
long expect_classes_match_direct_folds(const Graph& g,
                                       const mso::FormulaPtr& formula, int d,
                                       unsigned id_seed) {
  metrics::Registry reg;
  congest::NetworkConfig cfg;
  cfg.id_seed = id_seed;
  cfg.metrics = &reg;
  congest::Network net(g, cfg);
  bpt::Engine engine(bpt::config_for(*mso::lower(formula)));
  const auto& ecfg = engine.config();
  ElimTreeOptions opts;
  opts.sparse_flood = true;
  const ElimTreeResult tree = run_elim_tree(net, d, opts);
  EXPECT_TRUE(tree.success);
  if (!tree.success) return 0;
  const BagsResult bags =
      run_bags(net, tree, ecfg.vertex_labels, ecfg.edge_labels);
  EXPECT_TRUE(bags.run.ok());
  if (!bags.run.ok()) return 0;

  DecisionCache cache;
  cache.invalidate(net.n());
  const DecisionOutcome out =
      run_decision_solve(net, formula, tree, bags.bags, &engine, &cache);
  EXPECT_TRUE(out.run.ok());
  EXPECT_EQ(out.folds, net.n());
  const long hits = reg.counter("dist.fold_memo.hits").value();
  EXPECT_EQ(hits + reg.counter("dist.fold_memo.misses").value(), net.n());
  if (!out.run.ok()) return hits;

  const std::size_t types = engine.num_types();
  const FoldSetup setup{"check", ecfg.vertex_labels, ecfg.edge_labels};
  for (int v = 0; v < net.n(); ++v) {
    std::vector<VertexId> child_ids;
    std::vector<bpt::TypeId> child_classes;
    for (int c : tree.children[v]) {
      child_ids.push_back(net.id_of_vertex(c));
      child_classes.push_back(*cache.summaries[c]);
    }
    const LocalContext local = fold_context(bags.bags[v], child_ids, setup);
    EXPECT_EQ(bpt::fold_type(engine, local.plan, local.graph, child_classes),
              *cache.summaries[v])
        << "vertex " << v;
  }
  // The direct folds re-derive classes the run already interned.
  EXPECT_EQ(engine.num_types(), types);
  return hits;
}

TEST(DistFoldMemo, DeepPathClassesMatchDirectFolds) {
  const long hits = expect_classes_match_direct_folds(
      gen::deeppath(2000, 4), lib::triangle_free(), 4, /*id_seed=*/17);
  // Two thousand nodes share a handful of fold keys.
  EXPECT_GT(hits, 1900);
}

TEST(DistFoldMemo, BoundedTreedepthClassesMatchDirectFolds) {
  gen::Rng rng(5);
  expect_classes_match_direct_folds(
      gen::random_bounded_treedepth(40, 3, 0.4, rng), lib::triangle_free(),
      3, /*id_seed=*/3);
}

TEST(DistFoldMemo, LabelledClassesMatchDirectFolds) {
  // A deep path coloured red/blue by vertex parity: the pendant vertices of
  // one spine vertex share their bag shape and differ only in label, so
  // the label bits must enter the key, or half of them would take the
  // other colour's class from the memo.
  Graph g = gen::deeppath(200, 4);
  for (int v = 0; v < g.num_vertices(); ++v)
    g.set_vertex_label(v % 2 == 0 ? "red" : "blue", v);
  const long hits = expect_classes_match_direct_folds(
      g, lib::properly_2_colored(), 4, /*id_seed=*/9);
  EXPECT_GT(hits, 150);
}

TEST(DistFoldMemo, WeightedClassesMatchDirectFolds) {
  // The class fold never reads weights, so they stay out of the key:
  // vertices and edges weighted by index residue must fold to direct-fold
  // classes and share fold keys exactly as often as the unweighted graph.
  const Graph plain = gen::deeppath(2000, 4);
  Graph g = plain;
  for (int v = 0; v < g.num_vertices(); ++v) g.set_vertex_weight(v, v % 7 + 1);
  for (EdgeId e = 0; e < g.num_edges(); ++e) g.set_edge_weight(e, e % 5 + 2);
  const long hits = expect_classes_match_direct_folds(
      g, lib::triangle_free(), 4, /*id_seed=*/17);
  EXPECT_EQ(hits, expect_classes_match_direct_folds(
                      plain, lib::triangle_free(), 4, /*id_seed=*/17));
}

TEST(DistFoldMemo, ChurnFoldsEqualRefoldCount) {
  Query q;
  q.pipeline = Pipeline::kDecision;
  q.formula = lib::triangle_free();
  churn::Options opts;
  opts.d = 4;
  opts.verify = false;
  churn::ChurnEngine engine(gen::star_of_cliques(4, 3), q, opts);
  const churn::StepOutcome init = engine.init();
  ASSERT_TRUE(init.ok());
  EXPECT_EQ(init.folds, init.refold_count);
  EXPECT_EQ(init.folds, engine.graph().num_vertices());
  // A chord between two cliques' leaves dirties part of the tree only.
  const auto& tree = *engine.tree();
  int u = -1, v = -1;
  for (int x = 0; x < engine.graph().num_vertices() && u < 0; ++x)
    for (int y = x + 1; y < engine.graph().num_vertices(); ++y)
      if (tree.children[x].empty() && tree.children[y].empty() &&
          !engine.graph().has_edge(x, y)) {
        u = x;
        v = y;
        break;
      }
  ASSERT_GE(u, 0);
  const churn::StepOutcome out = engine.step(
      {churn::ChurnEvent{churn::ChurnEvent::Kind::kAddEdge, u, v, {}}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.folds, out.refold_count);
}

}  // namespace
}  // namespace dmc::dist
