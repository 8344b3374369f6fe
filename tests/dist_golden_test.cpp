// Golden counts for the four Theorem 6.1 pipelines.
//
// The other distributed tests compare runs of the same code against each
// other or against sequential oracles; this one pins absolute numbers —
// verdicts, per-phase rounds, NetworkStats totals, fold counts and universe
// sizes — so a refactor of the solve phase that silently changes wire
// behaviour (an extra message, a different declared width, a different
// sleep/wake pattern) fails here. The constants were recorded from the
// four separate node programs that preceded the shared tree-fold skeleton
// (dist/tree_fold.hpp); they must not be edited to make a refactor pass.
//
// Instances: one random bounded-treedepth graph and one deep path, both run
// with sparse stepping and the sparse elimination-tree flood.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "congest/network.hpp"
#include "dist/bags.hpp"
#include "dist/counting.hpp"
#include "dist/decision.hpp"
#include "dist/elim_tree.hpp"
#include "dist/optimization.hpp"
#include "dist/optmarked.hpp"
#include "graph/generators.hpp"
#include "mso/formulas.hpp"
#include "mso/lower.hpp"

namespace dmc::dist {
namespace {

using mso::Sort;
namespace lib = mso::lib;

/// Everything one pipeline run pins. Fields a pipeline does not report
/// stay 0.
struct Pins {
  long long answer = 0;  // verdict (0/1), optimum, count, or sat*2+opt
  long rounds_elim = 0, rounds_bags = 0, rounds_solve = 0;
  long messages = 0;
  long long bits = 0;
  int max_message_bits = 0;
  long long active_steps = 0;
  long folds = 0;
  long long num_classes = 0;
  int max_class_bits = 0;
  int max_table_entries = 0;
};

void expect_pins(const char* what, const Pins& got, const Pins& want) {
  // Printed on failure so a deliberate, documented change can be re-pinned.
  std::printf(
      "%s: {%lld, %ld, %ld, %ld, %ld, %lld, %d, %lld, %ld, %lld, %d, %d}\n",
      what, got.answer, got.rounds_elim, got.rounds_bags, got.rounds_solve,
      got.messages, got.bits, got.max_message_bits, got.active_steps,
      got.folds, got.num_classes, got.max_class_bits, got.max_table_entries);
  SCOPED_TRACE(what);
  EXPECT_EQ(got.answer, want.answer);
  EXPECT_EQ(got.rounds_elim, want.rounds_elim);
  EXPECT_EQ(got.rounds_bags, want.rounds_bags);
  EXPECT_EQ(got.rounds_solve, want.rounds_solve);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.bits, want.bits);
  EXPECT_EQ(got.max_message_bits, want.max_message_bits);
  EXPECT_EQ(got.active_steps, want.active_steps);
  EXPECT_EQ(got.folds, want.folds);
  EXPECT_EQ(got.num_classes, want.num_classes);
  EXPECT_EQ(got.max_class_bits, want.max_class_bits);
  EXPECT_EQ(got.max_table_entries, want.max_table_entries);
}

struct Instance {
  const char* name;
  Graph graph;
  int d;
};

Instance btd() { return {"btd", gen::family("btd:14:3"), 3}; }
Instance deep() { return {"deeppath", gen::deeppath(24, 3), 3}; }

congest::NetworkConfig config() {
  congest::NetworkConfig cfg;
  cfg.id_seed = 11;
  cfg.sparse_stepping = true;
  return cfg;
}

const ElimTreeOptions kSparse{.sparse_flood = true};

void take_stats(const congest::Network& net, Pins& p) {
  const congest::NetworkStats& s = net.stats();
  p.messages = s.messages;
  p.bits = s.total_bits;
  p.max_message_bits = s.max_message_bits;
  p.active_steps = s.active_steps;
}

Pins decide(const Instance& in) {
  congest::Network net(in.graph, config());
  const DecisionOutcome r =
      run_decision(net, lib::triangle_free(), in.d, nullptr, kSparse);
  EXPECT_TRUE(r.run.ok());
  Pins p;
  p.answer = r.holds ? 1 : 0;
  p.rounds_elim = r.rounds_elim;
  p.rounds_bags = r.rounds_bags;
  p.rounds_solve = r.rounds_updown;
  take_stats(net, p);
  p.folds = r.folds;
  p.num_classes = static_cast<long long>(r.num_classes);
  p.max_class_bits = r.max_class_bits;
  return p;
}

Pins optimize(const Instance& in, bool minimize,
              std::vector<bool>* selected = nullptr) {
  congest::Network net(in.graph, config());
  const OptimizationOutcome r =
      minimize ? run_minimize(net, lib::vertex_cover(), "S", Sort::VertexSet,
                              in.d, nullptr, kSparse)
               : run_maximize(net, lib::independent_set(), "S",
                              Sort::VertexSet, in.d, nullptr, kSparse);
  EXPECT_TRUE(r.run.ok());
  EXPECT_TRUE(r.best_weight.has_value());
  if (selected != nullptr) *selected = r.vertices;
  Pins p;
  p.answer = r.best_weight.value_or(-1);
  p.rounds_elim = r.rounds_elim;
  p.rounds_bags = r.rounds_bags;
  p.rounds_solve = r.rounds_solve;
  take_stats(net, p);
  p.num_classes = static_cast<long long>(r.num_classes);
  p.max_table_entries = r.max_table_entries;
  return p;
}

Pins count(const Instance& in) {
  congest::Network net(in.graph, config());
  const CountingOutcome r =
      run_count(net, lib::independent_set(), {{"S", Sort::VertexSet}}, in.d,
                nullptr, kSparse);
  EXPECT_TRUE(r.run.ok());
  Pins p;
  p.answer = static_cast<long long>(r.count);
  p.rounds_elim = r.rounds_elim;
  p.rounds_bags = r.rounds_bags;
  p.rounds_solve = r.rounds_solve;
  take_stats(net, p);
  p.folds = r.folds;
  p.num_classes = static_cast<long long>(r.num_classes);
  return p;
}

Pins optmarked(const Instance& in, const std::vector<bool>& marked) {
  Graph g = in.graph;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (marked[v]) g.set_vertex_label("marked", v);
  congest::Network net(g, config());
  const OptMarkedOutcome r = run_optmarked(
      net, lib::independent_set(), "S", Sort::VertexSet, in.d, false, kSparse);
  EXPECT_TRUE(r.run.ok());
  Pins p;
  p.answer = (r.satisfies ? 2 : 0) + (r.is_optimal ? 1 : 0);
  p.rounds_elim = r.rounds_elim;
  p.rounds_bags = r.rounds_bags;
  p.rounds_solve = r.rounds_solve;
  take_stats(net, p);
  p.num_classes = static_cast<long long>(r.num_classes);
  return p;
}

/// Marks both endpoints of the first edge: not independent.
std::vector<bool> bad_marking(const Graph& g) {
  std::vector<bool> marked(g.num_vertices(), false);
  marked[g.edge(0).u] = marked[g.edge(0).v] = true;
  return marked;
}

void run_all(const Instance& in, const Pins golden[6]) {
  const std::string n = in.name;
  expect_pins((n + " decide").c_str(), decide(in), golden[0]);
  std::vector<bool> best;
  expect_pins((n + " maximize").c_str(), optimize(in, false, &best),
              golden[1]);
  expect_pins((n + " minimize").c_str(), optimize(in, true), golden[2]);
  expect_pins((n + " count").c_str(), count(in), golden[3]);
  expect_pins((n + " optmarked accept").c_str(), optmarked(in, best),
              golden[4]);
  expect_pins((n + " optmarked reject").c_str(),
              optmarked(in, bad_marking(in.graph)), golden[5]);
}

TEST(DistGolden, BoundedTreedepthInstance) {
  const Pins golden[6] = {
      {0, 79, 21, 9, 399, 3855, 32, 501, 14, 5260, 13, 0},
      {10, 79, 21, 53, 543, 8839, 32, 721, 0, 112, 0, 32},
      {4, 79, 21, 2948, 3522, 104148, 32, 6635, 0, 33608, 0, 2056},
      {1846, 79, 21, 55, 545, 8955, 32, 725, 14, 112, 0, 0},
      {3, 79, 21, 57, 556, 9086, 32, 742, 0, 112, 0, 0},
      {0, 79, 21, 57, 556, 9134, 32, 742, 0, 112, 0, 0},
  };
  run_all(btd(), golden);
}

TEST(DistGolden, DeepPathInstance) {
  const Pins golden[6] = {
      {1, 79, 19, 9, 691, 7249, 32, 829, 24, 4574, 12, 0},
      {21, 79, 19, 54, 962, 16635, 32, 1160, 0, 110, 0, 32},
      {3, 79, 19, 1457, 2491, 65499, 32, 4101, 0, 27992, 0, 726},
      {2146432, 79, 19, 72, 980, 17540, 32, 1196, 24, 110, 0, 0},
      {3, 79, 19, 58, 985, 17072, 32, 1189, 0, 110, 0, 0},
      {0, 79, 19, 58, 985, 17152, 32, 1189, 0, 110, 0, 0},
  };
  run_all(deep(), golden);
}

// One full solve through the churn seam fills the cache; a second solve
// on a fresh network replays every clean vertex and refolds one root path.
TEST(DistGolden, DecisionSolveReplaysThroughChurnCache) {
  const Instance in = btd();
  const mso::FormulaPtr phi = lib::triangle_free();
  bpt::Engine engine(bpt::config_for(*mso::lower(phi)));
  congest::Network first(in.graph, config());
  const ElimTreeResult tree = run_elim_tree(first, in.d, kSparse);
  ASSERT_TRUE(tree.success);
  const BagsResult bags = run_bags(first, tree, engine.config().vertex_labels,
                                   engine.config().edge_labels);
  DecisionCache cache;
  const DecisionOutcome full =
      run_decision_solve(first, phi, tree, bags.bags, &engine, &cache);
  ASSERT_TRUE(full.run.ok());
  EXPECT_EQ(full.folds, in.graph.num_vertices());

  // Dirty the deepest vertex; its root path refolds, the rest replays.
  int deepest = 0;
  for (int v = 0; v < in.graph.num_vertices(); ++v)
    if (tree.depth[v] > tree.depth[deepest]) deepest = v;
  for (int x = deepest; x >= 0; x = tree.parent[x]) cache.refold[x] = 1;
  congest::Network second(in.graph, config());
  const DecisionOutcome r =
      run_decision_solve(second, phi, tree, bags.bags, &engine, &cache);
  ASSERT_TRUE(r.run.ok());
  Pins p;
  p.answer = r.holds ? 1 : 0;
  p.rounds_solve = r.rounds_updown;
  take_stats(second, p);
  p.folds = r.folds;
  p.num_classes = static_cast<long long>(r.num_classes);
  p.max_class_bits = r.max_class_bits;
  EXPECT_EQ(r.holds, full.holds);
  expect_pins("btd decide replay", p,
              {0, 0, 0, 9, 22, 130, 13, 47, 5, 5260, 13, 0});
}

}  // namespace
}  // namespace dmc::dist
