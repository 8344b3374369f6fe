#include "dist/optimization.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "bpt/tables.hpp"
#include "congest/wire.hpp"
#include "dist/tree_fold.hpp"
#include "mso/lower.hpp"

namespace dmc::dist {

namespace {

struct AssignMsg {
  bpt::TypeId type = bpt::kInvalidType;
  bool operator==(const AssignMsg&) const = default;
};

struct InfeasibleMsg {
  bool operator==(const InfeasibleMsg&) const = default;
};

int class_bits(const bpt::Engine& engine) {
  return std::max(
      1, congest::count_bits(static_cast<std::uint64_t>(engine.num_types())));
}

/// The OPT (max,+) algebra: a node's summary is its OPT table (Definition
/// 4.5, Lemma 4.6). The root picks the accepting class of maximum weight;
/// every node re-derives its children's optimal classes from its ARGOPT
/// backpointers and forwards them (Algorithm 1, lines 11-26). The down
/// value is the class chosen for this subtree, kInvalidType = infeasible.
struct OptAlgebra {
  using Summary = bpt::OptTable;
  using Down = bpt::TypeId;
  struct Node {
    LocalContext local;  // the solver reads its plan and graph until send_down
    std::unique_ptr<bpt::OptSolver> solver;
  };
  static constexpr bool kTables = true;
  static constexpr const char* kUpMark = "tables";
  static constexpr const char* kDownMark = "assign";

  OptAlgebra(bpt::Engine& engine, const mso::FormulaPtr& lowered,
             const Frees& frees)
      : engine(engine), evaluator(engine, lowered, frees) {}

  Summary fold(Node& node, FoldInput& input, VertexId,
               std::vector<Summary>&& children) {
    node.local = std::move(input.context());
    node.solver = std::make_unique<bpt::OptSolver>(
        engine, node.local.plan, node.local.graph, std::move(children));
    const bpt::OptTable& table = node.solver->root_table();
    max_table_entries =
        std::max(max_table_entries, static_cast<int>(table.size()));
    return table;
  }
  Down root(Node&, const Summary& table) {
    const auto best = bpt::best_accepting(table, evaluator);
    if (!best) return bpt::kInvalidType;
    best_weight = best->second;
    return best->first;
  }
  static std::optional<Down> down_of(const std::any& value) {
    if (const auto* m = std::any_cast<AssignMsg>(&value)) return m->type;
    if (std::any_cast<InfeasibleMsg>(&value) != nullptr)
      return bpt::kInvalidType;
    return std::nullopt;
  }
  /// Top-down step: forward the children's optimal classes (ARGOPT). The
  /// node's solver and context are not needed after it.
  template <class Send>
  void send_down(Node& node, const Down& type, std::size_t children,
                 Send send) {
    if (type == bpt::kInvalidType) {
      for (std::size_t i = 0; i < children; ++i) send(i, InfeasibleMsg{}, 1);
    } else {
      const auto sol = node.solver->reconstruct(type);
      for (std::size_t i = 0; i < children; ++i)
        send(i, AssignMsg{sol.input_choices[i]}, class_bits(engine));
    }
    node.solver.reset();
    node.local = {};
  }

  bpt::Engine& engine;
  bpt::Evaluator evaluator;
  int max_table_entries = 0;
  std::optional<Weight> best_weight;
};

/// Wire codecs (audit mode). Tables declare their *measured* encoding
/// (varuint entry count, then varuint class + zigzag-varint weight per
/// entry), so declared == encoded exactly; the single-field AssignMsg is
/// minimal-width within the declared class_bits upper bound.
[[maybe_unused]] const bool wire_codecs_registered = [] {
  using TablePayload = UpMsg<OptAlgebra>;
  audit::register_codec<TablePayload>(
      "optimization::TablePayload",
      [](const TablePayload& m, const audit::WireContext&,
         audit::BitWriter& w) {
        put_table(w, m.value, [&](Weight wt) { w.put_varint(wt); });
      },
      [](const audit::WireContext&, audit::BitReader& r) {
        return TablePayload{
            get_table<bpt::OptTable>(r, [&] { return r.get_varint(); })};
      });
  audit::register_codec<AssignMsg>(
      "optimization::AssignMsg",
      [](const AssignMsg& m, const audit::WireContext&, audit::BitWriter& w) {
        w.put_uint_min(static_cast<std::uint64_t>(m.type));
      },
      [](const audit::WireContext&, audit::BitReader& r) {
        return AssignMsg{static_cast<bpt::TypeId>(r.get_rest())};
      });
  audit::register_codec<InfeasibleMsg>(
      "optimization::InfeasibleMsg",
      [](const InfeasibleMsg&, const audit::WireContext&,
         audit::BitWriter& w) { w.put_bit(true); },
      [](const audit::WireContext&, audit::BitReader& r) {
        r.get_bit();
        return InfeasibleMsg{};
      });
  return true;
}();

OptimizationOutcome run_solve_impl(congest::Network& net,
                                   const mso::FormulaPtr& formula,
                                   const std::string& var, mso::Sort var_sort,
                                   const ElimTreeResult& tree,
                                   const std::vector<LocalBag>& bags,
                                   Weight sign, bpt::Engine* engine_in) {
  OptimizationOutcome out;
  const Frees frees{{var, var_sort}};
  const mso::FormulaPtr lowered = mso::lower(formula, frees);
  std::optional<bpt::Engine> own_engine;
  bpt::Engine& engine = engine_or_own(engine_in, own_engine, *lowered, frees);
  OptAlgebra algebra(engine, lowered, frees);
  const auto& cfg = engine.config();
  const TreeFold<OptAlgebra> fold = run_tree_fold(
      net, algebra, tree, bags,
      {sign < 0 ? "minimize" : "maximize", cfg.vertex_labels, cfg.edge_labels,
       sign < 0});
  out.run = fold.run;
  out.rounds_solve = fold.run.rounds;
  out.num_classes = engine.num_types();
  out.max_table_entries = algebra.max_table_entries;
  if (!out.run.ok()) return out;  // degraded: solution untrusted
  if (*fold.at(0).down() == bpt::kInvalidType) return out;  // infeasible
  out.best_weight = sign * *algebra.best_weight;

  // Assemble the selected set from per-node markings (Algorithm 1's
  // top-down phase: each node marks itself and its incident bag edges).
  // A bag lists its members by ascending id, so bag index i is terminal i.
  const Graph& g = net.graph();
  out.vertices.assign(g.num_vertices(), false);
  out.edges.assign(g.num_edges(), false);
  for (int v = 0; v < net.n(); ++v) {
    const bpt::TypeId c = *fold.at(v).down();
    const LocalBag& bag = bags[v];
    const VertexId self_id = net.id_of_vertex(v);
    if (var_sort == mso::Sort::VertexSet) {
      const auto selected = bpt::selected_vertices(engine, c, bag.bag, 0);
      if (std::find(selected.begin(), selected.end(), self_id) !=
          selected.end())
        out.vertices[v] = true;
    } else {
      // The bag-local graph: bag member i is local vertex i.
      const int k = static_cast<int>(bag.bag.size());
      Graph lg(k);
      for (const auto& e : bag.edges) lg.add_edge(e.i, e.j);
      std::vector<VertexId> terminals(k);
      std::iota(terminals.begin(), terminals.end(), 0);
      for (EdgeId le : bpt::selected_edges(engine, lg, c, terminals, 0)) {
        const Edge& e = lg.edge(le);
        const VertexId ga = bag.bag[e.u], gb = bag.bag[e.v];
        if (ga != self_id && gb != self_id) continue;  // deeper endpoint marks
        const EdgeId global_edge =
            g.edge_id(net.vertex_of_id(ga), net.vertex_of_id(gb));
        if (global_edge < 0)
          throw std::logic_error("run_maximize: bag edge not in host graph");
        out.edges[global_edge] = true;
      }
    }
  }
  return out;
}

OptimizationOutcome run_impl(congest::Network& net,
                             const mso::FormulaPtr& formula,
                             const std::string& var, mso::Sort var_sort, int d,
                             Weight sign, bpt::Engine* engine_in,
                             const ElimTreeOptions& tree_opts) {
  const Frees frees{{var, var_sort}};
  std::optional<bpt::Engine> own_engine;
  bpt::Engine& engine = engine_or_own(engine_in, own_engine,
                                      *mso::lower(formula, frees), frees);
  const auto& cfg = engine.config();
  return run_pipeline<OptimizationOutcome>(
      net, d, tree_opts, cfg.vertex_labels, cfg.edge_labels,
      [&](const ElimTreeResult& tree, const std::vector<LocalBag>& bags) {
        return run_solve_impl(net, formula, var, var_sort, tree, bags, sign,
                              &engine);
      });
}

}  // namespace

OptimizationOutcome run_maximize(congest::Network& net,
                                 const mso::FormulaPtr& formula,
                                 const std::string& var, mso::Sort var_sort,
                                 int d, bpt::Engine* engine,
                                 const ElimTreeOptions& tree_opts) {
  return run_impl(net, formula, var, var_sort, d, 1, engine, tree_opts);
}

OptimizationOutcome run_minimize(congest::Network& net,
                                 const mso::FormulaPtr& formula,
                                 const std::string& var, mso::Sort var_sort,
                                 int d, bpt::Engine* engine,
                                 const ElimTreeOptions& tree_opts) {
  return run_impl(net, formula, var, var_sort, d, -1, engine, tree_opts);
}

OptimizationOutcome run_maximize_solve(congest::Network& net,
                                       const mso::FormulaPtr& formula,
                                       const std::string& var,
                                       mso::Sort var_sort,
                                       const ElimTreeResult& tree,
                                       const std::vector<LocalBag>& bags,
                                       bpt::Engine* engine) {
  return run_solve_impl(net, formula, var, var_sort, tree, bags, 1, engine);
}

OptimizationOutcome run_minimize_solve(congest::Network& net,
                                       const mso::FormulaPtr& formula,
                                       const std::string& var,
                                       mso::Sort var_sort,
                                       const ElimTreeResult& tree,
                                       const std::vector<LocalBag>& bags,
                                       bpt::Engine* engine) {
  return run_solve_impl(net, formula, var, var_sort, tree, bags, -1, engine);
}

}  // namespace dmc::dist
