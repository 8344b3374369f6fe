#include "dist/optmarked.hpp"

#include "bpt/tables.hpp"
#include "congest/wire.hpp"
#include "dist/tree_fold.hpp"
#include "mso/lower.hpp"

namespace dmc::dist {

namespace {

constexpr const char* kMarkLabel = "marked";

struct MarkedSummary {
  bpt::OptTable opt;
  bpt::TypeId marked_class = bpt::kInvalidType;
  Weight marked_weight = 0;
  bool operator==(const MarkedSummary&) const = default;
};

struct VerdictMsg {
  bool satisfies = false;
  bool is_optimal = false;
  bool operator==(const VerdictMsg&) const = default;
};

/// The optmarked algebra: a node's summary is the OPT table for phi(S),
/// the class of (G_u, Mark ∩ V(G_u)) and the marked weight of its subtree.
/// The root accepts iff the marked class is accepting and its weight
/// equals the optimum over accepting classes (Section 6 of the paper).
struct OptMarkedAlgebra {
  using Summary = MarkedSummary;
  using Down = VerdictMsg;
  struct Node {};
  static constexpr bool kTables = true;
  static constexpr const char* kUpMark = "tables";
  static constexpr const char* kDownMark = "verdict";

  OptMarkedAlgebra(const mso::FormulaPtr& lowered, const Frees& frees,
                   bool vertex_sort)
      : engine(bpt::config_for(*lowered, frees)),
        evaluator(engine, lowered, frees),
        vertex_sort(vertex_sort) {}

  Summary fold(Node&, FoldInput& input, VertexId self,
               std::vector<Summary>&& children) {
    const LocalContext& local = input.context();
    Summary mine;
    // 1. OPT table.
    std::vector<bpt::OptTable> opt_inputs;
    for (auto& cp : children) opt_inputs.push_back(std::move(cp.opt));
    bpt::OptSolver solver(engine, local.plan, local.graph,
                          std::move(opt_inputs));
    mine.opt = solver.root_table();
    // 2. Class of the marked assignment.
    std::vector<bool> vin(local.graph.num_vertices(), false);
    std::vector<bool> ein(local.graph.num_edges(), false);
    for (VertexId lv = 0; lv < local.graph.num_vertices(); ++lv)
      vin[lv] = local.graph.vertex_has_label(kMarkLabel, lv);
    for (EdgeId le = 0; le < local.graph.num_edges(); ++le)
      ein[le] = local.graph.edge_has_label(kMarkLabel, le);
    std::vector<bpt::TypeId> class_inputs;
    for (const auto& cp : children) class_inputs.push_back(cp.marked_class);
    mine.marked_class = bpt::fold_assigned_type(
        engine, local.plan, local.graph, vin, ein, class_inputs);
    // 3. Marked weight: children sums + own contribution (self vertex /
    // bag edges incident to self — each edge is counted at its deeper
    // endpoint, which is the unique bag member adjacent to it from below).
    for (const auto& cp : children) mine.marked_weight += cp.marked_weight;
    const int self_local = local.local_of(self);
    if (vertex_sort) {
      if (vin[self_local])
        mine.marked_weight += local.graph.vertex_weight(self_local);
    } else {
      for (auto [w, e] : local.graph.incident(self_local))
        if (ein[e]) mine.marked_weight += local.graph.edge_weight(e);
    }
    return mine;
  }
  Down root(Node&, const Summary& mine) {
    const auto best = bpt::best_accepting(mine.opt, evaluator);
    VerdictMsg verdict;
    verdict.satisfies = mine.marked_class != bpt::kInvalidType &&
                        evaluator.eval(mine.marked_class);
    verdict.is_optimal = verdict.satisfies && best &&
                         mine.marked_weight == best->second;
    marked_weight = mine.marked_weight;
    best_weight = best ? best->second : 0;
    return verdict;
  }
  static std::optional<Down> down_of(const std::any& value) {
    if (const auto* m = std::any_cast<VerdictMsg>(&value)) return *m;
    return std::nullopt;
  }
  template <class Send>
  void send_down(Node&, const Down& verdict, std::size_t children, Send send) {
    for (std::size_t i = 0; i < children; ++i) send(i, verdict, 2);
  }

  bpt::Engine engine;
  bpt::Evaluator evaluator;
  bool vertex_sort;
  Weight marked_weight = 0;
  Weight best_weight = 0;
};

/// Wire codecs (audit mode). The up payload declares its *measured*
/// encoding: the OPT table (varuint entry count, varuint class +
/// zigzag-varint weight per entry) followed by the marked class as a
/// zigzag varint (kInvalidType is -1) and the marked weight as a zigzag
/// varint.
[[maybe_unused]] const bool wire_codecs_registered = [] {
  using UpPayload = UpMsg<OptMarkedAlgebra>;
  audit::register_codec<UpPayload>(
      "optmarked::UpPayload",
      [](const UpPayload& m, const audit::WireContext&, audit::BitWriter& w) {
        put_table(w, m.value.opt, [&](Weight wt) { w.put_varint(wt); });
        w.put_varint(m.value.marked_class);
        w.put_varint(m.value.marked_weight);
      },
      [](const audit::WireContext&, audit::BitReader& r) {
        UpPayload m;
        m.value.opt =
            get_table<bpt::OptTable>(r, [&] { return r.get_varint(); });
        m.value.marked_class = static_cast<bpt::TypeId>(r.get_varint());
        m.value.marked_weight = r.get_varint();
        return m;
      });
  audit::register_codec<VerdictMsg>(
      "optmarked::VerdictMsg",
      [](const VerdictMsg& m, const audit::WireContext&, audit::BitWriter& w) {
        w.put_bit(m.satisfies);
        w.put_bit(m.is_optimal);
      },
      [](const audit::WireContext&, audit::BitReader& r) {
        VerdictMsg m;
        m.satisfies = r.get_bit();
        m.is_optimal = r.get_bit();
        return m;
      });
  return true;
}();

/// The engine config's labels plus the mark label on the solved sort.
std::pair<std::vector<std::string>, std::vector<std::string>> with_mark_label(
    const bpt::EngineConfig& cfg, mso::Sort var_sort) {
  auto vlabels = cfg.vertex_labels;
  auto elabels = cfg.edge_labels;
  if (var_sort == mso::Sort::VertexSet)
    vlabels.push_back(kMarkLabel);
  else
    elabels.push_back(kMarkLabel);
  return {std::move(vlabels), std::move(elabels)};
}

}  // namespace

std::pair<std::vector<std::string>, std::vector<std::string>>
optmarked_labels(const mso::FormulaPtr& formula, const std::string& var,
                 mso::Sort var_sort) {
  const Frees frees{{var, var_sort}};
  return with_mark_label(bpt::config_for(*mso::lower(formula, frees), frees),
                         var_sort);
}

OptMarkedOutcome run_optmarked_solve(congest::Network& net,
                                     const mso::FormulaPtr& formula,
                                     const std::string& var, mso::Sort var_sort,
                                     const ElimTreeResult& tree,
                                     const std::vector<LocalBag>& bags,
                                     bool minimize) {
  OptMarkedOutcome out;
  const Frees frees{{var, var_sort}};
  OptMarkedAlgebra algebra(mso::lower(formula, frees), frees,
                           var_sort == mso::Sort::VertexSet);
  // Bag payloads additionally carry the "marked" label.
  const auto [vlabels, elabels] =
      with_mark_label(algebra.engine.config(), var_sort);
  const TreeFold<OptMarkedAlgebra> fold = run_tree_fold(
      net, algebra, tree, bags, {"optmarked", vlabels, elabels, minimize});
  out.run = fold.run;
  out.rounds_solve = fold.run.rounds;
  out.num_classes = algebra.engine.num_types();
  if (!out.run.ok()) return out;  // degraded: verdict untrusted
  out.satisfies = fold.at(0).down()->satisfies;
  out.is_optimal = fold.at(0).down()->is_optimal;
  const Weight sign = minimize ? -1 : 1;
  out.marked_weight = sign * algebra.marked_weight;
  out.best_weight = sign * algebra.best_weight;
  return out;
}

OptMarkedOutcome run_optmarked(congest::Network& net,
                               const mso::FormulaPtr& formula,
                               const std::string& var, mso::Sort var_sort,
                               int d, bool minimize,
                               const ElimTreeOptions& tree_opts) {
  const auto [vlabels, elabels] = optmarked_labels(formula, var, var_sort);
  return run_pipeline<OptMarkedOutcome>(
      net, d, tree_opts, vlabels, elabels,
      [&](const ElimTreeResult& tree, const std::vector<LocalBag>& bags) {
        return run_optmarked_solve(net, formula, var, var_sort, tree, bags,
                                   minimize);
      });
}

}  // namespace dmc::dist
