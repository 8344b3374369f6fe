#include "dist/counting.hpp"

#include <optional>
#include <stdexcept>

#include "bpt/tables.hpp"
#include "congest/wire.hpp"
#include "mso/lower.hpp"

namespace dmc::dist {

namespace {

struct TotalMsg {
  std::uint64_t total = 0;
  bool operator==(const TotalMsg&) const = default;
};

/// The COUNT (+,x) algebra: a node's summary is its root COUNT table; the
/// root sums the counts of accepting classes and broadcasts the total.
struct CountAlgebra {
  using Summary = bpt::CountTable;
  using Down = std::uint64_t;
  struct Node {};
  static constexpr bool kTables = true;
  static constexpr const char* kUpMark = "tables";
  static constexpr const char* kDownMark = "total";

  CountAlgebra(bpt::Engine& engine, const mso::FormulaPtr& lowered,
               const Frees& vars)
      : engine(engine), evaluator(engine, lowered, vars) {}

  Summary fold(Node&, FoldInput& input, VertexId,
               std::vector<Summary>&& children) {
    const LocalContext& local = input.context();
    auto tables =
        bpt::fold_count(engine, local.plan, local.graph, std::move(children));
    return std::move(tables[local.plan.root]);
  }
  Down root(Node&, const Summary& table) {
    return bpt::count_accepting(table, evaluator);
  }
  static std::optional<Down> down_of(const std::any& value) {
    if (const auto* m = std::any_cast<TotalMsg>(&value)) return m->total;
    return std::nullopt;
  }
  /// A total wider than the bandwidth is fragmented by the skeleton.
  template <class Send>
  void send_down(Node&, const Down& total, std::size_t children, Send send) {
    for (std::size_t i = 0; i < children; ++i)
      send(i, TotalMsg{total}, congest::count_bits(total));
  }

  bpt::Engine& engine;
  bpt::Evaluator evaluator;
};

/// Wire codecs (audit mode). Count tables declare their *measured*
/// encoding (varuint entry count, then varuint class + varuint count per
/// entry); TotalMsg's counter is the frame's only field and is sent
/// minimal-width, which is exactly the declared count_bits(total).
[[maybe_unused]] const bool wire_codecs_registered = [] {
  using CountTablePayload = UpMsg<CountAlgebra>;
  audit::register_codec<CountTablePayload>(
      "counting::CountTablePayload",
      [](const CountTablePayload& m, const audit::WireContext&,
         audit::BitWriter& w) {
        put_table(w, m.value, [&](std::uint64_t c) { w.put_varuint(c); });
      },
      [](const audit::WireContext&, audit::BitReader& r) {
        return CountTablePayload{
            get_table<bpt::CountTable>(r, [&] { return r.get_varuint(); })};
      });
  audit::register_codec<TotalMsg>(
      "counting::TotalMsg",
      [](const TotalMsg& m, const audit::WireContext&, audit::BitWriter& w) {
        w.put_uint_min(m.total);
      },
      [](const audit::WireContext&, audit::BitReader& r) {
        return TotalMsg{r.get_rest()};
      });
  return true;
}();

}  // namespace

CountingOutcome run_count_solve(congest::Network& net,
                                const mso::FormulaPtr& formula,
                                const Frees& vars, const ElimTreeResult& tree,
                                const std::vector<LocalBag>& bags,
                                bpt::Engine* engine_in, CountingCache* cache) {
  CountingOutcome out;
  const mso::FormulaPtr lowered = mso::lower(formula, vars);
  std::optional<bpt::Engine> own_engine;
  bpt::Engine& engine = engine_or_own(engine_in, own_engine, *lowered, vars);
  CountAlgebra algebra(engine, lowered, vars);
  const auto& cfg = engine.config();
  const TreeFold<CountAlgebra> fold = run_tree_fold(
      net, algebra, tree, bags, {"count", cfg.vertex_labels, cfg.edge_labels},
      cache);
  out.run = fold.run;
  out.rounds_solve = fold.run.rounds;
  out.num_classes = engine.num_types();
  if (!out.run.ok()) return out;  // degraded: count untrusted
  out.folds = fold.folds();
  out.count = *fold.at(0).down();
  for (int v = 0; v < net.n(); ++v)
    if (*fold.at(v).down() != out.count)
      throw std::logic_error("run_count: inconsistent totals");
  return out;
}

CountingOutcome run_count(congest::Network& net,
                          const mso::FormulaPtr& formula, const Frees& vars,
                          int d, bpt::Engine* engine_in,
                          const ElimTreeOptions& tree_opts) {
  std::optional<bpt::Engine> own_engine;
  bpt::Engine& engine =
      engine_or_own(engine_in, own_engine, *mso::lower(formula, vars), vars);
  const auto& cfg = engine.config();
  return run_pipeline<CountingOutcome>(
      net, d, tree_opts, cfg.vertex_labels, cfg.edge_labels,
      [&](const ElimTreeResult& tree, const std::vector<LocalBag>& bags) {
        return run_count_solve(net, formula, vars, tree, bags, &engine);
      });
}

}  // namespace dmc::dist
