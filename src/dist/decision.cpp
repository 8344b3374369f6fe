#include "dist/decision.hpp"

#include <algorithm>

#include "bpt/tables.hpp"
#include "congest/wire.hpp"
#include "mso/lower.hpp"
#include "par/pool.hpp"

namespace dmc::dist {

namespace {

int bits_for_count(std::size_t num_types) {
  return std::max(1,
                  congest::count_bits(static_cast<std::uint64_t>(num_types)));
}

struct VerdictMsg {
  bool holds = false;
  bool operator==(const VerdictMsg&) const = default;
};

/// The class algebra: a node's summary is the homomorphism class of its
/// subtree; the root evaluates it and broadcasts the 1-bit verdict.
struct DecisionAlgebra {
  using Summary = bpt::TypeId;
  using Down = bool;
  struct Node {};
  static constexpr bool kTables = false;
  static constexpr const char* kUpMark = "fold";
  static constexpr const char* kDownMark = "verdict";

  DecisionAlgebra(bpt::Engine& engine, const mso::FormulaPtr& lowered)
      : engine(engine),
        evaluator(engine, lowered),
        types_at_round_start(engine.num_types()) {}

  Summary fold(Node&, const LocalContext& local, VertexId,
               std::vector<Summary>&& children) {
    return bpt::fold_type(engine, local.plan, local.graph, children);
  }
  Down root(Node&, const Summary& c) { return evaluator.eval(c); }
  static std::optional<Down> down_of(const std::any& value) {
    if (const auto* m = std::any_cast<VerdictMsg>(&value)) return m->holds;
    return std::nullopt;
  }
  template <class Send>
  void send_down(Node&, const Down& holds, std::size_t children, Send send) {
    for (std::size_t i = 0; i < children; ++i) send(i, VerdictMsg{holds}, 1);
  }

  /// Round-start universe snapshot for schedule-independent class widths.
  void round_begin() { types_at_round_start = engine.num_types(); }
  /// Declared width must be schedule-independent under parallel stepping
  /// (send-time num_types depends on the interning schedule), so it is
  /// sized from the round-start universe snapshot. The declaration is cost
  /// accounting only; the simulator ships the value itself either way.
  /// Audit mode steps serially and keeps the send-time width so wire
  /// re-encoding checks the exact declared frame.
  int up_bits(const congest::NodeCtx& ctx) {
    const int bits = bits_for_count(ctx.audited() ? engine.num_types()
                                                  : types_at_round_start);
    par::atomic_fetch_max(max_class_bits, bits);
    return bits;
  }

  bpt::Engine& engine;
  bpt::Evaluator evaluator;
  std::size_t types_at_round_start;
  int max_class_bits = 0;
};

/// Wire codecs (audit mode). A class id is the frame's only field, so it
/// is sent minimal-width and sized from the frame end on decode; its
/// minimal width never exceeds the declared class_bits (type < num_types).
[[maybe_unused]] const bool wire_codecs_registered = [] {
  using ClassMsg = UpMsg<DecisionAlgebra>;
  audit::register_codec<ClassMsg>(
      "decision::ClassMsg",
      [](const ClassMsg& m, const audit::WireContext&, audit::BitWriter& w) {
        w.put_uint_min(static_cast<std::uint64_t>(m.value));
      },
      [](const audit::WireContext&, audit::BitReader& r) {
        return ClassMsg{static_cast<bpt::TypeId>(r.get_rest())};
      });
  audit::register_codec<VerdictMsg>(
      "decision::VerdictMsg",
      [](const VerdictMsg& m, const audit::WireContext&, audit::BitWriter& w) {
        w.put_bit(m.holds);
      },
      [](const audit::WireContext&, audit::BitReader& r) {
        return VerdictMsg{r.get_bit()};
      });
  return true;
}();

}  // namespace

DecisionOutcome run_decision_solve(congest::Network& net,
                                   const mso::FormulaPtr& formula,
                                   const ElimTreeResult& tree,
                                   const std::vector<LocalBag>& bags,
                                   bpt::Engine* engine_in,
                                   DecisionCache* cache) {
  DecisionOutcome out;
  const mso::FormulaPtr lowered = mso::lower(formula);
  std::optional<bpt::Engine> own_engine;
  bpt::Engine& engine = engine_or_own(engine_in, own_engine, *lowered);
  DecisionAlgebra algebra(engine, lowered);
  const auto& cfg = engine.config();
  const TreeFold<DecisionAlgebra> fold = run_tree_fold(
      net, algebra, tree, bags,
      {"decide", cfg.vertex_labels, cfg.edge_labels}, cache);
  out.run = fold.run;
  out.rounds_updown = fold.run.rounds;
  out.num_classes = engine.num_types();
  out.max_class_bits = algebra.max_class_bits;
  if (!out.run.ok()) return out;  // degraded: verdict untrusted
  out.folds = fold.folds();
  // Distributed decision semantics: G |= phi iff every node accepts; all
  // nodes received the root's verdict.
  out.holds = true;
  for (int v = 0; v < net.n(); ++v) out.holds = out.holds && *fold.at(v).down();
  return out;
}

DecisionOutcome run_decision(congest::Network& net,
                             const mso::FormulaPtr& formula, int d,
                             bpt::Engine* engine_in,
                             const ElimTreeOptions& tree_opts) {
  std::optional<bpt::Engine> own_engine;
  bpt::Engine& engine =
      engine_or_own(engine_in, own_engine, *mso::lower(formula));
  const auto& cfg = engine.config();
  return run_pipeline<DecisionOutcome>(
      net, d, tree_opts, cfg.vertex_labels, cfg.edge_labels,
      [&](const ElimTreeResult& tree, const std::vector<LocalBag>& bags) {
        return run_decision_solve(net, formula, tree, bags, &engine);
      });
}

}  // namespace dmc::dist
