#include "dist/decision.hpp"

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <vector>

#include "bpt/tables.hpp"
#include "congest/wire.hpp"
#include "metrics/metrics.hpp"
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

/// Fold memo of the class algebra: the transition function of the finite
/// tree automaton a class convergecast runs (Lemma 4.3). A node's class is
/// a function of its id-free class key (class_key) and nothing else, so a
/// repeated key returns the class a previous fold computed. A hit interns
/// nothing: the fold it stands for would re-intern exactly what the first
/// one already did. The mutex serves parallel stepping
/// (NetworkConfig::threads > 1); a fold runs outside it, so two racing
/// misses on one key both fold and store the same class.
class FoldMemo {
 public:
  using Key = std::vector<std::uint32_t>;

  std::optional<bpt::TypeId> find(const Key& key) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = classes_.find(key);
    if (it == classes_.end()) {
      ++misses_;
      return std::nullopt;
    }
    ++hits_;
    return it->second;
  }
  void insert(Key key, bpt::TypeId type) {
    const std::lock_guard<std::mutex> lock(mutex_);
    classes_.emplace(std::move(key), type);
  }
  long hits() const { return hits_; }
  long misses() const { return misses_; }

 private:
  struct Hash {
    std::size_t operator()(const Key& key) const {
      std::uint64_t h = key.size();
      for (std::uint32_t x : key) {
        h = (h ^ x) * 0x9e3779b97f4a7c15ULL;
        h ^= h >> 29;
      }
      return static_cast<std::size_t>(h);
    }
  };
  std::mutex mutex_;
  std::unordered_map<Key, bpt::TypeId, Hash> classes_;
  long hits_ = 0;
  long misses_ = 0;
};

/// Everything bpt::fold_type reads of a node's fold, without ids: how the
/// children's ids interleave with the bag's (each child's local index, in
/// slot order), each member's label bits, the bag edges with theirs, and
/// the children's classes in slot order. The labels are read in the run's
/// fixed setup order, so two nodes of one run with equal keys build the
/// same local graph and plan and fold the same inputs. Weights are left
/// out: the class fold never reads them.
FoldMemo::Key class_key(const FoldInput& input,
                        const std::vector<bpt::TypeId>& classes) {
  const LocalBag& bag = input.bag();
  const std::vector<VertexId>& ids = input.child_ids();
  const std::size_t children = ids.size();
  FoldMemo::Key key;
  key.reserve(3 + 2 * children + bag.bag.size() + 3 * bag.edges.size());
  key.push_back(static_cast<std::uint32_t>(bag.bag.size()));
  key.push_back(static_cast<std::uint32_t>(children));
  key.push_back(static_cast<std::uint32_t>(bag.edges.size()));
  // A child's local index is the number of bag members and of other
  // children below its id (the bag is ascending, all ids are distinct).
  std::vector<std::uint32_t> by_id(children);
  std::iota(by_id.begin(), by_id.end(), 0u);
  std::sort(by_id.begin(), by_id.end(), [&](std::uint32_t a, std::uint32_t b) {
    return ids[a] < ids[b];
  });
  const std::size_t slots = key.size();
  key.resize(slots + children);
  for (std::uint32_t below = 0; below < children; ++below) {
    const std::uint32_t c = by_id[below];
    const auto bag_below =
        std::lower_bound(bag.bag.begin(), bag.bag.end(), ids[c]) -
        bag.bag.begin();
    key[slots + c] = below + static_cast<std::uint32_t>(bag_below);
  }
  key.insert(key.end(), bag.vlabel_bits.begin(), bag.vlabel_bits.end());
  for (const LocalBag::BagEdge& e : bag.edges) {
    key.push_back(static_cast<std::uint32_t>(e.i));
    key.push_back(static_cast<std::uint32_t>(e.j));
    key.push_back(e.elabel_bits);
  }
  for (bpt::TypeId c : classes) key.push_back(static_cast<std::uint32_t>(c));
  return key;
}

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

  Summary fold(Node&, FoldInput& input, VertexId,
               std::vector<Summary>&& children) {
    FoldMemo::Key key = class_key(input, children);
    if (const auto type = memo.find(key)) return *type;
    const LocalContext& local = input.context();
    const bpt::TypeId type =
        bpt::fold_type(engine, local.plan, local.graph, children);
    memo.insert(std::move(key), type);
    return type;
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
  FoldMemo memo;  // one solve run
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
  if (metrics::Registry* reg = net.config().metrics) {
    reg->counter("dist.fold_memo.hits").add(algebra.memo.hits());
    reg->counter("dist.fold_memo.misses").add(algebra.memo.misses());
  }
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
