// The solve phase of paper Theorem 6.1, written once.
//
// After the elimination tree (Algorithm 2) and the bags (Lemma 5.3), every
// pipeline convergecasts a per-node summary up the tree — each node folds
// its children's summaries with its local plan (Lemma 4.3 / 4.6) — lets
// the root decide, then broadcasts the answer down. Only the summary
// differs: a class (decision), an OPT (max,+) table (optimization), a
// COUNT (+,x) table (counting), or an OPT table plus the marked set's
// class and weight (optmarked).
//
// TreeFoldProgram<Algebra> owns what the pipelines share: child-slot
// reassembly, fold-when-ready, cached replay, send-up, the root step,
// broadcast-down and sleep/wake. run_tree_fold is the one solve driver and
// run_pipeline the one elim-tree -> bags -> solve prologue. An Algebra
// supplies only
//
//   using Summary;   // folded per node, sent up, replayed from FoldCache
//   using Down;      // the answer the root decides and broadcasts
//   using Node;      // per-node algebra state (default-constructible)
//   static constexpr bool kTables;                      // transport, below
//   static constexpr const char *kUpMark, *kDownMark;   // annotate() names
//   Summary fold(Node&, FoldInput&, VertexId self,
//                std::vector<Summary>&& children);
//     // input.context() builds the node's LocalContext on first use; it is
//     // dropped after the call unless the algebra moves it into its Node.
//     // An algebra that answers from a memo keyed on input.bag() and
//     // input.child_ids() never builds it (the class algebra,
//     // src/dist/decision.cpp).
//   Down root(Node&, const Summary&);                   // the root rule
//   static std::optional<Down> down_of(const std::any&);  // parse down msg
//   void send_down(Node&, const Down&, std::size_t children, Send send);
//     // calls send(child index, message, declared bits) per child
//
// and a wire codec for UpMsg<Algebra>. With kTables = false (decision) the
// summary is one unfragmented message declared Algebra::up_bits(ctx) wide,
// which may read a snapshot refreshed by Algebra::round_begin() at every
// round start. With kTables = true summaries go through FragmentSender
// inside a Network::SerialSection (their declared size is the measured
// encoding of interned class ids, which depends on the interning
// schedule), and a down message wider than the bandwidth is fragmented.
#pragma once

#include <any>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "bpt/engine.hpp"
#include "congest/fragment.hpp"
#include "congest/network.hpp"
#include "congest/wire.hpp"
#include "dist/bags.hpp"
#include "dist/elim_tree.hpp"
#include "dist/local.hpp"
#include "graph/graph.hpp"
#include "mso/ast.hpp"

namespace dmc::dist {

/// Incremental-refold state for the churn engine (src/churn/): per-vertex
/// subtree summaries carried across epochs. Vertices with `refold[v]` set
/// fold fresh; clean vertices replay `summaries[v]` without a BPT fold and
/// skip the upward message unless their parent refolds. Sound because a
/// subtree's summary depends only on its members' fold contexts (Lemma
/// 4.3) — exactly what churn::TreePatch::dirty tracks — and class ids stay
/// stable within one shared engine.
template <class Summary>
struct FoldCache {
  std::vector<std::optional<Summary>> summaries;  // by graph vertex
  std::vector<char> refold;  // by graph vertex; empty = fold all

  /// Forget everything: no summaries, every vertex refolds.
  void invalidate(int n) {
    summaries.assign(n, std::nullopt);
    refold.assign(n, 1);
  }

  /// Renumbers after vertex churn (`old_to_new[v]` = -1 for a deleted
  /// vertex). New vertices refold; a refold flag left set by a degraded
  /// epoch means "still stale" and survives the renumbering.
  void remap(const std::vector<VertexId>& old_to_new, int new_n) {
    FoldCache next;
    next.invalidate(new_n);
    if (covers(static_cast<int>(old_to_new.size()))) {
      for (std::size_t ov = 0; ov < old_to_new.size(); ++ov) {
        const VertexId nv = old_to_new[ov];
        if (nv < 0) continue;
        next.summaries[nv] = std::move(summaries[ov]);
        next.refold[nv] = refold[ov];
      }
    }
    *this = std::move(next);
  }

  bool covers(int n) const {
    return refold.size() == static_cast<std::size_t>(n) &&
           summaries.size() == static_cast<std::size_t>(n);
  }
  /// Clean vertex with a usable cached summary (requires covers()).
  bool replays(int v) const { return !refold[v] && summaries[v].has_value(); }
};

/// The upward wire message of an algebra: one node's summary.
template <class Algebra>
struct UpMsg {
  typename Algebra::Summary value;
  bool operator==(const UpMsg&) const = default;
};

/// Wire layout of a class-keyed table summary: a varuint entry count, then
/// per entry a varuint class id and the value written by `put`.
template <class Table, class Put>
void put_table(audit::BitWriter& w, const Table& table, Put put) {
  w.put_varuint(table.size());
  for (const auto& [c, value] : table) {
    w.put_varuint(static_cast<std::uint64_t>(c));
    put(value);
  }
}
template <class Table, class Get>
Table get_table(audit::BitReader& r, Get get) {
  Table table;
  const std::uint64_t size = r.get_varuint();
  for (std::uint64_t i = 0; i < size; ++i) {
    const auto c = static_cast<bpt::TypeId>(r.get_varuint());
    table[c] = get();
  }
  return table;
}

/// Where one node sits in the elimination tree. Tree edges are graph edges
/// (Algorithm 2 adopts children among neighbours; churn repair keeps the
/// invariant), so both ends are ports.
struct NodePorts {
  int parent_port = -1;          // -1 at the root
  std::vector<int> child_ports;  // elimination-tree order = fold slot order
};

/// Resolves the tree ports of graph vertex `v`. Throws std::logic_error
/// when a tree edge is not a graph edge.
NodePorts node_ports(const Graph& g, const ElimTreeResult& tree, int v);

/// Solve-phase inputs other than the tree, bags and cache.
struct FoldSetup {
  std::string_view phase;                   // PhaseScope name
  const std::vector<std::string>& vlabels;  // bag label bit order
  const std::vector<std::string>& elabels;
  bool negate_weights = false;
};

/// The fold context of a node with bag `bag` and elimination-tree children
/// `child_ids` (in fold slot order). Bag label bits are read in the order
/// of `setup.vlabels` / `setup.elabels`; `setup.negate_weights` turns a
/// maximization into a minimization (min w = -max -w).
LocalContext fold_context(const LocalBag& bag,
                          const std::vector<VertexId>& child_ids,
                          const FoldSetup& setup);

/// What one node folds: its bag and its elimination-tree children's ids in
/// fold slot order, under the run's setup. The fold context is built on
/// the first context() call, so a fold answered from a memo never pays
/// make_local_context or build_node_plan.
class FoldInput {
 public:
  FoldInput(const LocalBag& bag, std::vector<VertexId> child_ids,
            const FoldSetup& setup)
      : bag_(bag), child_ids_(std::move(child_ids)), setup_(setup) {}

  /// fold_context(bag, child_ids, setup), built once; callers may move it.
  LocalContext& context() {
    if (!context_) context_.emplace(fold_context(bag_, child_ids_, setup_));
    return *context_;
  }

  const LocalBag& bag() const { return bag_; }
  const std::vector<VertexId>& child_ids() const { return child_ids_; }

 private:
  const LocalBag& bag_;
  std::vector<VertexId> child_ids_;
  const FoldSetup& setup_;
  std::optional<LocalContext> context_;
};

/// Free set variables of a pipeline's formula, in slot order.
using Frees = std::vector<std::pair<std::string, mso::Sort>>;

/// `given` when non-null, else a fresh engine for `lowered` held in `own`.
bpt::Engine& engine_or_own(bpt::Engine* given, std::optional<bpt::Engine>& own,
                           const mso::Formula& lowered,
                           const Frees& frees = {});

template <class Algebra>
class TreeFoldProgram final : public congest::NodeProgram {
 public:
  using Summary = typename Algebra::Summary;
  using Down = typename Algebra::Down;

  /// `setup` and `bag` are read when the node folds, so they must outlive
  /// the run (run_tree_fold holds both for its duration).
  TreeFoldProgram(Algebra& algebra, const FoldSetup& setup,
                  const LocalBag& bag, NodePorts ports)
      : algebra_(algebra),
        setup_(setup),
        bag_(bag),
        parent_port_(ports.parent_port),
        child_ports_(std::move(ports.child_ports)),
        inputs_(child_ports_.size()),
        missing_(child_ports_.size()) {
    // Fold slot per port, so a hub with 10^5 children finds the slot of
    // an incoming summary in O(1). Leaves allocate nothing.
    for (std::size_t i = 0; i < child_ports_.size(); ++i) {
      const auto port = static_cast<std::size_t>(child_ports_[i]);
      if (port >= slot_of_port_.size()) slot_of_port_.resize(port + 1, -1);
      slot_of_port_[port] = static_cast<int>(i);
    }
  }

  /// Incremental refold (churn engine): replay `cached` instead of folding.
  /// `send_up` is false when the parent replays its own summary too (it
  /// will never read this node's), saving the upward message.
  void set_cached(Summary cached, bool send_up) {
    summary_ = std::move(cached);
    cached_ = true;
    send_up_ = send_up;
  }

  const Summary& summary() const { return summary_; }
  bool folded() const { return folded_; }
  /// The answer this node received (or decided, at the root).
  const std::optional<Down>& down() const { return down_; }

  void on_round(congest::NodeCtx& ctx) override {
    if (first_round_) {
      first_round_ = false;
      ctx.annotate(Algebra::kUpMark);
    }
    for (int p = 0; p < ctx.degree(); ++p) {
      if constexpr (Algebra::kTables) {
        if (auto payload = transport_.reasm.poll(ctx, p)) {
          receive(ctx, p, *payload);
          continue;
        }
      }
      if (const congest::Message* msg = ctx.recv(p))
        receive(ctx, p, msg->value);
    }
    if (!summarized_ && (cached_ || missing_ == 0)) {
      summarized_ = true;
      if (!cached_) {
        // The input lives for this fold only: holding all n contexts for
        // the whole run costs more time and memory than the folds do.
        std::vector<VertexId> child_ids;
        child_ids.reserve(child_ports_.size());
        for (int port : child_ports_) child_ids.push_back(ctx.neighbor_id(port));
        FoldInput input(bag_, std::move(child_ids), setup_);
        summary_ = algebra_.fold(node_, input, ctx.id(), std::move(inputs_));
        folded_ = true;
      }
      if (parent_port_ < 0)
        finish(ctx, algebra_.root(node_, summary_));
      else if (send_up_)
        send_up(ctx);
    }
    if constexpr (Algebra::kTables) transport_.sender.pump(ctx);
    // Waiting on children's summaries or the parent's answer — both arrive
    // as traffic, which wakes us (sparse scheduler; no-op otherwise).
    if (!down_ && idle()) ctx.sleep();
  }

  bool done(const congest::NodeCtx&) const override {
    return down_.has_value() && idle();
  }

 private:
  struct Fragments {
    congest::FragmentSender sender;
    congest::FragmentReassembler reasm;
  };
  struct NoFragments {};

  bool idle() const {
    if constexpr (Algebra::kTables) return transport_.sender.idle();
    return true;
  }

  void receive(congest::NodeCtx& ctx, int port, const std::any& value) {
    if (const auto* up = std::any_cast<UpMsg<Algebra>>(&value)) {
      const auto p = static_cast<std::size_t>(port);
      if (p >= slot_of_port_.size() || slot_of_port_[p] < 0 || summarized_)
        return;  // not a child, a duplicate, or inputs_ already folded
      inputs_[slot_of_port_[p]] = up->value;
      slot_of_port_[p] = -1;
      --missing_;
    } else if (port == parent_port_ && !down_) {
      if (auto down = Algebra::down_of(value)) finish(ctx, std::move(*down));
    }
  }

  void send_up(congest::NodeCtx& ctx) {
    UpMsg<Algebra> up{summary_};
    if constexpr (Algebra::kTables) {
      const long bits = audit::measured_bits(
          up, audit::WireContext{ctx.n(), ctx.bandwidth()});
      transport_.sender.enqueue(parent_port_, std::move(up), bits);
    } else {
      const int bits = algebra_.up_bits(ctx);
      ctx.send(parent_port_, congest::Message(std::move(up), bits));
    }
  }

  /// Adopts the answer and forwards the algebra's down messages.
  void finish(congest::NodeCtx& ctx, Down down) {
    down_ = std::move(down);
    ctx.annotate(Algebra::kDownMark);
    algebra_.send_down(
        node_, *down_, child_ports_.size(),
        [&](std::size_t child, std::any msg, int bits) {
          const int port = child_ports_[child];
          if constexpr (Algebra::kTables) {
            if (bits > ctx.bandwidth()) {
              transport_.sender.enqueue(port, std::move(msg), bits);
              return;
            }
          }
          ctx.send(port, congest::Message(std::move(msg), bits));
        });
  }

  Algebra& algebra_;
  const FoldSetup& setup_;
  const LocalBag& bag_;
  int parent_port_;
  std::vector<int> child_ports_;
  // Fold slot per port; -1 = not a child, or its summary already arrived.
  std::vector<int> slot_of_port_;
  std::vector<Summary> inputs_;
  std::size_t missing_;
  typename Algebra::Node node_;
  [[no_unique_address]]
  std::conditional_t<Algebra::kTables, Fragments, NoFragments> transport_;
  Summary summary_{};
  std::optional<Down> down_;
  bool first_round_ = true;
  bool cached_ = false;
  bool send_up_ = true;
  bool folded_ = false;
  bool summarized_ = false;
};

/// The programs of one solve run, by graph vertex.
template <class Algebra>
struct TreeFold {
  congest::RunOutcome run;
  std::vector<std::unique_ptr<congest::NodeProgram>> programs;

  const TreeFoldProgram<Algebra>& at(int v) const {
    return static_cast<const TreeFoldProgram<Algebra>&>(*programs[v]);
  }
  /// Vertices that folded (replayed vertices do not; a fold answered from
  /// the class algebra's memo counts).
  long folds() const {
    long n = 0;
    for (int v = 0; v < static_cast<int>(programs.size()); ++v)
      n += at(v).folded() ? 1 : 0;
    return n;
  }
};

/// Runs one solve phase over an elimination tree and its bags. When
/// `cache` is non-null and covers the network it supplies the refold plan,
/// and a completed run refreshes it with every vertex's summary (refold
/// flags cleared).
template <class Algebra>
TreeFold<Algebra> run_tree_fold(
    congest::Network& net, Algebra& algebra, const ElimTreeResult& tree,
    const std::vector<LocalBag>& bags, const FoldSetup& setup,
    FoldCache<typename Algebra::Summary>* cache = nullptr) {
  if (!tree.success)
    throw std::invalid_argument(std::string(setup.phase) +
                                " solve: tree invalid");
  congest::PhaseScope trace_scope(net, setup.phase);
  const bool incremental = cache != nullptr && cache->covers(net.n());
  auto replay = [&](int v) { return incremental && cache->replays(v); };
  TreeFold<Algebra> out;
  out.programs.reserve(net.n());
  for (int v = 0; v < net.n(); ++v) {
    auto p = std::make_unique<TreeFoldProgram<Algebra>>(
        algebra, setup, bags[v], node_ports(net.graph(), tree, v));
    if (replay(v)) {
      const int parent = tree.parent[v];
      p->set_cached(*cache->summaries[v], parent >= 0 && !replay(parent));
    }
    out.programs.push_back(std::move(p));
  }
  if constexpr (Algebra::kTables) {
    congest::Network::SerialSection serial(net);
    out.run = net.run_outcome(out.programs);
  } else {
    net.set_round_begin_hook([&algebra] { algebra.round_begin(); });
    struct ClearHook {
      congest::Network& net;
      ~ClearHook() { net.set_round_begin_hook(nullptr); }
    } clear_hook{net};
    out.run = net.run_outcome(out.programs);
  }
  if (out.run.ok() && cache != nullptr) {
    cache->summaries.resize(net.n());
    for (int v = 0; v < net.n(); ++v) cache->summaries[v] = out.at(v).summary();
    cache->refold.assign(net.n(), 0);
  }
  return out;
}

/// The full pipeline: Algorithm 2, the bags protocol (carrying `vlabels` /
/// `elabels`), then `solve(tree, bags)`. A degraded or budget-exceeded
/// prologue returns early; `Outcome` is one of the pipeline outcome structs.
template <class Outcome, class Solve>
Outcome run_pipeline(congest::Network& net, int d,
                     const ElimTreeOptions& tree_opts,
                     const std::vector<std::string>& vlabels,
                     const std::vector<std::string>& elabels, Solve&& solve) {
  Outcome out;
  const ElimTreeResult tree = run_elim_tree(net, d, tree_opts);
  out.rounds_elim = tree.rounds;
  out.run = tree.run;
  if (!tree.run.ok()) return out;  // degraded: not a treedepth verdict
  if (!tree.success) {
    out.treedepth_exceeded = true;
    return out;
  }
  const BagsResult bags = run_bags(net, tree, vlabels, elabels);
  out.rounds_bags = bags.rounds;
  out.run = bags.run;
  if (!bags.run.ok()) return out;  // degraded: bags incomplete
  Outcome solved = solve(tree, bags.bags);
  solved.rounds_elim = out.rounds_elim;
  solved.rounds_bags = out.rounds_bags;
  return solved;
}

}  // namespace dmc::dist
