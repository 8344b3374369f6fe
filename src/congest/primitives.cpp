#include "congest/primitives.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "congest/wire.hpp"

namespace dmc::congest {

namespace {

/// Two's-complement-safe |v| as an unsigned magnitude.
std::uint64_t magnitude(std::int64_t v) {
  return v < 0 ? ~static_cast<std::uint64_t>(v) + 1
               : static_cast<std::uint64_t>(v);
}

std::int64_t apply_sign(bool negative, std::uint64_t mag) {
  return negative ? -static_cast<std::int64_t>(mag)
                  : static_cast<std::int64_t>(mag);
}

class LeaderProgram : public NodeProgram {
 public:
  explicit LeaderProgram(int budget) : budget_(budget) {}
  VertexId known = -1;

  void on_round(NodeCtx& ctx) override {
    if (ctx.round() == start_ || start_ < 0) {
      if (start_ < 0) start_ = ctx.round();
      known = ctx.id();
    }
    for (int p = 0; p < ctx.degree(); ++p) {
      const auto& msg = ctx.recv(p);
      if (msg) known = std::min(known, std::any_cast<VertexId>(msg->value));
    }
    if (ctx.round() - start_ < budget_)
      ctx.send_all(Message(known, id_bits(ctx.n())));
  }
  bool done(const NodeCtx& ctx) const override {
    return start_ >= 0 && ctx.round() - start_ >= budget_;
  }

 private:
  int budget_;
  int start_ = -1;
};

struct BfsMsg {
  VertexId root = -1;
  int dist = 0;
  bool operator==(const BfsMsg&) const = default;
};

class BfsProgram : public NodeProgram {
 public:
  explicit BfsProgram(int budget) : budget_(budget) {}
  VertexId root = -1;
  int dist = 0;
  VertexId parent_id = -1;

  void on_round(NodeCtx& ctx) override {
    if (start_ < 0) {
      start_ = ctx.round();
      root = ctx.id();
      dist = 0;
    }
    for (int p = 0; p < ctx.degree(); ++p) {
      const auto& msg = ctx.recv(p);
      if (!msg) continue;
      const auto bm = std::any_cast<BfsMsg>(msg->value);
      if (bm.root < root || (bm.root == root && bm.dist + 1 < dist)) {
        root = bm.root;
        dist = bm.dist + 1;
        parent_id = ctx.neighbor_id(p);
      }
    }
    if (ctx.round() - start_ < budget_)
      ctx.send_all(Message(BfsMsg{root, dist},
                           id_bits(ctx.n()) + count_bits(ctx.n())));
  }
  bool done(const NodeCtx& ctx) const override {
    return start_ >= 0 && ctx.round() - start_ >= budget_;
  }

 private:
  int budget_;
  int start_ = -1;
};

/// Generic down-the-tree value propagation (1 message per tree edge).
class DownProgram : public NodeProgram {
 public:
  DownProgram(bool is_root, VertexId parent_id, std::vector<VertexId> children,
              std::int64_t value)
      : is_root_(is_root),
        parent_id_(parent_id),
        children_(std::move(children)),
        value_(value) {}
  std::int64_t received = 0;
  bool have = false;

  void on_round(NodeCtx& ctx) override {
    if (is_root_ && !have) {
      received = value_;
      have = true;
      forward(ctx);
      return;
    }
    if (have) return;
    const int pport = ctx.port_of(parent_id_);
    if (pport < 0) return;
    const auto& msg = ctx.recv(pport);
    if (msg) {
      received = std::any_cast<std::int64_t>(msg->value);
      have = true;
      forward(ctx);
    }
  }
  bool done(const NodeCtx&) const override { return have; }

 private:
  void forward(NodeCtx& ctx) {
    const int bits = count_bits(magnitude(received)) + 2;
    for (VertexId c : children_)
      ctx.send(ctx.port_of(c), Message(received, bits));
  }

  bool is_root_;
  VertexId parent_id_;
  std::vector<VertexId> children_;
  std::int64_t value_;
};

struct UpMsg {
  std::int64_t sum = 0;
  std::int64_t max = 0;
  bool operator==(const UpMsg&) const = default;
};

/// Convergecast (sum, max) followed by a broadcast of the result.
class UpDownProgram : public NodeProgram {
 public:
  UpDownProgram(bool is_root, VertexId parent_id, std::vector<VertexId> children,
                std::int64_t value)
      : is_root_(is_root),
        parent_id_(parent_id),
        children_(std::move(children)),
        sum_(value),
        max_(value) {
    pending_ = static_cast<int>(children_.size());
  }
  std::int64_t result_sum = 0;
  std::int64_t result_max = 0;
  bool have_result = false;

  void on_round(NodeCtx& ctx) override {
    for (int p = 0; p < ctx.degree(); ++p) {
      const auto& msg = ctx.recv(p);
      if (!msg) continue;
      if (const auto* um = std::any_cast<UpMsg>(&msg->value)) {
        sum_ += um->sum;
        max_ = std::max(max_, um->max);
        --pending_;
      } else if (const auto* res = std::any_cast<std::pair<std::int64_t, std::int64_t>>(
                     &msg->value)) {
        if (!have_result) {
          result_sum = res->first;
          result_max = res->second;
          have_result = true;
          forward_down(ctx);
        }
      }
    }
    if (!sent_up_ && pending_ == 0) {
      sent_up_ = true;
      if (is_root_) {
        result_sum = sum_;
        result_max = max_;
        have_result = true;
        forward_down(ctx);
      } else {
        // 8 framing bits: two signs plus a 6-bit width field delimiting the
        // first magnitude (the second sizes itself from the frame end).
        ctx.send(ctx.port_of(parent_id_),
                 Message(UpMsg{sum_, max_},
                         count_bits(magnitude(sum_)) +
                             count_bits(magnitude(max_)) + 8));
      }
    }
  }
  bool done(const NodeCtx&) const override { return have_result; }

 private:
  void forward_down(NodeCtx& ctx) {
    const int bits = count_bits(magnitude(result_sum)) +
                     count_bits(magnitude(result_max)) + 8;
    for (VertexId c : children_)
      ctx.send(ctx.port_of(c),
               Message(std::make_pair(result_sum, result_max), bits));
  }

  bool is_root_;
  VertexId parent_id_;
  std::vector<VertexId> children_;
  std::int64_t sum_, max_;
  int pending_;
  bool sent_up_ = false;
};

/// Wire codecs (audit mode, wire.hpp): one real encoder per payload type
/// this translation unit sends, each fitting the declared size exactly.
/// Sum/max pairs spend 2 sign bits + a 6-bit width field for the first
/// magnitude; the second magnitude sizes itself from the frame end.
void put_sum_max(audit::BitWriter& w, std::int64_t a, std::int64_t b) {
  w.put_bit(a < 0);
  w.put_bit(b < 0);
  const int wa = audit::uint_bits(magnitude(a));
  w.put_uint(static_cast<std::uint64_t>(wa - 1), 6);
  w.put_uint(magnitude(a), wa);
  w.put_uint_min(magnitude(b));
}

std::pair<std::int64_t, std::int64_t> get_sum_max(audit::BitReader& r) {
  const bool neg_a = r.get_bit();
  const bool neg_b = r.get_bit();
  const int wa = static_cast<int>(r.get_uint(6)) + 1;
  const std::uint64_t ma = r.get_uint(wa);
  const std::uint64_t mb = r.get_rest();
  return {apply_sign(neg_a, ma), apply_sign(neg_b, mb)};
}

// The codecs for the bare types VertexId ("congest::id") and std::int64_t
// ("congest::value") live in wire.cpp: they are part of the audit core, so
// they must be registered in every binary that links the audit layer, not
// only ones that happen to pull in this translation unit.
[[maybe_unused]] const bool wire_codecs_registered = [] {
  audit::register_codec<BfsMsg>(
      "primitives::BfsMsg",
      [](const BfsMsg& m, const audit::WireContext& ctx,
         audit::BitWriter& w) {
        w.put_uint(static_cast<std::uint64_t>(m.root), id_bits(ctx.n));
        w.put_uint(static_cast<std::uint64_t>(m.dist), count_bits(ctx.n));
      },
      [](const audit::WireContext& ctx, audit::BitReader& r) {
        BfsMsg m;
        m.root = static_cast<VertexId>(r.get_uint(id_bits(ctx.n)));
        m.dist = static_cast<int>(r.get_uint(count_bits(ctx.n)));
        return m;
      });
  audit::register_codec<UpMsg>(
      "primitives::UpMsg",
      [](const UpMsg& m, const audit::WireContext&, audit::BitWriter& w) {
        put_sum_max(w, m.sum, m.max);
      },
      [](const audit::WireContext&, audit::BitReader& r) {
        const auto [sum, max] = get_sum_max(r);
        return UpMsg{sum, max};
      });
  audit::register_codec<std::pair<std::int64_t, std::int64_t>>(
      "primitives::DownResult",
      [](const std::pair<std::int64_t, std::int64_t>& m,
         const audit::WireContext&, audit::BitWriter& w) {
        put_sum_max(w, m.first, m.second);
      },
      [](const audit::WireContext&, audit::BitReader& r) {
        return get_sum_max(r);
      });
  return true;
}();

/// Children lists (by vertex) from BFS parent pointers.
std::vector<std::vector<VertexId>> children_ids_of(const Network& net,
                                                   const BfsTreeResult& tree) {
  std::vector<std::vector<VertexId>> out(net.n());
  for (int v = 0; v < net.n(); ++v)
    if (tree.parent[v] >= 0)
      out[tree.parent[v]].push_back(net.id_of_vertex(v));
  return out;
}

}  // namespace

LeaderResult run_leader_election(Network& net, int budget) {
  std::vector<std::unique_ptr<NodeProgram>> programs;
  std::vector<LeaderProgram*> handles;
  for (int v = 0; v < net.n(); ++v) {
    auto p = std::make_unique<LeaderProgram>(budget);
    handles.push_back(p.get());
    programs.push_back(std::move(p));
  }
  LeaderResult result;
  result.run = net.run_outcome(programs);
  result.rounds = result.run.rounds;
  if (!result.run.ok()) return result;  // degraded: outputs untrusted
  result.known.resize(net.n());
  for (int v = 0; v < net.n(); ++v) result.known[v] = handles[v]->known;
  result.leader = *std::min_element(result.known.begin(), result.known.end());
  return result;
}

BfsTreeResult run_bfs_tree(Network& net, int budget) {
  std::vector<std::unique_ptr<NodeProgram>> programs;
  std::vector<BfsProgram*> handles;
  for (int v = 0; v < net.n(); ++v) {
    auto p = std::make_unique<BfsProgram>(budget);
    handles.push_back(p.get());
    programs.push_back(std::move(p));
  }
  BfsTreeResult result;
  result.run = net.run_outcome(programs);
  result.rounds = result.run.rounds;
  if (!result.run.ok()) return result;  // degraded: outputs untrusted
  result.parent.assign(net.n(), -1);
  result.depth.assign(net.n(), 0);
  result.root_id = handles[0]->root;
  for (int v = 0; v < net.n(); ++v) {
    result.root_id = std::min(result.root_id, handles[v]->root);
    result.depth[v] = handles[v]->dist;
    result.parent[v] = handles[v]->parent_id < 0
                           ? -1
                           : net.vertex_of_id(handles[v]->parent_id);
  }
  return result;
}

BroadcastResult run_broadcast(Network& net, const BfsTreeResult& tree,
                              std::int64_t value) {
  const auto children = children_ids_of(net, tree);
  std::vector<std::unique_ptr<NodeProgram>> programs;
  std::vector<DownProgram*> handles;
  for (int v = 0; v < net.n(); ++v) {
    const bool is_root = tree.parent[v] < 0;
    auto p = std::make_unique<DownProgram>(
        is_root, is_root ? -1 : net.id_of_vertex(tree.parent[v]), children[v],
        value);
    handles.push_back(p.get());
    programs.push_back(std::move(p));
  }
  BroadcastResult result;
  result.run = net.run_outcome(programs);
  result.rounds = result.run.rounds;
  if (!result.run.ok()) return result;  // degraded: outputs untrusted
  result.received.resize(net.n());
  for (int v = 0; v < net.n(); ++v) result.received[v] = handles[v]->received;
  return result;
}

AggregateResult run_aggregate(Network& net, const BfsTreeResult& tree,
                              const std::vector<std::int64_t>& values) {
  if (static_cast<int>(values.size()) != net.n())
    throw std::invalid_argument("run_aggregate: one value per vertex");
  const auto children = children_ids_of(net, tree);
  std::vector<std::unique_ptr<NodeProgram>> programs;
  std::vector<UpDownProgram*> handles;
  for (int v = 0; v < net.n(); ++v) {
    const bool is_root = tree.parent[v] < 0;
    auto p = std::make_unique<UpDownProgram>(
        is_root, is_root ? -1 : net.id_of_vertex(tree.parent[v]), children[v],
        values[v]);
    handles.push_back(p.get());
    programs.push_back(std::move(p));
  }
  AggregateResult result;
  result.run = net.run_outcome(programs);
  result.rounds = result.run.rounds;
  if (!result.run.ok()) return result;  // degraded: outputs untrusted
  result.sum = handles[0]->result_sum;
  result.max = handles[0]->result_max;
  for (int v = 0; v < net.n(); ++v) {
    if (handles[v]->result_sum != result.sum)
      throw std::logic_error("run_aggregate: inconsistent results");
  }
  return result;
}

}  // namespace dmc::congest
