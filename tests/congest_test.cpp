#include "congest/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "congest/fragment.hpp"
#include "graph/generators.hpp"

namespace dmc::congest {
namespace {

/// Floods the minimum id; checks every node learns it.
class MinFlood : public NodeProgram {
 public:
  explicit MinFlood(int rounds) : rounds_(rounds) {}
  VertexId result = -1;

  void on_round(NodeCtx& ctx) override {
    if (ctx.round() == 0) result = ctx.id();
    for (int p = 0; p < ctx.degree(); ++p) {
      const auto& msg = ctx.recv(p);
      if (msg) result = std::min(result, std::any_cast<VertexId>(msg->value));
    }
    if (ctx.round() < rounds_)
      ctx.send_all(Message(result, id_bits(ctx.n())));
  }
  bool done(const NodeCtx& ctx) const override {
    return ctx.round() >= rounds_;
  }

 private:
  int rounds_;
};

TEST(Congest, MinFloodConvergesOnPath) {
  const Graph g = gen::path(8);
  Network net(g, {.id_seed = 42});
  std::vector<std::unique_ptr<NodeProgram>> programs;
  std::vector<MinFlood*> handles;
  for (int v = 0; v < 8; ++v) {
    auto p = std::make_unique<MinFlood>(8);
    handles.push_back(p.get());
    programs.push_back(std::move(p));
  }
  net.run(programs);
  for (auto* h : handles) EXPECT_EQ(h->result, 0);
}

TEST(Congest, RoundsAndStatsAccounted) {
  const Graph g = gen::cycle(6);
  Network net(g);
  std::vector<std::unique_ptr<NodeProgram>> programs;
  for (int v = 0; v < 6; ++v) programs.push_back(std::make_unique<MinFlood>(3));
  const long rounds = net.run(programs);
  EXPECT_GE(rounds, 3);
  EXPECT_GT(net.stats().messages, 0);
  EXPECT_GT(net.stats().total_bits, 0);
  EXPECT_LE(net.stats().max_message_bits, net.bandwidth());
}

TEST(Congest, IdPermutationIsConsistent) {
  const Graph g = gen::star(5);
  Network net(g, {.id_seed = 7});
  for (int v = 0; v < g.num_vertices(); ++v)
    EXPECT_EQ(net.vertex_of_id(net.id_of_vertex(v)), v);
}

TEST(Congest, RejectsDisconnectedAndEmpty) {
  EXPECT_THROW(Network(Graph(0)), std::invalid_argument);
  EXPECT_THROW(Network(gen::disjoint_union(gen::path(2), gen::path(2))),
               std::invalid_argument);
}

class Oversender : public NodeProgram {
 public:
  void on_round(NodeCtx& ctx) override {
    if (ctx.degree() > 0)
      ctx.send(0, Message(int{0}, ctx.bandwidth() + 1));
  }
  bool done(const NodeCtx&) const override { return false; }
};

TEST(Congest, EnforcesBandwidth) {
  Network net(gen::path(2));
  std::vector<std::unique_ptr<NodeProgram>> programs;
  programs.push_back(std::make_unique<Oversender>());
  programs.push_back(std::make_unique<Oversender>());
  EXPECT_THROW(net.run(programs), std::invalid_argument);
}

TEST(Congest, RejectsDoubleSendOnPort) {
  class DoubleSender : public NodeProgram {
   public:
    void on_round(NodeCtx& ctx) override {
      if (ctx.degree() > 0) {
        ctx.send(0, Message(int{1}, 8));
        ctx.send(0, Message(int{2}, 8));
      }
    }
    bool done(const NodeCtx&) const override { return false; }
  };
  Network net(gen::path(2));
  std::vector<std::unique_ptr<NodeProgram>> programs;
  programs.push_back(std::make_unique<DoubleSender>());
  programs.push_back(std::make_unique<DoubleSender>());
  EXPECT_THROW(net.run(programs), std::logic_error);
}

TEST(Congest, RoundLimitGuards) {
  class Forever : public NodeProgram {
    void on_round(NodeCtx&) override {}
    bool done(const NodeCtx&) const override { return false; }
  };
  Network net(gen::path(2), {.max_rounds = 10});
  std::vector<std::unique_ptr<NodeProgram>> programs;
  programs.push_back(std::make_unique<Forever>());
  programs.push_back(std::make_unique<Forever>());
  EXPECT_THROW(net.run(programs), std::runtime_error);
}

TEST(Congest, NeighborIdsAndPorts) {
  const Graph g = gen::star(3);  // center 0
  Network net(g, {.id_seed = 3});
  class Check : public NodeProgram {
   public:
    void on_round(NodeCtx& ctx) override {
      for (int p = 0; p < ctx.degree(); ++p)
        EXPECT_EQ(ctx.port_of(ctx.neighbor_id(p)), p);
      EXPECT_EQ(ctx.port_of(ctx.id()), -1);  // not adjacent to self
    }
    bool done(const NodeCtx&) const override { return true; }
  };
  std::vector<std::unique_ptr<NodeProgram>> programs;
  for (int v = 0; v < g.num_vertices(); ++v)
    programs.push_back(std::make_unique<Check>());
  net.run(programs);
}

// --- fragmentation -----------------------------------------------------------

class FragSender : public NodeProgram {
 public:
  explicit FragSender(long bits) : bits_(bits) {}
  void on_round(NodeCtx& ctx) override {
    if (ctx.round() == 0 && ctx.degree() > 0)
      sender_.enqueue(0, std::string("payload"), bits_);
    sender_.pump(ctx);
  }
  bool done(const NodeCtx&) const override { return sender_.idle(); }

 private:
  long bits_;
  FragmentSender sender_;
};

class FragReceiver : public NodeProgram {
 public:
  std::string received;
  int arrival_round = -1;
  void on_round(NodeCtx& ctx) override {
    for (int p = 0; p < ctx.degree(); ++p)
      if (auto payload = poll_fragment(ctx, p)) {
        received = std::any_cast<std::string>(*payload);
        arrival_round = ctx.round();
      }
  }
  bool done(const NodeCtx&) const override { return !received.empty(); }
};

TEST(Congest, FragmentationPaysProportionalRounds) {
  const Graph g = gen::path(2);
  // Two runs: small payload vs 10x bandwidth payload.
  int small_round = 0, big_round = 0;
  for (int mode = 0; mode < 2; ++mode) {
    Network net(g);
    const long bits = mode == 0 ? 8 : 10L * net.bandwidth();
    auto s = std::make_unique<FragSender>(bits);
    auto r = std::make_unique<FragReceiver>();
    FragReceiver* rh = r.get();
    std::vector<std::unique_ptr<NodeProgram>> programs;
    programs.push_back(std::move(s));
    programs.push_back(std::move(r));
    net.run(programs);
    EXPECT_EQ(rh->received, "payload");
    (mode == 0 ? small_round : big_round) = rh->arrival_round;
  }
  EXPECT_GT(big_round, small_round + 5);  // ~10 chunks vs 1
}

class MultiPayloadSender : public NodeProgram {
 public:
  void on_round(NodeCtx& ctx) override {
    if (ctx.round() == 0 && ctx.degree() > 0) {
      // three payloads on one port; they must arrive in order
      sender_.enqueue(0, std::string("first"), 8);
      sender_.enqueue(0, std::string("second"), 3L * ctx.bandwidth());
      sender_.enqueue(0, std::string("third"), 8);
    }
    sender_.pump(ctx);
  }
  bool done(const NodeCtx&) const override { return sender_.idle(); }

 private:
  FragmentSender sender_;
};

class MultiPayloadReceiver : public NodeProgram {
 public:
  explicit MultiPayloadReceiver(std::size_t expect = 3) : expect_(expect) {}
  std::vector<std::string> received;
  void on_round(NodeCtx& ctx) override {
    for (int p = 0; p < ctx.degree(); ++p)
      if (auto payload = poll_fragment(ctx, p))
        received.push_back(std::any_cast<std::string>(*payload));
  }
  bool done(const NodeCtx&) const override {
    return received.size() == expect_;
  }

 private:
  std::size_t expect_;
};

TEST(Congest, FragmentQueuesDeliverInOrder) {
  Network net(gen::path(2));
  auto s = std::make_unique<MultiPayloadSender>();
  auto r = std::make_unique<MultiPayloadReceiver>();
  MultiPayloadReceiver* rh = r.get();
  std::vector<std::unique_ptr<NodeProgram>> programs;
  programs.push_back(std::move(s));
  programs.push_back(std::move(r));
  net.run(programs);
  ASSERT_EQ(rh->received.size(), 3u);
  EXPECT_EQ(rh->received[0], "first");
  EXPECT_EQ(rh->received[1], "second");
  EXPECT_EQ(rh->received[2], "third");
}

/// Star hub that queues two payloads per leaf port, highest port first.
class DescendingHubSender : public NodeProgram {
 public:
  void on_round(NodeCtx& ctx) override {
    if (ctx.round() == 0)
      for (int port = ctx.degree() - 1; port >= 0; --port) {
        sender_.enqueue(port, std::string("a") + std::to_string(port), 8);
        sender_.enqueue(port, std::string("b") + std::to_string(port),
                        3L * ctx.bandwidth());
      }
    sender_.pump(ctx);
  }
  bool done(const NodeCtx&) const override { return sender_.idle(); }

 private:
  FragmentSender sender_;
};

TEST(Congest, FragmentSenderTakesPortsInAnyOrder) {
  const int leaves = 1000;
  const Graph g = gen::star(leaves);
  Network net(g);
  std::vector<std::unique_ptr<NodeProgram>> programs;
  std::vector<MultiPayloadReceiver*> receivers(g.num_vertices(), nullptr);
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (g.degree(v) == leaves) {
      programs.push_back(std::make_unique<DescendingHubSender>());
      continue;
    }
    auto r = std::make_unique<MultiPayloadReceiver>(2);
    receivers[v] = r.get();
    programs.push_back(std::move(r));
  }
  net.run(programs);
  // Every hub port reaches exactly one leaf, its two payloads in order.
  std::vector<int> seen(leaves, 0);
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (receivers[v] == nullptr) continue;
    const auto& received = receivers[v]->received;
    ASSERT_EQ(received.size(), 2u) << "leaf " << v;
    const std::string port = received[0].substr(1);
    EXPECT_EQ(received[0], "a" + port);
    EXPECT_EQ(received[1], "b" + port);
    seen.at(std::stoi(port)) += 1;
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 1), leaves);
}

}  // namespace
}  // namespace dmc::congest
