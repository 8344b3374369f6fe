// Sparse-vs-dense scheduler equivalence (docs/PERFORMANCE.md "Sparse
// stepping and the active set"): the event-driven round scheduler
// (NetworkConfig::sparse_stepping) must be *observationally identical* to
// dense stepping — same verdicts, same per-round trace digests, same round
// counts — across all four pipelines and all thread counts, while stepping
// strictly fewer nodes. Same contract for the elimination tree's
// change-only flooding (ElimTreeOptions::sparse_flood): identical tree and
// rounds, strictly fewer messages. These tests carry the `scale` ctest
// label so CI can run them standalone: ctest -L scale.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "congest/conformance.hpp"
#include "congest/network.hpp"
#include "dist/counting.hpp"
#include "dist/decision.hpp"
#include "dist/elim_tree.hpp"
#include "dist/optimization.hpp"
#include "dist/optmarked.hpp"
#include "graph/generators.hpp"
#include "mso/formulas.hpp"

// Global allocation counter for the scheduler allocation test (the same
// pattern as ObsTrace.DisabledPathDoesNotAllocatePerRound). Counting is
// always on (cheap, relaxed atomic); the test reads it around run().
namespace {
std::atomic<long> g_allocations{0};
}

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// The replaced operator new above allocates with malloc, so freeing with
// free() is the matching deallocation; GCC cannot see the pairing.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace dmc {
namespace {

namespace lib = mso::lib;
using mso::Sort;

Graph btd_graph(unsigned seed, int n = 24, int d = 3) {
  gen::Rng rng(seed);
  return gen::random_bounded_treedepth(n, d, 0.4, rng);
}

struct RunResult {
  std::string verdict;
  std::vector<std::uint64_t> digests;
  long rounds = 0;
  long long active_steps = 0;
};

template <typename Fn>
RunResult run_once(const Graph& g, int threads, bool sparse, Fn&& protocol) {
  audit::RoundDigestSink sink;
  congest::NetworkConfig cfg;
  cfg.sink = &sink;
  cfg.threads = threads;
  cfg.sparse_stepping = sparse;
  congest::Network net(g, cfg);
  RunResult out;
  out.verdict = protocol(net);
  out.digests = sink.digests();
  out.rounds = net.stats().rounds;
  out.active_steps = net.stats().active_steps;
  return out;
}

/// The core equivalence harness: dense serial is the reference; every
/// (threads, scheduler) combination must reproduce its verdict, digest
/// stream, and round count exactly.
template <typename Fn>
void expect_scheduler_invariant(const Graph& g, Fn&& protocol) {
  const RunResult ref = run_once(g, 1, /*sparse=*/false, protocol);
  for (int threads : {1, 2, 8}) {
    for (bool sparse : {false, true}) {
      const RunResult run = run_once(g, threads, sparse, protocol);
      EXPECT_EQ(run.verdict, ref.verdict)
          << "threads=" << threads << " sparse=" << sparse;
      EXPECT_EQ(run.digests, ref.digests)
          << "threads=" << threads << " sparse=" << sparse;
      EXPECT_EQ(run.rounds, ref.rounds)
          << "threads=" << threads << " sparse=" << sparse;
    }
  }
}

TEST(ScaleEquivalence, DecisionSchedulerInvariant) {
  for (unsigned seed = 0; seed < 3; ++seed) {
    expect_scheduler_invariant(btd_graph(seed), [](congest::Network& net) {
      const auto out = dist::run_decision(net, lib::triangle_free(), 3);
      return std::string(out.holds ? "holds" : "fails");
    });
  }
}

TEST(ScaleEquivalence, CountingSchedulerInvariant) {
  expect_scheduler_invariant(btd_graph(2, 16), [](congest::Network& net) {
    const auto out = dist::run_count(net, lib::independent_set(),
                                     {{"S", Sort::VertexSet}}, 3);
    return "count=" + std::to_string(out.count);
  });
}

TEST(ScaleEquivalence, OptimizationSchedulerInvariant) {
  expect_scheduler_invariant(btd_graph(1), [](congest::Network& net) {
    const auto out =
        dist::run_minimize(net, lib::dominating_set(), "S", Sort::VertexSet, 3);
    if (!out.best_weight) return std::string("infeasible");
    return "optimum=" + std::to_string(*out.best_weight);
  });
}

TEST(ScaleEquivalence, OptMarkedSchedulerInvariant) {
  expect_scheduler_invariant(btd_graph(4), [](congest::Network& net) {
    const auto out = dist::run_optmarked(net, lib::independent_set(), "S",
                                         Sort::VertexSet, 3);
    return std::string(out.satisfies ? "satisfies" : "violates") +
           (out.is_optimal ? "+optimal" : "");
  });
}

TEST(ScaleEquivalence, SparseFloodThreadInvariantPerScheduler) {
  // Change-only flooding alters the message stream (that is its point) and
  // lets nodes sleep through rounds they would otherwise annotate, so its
  // traced digests are comparable only within one scheduler setting:
  // thread counts must not change them, and verdict + round count must
  // agree across everything.
  auto protocol = [](congest::Network& net) {
    dist::ElimTreeOptions opts;
    opts.sparse_flood = true;
    const auto out = dist::run_decision(net, lib::triangle_free(), 3,
                                        /*engine=*/nullptr, opts);
    return std::string(out.holds ? "holds" : "fails");
  };
  const Graph g = btd_graph(3);
  const RunResult dense_ref = run_once(g, 1, /*sparse=*/false, protocol);
  const RunResult sparse_ref = run_once(g, 1, /*sparse=*/true, protocol);
  EXPECT_EQ(sparse_ref.verdict, dense_ref.verdict);
  EXPECT_EQ(sparse_ref.rounds, dense_ref.rounds);
  for (int threads : {2, 8}) {
    for (bool sparse : {false, true}) {
      const RunResult run = run_once(g, threads, sparse, protocol);
      const RunResult& ref = sparse ? sparse_ref : dense_ref;
      EXPECT_EQ(run.verdict, ref.verdict)
          << "threads=" << threads << " sparse=" << sparse;
      EXPECT_EQ(run.digests, ref.digests)
          << "threads=" << threads << " sparse=" << sparse;
      EXPECT_EQ(run.rounds, ref.rounds)
          << "threads=" << threads << " sparse=" << sparse;
    }
  }
}

TEST(ScaleEquivalence, SparseSteppingSavesWorkOnLongPaths) {
  // Algorithm 2's literal schedule floods every round, which keeps every
  // node's inbox warm — the active set can only shrink once change-only
  // flooding quiets the election. With both on, a deep-path instance is
  // quiescent almost everywhere: the active set must be a small fraction
  // of the dense n * rounds budget, at an identical verdict and round
  // count.
  const Graph g = gen::deeppath(400, 4);
  auto protocol = [](congest::Network& net) {
    dist::ElimTreeOptions opts;
    opts.sparse_flood = net.config().sparse_stepping;
    const auto out = dist::run_decision(net, lib::triangle_free(), 4,
                                        /*engine=*/nullptr, opts);
    return std::string(out.holds ? "holds" : "fails");
  };
  const RunResult dense = run_once(g, 1, false, protocol);
  const RunResult sparse = run_once(g, 1, true, protocol);
  EXPECT_EQ(sparse.verdict, dense.verdict);
  EXPECT_EQ(sparse.rounds, dense.rounds);
  EXPECT_EQ(dense.active_steps,
            static_cast<long long>(g.num_vertices()) * dense.rounds);
  EXPECT_LT(sparse.active_steps, dense.active_steps / 4);
}

TEST(ScaleEquivalence, SparseFloodSameTreeFewerMessages) {
  for (unsigned seed = 1; seed <= 3; ++seed) {
    const Graph g = btd_graph(seed, 32, 3);
    auto build = [&](bool sparse_flood) {
      congest::NetworkConfig cfg;
      cfg.id_seed = seed;
      cfg.sparse_stepping = true;
      congest::Network net(g, cfg);
      dist::ElimTreeOptions opts;
      opts.sparse_flood = sparse_flood;
      auto result = dist::run_elim_tree(net, 3, opts);
      return std::make_pair(std::move(result), net.stats().messages);
    };
    const auto [dense, dense_msgs] = build(false);
    const auto [sparse, sparse_msgs] = build(true);
    ASSERT_TRUE(dense.success);
    ASSERT_TRUE(sparse.success);
    EXPECT_EQ(sparse.parent, dense.parent) << "seed=" << seed;
    EXPECT_EQ(sparse.depth, dense.depth) << "seed=" << seed;
    EXPECT_EQ(sparse.rounds, dense.rounds) << "seed=" << seed;
    EXPECT_LT(sparse_msgs, dense_msgs) << "seed=" << seed;
  }
}

TEST(ScaleEquivalence, FastForwardSkipsQuietStretches) {
  // With no sink/metrics/audit, the scheduler fast-forwards through round
  // spans where every node sleeps. Same outcome, same round count — the
  // skipped rounds still count; they are just not simulated one by one.
  const Graph g = gen::spider(4, 12);
  auto run = [&](bool sparse) {
    congest::NetworkConfig cfg;
    cfg.id_seed = 7;
    cfg.sparse_stepping = sparse;
    congest::Network net(g, cfg);
    dist::ElimTreeOptions opts;
    opts.sparse_flood = sparse;
    const auto result = dist::run_elim_tree(net, 4, opts);
    return std::make_tuple(result.success, result.rounds,
                           net.stats().active_steps);
  };
  const auto [dense_ok, dense_rounds, dense_steps] = run(false);
  const auto [sparse_ok, sparse_rounds, sparse_steps] = run(true);
  EXPECT_TRUE(dense_ok);
  EXPECT_TRUE(sparse_ok);
  EXPECT_EQ(sparse_rounds, dense_rounds);
  EXPECT_LT(sparse_steps, dense_steps / 2);
}

using congest::Message;
using congest::NodeCtx;
using congest::NodeProgram;

using Programs = std::vector<std::unique_ptr<NodeProgram>>;

TEST(ScaleScheduler, RearmedWakeKeepsActiveStepsAndDoesNotAllocate) {
  // The star's centre sends to every leaf in rounds [0, kSends). Each leaf
  // re-arms the same wake (round kWake) on every step, the kSends
  // traffic-driven ones included, as phase-scheduled protocols do. Each
  // re-arm repeats a wake that is still queued, so the scheduler keeps one
  // heap entry per leaf instead of one per step — and, the heap staying
  // within its pre-sized capacity, an untraced run allocates nothing.
  static constexpr int kLeaves = 4, kSends = 20, kWake = 40;
  class Centre : public NodeProgram {
   public:
    void on_round(NodeCtx& ctx) override {
      if (ctx.round() >= kSends) return;
      for (int p = 0; p < ctx.degree(); ++p) ctx.send(p, Message({}, 1));
    }
    bool done(const NodeCtx& ctx) const override {
      return ctx.round() >= kSends;
    }
  };
  class Leaf : public NodeProgram {
   public:
    void on_round(NodeCtx& ctx) override { ctx.wake_at(kWake); }
    bool done(const NodeCtx& ctx) const override {
      return ctx.round() >= kWake;
    }
  };
  congest::Network net(gen::star(kLeaves));
  Programs programs;
  programs.push_back(std::make_unique<Centre>());
  for (int i = 0; i < kLeaves; ++i) programs.push_back(std::make_unique<Leaf>());

  const long before = g_allocations.load(std::memory_order_relaxed);
  const long rounds = net.run(programs);
  const long after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(rounds, kWake + 1);
  // The centre steps in rounds 0..kSends; a leaf in rounds 0..kSends (the
  // first step, then each delivery) and once more at its wake.
  EXPECT_EQ(net.stats().active_steps,
            (kSends + 1) + static_cast<long long>(kLeaves) * (kSends + 2));
  EXPECT_EQ(after - before, 0)
      << "untraced Network::run() allocated " << (after - before)
      << " times over " << rounds << " rounds";
}

TEST(ScaleScheduler, StaleWakesOverManyRoundsKeepActiveStepsAndDoNotAllocate) {
  // Leaf i of a star first asks to wake at round 3i + 2, so the wakes
  // queued in round 0 span kLeaves distinct rounds. The centre stays
  // restless and sends to leaf i in round 3i, which wakes the leaf one
  // round early; the leaf then re-arms a different round, 3i + 3. Its
  // first wake goes stale but stays queued and steps the leaf once more
  // at 3i + 2, where the leaf re-arms 3i + 3 again (a duplicate, dropped).
  // At most n wakes are ever queued, so an untraced run allocates nothing.
  static constexpr int kLeaves = 48;
  class Centre : public NodeProgram {
   public:
    void on_round(NodeCtx& ctx) override {
      const int r = ctx.round();
      if (r % 3 == 0 && r / 3 < ctx.degree())
        ctx.send(r / 3, Message({}, 1));
    }
    bool done(const NodeCtx& ctx) const override {
      return ctx.round() > 3 * (kLeaves - 1);
    }
  };
  class Leaf : public NodeProgram {
   public:
    explicit Leaf(int i) : wake_(3 * i + 2) {}
    void on_round(NodeCtx& ctx) override {
      if (ctx.round() > wake_)
        ctx.sleep();
      else if (ctx.recv(0) != nullptr || ctx.round() == wake_)
        ctx.wake_at(wake_ + 1);
      else
        ctx.wake_at(wake_);
    }
    bool done(const NodeCtx& ctx) const override {
      return ctx.round() > wake_;
    }

   private:
    int wake_;
  };
  congest::Network net(gen::star(kLeaves));
  Programs programs;
  programs.push_back(std::make_unique<Centre>());
  for (int i = 0; i < kLeaves; ++i)
    programs.push_back(std::make_unique<Leaf>(i));

  const long before = g_allocations.load(std::memory_order_relaxed);
  const long rounds = net.run(programs);
  const long after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(rounds, 3 * kLeaves + 1);
  // The centre steps in rounds 0 .. 3(kLeaves - 1) + 1; leaf i in round 0,
  // on its traffic (3i + 1), at its stale wake (3i + 2) and at its re-armed
  // wake (3i + 3).
  EXPECT_EQ(net.stats().active_steps, 3 * kLeaves - 1 + 4LL * kLeaves);
  EXPECT_EQ(after - before, 0)
      << "untraced Network::run() allocated " << (after - before)
      << " times over " << rounds << " rounds";
}

TEST(ScaleScheduler, StepOrderIsAscendingForwardDescendingReverse) {
  // Nodes on a 150-cycle (three bitmap words) wake on scattered schedules
  // and some send, so each round's active set is a scattered subset. Every
  // round must step it in ascending vertex order, or descending under
  // kReverse, and both orders must step the same sets.
  static constexpr int kNodes = 150, kLast = 30;
  using Log = std::vector<std::pair<int, int>>;  // (round, vertex id)
  class Scattered : public NodeProgram {
   public:
    explicit Scattered(Log& log) : log_(log) {}
    void on_round(NodeCtx& ctx) override {
      const int r = ctx.round();
      log_.emplace_back(r, ctx.id());
      if (r >= kLast) return;
      if (ctx.id() % 7 == r % 7) ctx.send(0, Message({}, 1));
      ctx.wake_at(std::min(kLast, r + 1 + (ctx.id() * 13) % 5));
    }
    bool done(const NodeCtx& ctx) const override {
      return ctx.round() >= kLast;
    }

   private:
    Log& log_;
  };
  auto run = [&](congest::NetworkConfig::StepOrder order) {
    congest::NetworkConfig cfg;
    cfg.step_order = order;
    congest::Network net(gen::cycle(kNodes), cfg);
    Log log;
    Programs programs;
    for (int v = 0; v < kNodes; ++v)
      programs.push_back(std::make_unique<Scattered>(log));
    net.run(programs);
    EXPECT_EQ(net.stats().active_steps, static_cast<long long>(log.size()));
    return log;
  };
  const Log forward = run(congest::NetworkConfig::StepOrder::kForward);
  const Log reverse = run(congest::NetworkConfig::StepOrder::kReverse);
  ASSERT_EQ(forward.size(), reverse.size());
  bool partial_round = false;
  for (std::size_t i = 0; i < forward.size();) {
    std::size_t j = i;
    while (j < forward.size() && forward[j].first == forward[i].first) ++j;
    for (std::size_t k = i + 1; k < j; ++k)
      EXPECT_LT(forward[k - 1].second, forward[k].second)
          << "round " << forward[i].first;
    // The same round's reverse steps are the forward ones, back to front.
    for (std::size_t k = i; k < j; ++k)
      EXPECT_EQ(reverse[k], forward[i + (j - 1 - k)])
          << "round " << forward[i].first;
    partial_round |= j - i < static_cast<std::size_t>(kNodes) &&
                     forward[j - 1].second - forward[i].second >= 64;
    i = j;
  }
  EXPECT_TRUE(partial_round) << "no round stepped a scattered multi-word set";
}

}  // namespace
}  // namespace dmc
