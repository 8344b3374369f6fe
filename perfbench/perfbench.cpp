// perfbench — the repository benchmark program (README.md in this directory
// lists the workloads and metrics).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --dmcd PATH --workdir DIR
//
// Drives the program only through public library calls and the dmcd
// socket. With --trace 0 it prints the end-to-end metrics. With --trace 1
// it runs the workload untraced, then again traced (bench-side spans
// around every call into a layer, plus the program's own metrics
// registry), and prints the per-layer metrics. The last stdout line is
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// A broken invariant (CONGEST counts that differ between runs of the same
// inputs, a daemon that does not come up) exits non-zero without a result.
#include <sys/resource.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bpt/universe_cache.hpp"
#include "churn/engine.hpp"
#include "congest/network.hpp"
#include "dist/counting.hpp"
#include "dist/decision.hpp"
#include "dist/optimization.hpp"
#include "graph/algorithms.hpp"
#include "graph/exact.hpp"
#include "graph/generators.hpp"
#include "metrics/metrics.hpp"
#include "mso/formulas.hpp"
#include "mso/lower.hpp"
#include "mso/parser.hpp"
#include "serve/client.hpp"
#include "serve/exec.hpp"

namespace fs = std::filesystem;
using namespace dmc;

namespace {

// ---------------------------------------------------------------------------
// Utilities
// ---------------------------------------------------------------------------

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linearly interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double mean(const std::vector<double>& v) {
  return v.empty() ? 0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double peak_rss_mb_self() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// A broken benchmark invariant: main() exits non-zero, printing no result.
struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Simulated CONGEST work.
struct SimCounts {
  long long rounds = 0, messages = 0, bits = 0;
  bool operator==(const SimCounts&) const = default;
  SimCounts& operator+=(const SimCounts& o) {
    rounds += o.rounds;
    messages += o.messages;
    bits += o.bits;
    return *this;
  }
};
SimCounts delta(const congest::NetworkStats& a,
                const congest::NetworkStats& b) {
  return {b.rounds - a.rounds, b.messages - a.messages,
          b.total_bits - a.total_bits};
}
std::string to_text(const SimCounts& c) {
  return "rounds=" + std::to_string(c.rounds) +
         " messages=" + std::to_string(c.messages) +
         " bits=" + std::to_string(c.bits);
}

/// Determinism guard: a pass over the same inputs must cost exactly what
/// the first one did, in rounds, messages and bits.
void expect_same_sim(std::optional<SimCounts>& first, const SimCounts& got,
                     const std::string& what) {
  if (!first)
    first = got;
  else if (!(*first == got))
    throw BenchError("non-deterministic CONGEST counts in " + what + ": " +
                     to_text(*first) + " vs " + to_text(got));
}

// ---------------------------------------------------------------------------
// The result line
// ---------------------------------------------------------------------------

struct Result {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  int reported = 0;  // stderr lines so far; the first few are enough

  void put(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {std::isfinite(value) ? value : 0.0, unit}});
  }
  /// One op that threw or answered with an error: failed, not incorrect.
  void op_failed(const std::string& what) {
    ++attempted;
    ++failed;
    report("failed: " + what);
  }
  /// One op whose answer is checked against an oracle. A wrong answer is
  /// a failed op and makes the run incorrect.
  void op_checked(const std::string& what, const std::string& got,
                  const std::string& want) {
    ++attempted;
    if (got == want) return;
    ++failed;
    correct = false;
    report("wrong answer: " + what + ": got '" + got + "', oracle '" + want +
           "'");
  }
  void report(const std::string& line) {
    if (++reported <= 5) std::cerr << "perfbench: " << line << "\n";
  }
  void print() const {
    std::ostringstream os;
    os.precision(12);
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const auto& [name, vu] = metrics[i];
      os << (i ? ", " : "") << "\"" << name << "\": {\"value\": " << vu.first
         << ", \"unit\": \"" << vu.second << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
  }
};

struct Args {
  std::string workload;
  unsigned long long seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dmcd;
  std::string workdir = ".bench_run";
};

/// End-to-end metrics, common to every workload. A *pass* is the
/// workload's fixed unit of repeated work, an *op* what a user waits for:
/// one pass on the in-process pipeline workloads, one query on dmcd-mixed,
/// one epoch on churn-flap. `sim` is the CONGEST cost of one pass. wall_s
/// is the mean pass wall: the host's speed drifts by tens of percent over
/// seconds, and a mean over the whole timed region smooths that where a
/// median would pick whichever speed held longest. There is no tail
/// percentile here: on the shared 4-vCPU VM the benchmark was sized on,
/// the p95 of the same code moved by more than the largest allowed bound
/// between sets of runs (README.md, "Host noise").
struct EndToEnd {
  std::vector<double> setup_s;
  double passes = 0;
  std::vector<double> op_ms;
  double timed_s = 0;
  double peak_rss_mb = 0;
  SimCounts sim;

  void emit(Result& r) const {
    r.put("setup_s", median(setup_s), "s");
    r.put("wall_s", timed_s / passes, "s");
    r.put("ops_per_s", static_cast<double>(op_ms.size()) / timed_s, "1/s");
    r.put("latency_p50_ms", quantile(op_ms, 0.50), "ms");
    r.put("peak_rss_mb", peak_rss_mb, "MB");
    r.put("sim_rounds", static_cast<double>(sim.rounds), "count");
    r.put("sim_messages", static_cast<double>(sim.messages), "count");
    r.put("sim_bits", static_cast<double>(sim.bits), "count");
  }
};

// ---------------------------------------------------------------------------
// Bench-side tracing. A span's layer is its name up to the first '.'; its
// self time is its duration minus the part its children cover. Spans stay
// in memory and are written out as JSONL when the run ends.
// ---------------------------------------------------------------------------

class Tracer {
 public:
  int open(const std::string& name, long op) {
    spans_.push_back(
        {name, now_s(), 0, stack_.empty() ? -1 : stack_.back(), op});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    spans_[id].end = now_s();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }
  /// A completed span with explicit times: durations the program itself
  /// reports (the BPT fold wall inside a solve, dmcd's per-query spans).
  int add(const std::string& name, double start, double end, int parent,
          long op) {
    spans_.push_back({name, start, end, parent, op});
    return static_cast<int>(spans_.size()) - 1;
  }

  std::map<std::string, double> self_by_layer() const {
    std::vector<double> child(spans_.size(), 0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child[s.parent] += s.end - s.start;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out[s.name.substr(0, s.name.find('.'))] +=
          std::max(0.0, s.end - s.start - child[i]);
    }
    return out;
  }
  /// Total seconds of all spans with this name.
  double total(const std::string& name) const {
    double t = 0;
    for (const Span& s : spans_)
      if (s.name == name) t += s.end - s.start;
    return t;
  }
  /// Seconds of the top-level layer spans: those whose parent is one of
  /// the benchmark's own spans (pass, query, epoch pair).
  double attributed() const {
    auto is_bench = [](const Span& s) {
      return s.name.rfind("bench.", 0) == 0;
    };
    double t = 0;
    for (const Span& s : spans_)
      if (!is_bench(s) && s.parent >= 0 && is_bench(spans_[s.parent]))
        t += s.end - s.start;
    return t;
  }
  double roots() const {
    double t = 0;
    for (const Span& s : spans_)
      if (s.parent < 0) t += s.end - s.start;
    return t;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out.precision(9);
    const double base = spans_.empty() ? 0 : spans_.front().start;
    for (const Span& s : spans_)
      out << "{\"name\":\"" << s.name << "\",\"start_s\":" << s.start - base
          << ",\"end_s\":" << s.end - base << ",\"parent\":" << s.parent
          << ",\"op\":" << s.op << "}\n";
  }

 private:
  struct Span {
    std::string name;
    double start = 0, end = 0;
    int parent = -1;
    long op = -1;
  };
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class SpanScope {
 public:
  SpanScope(Tracer& t, const std::string& name, long op)
      : t_(t), id_(t.open(name, op)) {}
  ~SpanScope() { t_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

/// Installs a fresh registry as the program's global one for a scope.
class RegistryScope {
 public:
  RegistryScope() { prev_ = metrics::set_global(&reg_); }
  ~RegistryScope() { metrics::set_global(prev_); }
  RegistryScope(const RegistryScope&) = delete;
  RegistryScope& operator=(const RegistryScope&) = delete;
  long long counter(const char* name) { return reg_.counter(name).value(); }

 private:
  metrics::Registry reg_;
  metrics::Registry* prev_ = nullptr;
};

/// Every per-layer metric the benchmark declares; each traced run prints
/// all of them, 0 where the workload does not exercise a layer.
class LayerMetrics {
 public:
  double& operator[](const std::string& name) {
    if (std::none_of(kOrder.begin(), kOrder.end(),
                     [&](const auto& p) { return p.first == name; }))
      throw BenchError("undeclared per-layer metric " + name);
    return value_[name];
  }
  /// Self ms per layer per pass, the share of each pass's wall that
  /// named layer spans cover, and the traced/untraced pass-wall ratio.
  void finish(const Tracer& t, double passes, double untraced_pass_s,
              double traced_pass_s) {
    for (const auto& [layer, secs] : t.self_by_layer())
      if (layer != "bench") (*this)["self_ms." + layer] = 1e3 * secs / passes;
    (*this)["bench.span_coverage"] = t.attributed() / t.roots();
    (*this)["bench.trace_overhead_frac"] = traced_pass_s / untraced_pass_s - 1;
  }
  void emit(Result& r) const {
    for (const auto& [name, unit] : kOrder) {
      const auto it = value_.find(name);
      r.put(name, it == value_.end() ? 0.0 : it->second, unit);
    }
  }

 private:
  inline static const std::vector<std::pair<std::string, std::string>> kOrder =
      {
          {"graph.gen_ms", "ms"},
          {"congest.net_build_ms", "ms"},
          {"congest.net_bytes_per_vertex", "B"},
          {"congest.active_steps", "count"},
          {"congest.ns_per_active_step.elim_tree", "ns"},
          {"congest.ns_per_active_step.bags", "ns"},
          {"congest.ns_per_active_step.solve", "ns"},
          {"congest.max_msg_bits", "bit"},
          {"dist.elim_tree_ms", "ms"},
          {"dist.elim_tree_rounds", "count"},
          {"dist.elim_tree_messages", "count"},
          {"dist.bags_ms", "ms"},
          {"dist.bags_rounds", "count"},
          {"dist.bags_bits", "bit"},
          {"dist.solve_ms", "ms"},
          {"dist.solve_rounds", "count"},
          {"dist.solve_bits", "bit"},
          {"dist.folds", "count"},
          {"mso.prepare_ms", "ms"},
          {"bpt.types", "count"},
          {"bpt.gluing_ops", "count"},
          {"bpt.compose_calls", "count"},
          {"bpt.memo_hit_rate", "frac"},
          {"bpt.invalid_compose_frac", "frac"},
          {"bpt.types_per_s", "1/s"},
          {"bpt.fold_ms", "ms"},
          {"bpt.tier.hit_rate", "frac"},
          {"bpt.tier.builds", "count"},
          {"bpt.tier.disk_hits", "count"},
          {"bpt.tier.saves", "count"},
          {"bpt.tier.build_ms", "ms"},
          {"bpt.tier.disk_load_ms", "ms"},
          {"bpt.tier.wait_ms", "ms"},
          {"bpt.tier.dmcu_mb", "MB"},
          {"serve.queue_ms_p50", "ms"},
          {"serve.queue_ms_p95", "ms"},
          {"serve.exec_ms_p50", "ms"},
          {"serve.exec_ms_p95", "ms"},
          {"serve.transport_ms_p50", "ms"},
          {"serve.batch_size_mean", "count"},
          {"serve.warm_frac", "frac"},
          {"churn.step_ms_p50", "ms"},
          {"churn.step_ms_p95", "ms"},
          {"churn.epoch_rounds", "count"},
          {"churn.oracle_rounds", "count"},
          {"churn.refold_frac", "frac"},
          {"churn.folds_per_epoch", "count"},
          {"churn.recompute_frac", "frac"},
          {"self_ms.graph", "ms"},
          {"self_ms.congest", "ms"},
          {"self_ms.mso", "ms"},
          {"self_ms.bpt", "ms"},
          {"self_ms.dist", "ms"},
          {"self_ms.serve", "ms"},
          {"self_ms.churn", "ms"},
          {"bench.span_coverage", "frac"},
          {"bench.trace_overhead_frac", "frac"},
  };
  std::map<std::string, double> value_;
};

// ---------------------------------------------------------------------------
// Oracles that do not use the BPT engine
// ---------------------------------------------------------------------------

std::vector<std::uint64_t> adjacency_masks(const Graph& g) {
  if (g.num_vertices() > 64) throw BenchError("oracle: graph too large");
  std::vector<std::uint64_t> nbr(g.num_vertices(), 0);
  for (const Edge& e : g.edges()) {
    nbr[e.u] |= 1ull << e.v;
    nbr[e.v] |= 1ull << e.u;
  }
  return nbr;
}

/// Independent sets, branching on a vertex of largest remaining degree
/// (without it, or with it and without its neighbours).
std::uint64_t count_independent_sets_branching(const Graph& g) {
  if (g.num_vertices() > 63) throw BenchError("oracle: graph too large");
  const auto nbr = adjacency_masks(g);
  const std::function<std::uint64_t(std::uint64_t)> rec =
      [&](std::uint64_t m) -> std::uint64_t {
    int best = -1, best_deg = 0;
    for (std::uint64_t x = m; x != 0; x &= x - 1) {
      const int v = std::countr_zero(x);
      const int deg = std::popcount(nbr[v] & m);
      if (deg > best_deg) {
        best = v;
        best_deg = deg;
      }
    }
    if (best < 0) return 1ull << std::popcount(m);  // no edges left
    const std::uint64_t rest = m & ~(1ull << best);
    return rec(rest) + rec(rest & ~nbr[best]);
  };
  return rec((1ull << g.num_vertices()) - 1);
}

/// Maximum total edge weight of a matching, branching on the lowest
/// unmatched vertex: leave it unmatched or match it to a free neighbour.
Weight max_weight_matching(const Graph& g) {
  const int n = g.num_vertices();
  if (n > 64) throw BenchError("oracle: graph too large");
  std::vector<std::vector<std::pair<int, Weight>>> adj(n);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& ed = g.edge(e);
    adj[ed.u].push_back({ed.v, g.edge_weight(e)});
    adj[ed.v].push_back({ed.u, g.edge_weight(e)});
  }
  const std::function<Weight(std::uint64_t)> rec =
      [&](std::uint64_t used) -> Weight {
    int v = 0;
    while (v < n && ((used >> v) & 1)) ++v;
    if (v == n) return 0;
    const std::uint64_t with_v = used | (1ull << v);
    Weight best = rec(with_v);
    for (const auto& [u, w] : adj[v])
      if (!((with_v >> u) & 1))
        best = std::max(best, w + rec(with_v | (1ull << u)));
    return best;
  };
  return rec(0);
}

/// Forests are triangle-free; other graphs get the exact count.
bool triangle_free_oracle(const Graph& g) {
  return is_acyclic(g) || exact::count_triangles(g) == 0;
}

// ---------------------------------------------------------------------------
// One pipeline query, run through the public dist:: entry points
// ---------------------------------------------------------------------------

struct PipelineQuery {
  std::string name;
  std::string verb;  // decide | minimize | maximize | count
  std::function<mso::FormulaPtr()> formula;
  std::vector<std::pair<std::string, mso::Sort>> frees;
  std::string family;
  int d = 3;
  bool sparse_flood = false;
  // Set by prepare().
  mso::FormulaPtr parsed;
  bpt::EngineConfig cfg;

  /// Query preparation as the CLI does it: parse the formula text, lower
  /// it, derive the engine config.
  void prepare() {
    parsed = mso::parse(mso::to_string(*formula()));
    cfg = bpt::config_for(*mso::lower(parsed, frees), frees);
  }
  dist::ElimTreeOptions tree_opts() const {
    dist::ElimTreeOptions o;
    o.sparse_flood = sparse_flood;
    return o;
  }
};

template <typename Out>
std::string degraded_text(const Out& out) {
  if (!out.run.ok()) return "degraded";
  if (out.treedepth_exceeded) return "treedepth";
  return {};
}
std::string answer(const dist::DecisionOutcome& o) {
  const std::string v = degraded_text(o);
  return v.empty() ? (o.holds ? "holds" : "fails") : v;
}
std::string answer(const dist::OptimizationOutcome& o) {
  const std::string v = degraded_text(o);
  if (!v.empty()) return v;
  return o.best_weight ? "optimum=" + std::to_string(*o.best_weight)
                       : "infeasible";
}
std::string answer(const dist::CountingOutcome& o) {
  const std::string v = degraded_text(o);
  return v.empty() ? "count=" + std::to_string(o.count) : v;
}

/// One call into the pipeline; the engine is built inside, fresh.
std::string run_one_call(const PipelineQuery& q, congest::Network& net) {
  const std::string var = q.frees.empty() ? "" : q.frees[0].first;
  const mso::Sort sort =
      q.frees.empty() ? mso::Sort::VertexSet : q.frees[0].second;
  if (q.verb == "decide")
    return answer(
        dist::run_decision(net, q.parsed, q.d, nullptr, q.tree_opts()));
  if (q.verb == "minimize")
    return answer(dist::run_minimize(net, q.parsed, var, sort, q.d, nullptr,
                                     q.tree_opts()));
  if (q.verb == "maximize")
    return answer(dist::run_maximize(net, q.parsed, var, sort, q.d, nullptr,
                                     q.tree_opts()));
  return answer(
      dist::run_count(net, q.parsed, q.frees, q.d, nullptr, q.tree_opts()));
}

/// Per-phase accounting of phase-by-phase runs.
struct Phases {
  static constexpr const char* kName[3] = {"elim_tree", "bags", "solve"};
  SimCounts sim[3];
  long long steps[3] = {0, 0, 0};
  double secs[3] = {0, 0, 0};
  double fold_s = 0;
  long long folds = 0;
  std::size_t types = 0, gluing_ops = 0;
  long compose_calls = 0, memo_hits = 0, invalid = 0;
};

/// Charges one phase's time and CONGEST counts on scope exit, also when
/// the phase throws.
class PhaseScope {
 public:
  PhaseScope(Tracer& tr, congest::Network& net, Phases& ph, int phase,
             long op)
      : span_(tr, std::string("dist.") + Phases::kName[phase], op),
        net_(net),
        ph_(ph),
        phase_(phase),
        s0_(net.stats()),
        t0_(now_s()) {}
  ~PhaseScope() {
    const auto& s1 = net_.stats();
    ph_.sim[phase_] += delta(s0_, s1);
    ph_.steps[phase_] += s1.active_steps - s0_.active_steps;
    ph_.secs[phase_] += now_s() - t0_;
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;
  int id() const { return span_.id(); }

 private:
  SpanScope span_;
  congest::Network& net_;
  Phases& ph_;
  int phase_;
  congest::NetworkStats s0_;
  double t0_;
};

/// Charges the BPT fold wall the program's registry counts during a solve
/// as a child span of that solve, also when the solve throws.
class FoldChild {
 public:
  FoldChild(Tracer& tr, RegistryScope& rs, Phases& ph, int parent, long op)
      : tr_(tr),
        rs_(rs),
        ph_(ph),
        parent_(parent),
        op_(op),
        t0_(now_s()),
        ns0_(rs.counter("bpt.fold.wall_ns")),
        folds0_(rs.counter("bpt.folds")) {}
  ~FoldChild() {
    const double s = 1e-9 * (rs_.counter("bpt.fold.wall_ns") - ns0_);
    tr_.add("bpt.fold", t0_, t0_ + s, parent_, op_);
    ph_.fold_s += s;
    ph_.folds += rs_.counter("bpt.folds") - folds0_;
  }
  FoldChild(const FoldChild&) = delete;
  FoldChild& operator=(const FoldChild&) = delete;

 private:
  Tracer& tr_;
  RegistryScope& rs_;
  Phases& ph_;
  int parent_;
  long op_;
  double t0_;
  long long ns0_, folds0_;
};

/// The same query phase by phase — run_elim_tree, run_bags, then the
/// pipeline's solve seam — on an engine built here, one span per phase.
std::string run_phased(const PipelineQuery& q, congest::Network& net,
                       Tracer& tr, RegistryScope& rs, Phases& ph, long op) {
  struct EngineHolder {  // frees the universe inside a span, on every path
    Tracer& tr;
    long op;
    std::optional<bpt::Engine> engine;
    ~EngineHolder() {
      SpanScope sp(tr, "bpt.engine_free", op);
      engine.reset();
    }
  } holder{tr, op, std::nullopt};
  std::optional<bpt::Engine>& engine = holder.engine;
  {
    SpanScope sp(tr, "bpt.engine_init", op);
    engine.emplace(q.cfg);
  }
  struct EngineStats {  // folded into ph on exit, also when the solve throws
    bpt::Engine& e;
    Phases& ph;
    ~EngineStats() {
      const auto s = e.stats();
      ph.types += e.num_types();
      ph.gluing_ops += e.num_ops();
      ph.compose_calls += s.compose_calls;
      ph.memo_hits += s.memo_hits;
      ph.invalid += s.invalid_compositions;
    }
  } engine_stats{*engine, ph};
  dist::ElimTreeResult tree;
  {
    PhaseScope p(tr, net, ph, 0, op);
    tree = dist::run_elim_tree(net, q.d, q.tree_opts());
  }
  if (!tree.run.ok()) return "degraded";
  if (!tree.success) return "treedepth";
  dist::BagsResult bags;
  {
    PhaseScope p(tr, net, ph, 1, op);
    bags = dist::run_bags(net, tree, engine->config().vertex_labels,
                          engine->config().edge_labels);
  }
  if (!bags.run.ok()) return "degraded";
  PhaseScope p(tr, net, ph, 2, op);
  FoldChild fold(tr, rs, ph, p.id(), op);
  const std::string var = q.frees.empty() ? "" : q.frees[0].first;
  const mso::Sort sort =
      q.frees.empty() ? mso::Sort::VertexSet : q.frees[0].second;
  if (q.verb == "decide")
    return answer(
        dist::run_decision_solve(net, q.parsed, tree, bags.bags, &*engine));
  if (q.verb == "minimize")
    return answer(dist::run_minimize_solve(net, q.parsed, var, sort, tree,
                                           bags.bags, &*engine));
  if (q.verb == "maximize")
    return answer(dist::run_maximize_solve(net, q.parsed, var, sort, tree,
                                           bags.bags, &*engine));
  return answer(dist::run_count_solve(net, q.parsed, q.frees, tree,
                                      bags.bags, &*engine));
}

/// Layer metrics of phase-by-phase runs, per pass.
void put_phases(LayerMetrics& lm, const Phases& ph, double passes) {
  const SimCounts* s = ph.sim;
  lm["dist.elim_tree_ms"] = 1e3 * ph.secs[0] / passes;
  lm["dist.bags_ms"] = 1e3 * ph.secs[1] / passes;
  lm["dist.solve_ms"] = 1e3 * ph.secs[2] / passes;
  lm["dist.elim_tree_rounds"] = s[0].rounds / passes;
  lm["dist.elim_tree_messages"] = s[0].messages / passes;
  lm["dist.bags_rounds"] = s[1].rounds / passes;
  lm["dist.bags_bits"] = s[1].bits / passes;
  lm["dist.solve_rounds"] = s[2].rounds / passes;
  lm["dist.solve_bits"] = s[2].bits / passes;
  lm["dist.folds"] = ph.folds / passes;
  for (int i = 0; i < 3; ++i)
    lm[std::string("congest.ns_per_active_step.") + Phases::kName[i]] =
        1e9 * ph.secs[i] / std::max(1LL, ph.steps[i]);
  lm["congest.active_steps"] = (ph.steps[0] + ph.steps[1] + ph.steps[2]) /
                               passes;
  lm["bpt.types"] = ph.types / passes;
  lm["bpt.gluing_ops"] = ph.gluing_ops / passes;
  lm["bpt.compose_calls"] = ph.compose_calls / passes;
  lm["bpt.memo_hit_rate"] =
      static_cast<double>(ph.memo_hits) /
      std::max(1L, ph.memo_hits + ph.compose_calls);
  lm["bpt.invalid_compose_frac"] =
      static_cast<double>(ph.invalid) / std::max(1L, ph.compose_calls);
  lm["bpt.fold_ms"] = 1e3 * ph.fold_s / passes;
  lm["bpt.types_per_s"] = ph.types / std::max(1e-9, ph.fold_s);
}

/// Repeats `pass` until `seconds` have elapsed and at least `min_passes`
/// ran; returns the number of passes and sets the total wall.
double repeat_passes(double seconds, int min_passes,
                     const std::function<void()>& pass, double& total_s) {
  int passes = 0;
  const double start = now_s();
  do {
    pass();
    ++passes;
  } while (now_s() - start < seconds || passes < min_passes);
  total_s = now_s() - start;
  return passes;
}

// ---------------------------------------------------------------------------
// Workloads sim-deeppath and universe-cold: in-process pipeline queries.
// sim-deeppath is one big decision per pass; universe-cold six small
// queries per pass, each with a fresh network and engine.
// ---------------------------------------------------------------------------

std::vector<PipelineQuery> sim_deeppath_queries() {
  return {{"triangle_free", "decide", mso::lib::triangle_free, {},
           "deeppath:20000:4", 4, /*sparse_flood=*/true, {}, {}}};
}

std::vector<PipelineQuery> universe_cold_queries() {
  using mso::Sort;
  const std::vector<std::pair<std::string, Sort>> s = {{"S", Sort::VertexSet}};
  return {
      {"acyclic", "decide", mso::lib::acyclic, {}, "path:6", 3, false, {}, {}},
      {"has_path4", "decide", [] { return mso::lib::has_path(4); }, {},
       "btd:20:3", 3, false, {}, {}},
      {"vertex_cover", "minimize", mso::lib::vertex_cover, s, "btd:24:3", 3,
       false, {}, {}},
      {"matching", "maximize", mso::lib::matching, {{"F", Sort::EdgeSet}},
       "btd:14:3", 3, false, {}, {}},
      {"count_is_24", "count", mso::lib::independent_set, s, "btd:24:3", 3,
       false, {}, {}},
      // Known defect: this count is >= 2^32 and the root sends it
      // unfragmented, so the query throws "message exceeds CONGEST
      // bandwidth". It stays in the workload and counts as failed.
      {"count_is_40", "count", mso::lib::independent_set, s, "btd:40:3", 3,
       false, {}, {}},
  };
}

std::string oracle_answer(const PipelineQuery& q, const Graph& g) {
  if (q.name == "triangle_free")
    return triangle_free_oracle(g) ? "holds" : "fails";
  if (q.name == "acyclic") return is_acyclic(g) ? "holds" : "fails";
  if (q.name == "has_path4")
    return exact::contains_subgraph(g, gen::path(4)) ? "holds" : "fails";
  if (q.name == "vertex_cover")
    return "optimum=" + std::to_string(exact::min_weight_vertex_cover(g));
  if (q.name == "matching")
    return "optimum=" + std::to_string(max_weight_matching(g));
  if (q.name == "count_is_24")
    return "count=" + std::to_string(exact::count_independent_sets(g));
  if (q.name == "count_is_40")
    return "count=" + std::to_string(count_independent_sets_branching(g));
  throw BenchError("no oracle for " + q.name);
}

void pipeline_workload(const Args& a, std::vector<PipelineQuery> qs,
                       bool keep_network, Result& r) {
  congest::NetworkConfig net_cfg;
  net_cfg.threads = 1;
  EndToEnd e2e;
  std::vector<double> gen_ms, net_ms;
  std::vector<Graph> graphs;
  std::vector<std::optional<congest::Network>> nets(qs.size());
  // Set-up, repeated for at least 5 times and 1 s: graph generation,
  // query preparation and (when the network is reused across passes)
  // Network construction.
  const double setup_start = now_s();
  for (int rep = 0; rep < 5 || (now_s() - setup_start < 1.0 && rep < 20000);
       ++rep) {
    for (auto& n : nets) n.reset();
    graphs.clear();
    const double t0 = now_s();
    for (const PipelineQuery& q : qs) graphs.push_back(gen::family(q.family));
    const double t1 = now_s();
    for (PipelineQuery& q : qs) q.prepare();
    const double t2 = now_s();
    if (keep_network)
      for (std::size_t i = 0; i < qs.size(); ++i)
        nets[i].emplace(graphs[i], net_cfg);
    const double t3 = now_s();
    gen_ms.push_back(1e3 * (t1 - t0));
    net_ms.push_back(1e3 * (t3 - t2));
    e2e.setup_s.push_back(t3 - t0);
  }
  std::vector<std::string> want;
  for (std::size_t i = 0; i < qs.size(); ++i)
    want.push_back(oracle_answer(qs[i], graphs[i]));

  auto network = [&](std::size_t i) -> congest::Network& {
    if (!keep_network) nets[i].emplace(graphs[i], net_cfg);
    return *nets[i];
  };
  // Runs op i through `run`, checks it, and returns its CONGEST cost.
  auto op = [&](std::size_t i, const std::function<std::string(
                                   congest::Network&)>& run) -> SimCounts {
    congest::Network& net = network(i);
    const auto s0 = net.stats();
    std::string got;
    try {
      got = run(net);
    } catch (const std::exception& ex) {
      r.op_failed(a.workload + " " + qs[i].name + ": " + ex.what());
      return delta(s0, net.stats());
    }
    r.op_checked(a.workload + " " + qs[i].name, got, want[i]);
    return delta(s0, net.stats());
  };

  // The op is the whole pass: universe-cold's six queries differ widely
  // in cost, so a percentile over single queries falls on whichever two
  // query kinds meet at that rank.
  std::optional<SimCounts> sim;
  auto one_pass = [&] {
    const double t0 = now_s();
    SimCounts pass;
    for (std::size_t i = 0; i < qs.size(); ++i)
      pass += op(i, [&](congest::Network& net) {
        return run_one_call(qs[i], net);
      });
    expect_same_sim(sim, pass, a.workload);
    return 1e3 * (now_s() - t0);
  };
  one_pass();  // warm-up: allocator and caches, untimed but checked
  const double budget = a.trace ? a.seconds / 2 : a.seconds;
  e2e.passes = repeat_passes(budget, 3, [&] {
    e2e.op_ms.push_back(one_pass());
  }, e2e.timed_s);
  e2e.sim = *sim;
  if (!a.trace) {
    e2e.peak_rss_mb = peak_rss_mb_self();
    e2e.emit(r);
    return;
  }

  // Traced: every query phase by phase, spans around each layer call.
  Tracer tr;
  RegistryScope rs;
  Phases ph;
  long op_id = 0;
  int max_bits = 0;
  double traced_s = 0;
  const double passes = repeat_passes(a.seconds / 2, 3, [&] {
    SimCounts pass;
    SpanScope root(tr, "bench.pass", op_id);
    for (std::size_t i = 0; i < qs.size(); ++i, ++op_id) {
      {
        SpanScope sp(tr, "mso.prepare", op_id);
        qs[i].prepare();
      }
      if (!keep_network) {
        SpanScope sp(tr, "congest.net_build", op_id);
        nets[i].emplace(graphs[i], net_cfg);
      }
      pass += op(i, [&](congest::Network& net) {
        return run_phased(qs[i], net, tr, rs, ph, op_id);
      });
      max_bits = std::max(max_bits, nets[i]->stats().max_message_bits);
    }
    // The phase-by-phase run must reproduce the one-call run's counts.
    expect_same_sim(sim, pass, a.workload + " phase-by-phase run");
  }, traced_s);

  LayerMetrics lm;
  put_phases(lm, ph, passes);
  lm["graph.gen_ms"] = median(gen_ms);
  lm["mso.prepare_ms"] = 1e3 * tr.total("mso.prepare") / passes;
  lm["congest.net_build_ms"] =
      keep_network ? median(net_ms)
                   : 1e3 * tr.total("congest.net_build") / passes;
  lm["congest.max_msg_bits"] = max_bits;
  double bytes = 0, vertices = 0;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    bytes += static_cast<double>(nets[i]->memory_bytes());
    vertices += nets[i]->n();
  }
  lm["congest.net_bytes_per_vertex"] = bytes / vertices;
  lm.finish(tr, passes, e2e.timed_s / e2e.passes, traced_s / passes);
  tr.write(a.workdir + "/trace-" + a.workload + ".jsonl");
  lm.emit(r);
}

// ---------------------------------------------------------------------------
// Workload dmcd-mixed: a dmcd child process driven over its unix socket
// ---------------------------------------------------------------------------

/// A dmcd child process. It is killed and reaped on every path out of
/// the benchmark, so no daemon outlives a run.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& socket,
         const std::string& universe_dir, const std::string& log)
      : socket_(socket) {
    unlink(socket.c_str());
    // posix_spawn, not fork: the start time should be the daemon's own,
    // not the cost of copying this process's page tables, which grows with
    // whatever the benchmark allocated before.
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    const std::vector<std::string> args = {
        binary, "--socket", socket, "--workers", "2", "--universe-dir",
        universe_dir};
    std::vector<char*> argv;
    for (const std::string& x : args)
      argv.push_back(const_cast<char*>(x.c_str()));
    argv.push_back(nullptr);
    const double t0 = now_s();
    const int err =
        posix_spawn(&pid_, binary.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (err != 0) {
      pid_ = -1;
      throw BenchError("cannot start " + binary + ": " + std::strerror(err));
    }
    // Polls without sleeping: a timer wakeup would add its own jitter to a
    // start-up of a few milliseconds.
    while (now_s() - t0 < 20) {
      try {
        serve::Client c(socket);
        const auto pong = c.ping();
        if (pong && (*pong)["status"].as_string() == "pong") {
          ready_s_ = now_s() - t0;
          return;
        }
      } catch (const std::exception&) {
        // not listening yet
      }
      if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        throw BenchError("dmcd exited during start-up; see " + log);
      }
      std::this_thread::yield();
    }
    kill_and_reap();
    throw BenchError("dmcd did not answer ping within 20 s");
  }
  ~Daemon() { kill_and_reap(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Seconds from spawn to the first pong.
  double ready_s() const { return ready_s_; }

  /// Polite shutdown (drains, then the daemon writes back its universes);
  /// returns the daemon's peak RSS in MB.
  double shutdown() {
    try {
      serve::Client c(socket_);
      c.shutdown();
    } catch (const std::exception&) {
      // already gone; reaped below
    }
    rusage ru{};
    const double t0 = now_s();
    while (wait4(pid_, nullptr, WNOHANG, &ru) == 0) {
      if (now_s() - t0 > 30) {
        kill(pid_, SIGKILL);
        wait4(pid_, nullptr, 0, &ru);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
  }

 private:
  void kill_and_reap() {
    if (pid_ <= 0) return;
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }
  std::string socket_;
  pid_t pid_ = -1;
  double ready_s_ = 0;
};

constexpr int kDmcdConnections = 4;

/// One query shape: verb and formula (the engine key) on a family.
struct DmcdQuery {
  int key = 0;
  serve::Query q;
  std::vector<std::pair<std::string, mso::Sort>> frees;
};

/// The query deck: 5 engine keys over all four verbs x 6 graph families.
std::vector<DmcdQuery> dmcd_deck() {
  struct Key {
    std::string verb, var, sort, vars;
    mso::FormulaPtr f;
  };
  const std::vector<Key> keys = {
      {"decide", "", "", "", mso::lib::triangle_free()},
      {"decide", "", "", "", mso::lib::has_path(4)},
      {"minimize", "S", "vset", "", mso::lib::vertex_cover()},
      {"maximize", "S", "vset", "", mso::lib::independent_set()},
      {"count", "", "", "S:vset", mso::lib::dominating_set()},
  };
  const std::vector<std::string> families = {"btd:10:3", "btd:14:3",
                                             "btd:18:3", "path:5",
                                             "path:7",   "grid:2x3"};
  std::vector<DmcdQuery> deck;
  for (std::size_t k = 0; k < keys.size(); ++k)
    for (const std::string& fam : families) {
      DmcdQuery d;
      d.key = static_cast<int>(k);
      d.q.verb = keys[k].verb;
      d.q.formula = mso::to_string(*keys[k].f);
      d.q.family = fam;
      d.q.dist = 3;
      d.q.var = keys[k].var;
      d.q.sort = keys[k].sort;
      d.q.vars = keys[k].vars;
      if (!keys[k].var.empty()) d.frees = {{keys[k].var, mso::Sort::VertexSet}};
      if (!keys[k].vars.empty()) d.frees = {{"S", mso::Sort::VertexSet}};
      deck.push_back(d);
    }
  return deck;
}

/// What the client saw for one query.
struct DmcdAnswer {
  int shape = 0;  // index into the deck
  int conn = 0;   // client connection that sent it
  double t0 = 0;  // send time (now_s clock)
  double rtt_ms = 0;
  std::string status, digest;
  bool warm = false;
  double batch = 0;
  double queue_ms = 0, universe_ms = 0, exec_ms = 0, total_ms = 0;
  // Traced runs: the tier breakdown of the query's `trace` span log.
  double tier_wait_ms = 0, build_ms = 0, disk_load_ms = 0;
  bool ok = false;
};

struct DmcdRun {
  std::vector<DmcdAnswer> answers;  // in global query order
  std::size_t decks = 0;
  double timed_s = 0;
  double setup_s = 0;
  double rss_mb = 0;
  serve::Json metrics;  // the daemon's `metrics` answer after the loop
  double dmcu_mb = 0;

  double deck_s() const { return timed_s / static_cast<double>(decks); }
};

/// Writes DMCU files for a seeded half of the keys (built in-process from
/// the key's first deck entry), so each run's first query of a key is a
/// disk load for some keys and a build plus write-back for the others.
void persist_some_keys(const std::vector<DmcdQuery>& deck,
                       const std::string& dir, std::mt19937_64& rng) {
  std::vector<int> keys;
  for (const DmcdQuery& d : deck)
    if (keys.empty() || keys.back() != d.key) keys.push_back(d.key);
  std::shuffle(keys.begin(), keys.end(), rng);
  keys.resize(keys.size() / 2);
  for (const int k : keys) {
    const auto it =
        std::find_if(deck.begin(), deck.end(),
                     [&](const DmcdQuery& d) { return d.key == k; });
    std::string err;
    const auto p = serve::prepare(it->q, err);
    if (!p) throw BenchError("dmcd-mixed: cannot prepare: " + err);
    bpt::Engine engine(p->cfg);
    serve::execute(*p, &engine);
    if (!bpt::save_universe_cache(
            engine, bpt::universe_cache_path(dir, p->formula_text, p->cfg)))
      throw BenchError("dmcd-mixed: cannot write DMCU file in " + dir);
  }
}

double dir_mb(const std::string& dir) {
  double bytes = 0;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.is_regular_file()) bytes += static_cast<double>(e.file_size());
  return bytes / (1024.0 * 1024.0);
}

/// One daemon lifetime: 21 timed starts (the last one serves), then
/// a closed loop of 4 connections over seeded decks until `seconds` have
/// passed and at least 200 queries were answered, always finishing the
/// deck in progress.
DmcdRun dmcd_run(const Args& a, const std::vector<DmcdQuery>& deck,
                 double seconds, bool traced) {
  const std::string run_dir = a.workdir + "/dmcd";
  const std::string socket = run_dir + "/dmcd.sock";
  const std::string udir = run_dir + "/universe";
  const std::string log = run_dir + "/dmcd.log";
  fs::remove_all(run_dir);
  fs::create_directories(udir);
  std::mt19937_64 rng(a.seed);
  persist_some_keys(deck, udir, rng);

  DmcdRun run;
  std::vector<double> starts;
  std::optional<Daemon> daemon;
  for (int rep = 0; rep < 21; ++rep) {
    if (daemon) daemon->shutdown();
    daemon.emplace(a.dmcd, socket, udir, log);
    starts.push_back(daemon->ready_s());
  }
  run.setup_s = median(starts);

  // Deck k is the k-th seeded shuffle of the same query shapes.
  const std::size_t D = deck.size();
  std::vector<std::vector<int>> orders;
  std::mutex orders_mu;
  auto shape_at = [&](std::size_t i) {
    std::lock_guard<std::mutex> lock(orders_mu);
    while (orders.size() <= i / D) {
      std::vector<int> o(D);
      std::iota(o.begin(), o.end(), 0);
      std::shuffle(o.begin(), o.end(), rng);
      orders.push_back(std::move(o));
    }
    return orders[i / D][i % D];
  };

  constexpr std::size_t kMinQueries = 200;
  std::vector<DmcdAnswer> answers(1 << 17);
  // Index claims are monotonic, so once a claimer past the time budget
  // lowers `limit` to the end of its deck, every index below the limit
  // has been claimed and will be answered.
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> limit{answers.size() / D * D};
  std::mutex broken_mu;
  std::string broken;
  const double start = now_s();
  auto client_loop = [&](int conn) {
    try {
      serve::Client c(socket);
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (now_s() - start >= seconds && i >= kMinQueries) {
          const std::size_t want = (i / D + 1) * D;
          std::size_t cur = limit.load();
          while (want < cur && !limit.compare_exchange_weak(cur, want)) {
          }
        }
        if (i >= limit.load()) return;
        DmcdAnswer& ans = answers[i];
        ans.shape = shape_at(i);
        ans.conn = conn;
        serve::Query q = deck[ans.shape].q;
        q.id = "q" + std::to_string(i);
        ans.t0 = now_s();
        const auto resp = c.query(q, 120000);
        ans.rtt_ms = 1e3 * (now_s() - ans.t0);
        if (!resp) throw BenchError("dmcd closed the connection");
        const serve::Json& j = *resp;
        ans.ok = j["id"].as_string() == q.id;
        ans.status = j["status"].as_string();
        ans.digest = j["digest"].as_string();
        ans.warm = j["warm"].as_bool();
        ans.batch = j["batch"].as_number();
        const serve::Json& s = j["spans"];
        ans.queue_ms = s["queue_ms"].as_number();
        ans.universe_ms = s["universe_ms"].as_number();
        ans.exec_ms = s["exec_ms"].as_number();
        ans.total_ms = s["total_ms"].as_number();
        if (traced && !ans.warm) {
          // The cold query's full span log: tier wait, build or disk load.
          const auto t = c.trace(q.id);
          if (!t) throw BenchError("dmcd: no trace answer");
          for (const serve::Json& sp : (*t)["trace"]["spans"].as_array()) {
            const std::string& name = sp["name"].as_string();
            const double dur = sp["dur_ms"].as_number();
            if (name == "tier_wait") ans.tier_wait_ms += dur;
            if (name == "build") ans.build_ms += dur;
            if (name == "disk_load") ans.disk_load_ms += dur;
          }
        }
      }
    } catch (const std::exception& ex) {
      std::lock_guard<std::mutex> lock(broken_mu);
      broken = ex.what();
      limit = 0;
    }
  };
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kDmcdConnections; ++c)
      clients.emplace_back(client_loop, c);
    for (std::thread& t : clients) t.join();
  }
  run.timed_s = now_s() - start;
  if (!broken.empty()) throw BenchError("dmcd-mixed client: " + broken);
  const std::size_t total = limit.load();
  if (total % D != 0 || total < kMinQueries)
    throw BenchError("dmcd-mixed: query budget exhausted mid-deck");
  run.answers.assign(answers.begin(), answers.begin() + total);
  run.decks = total / D;
  {
    serve::Client c(socket);
    const auto m = c.metrics();
    if (!m) throw BenchError("dmcd-mixed: no metrics answer");
    run.metrics = *m;
  }
  run.rss_mb = daemon->shutdown();
  run.dmcu_mb = dir_mb(udir);
  return run;
}

void dmcd_mixed(const Args& a, Result& r) {
  if (a.dmcd.empty()) throw BenchError("dmcd-mixed needs --dmcd PATH");
  const std::vector<DmcdQuery> deck = dmcd_deck();
  const std::size_t D = deck.size();

  auto check = [&](const DmcdRun& run) {
    // Oracle: the same query as a cold one-shot run, outside the timed
    // region, once per query shape.
    std::vector<std::optional<serve::QueryResult>> oracle(D);
    for (const DmcdAnswer& ans : run.answers) {
      const DmcdQuery& d = deck[ans.shape];
      auto& o = oracle[ans.shape];
      if (!o) o = serve::run_one_shot(d.q);
      const std::string what = "dmcd-mixed key " + std::to_string(d.key) +
                               " " + d.q.verb + " " + d.q.family;
      if (!ans.ok || ans.status == "error" || ans.status == "overloaded" ||
          ans.status == "malformed") {
        r.op_failed(what + ": status '" + ans.status + "'");
        continue;
      }
      r.op_checked(what, ans.status + " " + ans.digest,
                   o->status + " " + o->digest);
    }
  };
  auto sim_of = [&](const DmcdRun& run) {
    const serve::Json& m = run.metrics["metrics"];
    const double decks = static_cast<double>(run.decks);
    return SimCounts{
        std::llround(m["congest.rounds"].as_number() / decks),
        std::llround(m["congest.messages"].as_number() / decks),
        std::llround(m["congest.bits"].as_number() / decks)};
  };

  const DmcdRun run = dmcd_run(a, deck, a.trace ? a.seconds / 2 : a.seconds,
                               /*traced=*/false);
  check(run);
  if (!a.trace) {
    EndToEnd e2e;
    e2e.setup_s = {run.setup_s};
    e2e.passes = static_cast<double>(run.decks);
    for (const DmcdAnswer& ans : run.answers) e2e.op_ms.push_back(ans.rtt_ms);
    e2e.timed_s = run.timed_s;
    e2e.peak_rss_mb = run.rss_mb;
    e2e.sim = sim_of(run);
    e2e.emit(r);
    return;
  }

  const DmcdRun traced = dmcd_run(a, deck, a.seconds / 2, /*traced=*/true);
  check(traced);
  // Each query's round trip as the client saw it, split by the daemon's
  // own spans: queue wait and transport (RTT minus the daemon's total)
  // are serve, universe acquisition is bpt, exec is the pipeline (dist,
  // driving congest and the bpt folds). Any remainder of the daemon's
  // total (acquire end to exec start) is the scheduler handoff (serve),
  // so the parts add up to the round trip. One root span per connection.
  Tracer tr;
  std::vector<double> conn_start(kDmcdConnections, 1e300),
      conn_end(kDmcdConnections, 0);
  for (const DmcdAnswer& ans : traced.answers) {
    conn_start[ans.conn] = std::min(conn_start[ans.conn], ans.t0);
    conn_end[ans.conn] =
        std::max(conn_end[ans.conn], ans.t0 + ans.rtt_ms / 1e3);
  }
  std::vector<int> conn_root;
  for (std::size_t c = 0; c < conn_start.size(); ++c)
    conn_root.push_back(
        tr.add("bench.connection", conn_start[c], conn_end[c], -1, -1));
  std::vector<double> queue, exec, transport, batch, warm;
  double wait_ms = 0, build_ms = 0, load_ms = 0;
  long op = 0;
  for (const DmcdAnswer& ans : traced.answers) {
    double t = ans.t0;
    const int q = tr.add("bench.query", t, t + ans.rtt_ms / 1e3,
                         conn_root[ans.conn], op);
    auto part = [&](const char* name, double ms) {
      tr.add(name, t, t + ms / 1e3, q, op);
      t += ms / 1e3;
    };
    const double transport_ms = ans.rtt_ms - ans.total_ms;
    part("serve.queue", ans.queue_ms);
    part("bpt.universe", ans.universe_ms);
    part("serve.handoff",
         ans.total_ms - ans.queue_ms - ans.universe_ms - ans.exec_ms);
    part("dist.exec", ans.exec_ms);
    part("serve.transport", transport_ms);
    queue.push_back(ans.queue_ms);
    exec.push_back(ans.exec_ms);
    transport.push_back(transport_ms);
    batch.push_back(ans.batch);
    warm.push_back(ans.warm ? 1 : 0);
    wait_ms += ans.tier_wait_ms;
    build_ms += ans.build_ms;
    load_ms += ans.disk_load_ms;
    ++op;
  }
  const double decks = static_cast<double>(traced.decks);
  const serve::Json& m = traced.metrics["metrics"];
  const serve::Json& tier = traced.metrics["universe_tier"];
  LayerMetrics lm;
  // Parse, lower and config_for of one deck, in-process (the daemon does
  // the same at admission, inside the transport share).
  const double p0 = now_s();
  for (const DmcdQuery& d : deck)
    bpt::config_for(*mso::lower(mso::parse(d.q.formula), d.frees), d.frees);
  lm["mso.prepare_ms"] = 1e3 * (now_s() - p0);
  lm["serve.queue_ms_p50"] = quantile(queue, 0.5);
  lm["serve.queue_ms_p95"] = quantile(queue, 0.95);
  lm["serve.exec_ms_p50"] = quantile(exec, 0.5);
  lm["serve.exec_ms_p95"] = quantile(exec, 0.95);
  lm["serve.transport_ms_p50"] = quantile(transport, 0.5);
  lm["serve.batch_size_mean"] = mean(batch);
  lm["serve.warm_frac"] = mean(warm);
  const double hits = tier["hits"].as_number();
  const double misses = tier["misses"].as_number();
  lm["bpt.tier.hit_rate"] = hits / std::max(1.0, hits + misses);
  lm["bpt.tier.builds"] = tier["builds"].as_number();
  lm["bpt.tier.disk_hits"] = tier["disk_hits"].as_number();
  lm["bpt.tier.saves"] = tier["saves"].as_number();
  lm["bpt.tier.build_ms"] = build_ms;
  lm["bpt.tier.disk_load_ms"] = load_ms;
  lm["bpt.tier.wait_ms"] = wait_ms;
  lm["bpt.tier.dmcu_mb"] = traced.dmcu_mb;
  const double calls = m["bpt.compose.calls"].as_number();
  const double memo = m["bpt.compose.memo_hits"].as_number();
  lm["bpt.compose_calls"] = calls / decks;
  lm["bpt.memo_hit_rate"] = memo / std::max(1.0, memo + calls);
  lm["bpt.fold_ms"] = 1e-6 * m["bpt.fold.wall_ns"].as_number() / decks;
  lm["dist.folds"] = m["bpt.folds"].as_number() / decks;
  lm.finish(tr, decks, run.deck_s(), traced.deck_s());
  tr.write(a.workdir + "/trace-dmcd-mixed.jsonl");
  lm.emit(r);
}

// ---------------------------------------------------------------------------
// Workload churn-flap: link-flap epochs on the churn engine
// ---------------------------------------------------------------------------

constexpr int kChurnN = 512;
constexpr int kChurnD = 4;
constexpr std::size_t kMinEpochs = 200;

Graph churn_graph() {
  gen::Rng rng(23);
  return gen::random_bounded_treedepth(kChurnN, 3, 0.25, rng);
}

churn::Query churn_query() {
  churn::Query q;
  q.pipeline = churn::Pipeline::kDecision;
  q.formula = mso::lib::triangle_free();
  return q;
}

/// A seeded edge whose removal keeps the graph connected (the churn engine
/// rejects disconnecting deletions).
std::pair<VertexId, VertexId> pick_non_bridge(const Graph& g,
                                              std::mt19937_64& rng) {
  std::vector<std::vector<VertexId>> adj(g.num_vertices());
  for (const Edge& e : g.edges()) {
    adj[e.u].push_back(e.v);
    adj[e.v].push_back(e.u);
  }
  for (;;) {
    const Edge e = g.edge(static_cast<EdgeId>(rng() % g.num_edges()));
    // Is v reachable from u without the edge itself?
    std::vector<char> seen(g.num_vertices(), 0);
    std::vector<VertexId> stack = {e.u};
    seen[e.u] = 1;
    while (!stack.empty() && !seen[e.v]) {
      const VertexId x = stack.back();
      stack.pop_back();
      for (const VertexId y : adj[x])
        if (!seen[y] && !(x == e.u && y == e.v)) {
          seen[y] = 1;
          stack.push_back(y);
        }
    }
    if (seen[e.v]) return {e.u, e.v};
  }
}

void churn_flap(const Args& a, Result& r) {
  EndToEnd e2e;
  std::vector<double> gen_ms;
  // Set-up, 25 times: graph generation and init() without the oracle.
  for (int rep = 0; rep < 25; ++rep) {
    const double t0 = now_s();
    Graph g = churn_graph();
    const double t1 = now_s();
    churn::Options opts;
    opts.d = kChurnD;
    opts.verify = false;
    churn::ChurnEngine eng(std::move(g), churn_query(), opts);
    if (!eng.init().ok()) throw BenchError("churn-flap: init degraded");
    gen_ms.push_back(1e3 * (t1 - t0));
    e2e.setup_s.push_back(now_s() - t0);
  }

  churn::Options opts;
  opts.d = kChurnD;  // verify stays on: every step re-solves from scratch
  churn::ChurnEngine eng(churn_graph(), churn_query(), opts);
  if (!eng.init().ok()) throw BenchError("churn-flap: init degraded");
  std::mt19937_64 rng(a.seed);
  // Every odd epoch restores the initial edge set, so its oracle answer
  // is computed once; even epochs (one edge fewer) are checked afresh.
  const int base_edges = eng.graph().num_edges();
  const bool base_triangle_free = triangle_free_oracle(eng.graph());
  auto oracle = [&](const Graph& g) {
    const bool tf = g.num_edges() == base_edges ? base_triangle_free
                                                : triangle_free_oracle(g);
    return tf ? "holds" : "fails";
  };

  struct Epochs {
    std::vector<double> ms;      // per epoch
    long pairs = 0;              // flap pairs (the pass)
    long long rounds = 0, oracle_rounds = 0, folds = 0;
    long refold = 0, recomputes = 0;
    double timed_s = 0;
    double pair_s() const { return timed_s / static_cast<double>(pairs); }
  };
  // Flap pairs until `seconds` passed and `min_epochs` epochs ran. With a
  // tracer, each step gets a span and its BPT fold wall (read from the
  // registry `rs`) a child span.
  auto run_epochs = [&](double seconds, std::size_t min_epochs, Tracer* tr,
                        RegistryScope* rs) {
    Epochs ep;
    long op = 0;
    const double start = now_s();
    while (now_s() - start < seconds || ep.ms.size() < min_epochs) {
      std::optional<SpanScope> pair_span;
      if (tr) pair_span.emplace(*tr, "bench.pair", op);
      const auto [u, v] = pick_non_bridge(eng.graph(), rng);
      for (const auto kind : {churn::ChurnEvent::Kind::kDelEdge,
                              churn::ChurnEvent::Kind::kAddEdge}) {
        churn::ChurnEvent ev;
        ev.kind = kind;
        ev.u = u;
        ev.v = v;
        churn::StepOutcome out;
        std::string err;
        const double t0 = now_s();
        try {
          std::optional<SpanScope> sp;
          if (tr) sp.emplace(*tr, "churn.step", op);
          const long long f0 = rs ? rs->counter("bpt.fold.wall_ns") : 0;
          out = eng.step({ev});
          if (tr)
            tr->add("bpt.fold", t0,
                    t0 + 1e-9 * (rs->counter("bpt.fold.wall_ns") - f0),
                    sp->id(), op);
        } catch (const std::exception& ex) {
          err = ex.what();
        }
        ep.ms.push_back(1e3 * (now_s() - t0));
        ++op;
        if (!err.empty() || !out.ok()) {
          r.op_failed("churn-flap epoch: " + (err.empty() ? "degraded" : err));
          continue;
        }
        if (!out.verified || !out.digest_ok)
          r.op_checked("churn-flap oracle digest", "mismatch", "match");
        else
          r.op_checked("churn-flap triangle_free",
                       out.verdict.holds ? "holds" : "fails",
                       oracle(eng.graph()));
        ep.rounds += out.rounds;
        ep.oracle_rounds += out.rounds_full;
        ep.folds += out.folds;
        ep.refold += out.refold_count;
        if (out.status == churn::StepStatus::kRecomputed) ++ep.recomputes;
      }
      ++ep.pairs;
    }
    ep.timed_s = now_s() - start;
    return ep;
  };

  const Epochs un = run_epochs(a.trace ? a.seconds / 2 : a.seconds,
                               a.trace ? kMinEpochs / 2 : kMinEpochs, nullptr,
                               nullptr);
  if (!a.trace) {
    // The program's registry nearly doubles the cost of an epoch, so the
    // timed epochs run without it; messages and bits per pair come from
    // 10 more pairs with it installed, whose rounds must match what the
    // steps themselves report.
    RegistryScope rs;
    const Epochs sample = run_epochs(0, 20, nullptr, &rs);
    if (rs.counter("congest.rounds") != sample.rounds + sample.oracle_rounds)
      throw BenchError("churn-flap: congest.rounds disagrees with the steps");
    e2e.timed_s = un.timed_s;
    e2e.op_ms = un.ms;
    e2e.passes = static_cast<double>(un.pairs);
    const double pairs = static_cast<double>(un.pairs);
    const double sample_pairs = static_cast<double>(sample.pairs);
    e2e.sim = {std::llround((un.rounds + un.oracle_rounds) / pairs),
               std::llround(rs.counter("congest.messages") / sample_pairs),
               std::llround(rs.counter("congest.bits") / sample_pairs)};
    e2e.peak_rss_mb = peak_rss_mb_self();
    e2e.emit(r);
    return;
  }

  Tracer tr;
  RegistryScope rs;
  const Epochs ep = run_epochs(a.seconds / 2, kMinEpochs / 2, &tr, &rs);
  const double n = static_cast<double>(ep.ms.size());
  LayerMetrics lm;
  lm["graph.gen_ms"] = median(gen_ms);
  lm["churn.step_ms_p50"] = quantile(ep.ms, 0.5);
  lm["churn.step_ms_p95"] = quantile(ep.ms, 0.95);
  lm["churn.epoch_rounds"] = ep.rounds / n;
  lm["churn.oracle_rounds"] = ep.oracle_rounds / n;
  lm["churn.refold_frac"] = ep.refold / n / kChurnN;
  lm["churn.folds_per_epoch"] = ep.folds / n;
  lm["churn.recompute_frac"] = ep.recomputes / n;
  const double calls = static_cast<double>(rs.counter("bpt.compose.calls"));
  const double memo = static_cast<double>(rs.counter("bpt.compose.memo_hits"));
  lm["bpt.compose_calls"] = calls / n;
  lm["bpt.memo_hit_rate"] = memo / std::max(1.0, memo + calls);
  lm["bpt.fold_ms"] = 1e-6 * rs.counter("bpt.fold.wall_ns") / n;
  lm.finish(tr, static_cast<double>(ep.pairs), un.pair_s(), ep.pair_s());
  tr.write(a.workdir + "/trace-churn-flap.jsonl");
  lm.emit(r);
}

// ---------------------------------------------------------------------------

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload sim-deeppath|universe-cold|"
               "dmcd-mixed|churn-flap --seed N --seconds S --trace 0|1 "
               "[--dmcd PATH] [--workdir DIR]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string v = argv[++i];
    try {
      if (arg == "--workload") a.workload = v;
      else if (arg == "--seed") a.seed = std::stoull(v);
      else if (arg == "--seconds") a.seconds = std::stod(v);
      else if (arg == "--trace") a.trace = std::stoi(v) != 0;
      else if (arg == "--dmcd") a.dmcd = v;
      else if (arg == "--workdir") a.workdir = v;
      else usage("unknown argument " + arg);
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + v);
    }
  }
  if (a.seconds <= 0) usage("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  Result r;
  try {
    fs::create_directories(a.workdir);
    if (a.workload == "sim-deeppath")
      pipeline_workload(a, sim_deeppath_queries(), /*keep_network=*/true, r);
    else if (a.workload == "universe-cold")
      pipeline_workload(a, universe_cold_queries(), /*keep_network=*/false,
                        r);
    else if (a.workload == "dmcd-mixed")
      dmcd_mixed(a, r);
    else if (a.workload == "churn-flap")
      churn_flap(a, r);
    else
      usage("unknown workload " + a.workload);
  } catch (const std::exception& ex) {
    std::cerr << "perfbench: " << a.workload << ": " << ex.what() << "\n";
    return 3;
  }
  r.print();
  return 0;
}
