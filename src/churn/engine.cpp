#include "churn/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "dist/bags.hpp"
#include "dist/optimization.hpp"
#include "dist/optmarked.hpp"
#include "metrics/metrics.hpp"
#include "mso/lower.hpp"

namespace dmc::churn {

namespace {

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

/// The schedule-independent verdict fields of one pipeline outcome.
void record_verdict(const dist::DecisionOutcome& r, VerdictSummary& v) {
  v.holds = r.holds;
}
void record_verdict(const dist::CountingOutcome& r, VerdictSummary& v) {
  v.count = r.count;
}
void record_verdict(const dist::OptimizationOutcome& r, VerdictSummary& v) {
  v.feasible = r.best_weight.has_value();
  v.best_weight = r.best_weight.value_or(0);
}
void record_verdict(const dist::OptMarkedOutcome& r, VerdictSummary& v) {
  v.satisfies = r.satisfies;
  v.is_optimal = r.is_optimal;
  v.marked_weight = r.marked_weight;
  v.best_weight = r.best_weight;
}

/// An epoch note: why the epoch took its path, then what happened on it.
std::string join_notes(const std::string& reason, const std::string& note) {
  return note.empty() ? reason : reason + "; " + note;
}

}  // namespace

const char* to_string(Pipeline pipeline) {
  switch (pipeline) {
    case Pipeline::kDecision: return "decision";
    case Pipeline::kCount: return "count";
    case Pipeline::kMaximize: return "maximize";
    case Pipeline::kMinimize: return "minimize";
    case Pipeline::kOptMarked: return "optmarked";
  }
  return "?";
}

const char* to_string(StepStatus status) {
  switch (status) {
    case StepStatus::kRefolded: return "refolded";
    case StepStatus::kRebuilt: return "rebuilt";
    case StepStatus::kRecomputed: return "recomputed";
    case StepStatus::kDegraded: return "degraded";
  }
  return "?";
}

std::uint64_t VerdictSummary::digest(Pipeline pipeline) const {
  std::uint64_t h = 1469598103934665603ull;
  h = fnv_mix(h, static_cast<std::uint64_t>(pipeline));
  h = fnv_mix(h, treedepth_exceeded ? 1 : 0);
  if (treedepth_exceeded) return h;  // no verdict fields to compare
  switch (pipeline) {
    case Pipeline::kDecision:
      h = fnv_mix(h, holds ? 1 : 0);
      break;
    case Pipeline::kCount:
      h = fnv_mix(h, count);
      break;
    case Pipeline::kMaximize:
    case Pipeline::kMinimize:
      h = fnv_mix(h, feasible ? 1 : 0);
      h = fnv_mix(h, static_cast<std::uint64_t>(best_weight));
      break;
    case Pipeline::kOptMarked:
      h = fnv_mix(h, satisfies ? 1 : 0);
      h = fnv_mix(h, is_optimal ? 1 : 0);
      h = fnv_mix(h, static_cast<std::uint64_t>(marked_weight));
      h = fnv_mix(h, static_cast<std::uint64_t>(best_weight));
      break;
  }
  return h;
}

std::vector<dist::LocalBag> bags_for_tree(
    const congest::Network& net, const dist::ElimTreeResult& tree,
    const std::vector<std::string>& vlabel_names,
    const std::vector<std::string>& elabel_names) {
  if (!tree.success)
    throw std::invalid_argument("churn::bags_for_tree: tree invalid");
  const Graph& g = net.graph();
  const int n = g.num_vertices();
  auto vbits = [&](VertexId v) {
    std::uint32_t bits = 0;
    for (std::size_t i = 0; i < vlabel_names.size(); ++i)
      if (g.vertex_has_label(vlabel_names[i], v)) bits |= 1u << i;
    return bits;
  };
  auto ebits = [&](EdgeId e) {
    std::uint32_t bits = 0;
    for (std::size_t i = 0; i < elabel_names.size(); ++i)
      if (g.edge_has_label(elabel_names[i], e)) bits |= 1u << i;
    return bits;
  };
  std::vector<dist::LocalBag> bags(n);
  std::vector<int> path;
  for (int v = 0; v < n; ++v) {
    path.clear();
    for (int x = v; x >= 0; x = tree.parent[x]) path.push_back(x);
    std::sort(path.begin(), path.end(), [&](int a, int b) {
      return net.id_of_vertex(a) < net.id_of_vertex(b);
    });
    dist::LocalBag& b = bags[v];
    for (int x : path) {
      b.bag.push_back(net.id_of_vertex(x));
      b.weights.push_back(g.vertex_weight(x));
      b.vlabel_bits.push_back(vbits(x));
    }
    for (std::size_t i = 0; i < path.size(); ++i) {
      for (std::size_t j = i + 1; j < path.size(); ++j) {
        const EdgeId e = g.edge_id(path[i], path[j]);
        if (e < 0) continue;
        dist::LocalBag::BagEdge edge;
        edge.i = static_cast<int>(i);
        edge.j = static_cast<int>(j);
        edge.weight = g.edge_weight(e);
        edge.elabel_bits = ebits(e);
        b.edges.push_back(edge);
      }
    }
  }
  return bags;
}

ChurnEngine::ChurnEngine(Graph g, Query query, Options opts)
    : graph_(std::move(g)), query_(std::move(query)), opts_(std::move(opts)) {
  using dist::Frees;
  if (query_.pipeline == Pipeline::kOptMarked) {
    // run_optmarked_solve builds its own engine each epoch.
    std::tie(vlabels_, elabels_) =
        dist::optmarked_labels(query_.formula, query_.var, query_.var_sort);
  } else {
    const Frees frees = query_.pipeline == Pipeline::kDecision ? Frees{}
                        : query_.pipeline == Pipeline::kCount
                            ? query_.vars
                            : Frees{{query_.var, query_.var_sort}};
    engine_.emplace(bpt::config_for(*mso::lower(query_.formula, frees), frees));
    vlabels_ = engine_->config().vertex_labels;
    elabels_ = engine_->config().edge_labels;
  }
  if (query_.pipeline == Pipeline::kCount)
    cache_.emplace<dist::CountingCache>();
  invalidate_caches();
}

ChurnEngine::~ChurnEngine() = default;

congest::NetworkConfig ChurnEngine::solve_config() const { return opts_.net; }

namespace {
metrics::Registry* registry_of(const congest::NetworkConfig& cfg) {
  return cfg.metrics != nullptr ? cfg.metrics : metrics::global();
}
void bump(const congest::NetworkConfig& cfg, const char* name) {
  if (metrics::Registry* r = registry_of(cfg)) r->counter(name).add(1);
}
}  // namespace

void ChurnEngine::invalidate_caches() {
  const int n = graph_.num_vertices();
  std::visit([n](auto& cache) { cache.invalidate(n); }, cache_);
  net_ids_.assign(n, -1);
}

void ChurnEngine::remap_caches(const std::vector<VertexId>& old_to_new,
                               int new_n) {
  std::visit([&](auto& cache) { cache.remap(old_to_new, new_n); }, cache_);
  const std::size_t old_n = old_to_new.size();
  std::vector<int> nids(new_n, -1);
  if (net_ids_.size() == old_n)
    for (std::size_t ov = 0; ov < old_n; ++ov)
      if (old_to_new[ov] >= 0) nids[old_to_new[ov]] = net_ids_[ov];
  net_ids_ = std::move(nids);
}

StepOutcome ChurnEngine::solve(congest::Network& net,
                               const dist::ElimTreeResult& tree,
                               const std::vector<dist::LocalBag>& bags) {
  StepOutcome out;
  auto take = [&](const auto& r) {
    out.run = r.run;
    record_verdict(r, out.verdict);
    if constexpr (requires { r.folds; }) out.folds = r.folds;
  };
  try {
    switch (query_.pipeline) {
      case Pipeline::kDecision:
        take(dist::run_decision_solve(net, query_.formula, tree, bags,
                                      &*engine_,
                                      &std::get<dist::DecisionCache>(cache_)));
        break;
      case Pipeline::kCount:
        take(dist::run_count_solve(net, query_.formula, query_.vars, tree,
                                   bags, &*engine_,
                                   &std::get<dist::CountingCache>(cache_)));
        break;
      case Pipeline::kMaximize:
        take(dist::run_maximize_solve(net, query_.formula, query_.var,
                                      query_.var_sort, tree, bags, &*engine_));
        break;
      case Pipeline::kMinimize:
        take(dist::run_minimize_solve(net, query_.formula, query_.var,
                                      query_.var_sort, tree, bags, &*engine_));
        break;
      case Pipeline::kOptMarked:
        take(dist::run_optmarked_solve(net, query_.formula, query_.var,
                                       query_.var_sort, tree, bags,
                                       query_.minimize_marked));
        break;
    }
  } catch (const std::invalid_argument& e) {
    // The BPT engine rejects a bag wider than it can represent (a repaired
    // tree may be deeper than bpt::kMaxTerminals allows): no verdict.
    out.status = StepStatus::kDegraded;
    out.note = std::string("engine rejected a bag: ") + e.what();
    out.flight = net.flight_recorder().dump_string();
    return out;
  }
  out.rounds = out.run.rounds;
  out.status =
      out.run.ok() ? StepStatus::kRecomputed : StepStatus::kDegraded;
  if (!out.run.ok()) out.flight = net.flight_recorder().dump_string();
  out.digest = out.verdict.digest(query_.pipeline);
  if (out.run.ok()) {
    // The refreshed caches are positional over bags ordered by these ids.
    net_ids_.assign(net.n(), -1);
    for (int v = 0; v < net.n(); ++v) net_ids_[v] = net.id_of_vertex(v);
  }
  return out;
}

StepOutcome ChurnEngine::full_compute(const congest::NetworkConfig& cfg) {
  bump(opts_.net, "churn.full_recomputes");
  // Fold-all: only a completed solve refreshes the cache and keeps a tree.
  tree_.reset();
  invalidate_caches();
  StepOutcome out;
  congest::Network net(graph_, cfg);
  const dist::ElimTreeResult tree = dist::run_elim_tree(net, opts_.d);
  out.run = tree.run;
  out.rounds = tree.rounds;
  if (tree.run.ok() && !tree.success) {
    out.status = StepStatus::kRecomputed;
    out.verdict.treedepth_exceeded = true;
    out.digest = out.verdict.digest(query_.pipeline);
    return out;
  }
  if (tree.run.ok()) {
    const dist::BagsResult bags =
        dist::run_bags(net, tree, vlabels_, elabels_);
    out.run = bags.run;
    out.rounds += bags.rounds;
    if (bags.run.ok()) {
      StepOutcome solved = solve(net, tree, bags.bags);
      solved.rounds += out.rounds;
      if (!solved.ok()) return solved;  // status kDegraded from solve()
      tree_ = tree;
      solved.status = StepStatus::kRecomputed;
      solved.refold_count = graph_.num_vertices();
      return solved;
    }
  }
  out.status = StepStatus::kDegraded;
  out.flight = net.flight_recorder().dump_string();
  return out;
}

void ChurnEngine::verify_step(StepOutcome& out) {
  if (!opts_.verify || !out.ok()) return;
  // Clean-room oracle: fault-free serial network, fresh class universe,
  // the full distributed pipeline from scratch. Algorithm 2 certifies
  // td <= d while a repaired tree only guarantees depth <= 2^d - 1 (enough
  // for sound folds), so churn can push td past d without invalidating the
  // incremental verdict; the oracle then retries with a slightly larger
  // budget — the verdict itself is budget-independent.
  const int max_budget = opts_.d + 3;
  for (int budget = opts_.d; budget <= max_budget; ++budget) {
    VerdictSummary oracle;
    congest::RunOutcome orun;
    long orounds = 0;
    try {
      oracle_run(budget, oracle, orun, orounds);
    } catch (const std::exception&) {
      // A larger budget can yield trees deeper than the packed atomic
      // representation supports (bpt::kMaxTerminals); the oracle is
      // infeasible there, not wrong.
      out.note = "oracle infeasible at budget " + std::to_string(budget) +
                 "; digest check skipped";
      return;
    }
    out.rounds_full = orounds;
    if (!orun.ok()) {
      out.note = "oracle run degraded; digest check skipped";
      return;
    }
    if (oracle.treedepth_exceeded && !out.verdict.treedepth_exceeded) {
      if (budget < max_budget) continue;
      out.note = "budget drift: oracle td check rejected up to d+3; "
                 "digest check skipped";
      return;
    }
    out.oracle_digest = oracle.digest(query_.pipeline);
    out.verified = true;
    out.digest_ok = out.digest == out.oracle_digest;
    if (!out.digest_ok) bump(opts_.net, "churn.digest_mismatches");
    return;
  }
}

void ChurnEngine::oracle_run(int budget, VerdictSummary& oracle,
                             congest::RunOutcome& orun, long& orounds) {
  congest::NetworkConfig clean;
  clean.id_seed = opts_.net.id_seed;
  congest::Network net(graph_, clean);
  auto take = [&](const auto& r) {
    orun = r.run;
    orounds = r.total_rounds();
    oracle.treedepth_exceeded = r.treedepth_exceeded;
    record_verdict(r, oracle);
  };
  switch (query_.pipeline) {
    case Pipeline::kDecision:
      take(dist::run_decision(net, query_.formula, budget));
      break;
    case Pipeline::kCount:
      take(dist::run_count(net, query_.formula, query_.vars, budget));
      break;
    case Pipeline::kMaximize:
      take(dist::run_maximize(net, query_.formula, query_.var,
                              query_.var_sort, budget));
      break;
    case Pipeline::kMinimize:
      take(dist::run_minimize(net, query_.formula, query_.var,
                              query_.var_sort, budget));
      break;
    case Pipeline::kOptMarked:
      take(dist::run_optmarked(net, query_.formula, query_.var,
                               query_.var_sort, budget,
                               query_.minimize_marked));
      break;
  }
}

StepOutcome ChurnEngine::init() {
  StepOutcome out = full_compute(solve_config());
  if (!out.ok()) bump(opts_.net, "churn.degraded");
  verify_step(out);
  return out;
}

StepOutcome ChurnEngine::step(const std::vector<ChurnEvent>& batch) {
  bump(opts_.net, "churn.steps");
  std::vector<VertexId> old_to_new;
  Graph next = apply_batch(graph_, batch, &old_to_new);  // throws: unchanged

  if (!tree_.has_value()) {
    // Previous epoch left no tree (degraded or budget-exceeded): nothing
    // to repair against; full recompute on the mutated graph.
    graph_ = std::move(next);
    StepOutcome out = full_compute(solve_config());
    out.note = join_notes("no tree from previous epoch: full recompute",
                          out.note);
    if (!out.ok()) bump(opts_.net, "churn.degraded");
    verify_step(out);
    return out;
  }

  const Graph old_g = std::move(graph_);
  graph_ = std::move(next);
  const TreePatch patch =
      repair_tree(old_g, *tree_, graph_, old_to_new, opts_.d);

  StepOutcome out;
  if (patch.kind == RepairKind::kFailed) {
    bump(opts_.net, "churn.repair_failures");
    out = full_compute(solve_config());
    out.repair = RepairKind::kFailed;
    out.repair_failed = true;
    out.note = join_notes(patch.reason, out.note);
  } else {
    const int n = graph_.num_vertices();
    remap_caches(old_to_new, n);
    // Refold set = dirty plus its root-path (ancestor) closure: a vertex's
    // class summarizes its whole subtree, so staleness propagates upward.
    // The walk stops at already-marked vertices — anything this loop marked
    // had its full ancestor path marked too.
    std::vector<char> refold(n, 0);
    for (int v = 0; v < n; ++v) {
      if (!patch.dirty[v]) continue;
      for (int x = v; x >= 0 && !refold[x]; x = patch.tree.parent[x])
        refold[x] = 1;
    }
    std::vector<char>& flags = std::visit(
        [](auto& cache) -> std::vector<char>& { return cache.refold; }, cache_);
    for (int v = 0; v < n; ++v)
      if (refold[v]) flags[v] = 1;

    congest::Network net(graph_, solve_config());
    // Cached tables are positional over bags ordered by network id; if the
    // id assignment moved for any surviving vertex (it is a permutation of
    // [0, n), so vertex churn reshuffles it wholesale), every cached table
    // is suspect — refold the lot.
    bool ids_stable = net_ids_.size() == static_cast<std::size_t>(n);
    for (int v = 0; v < n && ids_stable; ++v)
      if (net_ids_[v] >= 0 && net_ids_[v] != net.id_of_vertex(v))
        ids_stable = false;
    if (!ids_stable) std::fill(flags.begin(), flags.end(), 1);
    out.refold_count = static_cast<int>(std::count(flags.begin(), flags.end(), 1));

    const std::vector<dist::LocalBag> bags =
        bags_for_tree(net, patch.tree, vlabels_, elabels_);
    StepOutcome solved = solve(net, patch.tree, bags);
    solved.refold_count = out.refold_count;
    solved.repair = patch.kind;
    solved.region = patch.region;
    out = std::move(solved);
    if (out.ok()) {
      out.status = patch.kind == RepairKind::kRefold ? StepStatus::kRefolded
                                                     : StepStatus::kRebuilt;
      tree_ = patch.tree;
      bump(opts_.net, out.status == StepStatus::kRefolded ? "churn.refolds"
                                                          : "churn.rebuilds");
    } else if (out.run.ok()) {
      // The engine rejected a repaired bag; a retry on the same tree
      // shape cannot help. Drop the tree so the next epoch recomputes.
      tree_.reset();
      invalidate_caches();
    } else if (opts_.fallback_full) {
      // Faults defeated the incremental solve; recover with a full
      // distributed recompute under the same fault plan.
      bump(opts_.net, "churn.fallbacks");
      const long incremental_rounds = out.rounds;
      StepOutcome full = full_compute(solve_config());
      full.repair = patch.kind;
      full.region = patch.region;
      full.fallback_used = true;
      full.rounds += incremental_rounds;  // the failed attempt still cost
      out = std::move(full);
      if (!out.ok()) tree_ = patch.tree;  // still valid for the new graph
    } else {
      // Structured degraded outcome; the repaired tree stays (it is valid
      // for the new graph) and the stale refold flags persist, so the next
      // epoch re-folds everything this one failed to refresh.
      tree_ = patch.tree;
    }
  }
  if (!out.ok()) bump(opts_.net, "churn.degraded");
  verify_step(out);
  return out;
}

std::vector<StepOutcome> ChurnEngine::run(const ChurnScript& script) {
  std::vector<StepOutcome> outs;
  outs.push_back(init());
  for (const auto& batch : script.batches) outs.push_back(step(batch));
  for (int i = 0; i < script.random_events; ++i) {
    const ChurnEvent e = random_event(graph_, script.seed, random_cursor_++);
    outs.push_back(step({e}));
  }
  return outs;
}

}  // namespace dmc::churn
