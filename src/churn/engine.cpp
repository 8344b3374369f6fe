#include "churn/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "dist/bags.hpp"
#include "dist/optmarked.hpp"
#include "metrics/metrics.hpp"
#include "mso/lower.hpp"

namespace dmc::churn {

namespace {

/// An epoch note: why the epoch took its path, then what happened on it.
std::string join_notes(const std::string& reason, const std::string& note) {
  return note.empty() ? reason : reason + "; " + note;
}

}  // namespace

const char* to_string(StepStatus status) {
  switch (status) {
    case StepStatus::kRefolded: return "refolded";
    case StepStatus::kRebuilt: return "rebuilt";
    case StepStatus::kRecomputed: return "recomputed";
    case StepStatus::kDegraded: return "degraded";
  }
  return "?";
}

ChurnEngine::ChurnEngine(Graph g, Query query, Options opts)
    : graph_(std::move(g)), query_(std::move(query)), opts_(std::move(opts)) {
  if (query_.pipeline == Pipeline::kOptMarked) {
    // run_optmarked_solve builds its own engine each epoch.
    std::tie(vlabels_, elabels_) =
        dist::optmarked_labels(query_.formula, query_.var, query_.var_sort);
  } else {
    const dist::Frees frees = query_.frees();
    engine_.emplace(bpt::config_for(*mso::lower(query_.formula, frees), frees));
    vlabels_ = engine_->config().vertex_labels;
    elabels_ = engine_->config().edge_labels;
  }
  if (query_.pipeline == Pipeline::kCount)
    cache_.emplace<dist::CountingCache>();
  invalidate_caches();
}

ChurnEngine::~ChurnEngine() = default;

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
  try {
    const dist::QueryOutcome r =
        dist::run_solve(net, query_, tree, bags,
                        engine_ ? &*engine_ : nullptr, &cache_);
    out.run = r.run;
    out.verdict = r.verdict;
    out.folds = r.folds;
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

StepOutcome ChurnEngine::full_compute() {
  bump(opts_.net, "churn.full_recomputes");
  // Fold-all: only a completed solve refreshes the cache and keeps a tree.
  tree_.reset();
  invalidate_caches();
  StepOutcome out;
  congest::Network net(graph_, opts_.net);
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
    dist::QueryOutcome oracle;
    try {
      congest::NetworkConfig clean;
      clean.id_seed = opts_.net.id_seed;
      congest::Network net(graph_, clean);
      oracle = dist::run(net, query_, budget);
    } catch (const std::exception&) {
      // A larger budget can yield trees deeper than the packed atomic
      // representation supports (bpt::kMaxTerminals), and budgets past
      // dist::kMaxBudget are rejected; the oracle is infeasible there,
      // not wrong.
      out.note = "oracle infeasible at budget " + std::to_string(budget) +
                 "; digest check skipped";
      return;
    }
    out.rounds_full = oracle.rounds;
    if (!oracle.run.ok()) {
      out.note = "oracle run degraded; digest check skipped";
      return;
    }
    if (oracle.verdict.treedepth_exceeded &&
        !out.verdict.treedepth_exceeded) {
      if (budget < max_budget) continue;
      out.note = "budget drift: oracle td check rejected up to d+3; "
                 "digest check skipped";
      return;
    }
    out.oracle_digest = oracle.verdict.digest(query_.pipeline);
    out.verified = true;
    out.digest_ok = out.digest == out.oracle_digest;
    if (!out.digest_ok) bump(opts_.net, "churn.digest_mismatches");
    return;
  }
}

StepOutcome ChurnEngine::init() {
  StepOutcome out = full_compute();
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
    StepOutcome out = full_compute();
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
    out = full_compute();
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

    congest::Network net(graph_, opts_.net);
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
        dist::bags_for_tree(net, patch.tree, vlabels_, elabels_);
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
      StepOutcome full = full_compute();
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
