// The one pipeline dispatch and verdict mapping (see query.hpp).
#include "dist/query.hpp"

#include <stdexcept>

#include "dist/optimization.hpp"
#include "dist/optmarked.hpp"

namespace dmc::dist {

namespace {

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

/// The verdict fields of each typed outcome.
void record_verdict(const DecisionOutcome& r, QueryOutcome& out) {
  out.verdict.holds = r.holds;
  out.folds = r.folds;
  out.max_class_bits = r.max_class_bits;
}
void record_verdict(const CountingOutcome& r, QueryOutcome& out) {
  out.verdict.count = r.count;
  out.folds = r.folds;
}
void record_verdict(const OptimizationOutcome& r, QueryOutcome& out) {
  out.verdict.feasible = r.best_weight.has_value();
  out.verdict.best_weight = r.best_weight.value_or(0);
  out.vertices = r.vertices;
  out.edges = r.edges;
}
void record_verdict(const OptMarkedOutcome& r, QueryOutcome& out) {
  out.verdict.satisfies = r.satisfies;
  out.verdict.is_optimal = r.is_optimal;
  out.verdict.marked_weight = r.marked_weight;
  out.verdict.best_weight = r.best_weight;
}

template <class Outcome>
QueryOutcome read(const Outcome& r) {
  QueryOutcome out;
  out.verdict.treedepth_exceeded = r.treedepth_exceeded;
  out.run = r.run;
  out.rounds = r.total_rounds();
  out.num_classes = r.num_classes;
  record_verdict(r, out);
  return out;
}

/// Whether a trusted verdict is the positive answer (exit code 0).
bool positive(Pipeline pipeline, const Verdict& v) {
  switch (pipeline) {
    case Pipeline::kDecision: return v.holds;
    case Pipeline::kCount: return true;
    case Pipeline::kMaximize:
    case Pipeline::kMinimize: return v.feasible;
    case Pipeline::kOptMarked: return v.satisfies && v.is_optimal;
  }
  return false;
}

std::optional<mso::Sort> parse_sort(const std::string& text) {
  if (text == "vset") return mso::Sort::VertexSet;
  if (text == "eset") return mso::Sort::EdgeSet;
  return std::nullopt;
}

/// Parses a free-variable list "NAME:vset|eset[,NAME:vset|eset...]"; an
/// empty list, an empty or repeated name, or an unknown sort throws.
Frees parse_frees(const std::string& spec) {
  Frees out;
  std::size_t start = 0;
  while (true) {
    std::size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(start, end - start);
    const auto colon = item.find(':');
    const std::string name = item.substr(0, colon);
    const auto sort = colon == std::string::npos
                          ? std::nullopt
                          : parse_sort(item.substr(colon + 1));
    if (name.empty() || !sort)
      throw std::invalid_argument(
          "vars: free variables must be NAME:vset|eset[,...], got '" + spec +
          "'");
    for (const auto& slot : out)
      if (slot.first == name)
        throw std::invalid_argument("vars: free variable '" + name +
                                    "' listed twice");
    out.emplace_back(name, *sort);
    if (end == spec.size()) return out;
    start = end + 1;
  }
}

}  // namespace

std::optional<Pipeline> pipeline_for_verb(const std::string& verb) {
  if (verb == "decide") return Pipeline::kDecision;
  if (verb == "maximize") return Pipeline::kMaximize;
  if (verb == "minimize") return Pipeline::kMinimize;
  if (verb == "count") return Pipeline::kCount;
  return std::nullopt;
}

Frees Query::frees() const {
  switch (pipeline) {
    case Pipeline::kDecision: return {};
    case Pipeline::kCount: return vars;
    default: return {{var, var_sort}};
  }
}

std::uint64_t Verdict::digest(Pipeline pipeline) const {
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

QueryOutcome run(congest::Network& net, const Query& q, int d,
                 bpt::Engine* engine, const ElimTreeOptions& tree_opts) {
  switch (q.pipeline) {
    case Pipeline::kDecision:
      return read(run_decision(net, q.formula, d, engine, tree_opts));
    case Pipeline::kCount:
      return read(run_count(net, q.formula, q.vars, d, engine, tree_opts));
    case Pipeline::kMaximize:
      return read(run_maximize(net, q.formula, q.var, q.var_sort, d, engine,
                               tree_opts));
    case Pipeline::kMinimize:
      return read(run_minimize(net, q.formula, q.var, q.var_sort, d, engine,
                               tree_opts));
    case Pipeline::kOptMarked:
      return read(run_optmarked(net, q.formula, q.var, q.var_sort, d,
                                q.minimize_marked, tree_opts));
  }
  throw std::logic_error("dist::run: unknown pipeline");
}

QueryOutcome run_solve(congest::Network& net, const Query& q,
                       const ElimTreeResult& tree,
                       const std::vector<LocalBag>& bags, bpt::Engine* engine,
                       SolveCache* cache) {
  switch (q.pipeline) {
    case Pipeline::kDecision:
      return read(run_decision_solve(net, q.formula, tree, bags, engine,
                                     std::get_if<DecisionCache>(cache)));
    case Pipeline::kCount:
      return read(run_count_solve(net, q.formula, q.vars, tree, bags, engine,
                                  std::get_if<CountingCache>(cache)));
    case Pipeline::kMaximize:
      return read(run_maximize_solve(net, q.formula, q.var, q.var_sort, tree,
                                     bags, engine));
    case Pipeline::kMinimize:
      return read(run_minimize_solve(net, q.formula, q.var, q.var_sort, tree,
                                     bags, engine));
    case Pipeline::kOptMarked:
      return read(run_optmarked_solve(net, q.formula, q.var, q.var_sort, tree,
                                      bags, q.minimize_marked));
  }
  throw std::logic_error("dist::run_solve: unknown pipeline");
}

std::string verdict_text(Pipeline pipeline, const Verdict& v) {
  switch (pipeline) {
    case Pipeline::kCount: return "count=" + std::to_string(v.count);
    case Pipeline::kMaximize:
    case Pipeline::kMinimize:
      return v.feasible ? "optimum=" + std::to_string(v.best_weight)
                        : "infeasible";
    default: return positive(pipeline, v) ? "holds" : "fails";
  }
}

std::string answer_text(Pipeline pipeline, const QueryOutcome& out, int d) {
  if (out.run.status == congest::RunStatus::kCrashed)
    return "degraded: crashed";
  if (!out.run.ok()) return "degraded: round budget exhausted";
  if (out.verdict.treedepth_exceeded) return "treedepth>" + std::to_string(d);
  return verdict_text(pipeline, out.verdict);
}

int exit_code(Pipeline pipeline, const QueryOutcome& out) {
  if (out.run.status == congest::RunStatus::kCrashed) return 7;
  if (!out.run.ok()) return 6;
  if (out.verdict.treedepth_exceeded) return 3;
  return positive(pipeline, out.verdict) ? 0 : 1;
}

Query make_query(Pipeline pipeline, mso::FormulaPtr formula,
                 const std::string& var, const std::string& sort,
                 const std::string& vars) {
  Query q;
  q.pipeline = pipeline;
  q.formula = std::move(formula);
  if (pipeline == Pipeline::kMaximize || pipeline == Pipeline::kMinimize) {
    if (var.empty()) throw std::invalid_argument("var: missing");
    const auto s = parse_sort(sort);
    if (!s) throw std::invalid_argument("sort: must be vset or eset");
    q.var = var;
    q.var_sort = *s;
  } else if (pipeline == Pipeline::kCount) {
    q.vars = parse_frees(vars);
  }
  return q;
}

std::string selected_text(const Graph& g, const std::vector<bool>& vertices,
                          const std::vector<bool>& edges) {
  std::string out = "selected:";
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (v < static_cast<VertexId>(vertices.size()) && vertices[v])
      out += " v" + std::to_string(v);
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    if (e < static_cast<EdgeId>(edges.size()) && edges[e])
      out += " e" + std::to_string(e) + "(" + std::to_string(g.edge(e).u) +
             "-" + std::to_string(g.edge(e).v) + ")";
  return out;
}

}  // namespace dmc::dist
