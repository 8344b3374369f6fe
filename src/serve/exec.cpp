// Query execution against the CONGEST pipelines (see exec.hpp).
#include "serve/exec.hpp"

#include <cstdio>
#include <stdexcept>

#include "congest/network.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "mso/lower.hpp"
#include "mso/parser.hpp"

namespace dmc::serve {

namespace {

QueryResult finish(QueryResult r) {
  r.digest = result_digest(r.result);
  return r;
}

/// Response status of an exit code; code 1 is "fails" or "infeasible",
/// the answer text itself.
std::string status_of(int code, const std::string& text) {
  switch (code) {
    case 0: return "ok";
    case 1: return text;
    case 3: return "treedepth";
    case 7: return "crashed";
    default: return "degraded";
  }
}

}  // namespace

std::string result_digest(const std::string& canonical) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : canonical)
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::optional<Prepared> prepare(const Query& q, std::string& error) {
  Prepared p;
  p.q = q;
  const auto pipeline = dist::pipeline_for_verb(q.verb);
  if (!pipeline) {
    error = "unknown verb " + q.verb;
    return std::nullopt;
  }
  mso::FormulaPtr formula;
  try {
    formula = mso::parse(q.formula);
  } catch (const std::exception& e) {
    error = std::string("formula: ") + e.what();
    return std::nullopt;
  }
  try {
    p.query = dist::make_query(*pipeline, std::move(formula), q.var, q.sort,
                               q.vars);
  } catch (const std::invalid_argument& e) {
    error = e.what();
    return std::nullopt;
  }
  try {
    const dist::Frees frees = p.query.frees();
    const mso::FormulaPtr lowered = mso::lower(p.query.formula, frees);
    p.formula_text = mso::to_string(*lowered);
    p.cfg = bpt::config_for(*lowered, frees);
  } catch (const std::exception& e) {
    error = std::string("lowering: ") + e.what();
    return std::nullopt;
  }
  try {
    p.graph = q.family.empty() ? io::from_dimacs(q.graph_dimacs)
                               : gen::family(q.family);
  } catch (const std::exception& e) {
    error = std::string("graph: ") + e.what();
    return std::nullopt;
  }
  if (p.graph.num_vertices() <= 0) {
    error = "graph: empty";
    return std::nullopt;
  }
  return p;
}

QueryResult execute(const Prepared& p, bpt::Engine* engine) {
  QueryResult r;
  try {
    congest::NetworkConfig cfg;
    // One worker per query: parallelism in the daemon comes from the
    // scheduler running independent queries concurrently, and serial
    // stepping keeps every digest bit-equal to the legacy CLI path.
    cfg.threads = 1;
    if (p.q.max_rounds > 0)
      cfg.max_rounds = static_cast<int>(p.q.max_rounds);
    congest::Network net(p.graph, cfg);
    const dist::QueryOutcome out = dist::run(net, p.query, p.q.dist, engine);
    const dist::Pipeline pipeline = p.query.pipeline;
    r.code = dist::exit_code(pipeline, out);
    r.result = dist::answer_text(pipeline, out, p.q.dist);
    r.status = status_of(r.code, r.result);
    if (out.run.ok()) {
      r.rounds = out.rounds;
      r.num_classes = out.num_classes;
      if (out.verdict.feasible)
        r.witness = dist::selected_text(p.graph, out.vertices, out.edges);
    } else {
      // Degraded outputs are untrusted: no verdict, no class count. The
      // flight recorder is serialized while the Network still exists, so
      // the caller can persist the post-mortem.
      r.rounds = out.run.rounds;
      r.flight = net.flight_recorder().dump_string();
    }
  } catch (const std::exception& e) {
    r = QueryResult();
    r.status = "error";
    r.code = 4;
    r.result = std::string("error: ") + e.what();
  }
  return finish(std::move(r));
}

QueryResult run_one_shot(const Query& q) {
  std::string error;
  const auto p = prepare(q, error);
  if (!p) {
    QueryResult r;
    r.status = "malformed";
    r.code = kMalformedExit;
    r.result = "malformed: " + error;
    return finish(std::move(r));
  }
  return execute(*p, nullptr);
}

}  // namespace dmc::serve
