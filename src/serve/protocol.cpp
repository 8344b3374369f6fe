// Protocol line parsing/assembly (see protocol.hpp).
#include "serve/protocol.hpp"

#include <climits>
#include <cmath>
#include <string>

#include "dist/query.hpp"

namespace dmc::serve {

namespace {

Request malformed(std::string id, std::string why) {
  Request r;
  r.kind = Request::Kind::kMalformed;
  r.id = std::move(id);
  r.error = std::move(why);
  return r;
}

/// Largest integer a JSON number (an IEEE double) carries exactly.
constexpr long long kMaxExactInt = 1LL << 53;

/// Integer field `key` (`fallback` when absent) if it lies in [lo, hi];
/// otherwise nullopt with a diagnostic in `error` — never narrowed to fit.
std::optional<long long> int_field(const Json& j, const char* key,
                                   long long fallback, long long lo,
                                   long long hi, const std::string& hi_text,
                                   std::string& error) {
  const Json& v = j[key];
  // A non-number reads as NaN, which fails every comparison below.
  const double x = v.is_null() ? static_cast<double>(fallback)
                               : v.as_number(std::nan(""));
  if (x >= static_cast<double>(lo) && x <= static_cast<double>(hi) &&
      x == std::floor(x))
    return static_cast<long long>(x);
  error = std::string(key) + " must be an integer in [" + std::to_string(lo) +
          ", " + hi_text + "]";
  return std::nullopt;
}

}  // namespace

Request parse_request(const std::string& line) {
  const std::optional<Json> doc = json_parse(line);
  if (!doc) return malformed("", "not a JSON object line");
  if (!doc->is_object()) return malformed("", "request must be an object");
  const Json& j = *doc;
  std::string id;
  if (j["id"].is_string()) {
    id = j["id"].as_string();
  } else if (j["id"].is_number()) {
    // Echoed as its decimal integer, so only an exactly representable
    // integer qualifies; 2.5 or 1e300 would echo some other number.
    std::string error;
    const auto num =
        int_field(j, "id", 0, -kMaxExactInt, kMaxExactInt, "2^53", error);
    if (!num) return malformed("", error);
    id = std::to_string(*num);
  }

  const std::string verb = j["verb"].as_string();
  if (verb.empty()) return malformed(id, "missing verb");
  if (verb == "ping" || verb == "metrics" || verb == "shutdown") {
    Request r;
    r.kind = verb == "ping" ? Request::Kind::kPing
             : verb == "metrics" ? Request::Kind::kMetrics
                                 : Request::Kind::kShutdown;
    r.id = id;
    return r;
  }
  if (verb == "trace") {
    const std::string target = j["target"].as_string();
    if (target.empty()) return malformed(id, "trace needs target (query id)");
    Request r;
    r.kind = Request::Kind::kTrace;
    r.id = id;
    r.target = target;
    return r;
  }
  if (!dist::pipeline_for_verb(verb))
    return malformed(id, "unknown verb '" + verb + "'");

  Query q;
  q.id = id;
  q.verb = verb;
  q.formula = j["formula"].as_string();
  if (q.formula.empty()) return malformed(id, "missing formula");
  q.family = j["family"].as_string();
  q.graph_dimacs = j["graph"].as_string();
  if (q.family.empty() == q.graph_dimacs.empty())
    return malformed(id, "need exactly one of family|graph");
  std::string error;
  const auto dist = int_field(j, "dist", 0, 1, dist::kMaxBudget,
                              std::to_string(dist::kMaxBudget), error);
  const auto max_rounds =
      int_field(j, "max_rounds", 0, 0, INT_MAX, "2^31-1", error);
  const auto deadline_ms =
      int_field(j, "deadline_ms", 0, 0, kMaxExactInt, "2^53", error);
  if (!dist || !max_rounds || !deadline_ms) return malformed(id, error);
  q.dist = static_cast<int>(*dist);
  q.max_rounds = *max_rounds;
  q.deadline_ms = *deadline_ms;
  q.var = j["var"].as_string();
  q.sort = j["sort"].as_string();
  q.vars = j["vars"].as_string();
  if ((verb == "maximize" || verb == "minimize")) {
    if (q.var.empty()) return malformed(id, verb + " needs var");
    if (q.sort != "vset" && q.sort != "eset")
      return malformed(id, verb + " needs sort vset|eset");
  }
  if (verb == "count" && q.vars.empty())
    return malformed(id, "count needs vars (NAME:vset|eset,...)");

  Request r;
  r.kind = Request::Kind::kQuery;
  r.id = id;
  r.query = std::move(q);
  return r;
}

std::string to_line(const Query& q) {
  JsonObject o;
  if (!q.id.empty()) o["id"] = q.id;
  o["verb"] = q.verb;
  o["formula"] = q.formula;
  if (!q.family.empty()) o["family"] = q.family;
  if (!q.graph_dimacs.empty()) o["graph"] = q.graph_dimacs;
  o["dist"] = q.dist;
  if (q.max_rounds > 0) o["max_rounds"] = q.max_rounds;
  if (q.deadline_ms > 0) o["deadline_ms"] = q.deadline_ms;
  if (!q.var.empty()) o["var"] = q.var;
  if (!q.sort.empty()) o["sort"] = q.sort;
  if (!q.vars.empty()) o["vars"] = q.vars;
  return Json(std::move(o)).dump();
}

JsonObject response_base(const std::string& id, const std::string& status,
                         int code) {
  JsonObject o;
  if (!id.empty()) o["id"] = id;
  o["status"] = status;
  o["code"] = code;
  return o;
}

int status_exit_code(const std::string& status) {
  if (status == "ok" || status == "pong" || status == "shutting_down")
    return 0;
  if (status == "fails" || status == "infeasible" || status == "not_found")
    return 1;
  if (status == "treedepth") return 3;
  if (status == "error") return 4;
  if (status == "deadline" || status == "degraded") return kDeadlineExit;
  if (status == "crashed") return 7;
  if (status == "overloaded") return kOverloadedExit;
  return kMalformedExit;
}

}  // namespace dmc::serve
