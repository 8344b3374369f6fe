// The one query entry point (dist/query.hpp): dist::run must report exactly
// what the typed entry point it dispatches to reports, and the verdict ->
// text / exit-code mapping and the option parser shared by dmc and dmcd
// must follow their documented grammar.
#include "dist/query.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "congest/network.hpp"
#include "dist/optimization.hpp"
#include "dist/optmarked.hpp"
#include "graph/generators.hpp"
#include "mso/formulas.hpp"

namespace dmc::dist {
namespace {

using mso::Sort;
namespace lib = mso::lib;

constexpr int kBudget = 4;

Query make(Pipeline pipeline, mso::FormulaPtr formula) {
  Query q;
  q.pipeline = pipeline;
  q.formula = std::move(formula);
  return q;
}

/// Runs the query through dist::run on a fresh network over `g`.
QueryOutcome run_query(const Graph& g, const Query& q) {
  congest::Network net(g);
  return run(net, q, kBudget);
}

TEST(DistQuery, RunReportsWhatTheTypedEntryPointReports) {
  const Graph g = gen::cycle(7);
  {
    const Query q = make(Pipeline::kDecision, lib::triangle_free());
    congest::Network net(g);
    const DecisionOutcome want = run_decision(net, q.formula, kBudget);
    const QueryOutcome got = run_query(g, q);
    EXPECT_EQ(got.verdict.holds, want.holds);
    EXPECT_EQ(got.rounds, want.total_rounds());
    EXPECT_EQ(got.folds, want.folds);
    EXPECT_EQ(got.num_classes, want.num_classes);
    EXPECT_EQ(got.max_class_bits, want.max_class_bits);
    EXPECT_EQ(exit_code(q.pipeline, got), 0);
  }
  {
    Query q = make(Pipeline::kCount, lib::independent_set());
    q.vars = {{"S", Sort::VertexSet}};
    congest::Network net(g);
    const CountingOutcome want = run_count(net, q.formula, q.vars, kBudget);
    const QueryOutcome got = run_query(g, q);
    EXPECT_EQ(got.verdict.count, want.count);
    EXPECT_EQ(got.rounds, want.total_rounds());
    EXPECT_EQ(got.folds, want.folds);
    EXPECT_EQ(verdict_text(q.pipeline, got.verdict),
              "count=" + std::to_string(want.count));
  }
  for (const Pipeline p : {Pipeline::kMaximize, Pipeline::kMinimize}) {
    Query q = make(p, p == Pipeline::kMaximize ? lib::independent_set()
                                               : lib::vertex_cover());
    q.var = "S";
    congest::Network net(g);
    const OptimizationOutcome want =
        p == Pipeline::kMaximize
            ? run_maximize(net, q.formula, q.var, q.var_sort, kBudget)
            : run_minimize(net, q.formula, q.var, q.var_sort, kBudget);
    const QueryOutcome got = run_query(g, q);
    ASSERT_TRUE(want.best_weight.has_value());
    EXPECT_TRUE(got.verdict.feasible);
    EXPECT_EQ(got.verdict.best_weight, *want.best_weight);
    EXPECT_EQ(got.vertices, want.vertices);
    EXPECT_EQ(got.rounds, want.total_rounds());
    EXPECT_EQ(exit_code(q.pipeline, got), 0);
  }
  {
    Graph marked = g;
    for (const VertexId v : {0, 2, 4}) marked.set_vertex_label("marked", v);
    Query q = make(Pipeline::kOptMarked, lib::independent_set());
    q.var = "S";
    congest::Network net(marked);
    const OptMarkedOutcome want =
        run_optmarked(net, q.formula, q.var, q.var_sort, kBudget);
    const QueryOutcome got = run_query(marked, q);
    EXPECT_TRUE(want.satisfies && want.is_optimal);
    EXPECT_EQ(got.verdict.satisfies, want.satisfies);
    EXPECT_EQ(got.verdict.is_optimal, want.is_optimal);
    EXPECT_EQ(got.verdict.marked_weight, want.marked_weight);
    EXPECT_EQ(got.verdict.best_weight, want.best_weight);
    EXPECT_EQ(verdict_text(q.pipeline, got.verdict), "holds");
  }
}

TEST(DistQuery, TreedepthExceededIsExitThree) {
  const Query q = make(Pipeline::kDecision, lib::triangle_free());
  congest::Network net(gen::path(8));
  const QueryOutcome out = run(net, q, 2);
  EXPECT_TRUE(out.verdict.treedepth_exceeded);
  EXPECT_EQ(exit_code(q.pipeline, out), 3);
  EXPECT_EQ(answer_text(q.pipeline, out, 2), "treedepth>2");
}

TEST(DistQuery, AnswerTextAndExitCodeOfEveryEnding) {
  QueryOutcome out;
  out.verdict.holds = false;
  EXPECT_EQ(answer_text(Pipeline::kDecision, out, 3), "fails");
  EXPECT_EQ(exit_code(Pipeline::kDecision, out), 1);
  out.verdict.holds = true;
  EXPECT_EQ(answer_text(Pipeline::kDecision, out, 3), "holds");
  EXPECT_EQ(exit_code(Pipeline::kDecision, out), 0);

  EXPECT_EQ(answer_text(Pipeline::kMaximize, out, 3), "infeasible");
  EXPECT_EQ(exit_code(Pipeline::kMinimize, out), 1);
  out.verdict.feasible = true;
  out.verdict.best_weight = -4;
  EXPECT_EQ(answer_text(Pipeline::kMinimize, out, 3), "optimum=-4");
  EXPECT_EQ(exit_code(Pipeline::kMaximize, out), 0);

  out.verdict.count = 12345678901234ull;
  EXPECT_EQ(answer_text(Pipeline::kCount, out, 3), "count=12345678901234");
  EXPECT_EQ(exit_code(Pipeline::kCount, out), 0);

  // Degraded endings name no verdict, whatever the verdict fields hold.
  out.run.status = congest::RunStatus::kRoundLimit;
  EXPECT_EQ(answer_text(Pipeline::kCount, out, 3),
            "degraded: round budget exhausted");
  EXPECT_EQ(exit_code(Pipeline::kCount, out), 6);
  out.run.status = congest::RunStatus::kCrashed;
  EXPECT_EQ(answer_text(Pipeline::kDecision, out, 3), "degraded: crashed");
  EXPECT_EQ(exit_code(Pipeline::kDecision, out), 7);
}

TEST(DistQuery, ParsesFreeVariableLists) {
  const auto vars = [](const std::string& spec) {
    return make_query(Pipeline::kCount, lib::independent_set(), "", "", spec)
        .vars;
  };
  const Frees two = vars("S:vset,F:eset");
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0], (std::pair<std::string, Sort>{"S", Sort::VertexSet}));
  EXPECT_EQ(two[1], (std::pair<std::string, Sort>{"F", Sort::EdgeSet}));
  for (const std::string bad :
       {"", ",", ":vset", "S:vset,", ",S:vset", "S", "S:", "S:set",
        "S:vset,S:vset", "S:vset,S:eset"})
    EXPECT_THROW(vars(bad), std::invalid_argument) << "'" << bad << "'";
}

TEST(DistQuery, MakeQueryReadsOnlyTheOptionsItsPipelineUses) {
  const Query max = make_query(Pipeline::kMaximize, lib::independent_set(),
                               "S", "eset", "not a list");
  EXPECT_EQ(max.var, "S");
  EXPECT_EQ(max.var_sort, Sort::EdgeSet);
  EXPECT_TRUE(max.vars.empty());
  const Query count = make_query(Pipeline::kCount, lib::independent_set(),
                                 "", "", "S:vset");
  EXPECT_EQ(count.frees(), (Frees{{"S", Sort::VertexSet}}));
  EXPECT_TRUE(make_query(Pipeline::kDecision, lib::triangle_free(), "", "", "")
                  .frees()
                  .empty());

  const auto message = [](Pipeline p, const std::string& var,
                          const std::string& sort, const std::string& vars) {
    try {
      make_query(p, lib::independent_set(), var, sort, vars);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(message(Pipeline::kMinimize, "", "vset", ""), "var: missing");
  EXPECT_EQ(message(Pipeline::kMinimize, "S", "set", ""),
            "sort: must be vset or eset");
  EXPECT_EQ(message(Pipeline::kCount, "", "", "S:vset,S:vset"),
            "vars: free variable 'S' listed twice");
}

TEST(DistQuery, VerbsNameTheFourFrontEndPipelines) {
  EXPECT_EQ(pipeline_for_verb("decide"), Pipeline::kDecision);
  EXPECT_EQ(pipeline_for_verb("maximize"), Pipeline::kMaximize);
  EXPECT_EQ(pipeline_for_verb("minimize"), Pipeline::kMinimize);
  EXPECT_EQ(pipeline_for_verb("count"), Pipeline::kCount);
  EXPECT_FALSE(pipeline_for_verb("optmarked"));
  EXPECT_FALSE(pipeline_for_verb("treedepth"));
}

}  // namespace
}  // namespace dmc::dist
