//===- tests/QueryApiTest.cpp - CountOptions entry point contract --------===//
//
// The unified options-taking entry point (omega/Omega.h) is re-entrant:
// a query's CountOptions translate into a QueryContext installed for the
// query's duration, so knobs apply per query (never to process state) and
// stats are a per-query block (never a racy global delta).  These tests
// pin the contract: options-configured counts match the plain pipeline
// textually, nested/sequential queries don't leak stats into each other,
// and countBatch is element-wise isolated.
//
//===----------------------------------------------------------------------===//

#include "FuzzGen.h"

#include "counting/Backend.h"
#include "counting/Summation.h"
#include "omega/Omega.h"
#include "presburger/Parser.h"
#include "presburger/Var.h"
#include "support/QueryContext.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

using namespace omega;

namespace {

/// Baseline: the plain two-argument pipeline entry (no options, no
/// context), from reset state.
std::string plainCount(const Formula &F, const VarSet &Vars) {
  clearConjunctCache();
  resetWildcardState();
  PiecewiseValue V = countSolutions(F, Vars);
  return V.toString();
}

/// Options path under the given knobs, from reset state.  Runs inside a
/// deliberately *different* enclosing context to prove the query's own
/// options win over whatever environment it nests in.
std::string optionsCount(const Formula &F, const VarSet &Vars, bool Cache) {
  clearConjunctCache();
  resetWildcardState();
  QueryScope Enclosing;
  Enclosing.context().CacheEnabled = !Cache;
  CountOptions CO;
  CO.CacheEnabled = Cache;
  CountResult CR = countSolutions(F, Vars, CO);
  EXPECT_TRUE(CR.Status == CountStatus::Exact ||
              CR.Status == CountStatus::Unbounded);
  EXPECT_EQ(CR.exact(), !CR.Value.isUnbounded());
  return CR.Value.toString();
}

TEST(QueryApi, DifferentialFuzzCorpus) {
  fuzz::Generator Gen(/*Seed=*/23);
  for (int Case = 0; Case < 30; ++Case) {
    fuzz::FuzzCase FC = Gen.next();
    SCOPED_TRACE("fuzz case " + std::to_string(Case) + ": " + FC.Text);
    ParseResult R = parseFormula(FC.Text);
    ASSERT_TRUE(R) << R.Error;
    VarSet Vars(FC.Vars.begin(), FC.Vars.end());
    std::string Plain = plainCount(*R.Value, Vars);
    for (bool Cache : {true, false}) {
      std::string New = optionsCount(*R.Value, Vars, Cache);
      EXPECT_EQ(New, Plain) << "cache=" << Cache << " diverged";
    }
  }
}

TEST(QueryApi, SumPolynomialDifferential) {
  ParseResult R = parseFormula("1 <= i <= n && i <= j <= n");
  ASSERT_TRUE(R) << R.Error;
  VarSet Vars{"i", "j"};
  QuasiPolynomial X = QuasiPolynomial::variable("i");

  clearConjunctCache();
  resetWildcardState();
  std::string Plain = sumOverFormula(*R.Value, Vars, X).toString();

  clearConjunctCache();
  resetWildcardState();
  CountResult CR = sumPolynomial(*R.Value, Vars, X);
  EXPECT_TRUE(CR.exact());
  EXPECT_EQ(CR.Value.toString(), Plain);
}

TEST(QueryApi, BudgetedDifferential) {
  // Two clauses against a one-clause budget: both paths must degrade to
  // the same certified bounds, not just the same status.
  ParseResult R = parseFormula("1 <= i <= 10 || 20 <= i <= 24");
  ASSERT_TRUE(R) << R.Error;
  VarSet Vars{"i"};
  auto Budget = EffortBudget::parse("clauses=1");
  ASSERT_TRUE(Budget.ok());

  clearConjunctCache();
  resetWildcardState();
  BudgetedCount Legacy = countSolutionsBudgeted(*R.Value, Vars, *Budget);

  clearConjunctCache();
  resetWildcardState();
  CountOptions CO;
  CO.Budget = *Budget;
  CountResult CR = countSolutions(*R.Value, Vars, CO);

  ASSERT_EQ(Legacy.Status, CountStatus::Bounded);
  EXPECT_EQ(CR.Status, Legacy.Status);
  EXPECT_EQ(CR.TrippedLimit, Legacy.TrippedLimit);
  EXPECT_EQ(CR.Lower.toString(), Legacy.Lower.toString());
  EXPECT_EQ(CR.Upper.toString(), Legacy.Upper.toString());

  // A generous budget through the options path stays exact.
  auto Big = EffortBudget::parse("clauses=64");
  ASSERT_TRUE(Big.ok());
  clearConjunctCache();
  resetWildcardState();
  CountOptions CO2;
  CO2.Budget = *Big;
  CountResult Exact = countSolutions(*R.Value, Vars, CO2);
  EXPECT_TRUE(Exact.exact());
  EXPECT_EQ(Exact.Value.toString(), "(15)");
  EXPECT_TRUE(Exact.TrippedLimit.empty());
}

TEST(QueryApi, StatsAreAPerQueryDelta) {
  ParseResult R = parseFormula("1 <= i <= n && i <= j <= n");
  ASSERT_TRUE(R) << R.Error;
  VarSet Vars{"i", "j"};
  CountOptions CO;
  CO.CollectStats = true;

  // Two identical serial queries from reset state: each delta covers only
  // its own query, so the two snapshots agree even though the cumulative
  // process counters doubled.
  clearConjunctCache();
  resetWildcardState();
  CountResult First = countSolutions(*R.Value, Vars, CO);
  clearConjunctCache();
  resetWildcardState();
  CountResult Second = countSolutions(*R.Value, Vars, CO);

  EXPECT_GT(First.Stats.FeasibilityTests, 0u);
  EXPECT_EQ(First.Stats.FeasibilityTests, Second.Stats.FeasibilityTests);
  EXPECT_EQ(First.Stats.ProjectionCalls, Second.Stats.ProjectionCalls);
  EXPECT_EQ(First.Stats.CacheMisses, Second.Stats.CacheMisses);

  // Stats off: the snapshot stays zeroed rather than leaking totals.
  CountOptions Off;
  CountResult Plain = countSolutions(*R.Value, Vars, Off);
  EXPECT_EQ(Plain.Stats.FeasibilityTests, 0u);
}

TEST(QueryApi, ArithCountersArePerQueryAndFold) {
  // The BigInt tallies resolve through the per-query block like every
  // other counter: CountArithOps counts the query's own arithmetic, and
  // the block folds exactly that delta into the process-wide counters.
  struct Case {
    const char *Text;
    VarSet Vars;
    bool Spills; ///< The answer exceeds BigInt's inline range.
  };
  const Case Cases[] = {
      {"1 <= i <= n && i <= j <= n", VarSet{"i", "j"}, false}, // triangle
      {"0 <= i <= 4611686018427387904", VarSet{"i"}, true},   // 2^62
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Text);
    ParseResult R = parseFormula(C.Text);
    ASSERT_TRUE(R) << R.Error;
    CountOptions CO;
    CO.CollectStats = true;
    CO.CountArithOps = true;
    clearConjunctCache();
    resetWildcardState();
    const PipelineStatsSnapshot Before = snapshotPipelineStats();
    CountResult CR = countSolutions(*R.Value, C.Vars, CO);
    const PipelineStatsSnapshot After = snapshotPipelineStats();
    ASSERT_TRUE(CR.exact());

    EXPECT_GT(CR.Stats.BigIntFastOps, 0u);
    if (C.Spills) {
      EXPECT_GT(CR.Stats.BigIntSpills, 0u);
      EXPECT_GT(CR.Stats.BigIntSlowOps, 0u);
    }
    EXPECT_EQ(After.BigIntFastOps - Before.BigIntFastOps,
              CR.Stats.BigIntFastOps);
    EXPECT_EQ(After.BigIntSlowOps - Before.BigIntSlowOps,
              CR.Stats.BigIntSlowOps);
    EXPECT_EQ(After.BigIntSpills - Before.BigIntSpills, CR.Stats.BigIntSpills);
    EXPECT_EQ(After.ExprTermsInline - Before.ExprTermsInline,
              CR.Stats.ExprTermsInline);
  }
}

TEST(QueryApi, EveryCounterMovesAndFolds) {
  // One row per PipelineStatsSnapshot field, each with a query known to
  // move it.  The per-query delta must be nonzero, and it must be exactly
  // what the query folds into the process-wide counters — so a counter no
  // query can move (or one that bypasses the per-query block) fails here.
  enum class Prep {
    Cold,      ///< From an empty cache.
    Warm,      ///< After one identical run, so lookups hit.
    TinyCache, ///< Cache capacity 1, so inserts evict.
  };
  struct Row {
    const char *Field;
    uint64_t PipelineStatsSnapshot::*Member;
    const char *Text;
    VarSet Vars;
    BackendKind Backend = BackendKind::Pugh;
    const char *Budget = "";
    Prep Setup = Prep::Cold;
  };
  const char *Triangle = "1 <= i <= n && i <= j <= n";
  // Figure 1: the projection of b splinters.
  const char *Figure1 = "exists(b: 0 <= 3*b - a <= 7 && 1 <= a - 2*b <= 5)";
  // Adjacent intervals: makeDisjoint's coalesce merges them.
  const char *Adjacent = "1 <= i <= 5 || 6 <= i <= 10";
  // bench_pipeline's interval unions at scale 2: the clause index rejects
  // some coalesce pairs without an Omega call.
  const char *Unions = "(1 <= i <= 10 || 13 <= i <= 22) && "
                       "(1 <= j <= 10 || 13 <= j <= 22) && "
                       "i + j <= 24 && 2 | i + j";
  const char *TwoClauses = "1 <= i <= 10 || 20 <= i <= 24";
  const char *Dense = "0 <= i <= 9 && 0 <= j <= i";
  using S = PipelineStatsSnapshot;
  const Row Rows[] = {
      {"FeasibilityTests", &S::FeasibilityTests, Triangle, {"i", "j"}},
      {"ProjectionCalls", &S::ProjectionCalls, Figure1, {"a"}},
      {"ClausesSimplified", &S::ClausesSimplified, Triangle, {"i", "j"}},
      {"SplintersGenerated", &S::SplintersGenerated, Figure1, {"a"}},
      {"CacheHits", &S::CacheHits, Triangle, {"i", "j"}, BackendKind::Pugh,
       "", Prep::Warm},
      {"CacheMisses", &S::CacheMisses, Triangle, {"i", "j"}},
      {"CacheEvictions", &S::CacheEvictions, Figure1, {"a"},
       BackendKind::Pugh, "", Prep::TinyCache},
      {"CoalescePairs", &S::CoalescePairs, Adjacent, {"i"}},
      {"CoalescePrefiltered", &S::CoalescePrefiltered, Unions, {"i", "j"}},
      {"CoalesceMerges", &S::CoalesceMerges, Adjacent, {"i"}},
      {"BudgetTrips", &S::BudgetTrips, TwoClauses, {"i"}, BackendKind::Pugh,
       "clauses=1"},
      {"DegradedQueries", &S::DegradedQueries, TwoClauses, {"i"},
       BackendKind::Pugh, "clauses=1"},
      {"AutomatonDfaStates", &S::AutomatonDfaStates, Dense, {"i", "j"},
       BackendKind::Automaton},
      {"AutomatonProductStates", &S::AutomatonProductStates, Dense,
       {"i", "j"}, BackendKind::Automaton},
      {"AutomatonTransitions", &S::AutomatonTransitions, Dense, {"i", "j"},
       BackendKind::Automaton},
      {"EnumeratedPoints", &S::EnumeratedPoints, Dense, {"i", "j"},
       BackendKind::Enumerate},
      // Auto picks the automaton, which refuses the wide coefficient.
      {"BackendFallbacks", &S::BackendFallbacks,
       "17592186044417*i >= 0 && 0 <= i <= 1", {"i"}, BackendKind::Auto},
      // 2^70 does not fit BigInt's inline form.
      {"BigIntSpills", &S::BigIntSpills, "1 <= i <= 1180591620717411303424",
       {"i"}},
      {"BigIntFastOps", &S::BigIntFastOps, Triangle, {"i", "j"}},
      {"BigIntSlowOps", &S::BigIntSlowOps, "1 <= i <= 1180591620717411303424",
       {"i"}},
      {"ExprTermsInline", &S::ExprTermsInline, Triangle, {"i", "j"}},
      // Six terms: more than an expression's four inline slots.
      {"ExprTermsSpilled", &S::ExprTermsSpilled, "0 <= a <= b + c + d + e + f",
       {"a"}},
  };
  // Every field has exactly one row: a new counter needs a row here.
  constexpr size_t NumRows = sizeof(Rows) / sizeof(Rows[0]);
  static_assert(sizeof(PipelineStatsSnapshot) == NumRows * sizeof(uint64_t),
                "PipelineStatsSnapshot gained or lost a field; update Rows");
  std::set<std::string> Fields;
  for (const Row &Rw : Rows)
    Fields.insert(Rw.Field);
  EXPECT_EQ(Fields.size(), NumRows);

  for (const Row &Rw : Rows) {
    SCOPED_TRACE(std::string(Rw.Field) + ": " + Rw.Text);
    ParseResult R = parseFormula(Rw.Text);
    ASSERT_TRUE(R) << R.Error;
    CountOptions CO;
    CO.Backend = Rw.Backend;
    CO.CollectStats = true;
    CO.CountArithOps = true;
    if (*Rw.Budget) {
      Result<EffortBudget> B = EffortBudget::parse(Rw.Budget);
      ASSERT_TRUE(B.ok());
      CO.Budget = *B;
    }
    clearConjunctCache();
    resetWildcardState();
    const size_t SavedCapacity = conjunctCacheCapacity();
    if (Rw.Setup == Prep::TinyCache) {
      // The query-level capacity only grows the shared cache, so shrink it
      // directly.
      configureConjunctCache(1);
      CO.CacheCapacity = 1;
    }
    if (Rw.Setup == Prep::Warm)
      (void)countSolutions(*R.Value, Rw.Vars, CO);
    const PipelineStatsSnapshot Before = snapshotPipelineStats();
    CountResult CR = countSolutions(*R.Value, Rw.Vars, CO);
    const PipelineStatsSnapshot After = snapshotPipelineStats();
    if (Rw.Setup == Prep::TinyCache)
      configureConjunctCache(SavedCapacity);
    EXPECT_NE(CR.Status, CountStatus::Error) << CR.Err.toString();
    const uint64_t Delta = CR.Stats.*Rw.Member;
    EXPECT_GT(Delta, 0u) << Rw.Field << " did not move";
    EXPECT_EQ(After.*Rw.Member - Before.*Rw.Member, Delta)
        << Rw.Field << " folded a different amount into the globals";
  }
}

TEST(QueryApi, StatsFoldIntoEnclosingCollector) {
  // A tool- or server-level context with a stats block sees the work of
  // queries nested beneath it — per-query isolation must not hide work
  // from aggregate observability.
  ParseResult R = parseFormula("1 <= i <= n && i <= j <= n");
  ASSERT_TRUE(R) << R.Error;
  VarSet Vars{"i", "j"};

  QueryStatsBlock Outer;
  QueryScope Scope;
  Scope.context().Stats = &Outer;

  clearConjunctCache();
  resetWildcardState();
  CountOptions CO;
  CO.CollectStats = true;
  CountResult CR = countSolutions(*R.Value, Vars, CO);
  EXPECT_GT(CR.Stats.FeasibilityTests, 0u);
  EXPECT_EQ(snapshotQueryStats(Outer).FeasibilityTests,
            CR.Stats.FeasibilityTests)
      << "per-query block did not fold into the enclosing collector";
}

TEST(QueryApi, BudgetTripUnderPinnedDisjunctRestoresContext) {
  // Figure 1's clause, projected inside a forEachDisjunct item: the
  // projection runs under a memo pin, and a one-bit coefficient budget
  // trips inside it.  Unwinding through the pin and the item must leave
  // the enclosing context exactly as it was.
  ParseResult R = parseFormula("0 <= 3*b - a <= 7 && 1 <= a - 2*b <= 5");
  ASSERT_TRUE(R) << R.Error;
  std::vector<Conjunct> D = simplify(*R.Value);
  ASSERT_EQ(D.size(), 1u);
  clearConjunctCache();
  resetWildcardState();

  const QueryContext *Root = &activeQueryContext();
  {
    QueryStatsBlock Block;
    EffortBudget Tiny;
    Tiny.MaxCoefficientBits = 1;
    QueryScope Enclosing(Tiny, NamingFrame("q", 0));
    Enclosing.context().Stats = &Block;
    const QueryContext *Ctx = &activeQueryContext();
    BudgetState *Budget = activeBudget();
    NamingFrame *Frame = Ctx->Naming;
    ASSERT_NE(Frame, nullptr);
    (void)freshWildcardId();
    const unsigned Counter = Frame->Counter;

    std::string Where;
    try {
      forEachDisjunct(2, [&](size_t) { (void)projectVars(D[0], {"b"}); });
      ADD_FAILURE() << "expected BudgetExceeded";
    } catch (const BudgetExceeded &E) {
      Where = E.Where;
    }
    EXPECT_EQ(Where, "projection");
    EXPECT_EQ(&activeQueryContext(), Ctx);
    EXPECT_EQ(activeBudget(), Budget);
    EXPECT_TRUE(Budget->tripped());
    EXPECT_EQ(activeQueryContext().Naming, Frame);
    EXPECT_EQ(activeQueryContext().pinDepth(), 0u);
    EXPECT_EQ(activeQueryContext().Stats, &Block);
    // The item and the pin minted in their own frames, not in this one.
    EXPECT_EQ(Frame->Counter, Counter);
    EXPECT_EQ(Block.Pipeline.BudgetTrips.load(), 1u);
  }
  EXPECT_EQ(&activeQueryContext(), Root);
  EXPECT_EQ(activeBudget(), nullptr);
  EXPECT_EQ(activeQueryContext().Naming, nullptr);
}

TEST(QueryApi, BudgetOnlyChildSharesNamingFrame) {
  // A child that replaces only the budget (the degraded passes, omegad's
  // parse) mints in its parent's frame: a copied counter would hand out
  // "$qx1" twice within one query and let two wildcards capture each other.
  EffortBudget Pass;
  Pass.MaxDnfClauses = 64;
  QueryScope Query(NamingFrame("q", 0));
  const VarId First = freshWildcardId();
  VarId Second;
  {
    QueryScope Child(Pass);
    Second = freshWildcardId();
  }
  const VarId Third = freshWildcardId();
  EXPECT_EQ(varName(First), "$qx0");
  EXPECT_EQ(varName(Second), "$qx1");
  EXPECT_EQ(varName(Third), "$qx2");
}

TEST(QueryApi, CountBatchIsolatesStatsPerElement) {
  // Three queries of very different cost in one batch: each result's stats
  // delta must cover exactly its own query.  The two identical bookend
  // queries pin that: with the cache cleared between nothing, the third
  // query hits what the first populated, so equality of the *first* and a
  // solo rerun (plus first > third misses) proves isolation better than
  // any smoke check.
  ParseResult Small = parseFormula("1 <= i <= 4");
  ParseResult Big = parseFormula("1 <= i <= n && i <= j <= n && 2*i <= 3*j");
  ASSERT_TRUE(Small) << Small.Error;
  ASSERT_TRUE(Big) << Big.Error;

  std::vector<CountQuery> Queries(3);
  Queries[0].F = *Big.Value;
  Queries[0].Vars = {"i", "j"};
  Queries[0].Opts.CollectStats = true;
  Queries[1].F = *Small.Value;
  Queries[1].Vars = {"i"};
  Queries[1].Opts.CollectStats = true;
  Queries[2] = Queries[0];

  clearConjunctCache();
  resetWildcardState();
  std::vector<CountResult> Results = countBatch(Queries);
  ASSERT_EQ(Results.size(), 3u);
  for (const CountResult &CR : Results)
    EXPECT_TRUE(CR.exact()) << CR.Err.toString();

  // Element-wise answers match solo runs.
  clearConjunctCache();
  resetWildcardState();
  CountResult Solo = countSolutions(*Big.Value, {"i", "j"}, Queries[0].Opts);
  EXPECT_EQ(Results[0].Value.toString(), Solo.Value.toString());
  EXPECT_EQ(Results[2].Value.toString(), Solo.Value.toString());

  // Stats are per element: the big queries did strictly more work than the
  // tiny one, and the first big query's delta equals the solo run's (the
  // small query in between contributed nothing to it).
  EXPECT_EQ(Results[0].Stats.FeasibilityTests, Solo.Stats.FeasibilityTests);
  EXPECT_LT(Results[1].Stats.FeasibilityTests,
            Results[0].Stats.FeasibilityTests);
  // The third element re-ran the same formula against the batch-warm cache:
  // its misses cannot exceed the cold first element's.
  EXPECT_LE(Results[2].Stats.CacheMisses, Results[0].Stats.CacheMisses);
}

TEST(QueryApi, TraceHandleCapturesTheQuery) {
  ParseResult R = parseFormula(
      "exists(b: 0 <= 3*b - a <= 7 && 1 <= a - 2*b <= 5)");
  ASSERT_TRUE(R) << R.Error;
  CountOptions CO;
  CO.CollectTrace = true;
  clearConjunctCache();
  resetWildcardState();
  CountResult CR = countSolutions(*R.Value, VarSet{"a"}, CO);
  EXPECT_TRUE(CR.exact());
  ASSERT_TRUE(CR.Trace);
  EXPECT_FALSE(tracingEnabled()) << "query left the process tracing";
  EXPECT_FALSE(CR.Trace->Spans.empty());
  bool SawSimplify = false;
  for (const TraceSpanRecord &S : CR.Trace->Spans)
    SawSimplify |= std::string(S.Name) == "simplify";
  EXPECT_TRUE(SawSimplify);

  // Without the flag there is no handle and no session left behind.
  CountOptions Off;
  CountResult Plain = countSolutions(*R.Value, VarSet{"a"}, Off);
  EXPECT_FALSE(Plain.Trace);
  EXPECT_FALSE(tracingEnabled());
}

TEST(QueryApi, OutcomeMapsStatusAndErrors) {
  ParseResult R = parseFormula("1 <= i <= 4");
  ASSERT_TRUE(R) << R.Error;
  CountResult CR = countSolutions(*R.Value, VarSet{"i"}, CountOptions{});
  EXPECT_EQ(CR.outcome(), QueryOutcome::Exact);
  EXPECT_EQ(queryOutcomeExitCode(CR.outcome()), 0);

  // Budget exhaustion with bounds is an answer; the outcome says so.
  ParseResult Two = parseFormula("1 <= i <= 10 || 20 <= i <= 24");
  ASSERT_TRUE(Two) << Two.Error;
  CountOptions CO;
  auto Budget = EffortBudget::parse("clauses=1");
  ASSERT_TRUE(Budget.ok());
  CO.Budget = *Budget;
  CountResult Bounded = countSolutions(*Two.Value, VarSet{"i"}, CO);
  ASSERT_EQ(Bounded.Status, CountStatus::Bounded);
  EXPECT_EQ(Bounded.outcome(), QueryOutcome::Bounded);
  EXPECT_EQ(queryOutcomeExitCode(Bounded.outcome()), 0);

  // Transient service conditions sit in their own exit-code band.
  EXPECT_EQ(queryOutcomeExitCode(QueryOutcome::Overloaded), 75);
  EXPECT_EQ(queryOutcomeExitCode(QueryOutcome::ShuttingDown), 75);
  EXPECT_EQ(queryOutcomeExitCode(QueryOutcome::MalformedFrame), 1);
}

} // namespace
