//===- tests/StatusBudgetTest.cpp - Error channel & effort budgets -------===//
//
// Covers support/Status.h (Error, Result), support/Budget.h (parse,
// relaxed, trip/cancellation semantics), the Formula::tryEvaluate typed
// error for quantifiers, and the §4.6 degradation contract of
// countSolutionsBudgeted: exact under a generous budget, certified
// lower/upper bounds under a tiny one, identical across worker counts.
//
//===----------------------------------------------------------------------===//

#include "counting/Summation.h"
#include "presburger/Parser.h"
#include "support/Budget.h"
#include "support/QueryContext.h"
#include "support/Status.h"

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <thread>

using namespace omega;

namespace {

//===----------------------------------------------------------------------===//
// Error / Result
//===----------------------------------------------------------------------===//

TEST(StatusTest, ErrorToString) {
  Error E{ErrorKind::Parse, "parser", "unexpected token", "offset 12"};
  EXPECT_EQ(E.toString(),
            "parse error in parser at offset 12: unexpected token");
  Error NoWhere{ErrorKind::Internal, "", "impossible state", ""};
  EXPECT_EQ(NoWhere.toString(), "internal error: impossible state");
  Error NoLoc{ErrorKind::BudgetExhausted, "projection", "splinters=8", ""};
  EXPECT_EQ(NoLoc.toString(),
            "budget exhausted in projection: splinters=8");
}

TEST(StatusTest, ResultRoundTrip) {
  Result<int> Ok(42);
  ASSERT_TRUE(Ok.ok());
  EXPECT_EQ(*Ok, 42);
  EXPECT_EQ(Ok.valueOr(-1), 42);

  Result<int> Bad(Error{ErrorKind::InvalidInput, "test", "nope", ""});
  EXPECT_FALSE(Bad.ok());
  EXPECT_FALSE(static_cast<bool>(Bad));
  EXPECT_EQ(Bad.valueOr(-1), -1);
  EXPECT_EQ(Bad.error().Kind, ErrorKind::InvalidInput);
  EXPECT_EQ(Bad.error().Message, "nope");
}

//===----------------------------------------------------------------------===//
// EffortBudget parsing and arithmetic
//===----------------------------------------------------------------------===//

TEST(BudgetTest, ParseFull) {
  Result<EffortBudget> B =
      EffortBudget::parse("bits=64,splinters=8,clauses=128,depth=16,ms=500");
  ASSERT_TRUE(B.ok());
  EXPECT_EQ(B->MaxCoefficientBits, 64u);
  EXPECT_EQ(B->MaxSplintersPerElimination, 8u);
  EXPECT_EQ(B->MaxDnfClauses, 128u);
  EXPECT_EQ(B->MaxRecursionDepth, 16u);
  EXPECT_EQ(B->DeadlineMs, 500u);
  EXPECT_EQ(B->toString(), "bits=64,splinters=8,clauses=128,depth=16,ms=500");
}

TEST(BudgetTest, ParseSubsetAndEmpty) {
  Result<EffortBudget> B = EffortBudget::parse("clauses=4");
  ASSERT_TRUE(B.ok());
  EXPECT_EQ(B->MaxDnfClauses, 4u);
  EXPECT_FALSE(B->unlimited());
  EXPECT_EQ(B->toString(), "clauses=4");

  Result<EffortBudget> Empty = EffortBudget::parse("");
  ASSERT_TRUE(Empty.ok());
  EXPECT_TRUE(Empty->unlimited());
  EXPECT_EQ(Empty->toString(), "unlimited");
}

TEST(BudgetTest, ParseRejectsMalformed) {
  EXPECT_FALSE(EffortBudget::parse("frobs=3").ok());
  EXPECT_FALSE(EffortBudget::parse("splinters").ok());
  EXPECT_FALSE(EffortBudget::parse("splinters=").ok());
  EXPECT_FALSE(EffortBudget::parse("splinters=abc").ok());
  EXPECT_FALSE(EffortBudget::parse("splinters=99999999999999999999999").ok());
  // Diagnostics carry the offending offset.
  Result<EffortBudget> Bad = EffortBudget::parse("bits=8,frobs=3");
  ASSERT_FALSE(Bad.ok());
  EXPECT_EQ(Bad.error().Kind, ErrorKind::InvalidInput);
  EXPECT_NE(Bad.error().Location.find("offset 7"), std::string::npos);
}

TEST(BudgetTest, RelaxedScalesOnlySetKnobs) {
  EffortBudget B;
  B.MaxDnfClauses = 4;
  EffortBudget R = B.relaxed(8);
  EXPECT_EQ(R.MaxDnfClauses, 32u);
  EXPECT_EQ(R.MaxSplintersPerElimination, 0u); // still unlimited
  EXPECT_EQ(R.MaxRecursionDepth, 0u);
}

//===----------------------------------------------------------------------===//
// Trip and cancellation semantics
//===----------------------------------------------------------------------===//

TEST(BudgetTest, ChargeTripsAndSetsToken) {
  EffortBudget B;
  B.MaxSplintersPerElimination = 2;
  QueryScope Scope(B);
  EXPECT_NO_THROW(chargeSplinters(2, "test"));
  try {
    chargeSplinters(3, "test");
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded &E) {
    EXPECT_EQ(E.Limit, "splinters=2");
    EXPECT_EQ(E.Where, "test");
    EXPECT_EQ(E.toError().Kind, ErrorKind::BudgetExhausted);
  }
  // The state is now tripped: every later checkpoint bails, even ones
  // that would be within their own limit.
  EXPECT_TRUE(activeBudget()->tripped());
  EXPECT_THROW(budgetCheckpoint("elsewhere"), BudgetExceeded);
  // A later checkpoint reports the limit that tripped the state, not a
  // bare "cancelled".
  try {
    budgetCheckpoint("elsewhere");
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded &E) {
    EXPECT_EQ(E.Limit, "splinters=2");
    EXPECT_EQ(E.Where, "elsewhere");
  }
  EXPECT_THROW(chargeSplinters(1, "elsewhere"), BudgetExceeded);
}

TEST(BudgetTest, CheckpointIsNoOpWithoutBudget) {
  EXPECT_NO_THROW(budgetCheckpoint("test"));
  EXPECT_NO_THROW(chargeClauses(1u << 20, "test"));
  EXPECT_NO_THROW(chargeDepth(1u << 20, "test"));
}

TEST(BudgetTest, DeadlineTripsAfterExpiry) {
  EffortBudget B;
  B.DeadlineMs = 1;
  QueryScope Scope(B);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_THROW(budgetCheckpoint("test"), BudgetExceeded);
}

//===----------------------------------------------------------------------===//
// Formula::tryEvaluate typed error (satellite: no abort on quantifiers)
//===----------------------------------------------------------------------===//

TEST(StatusTest, TryEvaluateRejectsQuantifiers) {
  ParseResult R = parseFormula("exists(k: i = 2*k) && 1 <= i <= 8");
  ASSERT_TRUE(R);
  Assignment At{{"i", BigInt(4)}};
  Result<bool> V = R.Value->tryEvaluate(At);
  ASSERT_FALSE(V.ok());
  EXPECT_EQ(V.error().Kind, ErrorKind::Unsupported);
  EXPECT_NE(V.error().Message.find("quantifier"), std::string::npos);

  // Quantifier-free formulas evaluate normally through the same channel.
  ParseResult QF = parseFormula("1 <= i <= 8");
  ASSERT_TRUE(QF);
  Result<bool> B = QF.Value->tryEvaluate(At);
  ASSERT_TRUE(B.ok());
  EXPECT_TRUE(*B);
}

//===----------------------------------------------------------------------===//
// Budgeted counting: the degradation contract
//===----------------------------------------------------------------------===//

Formula parseOk(const char *Text) {
  ParseResult R = parseFormula(Text);
  EXPECT_TRUE(R) << R.Error;
  return *R.Value;
}

TEST(BudgetedCountTest, GenerousBudgetStaysExact) {
  EffortBudget B;
  B.MaxDnfClauses = 1024;
  B.MaxRecursionDepth = 64;
  BudgetedCount BC = countSolutionsBudgeted(
      parseOk("1 <= i <= 10 || 20 <= i <= 24"), {"i"}, B);
  EXPECT_EQ(BC.Status, CountStatus::Exact);
  EXPECT_TRUE(BC.TrippedLimit.empty());
  EXPECT_EQ(BC.Value.evaluate({}), Rational(15));
}

TEST(BudgetedCountTest, TinyBudgetYieldsCertifiedBounds) {
  // clauses=1 trips as soon as the disjunction becomes a 2-clause DNF; the
  // relaxed (x8) degraded passes then complete.  True count is 15.
  EffortBudget B;
  B.MaxDnfClauses = 1;
  BudgetedCount BC = countSolutionsBudgeted(
      parseOk("1 <= i <= 10 || 20 <= i <= 24"), {"i"}, B);
  ASSERT_EQ(BC.Status, CountStatus::Bounded);
  EXPECT_EQ(BC.TrippedLimit, "clauses=1");
  ASSERT_FALSE(BC.Upper.isUnbounded());
  Rational Lo = BC.Lower.evaluate({});
  Rational Hi = BC.Upper.evaluate({});
  EXPECT_LE(Lo, Rational(15));
  EXPECT_LE(Rational(15), Hi);
  // Non-strided rectangles: dark and real shadows are both exact here.
  EXPECT_EQ(Lo, Rational(15));
  EXPECT_EQ(Hi, Rational(15));
}

TEST(BudgetedCountTest, SymbolicBoundsBracketTruth) {
  // Parametric query degraded by a depth cap; check the bounds bracket the
  // exact symbolic count at several symbol values.
  const char *Text = "(1 <= i <= n && 2*i <= 3*j && 1 <= j <= n)"
                     " || (n < i <= 2*n && j = i)";
  PiecewiseValue Exact = countSolutions(parseOk(Text), {"i", "j"});
  ASSERT_FALSE(Exact.isUnbounded());

  EffortBudget B;
  B.MaxRecursionDepth = 1;
  BudgetedCount BC = countSolutionsBudgeted(parseOk(Text), {"i", "j"}, B);
  ASSERT_EQ(BC.Status, CountStatus::Bounded);
  for (int64_t N : {0, 1, 3, 7, 11}) {
    Assignment At{{"n", BigInt(N)}};
    Rational True = Exact.evaluate(At);
    EXPECT_LE(BC.Lower.evaluate(At), True) << "n=" << N;
    if (!BC.Upper.isUnbounded())
      EXPECT_LE(True, BC.Upper.evaluate(At)) << "n=" << N;
  }
}

TEST(BudgetedCountTest, DegradedOutputIdenticalAcrossRuns) {
  // The degraded passes run in naming frames of their own, so a second run
  // prints the same bounds although the process-wide wildcard counters
  // have moved on since the first.
  const char *Text = "(1 <= i <= n && 2*i <= 3*j && 1 <= j <= n)"
                     " || (n < i <= 2*n && j = i)"
                     " || (1 <= i <= 4 && 5 <= j <= 9)";
  EffortBudget B;
  B.MaxRecursionDepth = 1;
  std::vector<std::string> Renderings;
  for (int Run = 0; Run < 2; ++Run) {
    BudgetedCount BC = countSolutionsBudgeted(parseOk(Text), {"i", "j"}, B);
    EXPECT_EQ(BC.Status, CountStatus::Bounded) << "run " << Run;
    std::ostringstream OS;
    OS << BC.TrippedLimit << " | " << BC.Lower << " | " << BC.Upper;
    Renderings.push_back(OS.str());
  }
  EXPECT_EQ(Renderings[0], Renderings[1]);
}

TEST(BudgetedCountTest, ParseLiteralGuardUnderBudget) {
  // A budget's bits= knob rejects absurd literals at parse time with a
  // positioned diagnostic instead of a throw.
  EffortBudget B;
  B.MaxCoefficientBits = 64;
  QueryScope Scope(B);
  ParseResult R = parseFormula(
      "1 <= i <= 340282366920938463463374607431768211456");
  EXPECT_FALSE(R);
  EXPECT_NE(R.Error.find("bits=64"), std::string::npos);
}

} // namespace
