//===- tests/AffineExprTest.cpp - AffineExpr & Constraint tests ----------===//

#include "presburger/AffineExpr.h"
#include "presburger/Constraint.h"

#include <gtest/gtest.h>

using namespace omega;

namespace {

AffineExpr var(const char *N) { return AffineExpr::variable(N); }

TEST(AffineExprTest, BasicAlgebra) {
  AffineExpr E = var("i") * BigInt(2) + var("j") - AffineExpr(3);
  EXPECT_EQ(E.coeff("i").toInt64(), 2);
  EXPECT_EQ(E.coeff("j").toInt64(), 1);
  EXPECT_EQ(E.coeff("k").toInt64(), 0);
  EXPECT_EQ(E.constant().toInt64(), -3);
  EXPECT_EQ(E.numVars(), 2u);
  EXPECT_FALSE(E.isConstant());
  AffineExpr Neg = -E;
  EXPECT_EQ(Neg.coeff("i").toInt64(), -2);
  EXPECT_EQ(Neg.constant().toInt64(), 3);
  EXPECT_EQ(E + Neg, AffineExpr(0));
  EXPECT_TRUE((E - E).isZero());
}

TEST(AffineExprTest, ZeroCoefficientsNotStored) {
  AffineExpr E = var("i") + var("j");
  E -= var("j");
  EXPECT_EQ(E.numVars(), 1u);
  EXPECT_FALSE(E.mentions("j"));
  E *= BigInt(0);
  EXPECT_TRUE(E.isZero());
  EXPECT_EQ(E.numVars(), 0u);
}

TEST(AffineExprTest, Substitute) {
  // i := 2k + 1 in (3i + j).
  AffineExpr E = var("i") * BigInt(3) + var("j");
  E.substitute("i", var("k") * BigInt(2) + AffineExpr(1));
  EXPECT_EQ(E.coeff("k").toInt64(), 6);
  EXPECT_EQ(E.coeff("j").toInt64(), 1);
  EXPECT_EQ(E.constant().toInt64(), 3);
  EXPECT_FALSE(E.mentions("i"));
  // Substituting an absent variable is a no-op.
  AffineExpr F = var("x");
  F.substitute("y", AffineExpr(5));
  EXPECT_EQ(F, var("x"));
}

TEST(AffineExprTest, EvaluateAndGcd) {
  AffineExpr E = var("i") * BigInt(4) - var("j") * BigInt(6) + AffineExpr(9);
  Assignment A{{"i", BigInt(2)}, {"j", BigInt(1)}};
  EXPECT_EQ(E.evaluate(A).toInt64(), 11);
  EXPECT_EQ(E.coeffGcd().toInt64(), 2);
  EXPECT_EQ(AffineExpr(7).coeffGcd().toInt64(), 0);
}

TEST(AffineExprTest, RenameAndToString) {
  AffineExpr E = var("i") * BigInt(2) - var("j") - AffineExpr(5);
  E.renameVar("j", "m");
  EXPECT_TRUE(E.mentions("m"));
  EXPECT_FALSE(E.mentions("j"));
  EXPECT_EQ(E.toString(), "2*i - m - 5");
  EXPECT_EQ(AffineExpr(0).toString(), "0");
  EXPECT_EQ((-var("x")).toString(), "-x");
}

TEST(AffineExprTest, MatchLinearSameOppositeNone) {
  const AffineExpr E =
      BigInt(2) * var("i") - BigInt(3) * var("j") + AffineExpr(4);
  // Constants never take part.
  EXPECT_EQ(E.matchLinear(BigInt(2) * var("i") - BigInt(3) * var("j") -
                          AffineExpr(9)),
            LinearMatch::Same);
  EXPECT_EQ(E.matchLinear(-E), LinearMatch::Opposite);
  EXPECT_EQ(E.matchLinear(-E + AffineExpr(100)), LinearMatch::Opposite);
  EXPECT_EQ((-E).matchLinear(E), LinearMatch::Opposite);
  // Mixed signs: equal on one term, negated on the other.
  EXPECT_EQ(E.matchLinear(BigInt(2) * var("i") + BigInt(3) * var("j")),
            LinearMatch::None);
  // Scaled parts are not Same (normalization makes them so first).
  EXPECT_EQ(E.matchLinear(BigInt(2) * E), LinearMatch::None);
}

TEST(AffineExprTest, MatchLinearDifferentSupports) {
  const AffineExpr E = var("i") + var("j");
  EXPECT_EQ(E.matchLinear(var("i")), LinearMatch::None);
  EXPECT_EQ(E.matchLinear(var("i") + var("j") + var("k")), LinearMatch::None);
  EXPECT_EQ(E.matchLinear(var("i") + var("k")), LinearMatch::None);
  EXPECT_EQ(E.matchLinear(-var("i") - var("k")), LinearMatch::None);
  EXPECT_EQ(E.matchLinear(AffineExpr(0)), LinearMatch::None);
}

TEST(AffineExprTest, MatchLinearZeroVariableExpressions) {
  // Both parts are zero: equal and negated at once; reported as Same.
  EXPECT_EQ(AffineExpr(3).matchLinear(AffineExpr(-7)), LinearMatch::Same);
  EXPECT_EQ(AffineExpr(0).matchLinear(AffineExpr(0)), LinearMatch::Same);
  EXPECT_EQ(AffineExpr(3).matchLinear(var("i")), LinearMatch::None);
}

TEST(AffineExprTest, MatchLinearSpilledCoefficients) {
  const BigInt Big("4611686018427387904"); // 2^62: limb form.
  // -(2^128 + 1): five limbs.
  const BigInt Huge("-340282366920938463463374607431768211457");
  ASSERT_FALSE(Big.isSmallRep());
  const AffineExpr E = Big * var("i") + Huge * var("j") + AffineExpr(1);
  EXPECT_EQ(E.matchLinear(Big * var("i") + Huge * var("j")),
            LinearMatch::Same);
  EXPECT_EQ(E.matchLinear(-Big * var("i") - Huge * var("j")),
            LinearMatch::Opposite);
  // One limb off in one coefficient.
  EXPECT_EQ(E.matchLinear((Big + BigInt(1)) * var("i") + Huge * var("j")),
            LinearMatch::None);
  // 2^62 - 1 is the largest inline value; it never matches 2^62.
  const BigInt Edge("4611686018427387903");
  ASSERT_TRUE(Edge.isSmallRep());
  EXPECT_EQ((Edge * var("i")).matchLinear(Big * var("i")), LinearMatch::None);
  EXPECT_EQ((Edge * var("i")).matchLinear(-Big * var("i")), LinearMatch::None);
  EXPECT_EQ((Edge * var("i")).matchLinear(-Edge * var("i")),
            LinearMatch::Opposite);
}

TEST(ConstraintTest, HoldsSemantics) {
  Assignment A{{"x", BigInt(6)}, {"y", BigInt(2)}};
  EXPECT_TRUE(Constraint::eq(var("x") - var("y") * BigInt(3)).holds(A));
  EXPECT_TRUE(Constraint::ge(var("x") - AffineExpr(6)).holds(A));
  EXPECT_FALSE(Constraint::ge(var("y") - var("x")).holds(A));
  EXPECT_TRUE(Constraint::stride(BigInt(3), var("x")).holds(A));
  EXPECT_FALSE(Constraint::stride(BigInt(4), var("x")).holds(A));
  EXPECT_TRUE(Constraint::lt(var("y"), var("x")).holds(A));
  EXPECT_FALSE(Constraint::lt(var("x"), var("x")).holds(A));
}

TEST(ConstraintTest, NormalizeEquality) {
  // 2x - 4 = 0 -> x - 2 = 0.
  Constraint C = Constraint::eq(var("x") * BigInt(2) - AffineExpr(4));
  EXPECT_TRUE(C.normalize());
  EXPECT_EQ(C.expr().coeff("x").toInt64(), 1);
  EXPECT_EQ(C.expr().constant().toInt64(), -2);
  // 2x + 1 = 0 is infeasible over integers.
  Constraint Bad = Constraint::eq(var("x") * BigInt(2) + AffineExpr(1));
  EXPECT_FALSE(Bad.normalize());
}

TEST(ConstraintTest, NormalizeTightensInequality) {
  // 2x - 5 >= 0 tightens to x - 3 >= 0 (x >= 2.5 means x >= 3).
  Constraint C = Constraint::ge(var("x") * BigInt(2) - AffineExpr(5));
  EXPECT_TRUE(C.normalize());
  EXPECT_EQ(C.expr().coeff("x").toInt64(), 1);
  EXPECT_EQ(C.expr().constant().toInt64(), -3);
  // Constant-only: 0 >= 0 fine, -1 >= 0 infeasible.
  EXPECT_TRUE(Constraint::ge(AffineExpr(0)).normalize());
  EXPECT_FALSE(Constraint::ge(AffineExpr(-1)).normalize());
}

TEST(ConstraintTest, NormalizeStride) {
  // 3 | 6x + 7 -> 3 | 1 (after reducing coefficients) -> infeasible.
  Constraint C =
      Constraint::stride(BigInt(3), var("x") * BigInt(6) + AffineExpr(7));
  EXPECT_FALSE(C.normalize());
  // 3 | 4x + 7 -> 3 | x + 1.
  Constraint D =
      Constraint::stride(BigInt(3), var("x") * BigInt(4) + AffineExpr(7));
  EXPECT_TRUE(D.normalize());
  EXPECT_EQ(D.expr().coeff("x").toInt64(), 1);
  EXPECT_EQ(D.expr().constant().toInt64(), 1);
  // 1 | anything is trivially true.
  Constraint E = Constraint::stride(BigInt(1), var("x") * BigInt(9));
  EXPECT_TRUE(E.normalize());
  EXPECT_TRUE(E.isTriviallyTrue());
}

TEST(ConstraintTest, TrivialityChecks) {
  EXPECT_TRUE(Constraint::ge(AffineExpr(3)).isTriviallyTrue());
  EXPECT_TRUE(Constraint::ge(AffineExpr(-3)).isTriviallyFalse());
  EXPECT_TRUE(Constraint::eq(AffineExpr(0)).isTriviallyTrue());
  EXPECT_TRUE(Constraint::eq(AffineExpr(1)).isTriviallyFalse());
  EXPECT_FALSE(Constraint::ge(var("x")).isTriviallyTrue());
  EXPECT_FALSE(Constraint::ge(var("x")).isTriviallyFalse());
  EXPECT_TRUE(Constraint::stride(BigInt(5), AffineExpr(10)).isTriviallyTrue());
  EXPECT_TRUE(Constraint::stride(BigInt(5), AffineExpr(7)).isTriviallyFalse());
}

} // namespace
