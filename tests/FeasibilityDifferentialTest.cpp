//===- tests/FeasibilityDifferentialTest.cpp - feasible() vs enumeration -===//
//
// Seeded clauses rich in the shapes the feasibility engine folds before
// eliminating (parallel inequalities with the same or the opposite
// variable part, scaled copies that normalize onto them, windows of width
// -1, 0 and 1) plus equalities and strides, checked against brute-force
// box enumeration from baselines/Enumerator.h.  Every variable carries
// explicit bounds inside the box, so a clause is feasible iff the box
// holds a point.  The same clauses drive the redundancy entry points whose
// syntactic shortcuts share the linear-part comparison: implication of
// each extra constraint and aggressive redundancy removal.
//
//===----------------------------------------------------------------------===//

#include "baselines/Enumerator.h"
#include "omega/Omega.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

using namespace omega;

namespace {

constexpr int64_t BoxLo = -4, BoxHi = 4;
const char *const Names[] = {"fx", "fy", "fz"};

struct Case {
  Conjunct Bounds; ///< lo <= v <= hi for every variable.
  Conjunct Extra;  ///< The parallel pairs, equalities and strides.
  Conjunct all() const {
    Conjunct C = Bounds;
    C.addAll(Extra);
    return C;
  }
};

class Generator {
public:
  explicit Generator(unsigned Seed) : Rng(Seed) {}

  Case next() {
    Case C;
    for (const char *N : Names) {
      int64_t Lo = pick(BoxLo, 1);
      // One range in sixteen is empty.
      int64_t Hi = pick(0, 15) == 0 ? Lo - 1 : pick(Lo, BoxHi);
      C.Bounds.add(Constraint::ge(var(N) - AffineExpr(Lo)));
      C.Bounds.add(Constraint::ge(AffineExpr(Hi) - var(N)));
    }
    const int Parts = static_cast<int>(pick(1, 3));
    for (int P = 0; P < Parts; ++P)
      addShape(C.Extra, linearPart());
    return C;
  }

private:
  int64_t pick(int64_t Lo, int64_t Hi) {
    return std::uniform_int_distribution<int64_t>(Lo, Hi)(Rng);
  }
  static AffineExpr var(const char *N) { return AffineExpr::variable(N); }

  /// A nonzero variable part over one to three variables.
  AffineExpr linearPart() {
    AffineExpr E;
    while (E.isConstant())
      for (const char *N : Names)
        if (pick(0, 2) != 0)
          E += BigInt(pick(-3, 3)) * var(N);
    return E;
  }

  /// k*e + k*c + r with 0 <= r < k: normalizes back to e + c.
  AffineExpr scaled(const AffineExpr &E, int64_t C) {
    int64_t K = pick(1, 3);
    return BigInt(K) * E + AffineExpr(K * C + pick(0, K - 1));
  }

  void addShape(Conjunct &Out, const AffineExpr &E) {
    const int64_t C1 = pick(-3, 3);
    switch (pick(0, 4)) {
    case 0: // Same part, two constants.
      Out.add(Constraint::ge(scaled(E, C1)));
      Out.add(Constraint::ge(scaled(E, pick(-6, 6))));
      break;
    case 1: // Opposite parts: a window of width -1 .. 2 for e.
      Out.add(Constraint::ge(scaled(E, C1)));
      Out.add(Constraint::ge(scaled(-E, pick(-1, 2) - C1)));
      break;
    case 2: // Both: a window plus a looser (or tighter) parallel copy.
      Out.add(Constraint::ge(scaled(E, C1)));
      Out.add(Constraint::ge(scaled(-E, pick(-1, 3) - C1)));
      Out.add(Constraint::ge(scaled(E, C1 + pick(-2, 2))));
      break;
    case 3: // Equality, sometimes beside a bound on the same part.
      Out.add(Constraint::eq(E + AffineExpr(C1)));
      if (pick(0, 1))
        Out.add(Constraint::ge(scaled(-E, pick(-8, 8))));
      break;
    default: // Stride, beside a parallel bound.
      Out.add(Constraint::stride(BigInt(pick(2, 4)), E + AffineExpr(C1)));
      Out.add(Constraint::ge(scaled(E, pick(-4, 4))));
      break;
    }
  }

  std::mt19937_64 Rng;
};

VarSet allVars() { return VarSet{Names[0], Names[1], Names[2]}; }

/// Some point of the box satisfies \p F.
bool boxHasPoint(const Formula &F) {
  Assignment Values;
  return evaluateInBox(Formula::exists(allVars(), F), Values, BoxLo, BoxHi);
}

/// Restores the default conjunct cache.
struct CacheGuard {
  ~CacheGuard() {
    configureConjunctCache(size_t(1) << 14);
    clearConjunctCache();
  }
};

TEST(FeasibilityDifferential, FeasibleMatchesEnumeration) {
  CacheGuard Guard;
  Generator Gen(/*Seed=*/2024);
  int Feasible = 0;
  const int Cases = 400;
  for (int I = 0; I < Cases; ++I) {
    const Case C = Gen.next();
    const Conjunct All = C.all();
    SCOPED_TRACE("case " + std::to_string(I) + ": " + All.toString());
    const bool Want = boxHasPoint(Formula::fromConjunct(All));
    Feasible += Want;
    // The uncached path runs the engine on the clause as given; the cached
    // one on its canonical form, then once more from the cache.
    configureConjunctCache(0);
    EXPECT_EQ(feasible(All), Want) << "uncached";
    configureConjunctCache(size_t(1) << 14);
    EXPECT_EQ(feasible(All), Want) << "cache miss";
    EXPECT_EQ(feasible(All), Want) << "cache hit";
  }
  // The generator must exercise both answers.
  EXPECT_GT(Feasible, Cases / 5);
  EXPECT_LT(Feasible, Cases - Cases / 5);
}

TEST(FeasibilityDifferential, ImplicationMatchesEnumeration) {
  Generator Gen(/*Seed=*/77);
  for (int I = 0; I < 200; ++I) {
    const Case C = Gen.next();
    const std::vector<Constraint> &Ks = C.Extra.constraints();
    for (size_t K = 0; K < Ks.size(); ++K) {
      // The rest keeps every bound, so its points all lie in the box.
      Conjunct Rest = C.Bounds;
      for (size_t J = 0; J < Ks.size(); ++J)
        if (J != K)
          Rest.add(Ks[J]);
      SCOPED_TRACE("case " + std::to_string(I) + ": " + Rest.toString() +
                   " => " + Ks[K].toString());
      const bool Counterexample = boxHasPoint(Formula::conj(
          {Formula::fromConjunct(Rest),
           Formula::negation(Formula::atom(Ks[K]))}));
      EXPECT_EQ(impliesConstraint(Rest, Ks[K]), !Counterexample);
    }
  }
}

TEST(FeasibilityDifferential, RedundancyRemovalKeepsThePointSet) {
  Generator Gen(/*Seed=*/5);
  for (int I = 0; I < 200; ++I) {
    const Conjunct All = Gen.next().all();
    Conjunct Reduced = All;
    removeRedundant(Reduced, /*Aggressive=*/true);
    SCOPED_TRACE("case " + std::to_string(I) + ": " + All.toString() +
                 " reduced to " + Reduced.toString());
    // Sweep one step past the bounds so a wrongly dropped bound shows.
    const Formula F = Formula::fromConjunct(All);
    const Formula R = Formula::fromConjunct(Reduced);
    const Formula Differ = Formula::disj(
        {Formula::conj({F, Formula::negation(R)}),
         Formula::conj({R, Formula::negation(F)})});
    Assignment Values;
    EXPECT_FALSE(evaluateInBox(Formula::exists(allVars(), Differ), Values,
                               BoxLo - 1, BoxHi + 1));
  }
}

} // namespace
