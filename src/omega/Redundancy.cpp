//===- omega/Redundancy.cpp - Redundant constraints, implies, gist -------===//
//
// §2.3 and §2.4 of the paper: fast single-constraint redundancy tests, the
// complete feasibility-based test, implication checking, and the gist
// operator (gist P given Q is "what is interesting about P given Q").
//
//===----------------------------------------------------------------------===//

#include "omega/Omega.h"

#include "support/Error.h"

#include <algorithm>

using namespace omega;

namespace {

/// Returns the disjoint branches of the negation of a single constraint.
/// Ge e>=0 -> { -e-1>=0 }; Eq e=0 -> { e-1>=0, -e-1>=0 };
/// Stride m|e -> { m | e-r : r in 1..m-1 }  (§3.2).
std::vector<Constraint> negateConstraint(const Constraint &K) {
  switch (K.kind()) {
  case ConstraintKind::Ge:
    return {Constraint::ge(-K.expr() - AffineExpr(1))};
  case ConstraintKind::Eq:
    return {Constraint::ge(K.expr() - AffineExpr(1)),
            Constraint::ge(-K.expr() - AffineExpr(1))};
  case ConstraintKind::Stride: {
    std::vector<Constraint> Out;
    for (BigInt R(1); R < K.modulus(); ++R)
      Out.push_back(Constraint::stride(K.modulus(), K.expr() - AffineExpr(R)));
    return Out;
  }
  }
  fatalError("negateConstraint: unknown constraint kind");
}

/// Cheap sound infeasibility proof for Ctx ∧ B, used to skip full
/// feasibility tests: the conjunction is infeasible whenever a Ge/Eq
/// constraint of Ctx pairs with Ge B so their left-hand sides cancel to a
/// negative constant (e + c1 >= 0 and -e + c2 >= 0 force c1 + c2 >= 0).
/// The argument is pointwise, so wildcards in Ctx do not matter.  This is
/// the dominant shape in redundancy and coalescing work — the negation of
/// an implied bound almost always contradicts the parallel bound that
/// implies it — and each hit saves one Omega call.
bool contradictsSyntactically(const Conjunct &Ctx, const Constraint &B) {
  if (!B.isGe())
    return false;
  const BigInt &CB = B.expr().constant();
  for (const Constraint &K : Ctx.constraints()) {
    if (K.kind() == ConstraintKind::Stride)
      continue;
    const LinearMatch M = K.expr().matchLinear(B.expr());
    if (M == LinearMatch::None)
      continue;
    const BigInt &CK = K.expr().constant();
    // K + B is constant: opposite parts, or two constants.
    if ((M == LinearMatch::Opposite || B.expr().isConstant()) &&
        (CK + CB).sign() < 0)
      return true;
    // e = 0 also supplies -e >= 0; B - e constant-negative is the same
    // cancellation against that direction.
    if (K.isEq() && M == LinearMatch::Same && CB < CK)
      return true;
  }
  return false;
}

/// True iff Ctx ∧ ¬K is infeasible, i.e. Ctx implies K.
bool contextImplies(const Conjunct &Ctx, const Constraint &K) {
  for (const Constraint &Branch : negateConstraint(K)) {
    if (contradictsSyntactically(Ctx, Branch))
      continue; // Provably infeasible with zero Omega calls.
    Conjunct Test = Ctx;
    Test.add(Branch);
    if (feasible(Test))
      return false;
  }
  return true;
}

/// Cheap test: is \p A made redundant by \p B alone?  Only inequalities
/// with identical coefficient vectors are compared: e + c1 >= 0 is
/// redundant given e + c2 >= 0 when c2 <= c1.
bool singleConstraintRedundant(const Constraint &A, const Constraint &B) {
  return A.isGe() && B.isGe() &&
         A.expr().matchLinear(B.expr()) == LinearMatch::Same &&
         A.expr().constant() >= B.expr().constant();
}

} // namespace

void omega::removeRedundant(Conjunct &C, bool Aggressive) {
  std::vector<Constraint> &Ks = C.constraints();
  // Fast pass: drop any inequality made redundant by a single other
  // constraint (and exact duplicates of any kind).
  for (size_t I = 0; I < Ks.size();) {
    bool Drop = false;
    for (size_t J = 0; J < Ks.size() && !Drop; ++J) {
      if (I == J)
        continue;
      if (Ks[I] == Ks[J]) {
        Drop = J < I; // Keep the first copy.
        continue;
      }
      if (singleConstraintRedundant(Ks[I], Ks[J]))
        Drop = true;
    }
    if (Drop)
      Ks.erase(Ks.begin() + I);
    else
      ++I;
  }
  if (!Aggressive)
    return;
  // Complete pass: a constraint is redundant iff the rest plus its
  // negation is infeasible.  Greedy in order; each removal is final.
  for (size_t I = 0; I < Ks.size();) {
    if (!Ks[I].isGe()) {
      ++I; // Keep equalities and strides: they carry the clause's shape.
      continue;
    }
    Conjunct Rest;
    for (const std::string &W : C.wildcards())
      Rest.addWildcard(W);
    for (size_t J = 0; J < Ks.size(); ++J)
      if (J != I)
        Rest.add(Ks[J]);
    if (contextImplies(Rest, Ks[I]))
      Ks.erase(Ks.begin() + I);
    else
      ++I;
  }
}

bool omega::implies(const Conjunct &P, const Conjunct &Q) {
  check(P.wildcards().empty() && Q.wildcards().empty(),
        "implies requires wildcard-free clauses");
  for (const Constraint &K : Q.constraints())
    if (!contextImplies(P, K))
      return false;
  return true;
}

bool omega::impliesConstraint(const Conjunct &P, const Constraint &K) {
  check(P.wildcards().empty(), "implies requires wildcard-free clauses");
  return contextImplies(P, K);
}

Conjunct omega::gist(const Conjunct &P, const Conjunct &Q) {
  check(P.wildcards().empty() && Q.wildcards().empty(),
        "gist requires wildcard-free clauses");
  std::vector<Constraint> Kept = P.constraints();
  // A constraint stays only if Q plus the other kept constraints does not
  // already imply it; guarantees (gist P given Q) ∧ Q ≡ P ∧ Q.
  for (size_t I = 0; I < Kept.size();) {
    Conjunct Ctx = Q;
    for (size_t J = 0; J < Kept.size(); ++J)
      if (J != I)
        Ctx.add(Kept[J]);
    if (contextImplies(Ctx, Kept[I]))
      Kept.erase(Kept.begin() + I);
    else
      ++I;
  }
  Conjunct Out;
  for (Constraint &K : Kept)
    Out.add(std::move(K));
  return Out;
}
