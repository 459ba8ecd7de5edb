//===- presburger/Constraint.cpp - Linear and stride constraints ---------===//

#include "presburger/Constraint.h"

#include "support/Error.h"

#include <ostream>
#include <sstream>

using namespace omega;

bool Constraint::holds(const Assignment &Values) const {
  BigInt V = Expr.evaluate(Values);
  switch (Kind) {
  case ConstraintKind::Eq:
    return V.isZero();
  case ConstraintKind::Ge:
    return V.sign() >= 0;
  case ConstraintKind::Stride:
    return Mod.divides(V);
  }
  fatalError("Constraint::holds: unknown constraint kind");
}

bool Constraint::isTriviallyTrue() const {
  if (!Expr.isConstant())
    return false;
  switch (Kind) {
  case ConstraintKind::Eq:
    return Expr.constant().isZero();
  case ConstraintKind::Ge:
    return Expr.constant().sign() >= 0;
  case ConstraintKind::Stride:
    return Mod.divides(Expr.constant());
  }
  return false;
}

bool Constraint::isTriviallyFalse() const {
  return Expr.isConstant() && !isTriviallyTrue();
}

bool Constraint::normalize() {
  switch (Kind) {
  case ConstraintKind::Eq: {
    BigInt G = Expr.coeffGcd();
    if (G.isZero())
      return Expr.constant().isZero();
    if (!G.divides(Expr.constant()))
      return false; // e.g. 2x + 1 = 0 has no integer solution.
    if (!G.isOne()) {
      Expr.setConstant(BigInt::divExact(Expr.constant(), G));
      Expr.divCoeffsExact(G);
    }
    return true;
  }
  case ConstraintKind::Ge: {
    BigInt G = Expr.coeffGcd();
    if (G.isZero())
      return Expr.constant().sign() >= 0;
    if (!G.isOne()) {
      // Tightening: g*e + c >= 0 over integers iff e + floor(c/g) >= 0.
      Expr.setConstant(BigInt::floorDiv(Expr.constant(), G));
      Expr.divCoeffsExact(G);
    }
    return true;
  }
  case ConstraintKind::Stride: {
    if (Mod.isOne()) {
      // 1 | e is trivially true; canonicalize to 0 = 0.
      Kind = ConstraintKind::Eq;
      Expr = AffineExpr(0);
      Mod = BigInt(0);
      return true;
    }
    // Reduce coefficients and constant into [0, Mod).
    AffineExpr E;
    E.setConstant(BigInt::floorMod(Expr.constant(), Mod));
    for (const auto &[V, C] : Expr.terms())
      E.setCoeff(V, BigInt::floorMod(C, Mod));
    Expr = std::move(E);
    if (Expr.isConstant())
      return Mod.divides(Expr.constant());
    // Canonicalize by a unit: when the leading coefficient is invertible
    // mod Mod, scale so it becomes 1 (m | 2x+2 with m=3 becomes m | x+1).
    // "Leading" is the name-minimal term, as in the map representation.
    // A unit lead (the usual case once normalized) is already canonical.
    const BigInt &Lead = Expr.leadTermByName().Coef;
    BigInt X, Y;
    if (!Lead.isOne() && BigInt::extendedGcd(Lead, Mod, X, Y).isOne()) {
      BigInt Inv = BigInt::floorMod(X, Mod);
      AffineExpr Scaled;
      Scaled.setConstant(BigInt::floorMod(Expr.constant() * Inv, Mod));
      for (const auto &[V, C] : Expr.terms())
        Scaled.setCoeff(V, BigInt::floorMod(C * Inv, Mod));
      Expr = std::move(Scaled);
    }
    return true;
  }
  }
  fatalError("Constraint::normalize: unknown constraint kind");
}

std::string Constraint::toString() const {
  std::ostringstream OS;
  switch (Kind) {
  case ConstraintKind::Eq:
    OS << Expr << " = 0";
    break;
  case ConstraintKind::Ge:
    OS << Expr << " >= 0";
    break;
  case ConstraintKind::Stride:
    OS << Mod << " | " << Expr;
    break;
  }
  return OS.str();
}

std::ostream &omega::operator<<(std::ostream &OS, const Constraint &C) {
  return OS << C.toString();
}
