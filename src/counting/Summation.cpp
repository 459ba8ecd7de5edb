//===- counting/Summation.cpp - Symbolic sums over Presburger sets -------===//
//
// Implements §4 of the paper.  See Summation.h for the pipeline overview.
//
//===----------------------------------------------------------------------===//

#include "counting/Summation.h"

#include "analysis/Validator.h"
#include "matrix/Matrix.h"
#include "poly/Faulhaber.h"
#include "support/Budget.h"
#include "support/Error.h"
#include "support/QueryContext.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <algorithm>
#include <optional>
#include <set>

using namespace omega;

namespace {

/// One bound: Coef * v {>=, <=} Expr with Coef > 0, plus the index of the
/// originating constraint.
struct VarBound {
  BigInt Coef;
  AffineExpr Expr;
  size_t Idx;
};

struct VarBounds {
  std::vector<VarBound> Lowers;
  std::vector<VarBound> Uppers;
};

VarBounds collectVarBounds(const Conjunct &C, const std::string &V) {
  VarBounds B;
  const std::vector<Constraint> &Ks = C.constraints();
  for (size_t I = 0; I < Ks.size(); ++I) {
    if (!Ks[I].isGe())
      continue;
    BigInt A = Ks[I].expr().coeff(V);
    if (A.isZero())
      continue;
    AffineExpr Rest = Ks[I].expr();
    Rest.setCoeff(V, BigInt(0));
    if (A.isPositive())
      B.Lowers.push_back({A, -Rest, I});
    else
      B.Uppers.push_back({-A, std::move(Rest), I});
  }
  return B;
}

/// Does any equality of C mention a variable of Vars, or does C carry
/// wildcards or strides touching Vars?  If so the clause needs the §4.5.2
/// re-parameterization before the convex recursion can run.
bool needsReparam(const Conjunct &C, const VarSet &Vars) {
  if (!C.wildcards().empty())
    return true;
  for (const Constraint &K : C.constraints()) {
    if (K.isGe())
      continue;
    for (const auto &[Name, Coef] : K.expr().terms()) {
      (void)Coef;
      if (Vars.count(Name))
        return true;
    }
  }
  return false;
}

/// The summation engine (one instance per query).
class Summer {
public:
  explicit Summer(SumOptions Opts) : Opts(Opts) {}

  PiecewiseValue Out;
  bool Unbounded = false;

  /// Sums X over the integer points of C in the Vars dimensions.
  /// \p Pinned, when nonempty, names a variable currently being split on
  /// multiple bounds; it is eliminated before any other variable.
  void sumClause(Conjunct C, VarSet Vars, QuasiPolynomial X,
                 std::string Pinned = "") {
    if (Unbounded)
      return;
    // Per-Summer depth: whether the budget trips depends only on this
    // clause's own recursion.
    ++Depth;
    struct DepthGuard {
      unsigned &D;
      ~DepthGuard() { --D; }
    } Guard{Depth};
    chargeDepth(Depth, "summation");
    if (!normalizeConjunct(C))
      return;
    if (!feasible(C))
      return;

    // Counted variables no constraint mentions have infinitely many
    // solutions each.
    VarSet Mentioned = C.mentionedVars();
    for (const std::string &V : Vars)
      if (!Mentioned.count(V)) {
        Unbounded = true;
        return;
      }

    if (Vars.empty()) {
      emitPiece(std::move(C), std::move(X));
      return;
    }

    // Wildcards outside equalities break the functional-determination
    // assumption of §4.5.2; restore the invariant by projecting them.
    if (hasNonFunctionalWildcards(C)) {
      Conjunct Body = C;
      VarSet Wilds = Body.takeWildcards();
      for (Conjunct &P : projectVars(Body, Wilds, ShadowMode::Disjoint))
        sumClause(std::move(P), Vars, X, Pinned);
      return;
    }

    if (needsReparam(C, Vars)) {
      reparameterize(std::move(C), std::move(Vars), std::move(X));
      return;
    }

    // Convex sum (§4.4): pure inequalities over Vars + symbols.
    if (Opts.EliminateRedundant)
      removeRedundant(C, /*Aggressive=*/true);

    std::string V = Pinned.empty() ? pickVar(C, Vars) : Pinned;
    VarBounds B = collectVarBounds(C, V);
    if (B.Lowers.empty() || B.Uppers.empty()) {
      Unbounded = true;
      return;
    }

    if (B.Uppers.size() > 1) {
      splitBounds(C, Vars, X, V, B.Uppers, /*IsUpper=*/true);
      return;
    }
    if (B.Lowers.size() > 1) {
      splitBounds(C, Vars, X, V, B.Lowers, /*IsUpper=*/false);
      return;
    }
    sumSingleVar(std::move(C), std::move(Vars), std::move(X), V, B.Lowers[0],
                 B.Uppers[0]);
  }

private:
  /// True iff some wildcard occurs outside equalities.
  static bool hasNonFunctionalWildcards(const Conjunct &C) {
    if (C.wildcards().empty())
      return false;
    for (const Constraint &K : C.constraints()) {
      if (K.isEq())
        continue;
      for (const auto &[Name, Coef] : K.expr().terms()) {
        (void)Coef;
        if (C.isWildcard(Name))
          return true;
      }
    }
    return false;
  }

  void emitPiece(Conjunct Guard, QuasiPolynomial X) {
    if (X.isZero())
      return;
    removeRedundant(Guard, /*Aggressive=*/true);
    Out.add({std::move(Guard), std::move(X)});
  }

  /// §4.4 heuristic: fewest (lowers x uppers), preferring variables whose
  /// bounds all have unit coefficients (no splintering needed).
  std::string pickVar(const Conjunct &C, const VarSet &Vars) {
    if (!Opts.FreeVariableOrder)
      return *Vars.rbegin(); // Ablation: fixed (reverse-alphabetical).
    std::string Best;
    bool BestUnit = false;
    size_t BestCost = 0;
    for (const std::string &V : Vars) {
      VarBounds B = collectVarBounds(C, V);
      bool Unit = true;
      for (const VarBound &L : B.Lowers)
        if (!L.Coef.isOne())
          Unit = false;
      for (const VarBound &U : B.Uppers)
        if (!U.Coef.isOne())
          Unit = false;
      size_t Cost = std::max<size_t>(1, B.Lowers.size()) *
                    std::max<size_t>(1, B.Uppers.size());
      if (Best.empty() || (Unit && !BestUnit) ||
          (Unit == BestUnit && Cost < BestCost)) {
        Best = V;
        BestUnit = Unit;
        BestCost = Cost;
      }
    }
    return Best;
  }

  /// §4.4 steps 3-4: splits a variable with multiple upper (lower) bounds
  /// into disjoint cases; in case i, bound i is the strict minimum
  /// (maximum) against earlier bounds and weak against later ones.
  void splitBounds(const Conjunct &C, const VarSet &Vars,
                   const QuasiPolynomial &X, const std::string &V,
                   const std::vector<VarBound> &Bounds, bool IsUpper) {
    for (size_t I = 0; I < Bounds.size(); ++I) {
      Conjunct Case;
      // Keep all constraints except the other bounds of this side.
      for (size_t K = 0; K < C.constraints().size(); ++K) {
        bool Skip = false;
        for (size_t J = 0; J < Bounds.size(); ++J)
          if (J != I && Bounds[J].Idx == K)
            Skip = true;
        if (!Skip)
          Case.add(C.constraints()[K]);
      }
      for (size_t J = 0; J < Bounds.size(); ++J) {
        if (J == I)
          continue;
        // Upper: U_i/a_i <= U_j/a_j  <=>  a_j*U_i <= a_i*U_j (strict for
        // J < I to make the cases disjoint).  Lower: mirrored.
        AffineExpr Cmp = IsUpper ? Bounds[J].Coef * Bounds[I].Expr -
                                       Bounds[I].Coef * Bounds[J].Expr
                                 : Bounds[I].Coef * Bounds[J].Expr -
                                       Bounds[J].Coef * Bounds[I].Expr;
        // Cmp <= 0, strict when J < I.
        AffineExpr E = -Cmp;
        if (J < I)
          E -= AffineExpr(1);
        Case.add(Constraint::ge(std::move(E)));
      }
      sumClause(std::move(Case), Vars, X, V);
    }
  }

  /// §4.1-4.3: sums X over L <= b*v and a*v <= U (single bound pair).
  void sumSingleVar(Conjunct C, VarSet Vars, QuasiPolynomial X,
                    const std::string &V, const VarBound &L,
                    const VarBound &U) {
    // Remove v's two bound constraints from the clause.
    Conjunct Rest;
    for (size_t K = 0; K < C.constraints().size(); ++K)
      if (K != L.Idx && K != U.Idx)
        Rest.add(C.constraints()[K]);
    Vars.erase(V);

    std::vector<QuasiPolynomial> Coefs = X.coefficientsOf(V);

    auto SumWith = [&](const QuasiPolynomial &Lo, const QuasiPolynomial &Hi) {
      QuasiPolynomial S;
      for (size_t D = 0; D < Coefs.size(); ++D) {
        if (Coefs[D].isZero())
          continue;
        S += Coefs[D] * powerSumRange(static_cast<unsigned>(D), Lo, Hi);
      }
      return S;
    };

    if (L.Coef.isOne() && U.Coef.isOne()) {
      // Exact integral bounds: Σ_{v=L}^{U} X, guard L <= U.
      QuasiPolynomial S =
          SumWith(QuasiPolynomial::fromAffine(L.Expr),
                  QuasiPolynomial::fromAffine(U.Expr));
      Rest.add(Constraint::ge(U.Expr - L.Expr));
      sumClause(std::move(Rest), std::move(Vars), std::move(S));
      return;
    }

    switch (Opts.Strategy) {
    case BoundStrategy::Splinter:
      splinterSum(Rest, Vars, SumWith, V, L, U);
      return;
    case BoundStrategy::SymbolicMod: {
      // Valid only when the bounds are pure symbolic expressions; fall
      // back to splintering otherwise.
      bool SymbolOnly = true;
      for (const std::string &W : Vars)
        if (L.Expr.mentions(W) || U.Expr.mentions(W))
          SymbolOnly = false;
      if (!SymbolOnly) {
        splinterSum(Rest, Vars, SumWith, V, L, U);
        return;
      }
      symbolicModSum(Rest, Vars, SumWith, L, U);
      return;
    }
    case BoundStrategy::UpperBound:
    case BoundStrategy::LowerBound:
    case BoundStrategy::Approximate:
      approximateSum(Rest, Vars, SumWith, L, U);
      return;
    }
  }

  /// §4.2.1 "splintering": residue cases of L mod b and U mod a.  Within a
  /// case the bounds are integral (as exact rational-coefficient affine
  /// forms) and the emptiness guard is a single affine constraint.
  template <typename SumFn>
  void splinterSum(const Conjunct &Rest, const VarSet &Vars, SumFn SumWith,
                   const std::string &V, const VarBound &L,
                   const VarBound &U) {
    (void)V;
    for (BigInt R(0); R < L.Coef; ++R)
      for (BigInt S(0); S < U.Coef; ++S) {
        Conjunct Case = Rest;
        if (!L.Coef.isOne())
          Case.add(Constraint::stride(L.Coef, L.Expr - AffineExpr(R)));
        if (!U.Coef.isOne())
          Case.add(Constraint::stride(U.Coef, U.Expr - AffineExpr(S)));
        // Lo = (L - r)/b + [r > 0], Hi = (U - s)/a; both integral here.
        Rational InvB(BigInt(1), L.Coef), InvA(BigInt(1), U.Coef);
        QuasiPolynomial Lo =
            (QuasiPolynomial::fromAffine(L.Expr) -
             QuasiPolynomial(Rational(R))) *
            InvB;
        if (R.isPositive())
          Lo += QuasiPolynomial(Rational(1));
        QuasiPolynomial Hi = (QuasiPolynomial::fromAffine(U.Expr) -
                              QuasiPolynomial(Rational(S))) *
                             InvA;
        // Guard Lo <= Hi, scaled to integers:
        // a*(L - r) + a*b*[r>0] <= b*(U - s).
        AffineExpr G = L.Coef * (U.Expr - AffineExpr(S)) -
                       U.Coef * (L.Expr - AffineExpr(R));
        if (R.isPositive())
          G -= AffineExpr(U.Coef * L.Coef);
        Case.add(Constraint::ge(std::move(G)));
        sumClause(std::move(Case), Vars, SumWith(Lo, Hi));
      }
  }

  /// §4.2.1 symbolic answers: one piece (or b pieces when both bounds are
  /// rational, §4.2.2) whose value uses (e mod c) atoms.
  template <typename SumFn>
  void symbolicModSum(const Conjunct &Rest, const VarSet &Vars, SumFn SumWith,
                      const VarBound &L, const VarBound &U) {
    // Hi = floor(U/a) = (U - (U mod a))/a; Lo = ceil(L/b) =
    // (L + ((-L) mod b))/b.
    QuasiPolynomial Hi = QuasiPolynomial::fromAffine(U.Expr);
    if (!U.Coef.isOne()) {
      Hi -= QuasiPolynomial::fromAtom(Atom::mod(U.Expr, U.Coef));
      Hi *= Rational(BigInt(1), U.Coef);
    }
    QuasiPolynomial Lo = QuasiPolynomial::fromAffine(L.Expr);
    if (!L.Coef.isOne()) {
      Lo += QuasiPolynomial::fromAtom(Atom::mod(-L.Expr, L.Coef));
      Lo *= Rational(BigInt(1), L.Coef);
    }
    QuasiPolynomial Value = SumWith(Lo, Hi);

    if (L.Coef.isOne()) {
      // Guard: L <= floor(U/a)  <=>  a*L <= U.
      Conjunct Case = Rest;
      Case.add(Constraint::ge(U.Expr - U.Coef * L.Expr));
      sumClause(std::move(Case), Vars, std::move(Value));
      return;
    }
    if (U.Coef.isOne()) {
      // Guard: ceil(L/b) <= U  <=>  L <= b*U.
      Conjunct Case = Rest;
      Case.add(Constraint::ge(L.Coef * U.Expr - L.Expr));
      sumClause(std::move(Case), Vars, std::move(Value));
      return;
    }
    // Both rational (§4.2.2): splinter only the guard, by the residue of L
    // mod b; the value stays in the compact mod-atom form.
    for (BigInt R(0); R < L.Coef; ++R) {
      Conjunct Case = Rest;
      Case.add(Constraint::stride(L.Coef, L.Expr - AffineExpr(R)));
      // Lo_r = (L - r)/b + [r>0] integral; guard Lo_r <= floor(U/a)
      // <=> a*(L - r) + a*b*[r>0] <= b*U.
      AffineExpr G = L.Coef * U.Expr - U.Coef * (L.Expr - AffineExpr(R));
      if (R.isPositive())
        G -= AffineExpr(U.Coef * L.Coef);
      Case.add(Constraint::ge(std::move(G)));
      sumClause(std::move(Case), Vars, Value);
    }
  }

  /// §4.2.1 approximate answers.  For counting these are rigorous upper /
  /// lower bounds; for general summands they assume the summand is
  /// non-negative over the range (the paper's setting).
  template <typename SumFn>
  void approximateSum(const Conjunct &Rest, const VarSet &Vars, SumFn SumWith,
                      const VarBound &L, const VarBound &U) {
    Rational InvB(BigInt(1), L.Coef), InvA(BigInt(1), U.Coef);
    // Widest possible range (upper bound on the sum).
    QuasiPolynomial LoW = QuasiPolynomial::fromAffine(L.Expr) * InvB;
    QuasiPolynomial HiW = QuasiPolynomial::fromAffine(U.Expr) * InvA;
    // Narrowest guaranteed range (lower bound on the sum).
    QuasiPolynomial LoN = (QuasiPolynomial::fromAffine(L.Expr) +
                           QuasiPolynomial(Rational(L.Coef - BigInt(1)))) *
                          InvB;
    QuasiPolynomial HiN = (QuasiPolynomial::fromAffine(U.Expr) -
                           QuasiPolynomial(Rational(U.Coef - BigInt(1)))) *
                          InvA;

    Conjunct Case = Rest;
    QuasiPolynomial Value;
    switch (Opts.Strategy) {
    case BoundStrategy::UpperBound:
      // Real-shadow guard over-approximates non-emptiness.
      Case.add(Constraint::ge(L.Coef * U.Expr - U.Coef * L.Expr));
      Value = SumWith(LoW, HiW);
      break;
    case BoundStrategy::LowerBound:
      // Dark-shadow guard under-approximates non-emptiness.
      Case.add(Constraint::ge(
          L.Coef * U.Expr - U.Coef * L.Expr -
          AffineExpr((U.Coef - BigInt(1)) * (L.Coef - BigInt(1)))));
      Value = SumWith(LoN, HiN);
      break;
    case BoundStrategy::Approximate:
      Case.add(Constraint::ge(L.Coef * U.Expr - U.Coef * L.Expr));
      Value = (SumWith(LoW, HiW) + SumWith(LoN, HiN)) *
              Rational(BigInt(1), BigInt(2));
      break;
    default:
      fatalError("approximateSum called with a non-approximate strategy");
    }
    sumClause(std::move(Case), Vars, std::move(Value));
  }

  /// §4.5.2 projected sums: rewrites the clause's equalities (and strides,
  /// via auxiliary wildcards) over counted variables as an affine image of
  /// fresh free variables using the Smith Normal Form, then recurses.
  void reparameterize(Conjunct C, VarSet Vars, QuasiPolynomial X) {
    TraceSpan Span("snfReparam");
    Span.count(TraceCounter::ConstraintsIn, C.constraints().size());
    // Strides touching counted variables become wildcard equalities.
    Conjunct WithEqs;
    for (VarId W : C.wildcards().ids())
      WithEqs.addWildcard(W);
    for (const Constraint &K : C.constraints()) {
      bool TouchesVars = false;
      for (const auto &[Name, Coef] : K.expr().terms()) {
        (void)Coef;
        if (Vars.count(Name) || C.isWildcard(Name))
          TouchesVars = true;
      }
      if (K.isStride() && TouchesVars) {
        VarId W = freshWildcardId();
        AffineExpr E = K.expr();
        E.setCoeff(W, -K.modulus());
        WithEqs.add(Constraint::eq(std::move(E)));
        WithEqs.addWildcard(W);
        continue;
      }
      WithEqs.add(K);
    }
    C = std::move(WithEqs);

    // Column variables: every counted variable or wildcard mentioned, in
    // name order (the column order reaches the Smith decomposition).
    std::vector<VarId> Cols;
    {
      VarSet Mentioned = C.mentionedVars();
      for (auto It = Mentioned.begin(); It != Mentioned.end(); ++It)
        if (Vars.count(It.id()) || C.isWildcard(It.id()))
          Cols.push_back(It.id());
    }
    auto ColIdx = [&](VarId N) {
      auto It = std::find(Cols.begin(), Cols.end(), N);
      return It == Cols.end() ? SIZE_MAX : size_t(It - Cols.begin());
    };

    // Rows: equalities mentioning a column; others pass through.
    std::vector<AffineExpr> RowRhs; // Over symbols.
    std::vector<std::vector<BigInt>> RowCoefs;
    Conjunct Others;
    for (const Constraint &K : C.constraints()) {
      bool OnCols = false;
      for (const auto &[Name, Coef] : K.expr().terms()) {
        (void)Coef;
        if (ColIdx(Name) != SIZE_MAX)
          OnCols = true;
      }
      if (!K.isEq() || !OnCols) {
        Others.add(K);
        continue;
      }
      std::vector<BigInt> Coefs(Cols.size());
      AffineExpr Rhs = -K.expr();
      for (size_t J = 0; J < Cols.size(); ++J) {
        Coefs[J] = K.expr().coeff(Cols[J]);
        Rhs.setCoeff(Cols[J], BigInt(0));
      }
      RowCoefs.push_back(std::move(Coefs));
      RowRhs.push_back(std::move(Rhs));
    }

    unsigned NumRows = static_cast<unsigned>(RowCoefs.size());
    unsigned NumCols = static_cast<unsigned>(Cols.size());
    Matrix M(NumRows, NumCols);
    for (unsigned I = 0; I < NumRows; ++I)
      for (unsigned J = 0; J < NumCols; ++J)
        M.at(I, J) = RowCoefs[I][J];

    SmithForm S = smithNormalForm(M);
    unsigned Rank = S.Rank;

    // U * rhs, as affine expressions over symbols.
    std::vector<AffineExpr> URhs(NumRows);
    for (unsigned I = 0; I < NumRows; ++I)
      for (unsigned J = 0; J < NumRows; ++J)
        URhs[I] += S.U.at(I, J) * RowRhs[J];

    Conjunct NewC;
    // Rows beyond the rank demand (U rhs)_i = 0: symbol-only guards.
    for (unsigned I = Rank; I < NumRows; ++I)
      NewC.add(Constraint::eq(URhs[I]));

    // Pinned components sigma'_i = (U rhs)_i / d_i need d_i | (U rhs)_i.
    BigInt Den(1);
    for (unsigned I = 0; I < Rank; ++I) {
      const BigInt &D = S.D.at(I, I);
      if (!D.isOne())
        NewC.add(Constraint::stride(D, URhs[I]));
      Den = BigInt::lcm(Den, D);
    }

    // Free components get fresh counted variables.
    std::vector<VarId> Sigma;
    for (unsigned J = Rank; J < NumCols; ++J)
      Sigma.push_back(freshWildcardId());

    // Each column variable: x_k = Σ_j V[k][j] sigma'_j, expressed as
    // (integer affine over sigma and symbols) / Den.
    std::vector<AffineExpr> ColNum(NumCols);
    for (unsigned K = 0; K < NumCols; ++K) {
      for (unsigned J = 0; J < Rank; ++J)
        if (!S.V.at(K, J).isZero())
          ColNum[K] += S.V.at(K, J) * (Den / S.D.at(J, J)) * URhs[J];
      for (unsigned J = Rank; J < NumCols; ++J)
        if (!S.V.at(K, J).isZero())
          ColNum[K] +=
              S.V.at(K, J) * Den * AffineExpr::variable(Sigma[J - Rank]);
    }

    // Transform the remaining constraints: substitute x_k = ColNum[k]/Den,
    // scaling inequalities/equalities by Den and strides by Den as well.
    for (const Constraint &K : Others.constraints()) {
      AffineExpr E;
      BigInt ConstPart = K.expr().constant();
      bool OnCols = false;
      AffineExpr SymbolPart;
      SymbolPart.setConstant(ConstPart);
      for (const auto &[Name, Coef] : K.expr().terms()) {
        size_t Idx = ColIdx(Name);
        if (Idx == SIZE_MAX) {
          SymbolPart.setCoeff(Name, Coef);
          continue;
        }
        OnCols = true;
        E += Coef * ColNum[Idx];
      }
      if (!OnCols) {
        NewC.add(K);
        continue;
      }
      E += Den * SymbolPart;
      switch (K.kind()) {
      case ConstraintKind::Ge:
        NewC.add(Constraint::ge(std::move(E)));
        break;
      case ConstraintKind::Eq:
        NewC.add(Constraint::eq(std::move(E)));
        break;
      case ConstraintKind::Stride:
        NewC.add(Constraint::stride(Den * K.modulus(), std::move(E)));
        break;
      }
    }

    // Substitute into the summand for the counted columns.
    Rational InvDen(BigInt(1), Den);
    for (unsigned K = 0; K < NumCols; ++K) {
      if (!Vars.count(Cols[K]))
        continue;
      const std::string &ColName = varName(Cols[K]);
      if (!X.mentions(ColName))
        continue;
      QuasiPolynomial Val = QuasiPolynomial::fromAffine(ColNum[K]) * InvDen;
      X.substitute(ColName, Val);
    }

    VarSet NewVars(Sigma.begin(), Sigma.end());
    sumClause(std::move(NewC), std::move(NewVars), std::move(X));
  }

  SumOptions Opts;
  unsigned Depth = 0;
};

} // namespace

PiecewiseValue omega::sumOverConjunct(const Conjunct &C, const VarSet &Vars,
                                      const QuasiPolynomial &X,
                                      SumOptions Opts) {
  TraceSpan Span("summation");
  Span.count(TraceCounter::ConstraintsIn, C.constraints().size());
  Summer S(Opts);
  S.sumClause(C, Vars, X);
  if (S.Unbounded)
    return PiecewiseValue::unbounded();
  S.Out.mergeSyntactic();
#ifdef OMEGA_VALIDATE
  validateOrDie(validatePiecewise(S.Out), "omega::sumOverConjunct");
#endif
  return std::move(S.Out);
}

namespace {

/// Post-pass: merge pieces with equal values whose guards are identical
/// except for one stride constraint, when the residues present cover the
/// whole modulus — the union over r of (m | e - r) is True.  This is the
/// paper's "additional simplification" at the end of Example 6 (and what
/// collapses a block-cyclic ownership count from 8 residue pieces into
/// one).
void mergeResidueCompletePieces(PiecewiseValue &V) {
  bool Changed = true;
  while (Changed) {
    Changed = false;
    std::vector<Piece> &Pieces = V.pieces();
    for (size_t I = 0; I < Pieces.size() && !Changed; ++I) {
      const std::vector<Constraint> &Ks = Pieces[I].Guard.constraints();
      for (size_t S = 0; S < Ks.size() && !Changed; ++S) {
        if (!Ks[S].isStride())
          continue;
        const BigInt &Mod = Ks[S].modulus();
        if (!Mod.fitsInt64() || Mod.toInt64() > 64)
          continue;
        // Guard key: all constraints except stride S, sorted.
        auto KeyOf = [&](const Conjunct &G, size_t Skip) {
          std::vector<Constraint> Key;
          for (size_t K = 0; K < G.constraints().size(); ++K)
            if (K != Skip)
              Key.push_back(G.constraints()[K]);
          std::sort(Key.begin(), Key.end());
          return Key;
        };
        std::vector<Constraint> Key = KeyOf(Pieces[I].Guard, S);
        // The stride's expression modulo a shift: two strides with the
        // same modulus belong together when their expressions differ by a
        // constant; collect the residues present.
        std::vector<size_t> Members{I};
        std::vector<size_t> MemberStrideIdx{S};
        for (size_t J = 0; J < Pieces.size(); ++J) {
          if (J == I || Pieces[J].Value != Pieces[I].Value)
            continue;
          const std::vector<Constraint> &Js = Pieces[J].Guard.constraints();
          for (size_t T = 0; T < Js.size(); ++T) {
            if (!Js[T].isStride() || Js[T].modulus() != Mod)
              continue;
            AffineExpr Diff = Js[T].expr() - Ks[S].expr();
            if (!Diff.isConstant())
              continue;
            if (KeyOf(Pieces[J].Guard, T) != Key)
              continue;
            Members.push_back(J);
            MemberStrideIdx.push_back(T);
            break;
          }
        }
        if (Members.size() != size_t(Mod.toInt64()))
          continue;
        // Check the residues are pairwise distinct (then they cover all
        // of Z_mod).
        std::set<BigInt> Residues;
        for (size_t K = 0; K < Members.size(); ++K) {
          const Constraint &St =
              Pieces[Members[K]].Guard.constraints()[MemberStrideIdx[K]];
          Residues.insert(BigInt::floorMod(St.expr().constant(), Mod));
        }
        if (Residues.size() != size_t(Mod.toInt64()))
          continue;
        // Merge: keep piece I without the stride, drop the others.
        Conjunct NewGuard;
        for (Constraint &K : Key)
          NewGuard.add(std::move(K));
        Piece Merged{std::move(NewGuard), Pieces[I].Value};
        std::vector<size_t> Sorted = Members;
        std::sort(Sorted.rbegin(), Sorted.rend());
        for (size_t Idx : Sorted)
          Pieces.erase(Pieces.begin() + Idx);
        Pieces.push_back(std::move(Merged));
        Changed = true;
      }
    }
  }
}

/// Post-pass: merge pieces with equal values whose guards are disjoint and
/// whose union is exactly one clause (e.g. two adjacent n-ranges).
void coalesceEqualValuePieces(PiecewiseValue &V) {
  bool Changed = true;
  while (Changed) {
    Changed = false;
    std::vector<Piece> &Pieces = V.pieces();
    for (size_t I = 0; I < Pieces.size() && !Changed; ++I)
      for (size_t J = I + 1; J < Pieces.size() && !Changed; ++J) {
        if (Pieces[I].Value != Pieces[J].Value)
          continue;
        // Guards must be disjoint: overlapping guards mean the values add
        // on the overlap, which a single merged piece would change.
        if (feasible(Conjunct::merge(Pieces[I].Guard, Pieces[J].Guard)))
          continue;
        std::optional<Conjunct> M =
            coalescePair(Pieces[I].Guard, Pieces[J].Guard);
        if (!M)
          continue;
        Pieces[I].Guard = std::move(*M);
        Pieces.erase(Pieces.begin() + J);
        Changed = true;
      }
  }
}

} // namespace

PiecewiseValue omega::sumOverFormula(const Formula &F, const VarSet &Vars,
                                     const QuasiPolynomial &X,
                                     SumOptions Opts) {
  SimplifyOptions SOpts;
  SOpts.Disjoint = true;
  std::vector<Conjunct> Clauses = simplify(F, SOpts);

  // The clauses are pairwise disjoint, so each is summed by its own Summer
  // as an independent work item; concatenating the per-clause pieces in
  // clause order reproduces the serial single-Summer accumulation.  (The
  // serial code stopped at the first unbounded clause; computing the rest
  // only costs time, never changes the answer.)
  TraceSpan Span("summation");
  Span.count(TraceCounter::ClausesIn, Clauses.size());
  std::vector<PiecewiseValue> Parts(Clauses.size());
  std::vector<char> Unbounded(Clauses.size(), 0);
  forEachDisjunct(Clauses.size(), [&](size_t I) {
    Summer S(Opts);
    S.sumClause(Clauses[I], Vars, X);
    if (S.Unbounded)
      Unbounded[I] = 1;
    else
      Parts[I] = std::move(S.Out);
  });
  for (char U : Unbounded)
    if (U)
      return PiecewiseValue::unbounded();

  PiecewiseValue V;
  for (PiecewiseValue &P : Parts)
    for (Piece &Pc : P.pieces())
      V.pieces().push_back(std::move(Pc));
  // Final cleanup: drop pieces whose guard is infeasible and merge equal
  // guards.
  auto &Pieces = V.pieces();
  Pieces.erase(std::remove_if(Pieces.begin(), Pieces.end(),
                              [](const Piece &P) {
                                return !feasible(P.Guard);
                              }),
               Pieces.end());
  V.mergeSyntactic();
  mergeResidueCompletePieces(V);
  coalesceEqualValuePieces(V);
  V.mergeSyntactic();
#ifdef OMEGA_VALIDATE
  validateOrDie(validatePiecewise(V), "omega::sumOverFormula");
#endif
  return V;
}

PiecewiseValue omega::countSolutions(const Formula &F, const VarSet &Vars,
                                     SumOptions Opts) {
  return sumOverFormula(F, Vars, QuasiPolynomial(Rational(1)), Opts);
}

namespace {

/// Sums every clause of an (approximating) DNF with the given strategy and
/// concatenates the pieces.  PiecewiseValue sums matching guards, so the
/// result represents Σ_clauses sum(clause) — an upper bound for an
/// over-approximating union (clauses may overlap) and, when the clauses
/// are disjoint, the exact sum of the union.  Returns nullopt when some
/// clause is unbounded.
std::optional<PiecewiseValue> sumClauseList(const std::vector<Conjunct> &Cs,
                                            const VarSet &Vars,
                                            const QuasiPolynomial &X,
                                            SumOptions Opts) {
  PiecewiseValue V;
  for (const Conjunct &C : Cs) {
    Summer S(Opts);
    S.sumClause(C, Vars, X);
    if (S.Unbounded)
      return std::nullopt;
    for (Piece &P : S.Out.pieces())
      V.pieces().push_back(std::move(P));
  }
  V.pieces().erase(std::remove_if(V.pieces().begin(), V.pieces().end(),
                                  [](const Piece &P) {
                                    return !feasible(P.Guard);
                                  }),
                   V.pieces().end());
  V.mergeSyntactic();
  return V;
}

} // namespace

BudgetedCount omega::sumOverFormulaBudgeted(const Formula &F,
                                            const VarSet &Vars,
                                            const QuasiPolynomial &X,
                                            const EffortBudget &Budget,
                                            SumOptions Opts) {
  BudgetedCount Out;
  TraceSpan Span("countBudgeted");
  // Exact attempt under the budget.  On a clean run this is the only pass.
  try {
    QueryScope Scope(Budget);
    PiecewiseValue V = sumOverFormula(F, Vars, X, Opts);
    Out.Status = V.isUnbounded() ? CountStatus::Unbounded : CountStatus::Exact;
    Out.Value = std::move(V);
    return Out;
  } catch (const BudgetExceeded &E) {
    Out.TrippedLimit = E.Limit;
  }

  // Degrade per §4.6: certified bounds from the two shadows.  Each pass
  // runs in a naming frame of its own, which makes every minted name a
  // function of this pass alone: how far the aborted exact pass got (with
  // a deadline, a matter of timing) cannot leak into the bounds.
  // The relaxed budget keeps even the fallback from running away; shadow
  // modes never splinter, so it rarely trips.
  pipelineStats().DegradedQueries += 1;
  Span.annotate("degraded", Out.TrippedLimit);
  Out.Status = CountStatus::Bounded;
  EffortBudget Relaxed = Budget.relaxed(8);
  const unsigned PinDepth = activeQueryContext().pinDepth();

  // Upper bound: real shadow over-approximates the set; UpperBound
  // strategy over-approximates each clause's sum; overlapping clauses
  // only add, so the concatenated pieces still bound from above.
  try {
    QueryScope Pass(Relaxed, NamingFrame("degU", PinDepth));
    SimplifyOptions SO;
    SO.Mode = ShadowMode::Real;
    std::vector<Conjunct> Clauses = simplify(F, SO);
    SumOptions UO = Opts;
    UO.Strategy = BoundStrategy::UpperBound;
    std::optional<PiecewiseValue> U = sumClauseList(Clauses, Vars, X, UO);
    Out.Upper = U ? std::move(*U) : PiecewiseValue::unbounded();
  } catch (const BudgetExceeded &) {
    Out.Upper = PiecewiseValue::unbounded();
  }

  // Lower bound: the dark shadow is a subset of the true set, so its sum
  // (clauses made disjoint first — makeDisjoint preserves the union) with
  // the under-approximating LowerBound strategy bounds from below.  An
  // unbounded dark shadow proves the true answer itself is unbounded.
  try {
    QueryScope Pass(Relaxed, NamingFrame("degL", PinDepth));
    SimplifyOptions SO;
    SO.Mode = ShadowMode::Dark;
    std::vector<Conjunct> Clauses = simplify(F, SO);
    if (!pairwiseDisjoint(Clauses))
      Clauses = makeDisjoint(std::move(Clauses));
    SumOptions LO = Opts;
    LO.Strategy = BoundStrategy::LowerBound;
    std::optional<PiecewiseValue> L = sumClauseList(Clauses, Vars, X, LO);
    if (!L) {
      Out.Status = CountStatus::Unbounded;
      Out.Value = PiecewiseValue::unbounded();
      return Out;
    }
    Out.Lower = std::move(*L);
  } catch (const BudgetExceeded &) {
    Out.Lower = PiecewiseValue(); // Zero: trivially certified.
  }
  return Out;
}

BudgetedCount omega::countSolutionsBudgeted(const Formula &F,
                                            const VarSet &Vars,
                                            const EffortBudget &Budget,
                                            SumOptions Opts) {
  return sumOverFormulaBudgeted(F, Vars, QuasiPolynomial(Rational(1)), Budget,
                                Opts);
}
