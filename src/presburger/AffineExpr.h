//===- presburger/AffineExpr.h - Integer affine expressions ----*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An affine expression `c0 + Σ ci * vi` with BigInt coefficients over
/// interned integer variables — the atoms of Presburger constraints.
///
/// Terms live in a flat array sorted by VarId, inline for up to
/// InlineCapacity terms (the overwhelming majority of Omega-test
/// constraints), spilling to a single heap array beyond that.  Add/sub/
/// substitute are sorted merges, gcd and divExact sweeps iterate the
/// contiguous row, and copies are flat element copies — no per-term heap
/// nodes and no string comparisons anywhere (DESIGN.md §16).
///
/// Two orders coexist deliberately:
///   * storage (and `terms()` / `forEachTerm`) is id order — fast machine
///     compares; interning order, which concurrent queries make
///     schedule-dependent, so it must never leak into output;
///   * every observable order — `toString()`, `operator<` (which feeds
///     canonicalConjunct's sort), `leadTermByName` — is name order,
///     bit-identical to the std::map<std::string, BigInt> this replaces.
///
//======---------------------------------------------------------------===//

#ifndef OMEGA_PRESBURGER_AFFINEEXPR_H
#define OMEGA_PRESBURGER_AFFINEEXPR_H

#include "presburger/Var.h"
#include "support/BigInt.h"
#include "support/Stats.h"

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace omega {

/// How two expressions' variable parts relate, constants ignored.
enum class LinearMatch {
  None,    ///< Neither equal nor negated.
  Same,    ///< Equal coefficient for every variable.
  Opposite ///< Negated coefficient for every variable.
};

// The IR-layer observability counters (ExprCounters, exprCounters()) live
// in support/Stats.h so per-query stats blocks can hold a set; the flat
// term storage below is their only producer.

/// Sparse affine expression over interned integer variables.  Zero
/// coefficients are never stored, so equal expressions have equal
/// representations.
class AffineExpr {
public:
  /// One stored term.  Structured bindings give (VarId, const BigInt &).
  struct Term {
    VarId Var;
    BigInt Coef;
  };

  /// Terms held without heap allocation.  Four covers nearly every
  /// constraint the Omega test builds (bounds mention 1-3 variables plus a
  /// wildcard); the bench_ir inline-path allocation gate pins this.
  static constexpr uint32_t InlineCapacity = 4;

  /// Contiguous id-ordered view of the terms.
  class TermRange {
  public:
    const Term *begin() const { return B; }
    const Term *end() const { return E; }
    size_t size() const { return static_cast<size_t>(E - B); }
    bool empty() const { return B == E; }

  private:
    TermRange(const Term *B, const Term *E) : B(B), E(E) {}
    const Term *B;
    const Term *E;
    friend class AffineExpr;
  };

  AffineExpr() : Terms(inlineData()) {}
  /// Implicit conversion from constants for expression-building ergonomics.
  AffineExpr(BigInt Constant) : Terms(inlineData()), Const(std::move(Constant)) {}
  AffineExpr(long long Constant) : Terms(inlineData()), Const(Constant) {}
  AffineExpr(long Constant) : Terms(inlineData()), Const(Constant) {}
  AffineExpr(int Constant) : Terms(inlineData()), Const(Constant) {}

  AffineExpr(const AffineExpr &RHS);
  AffineExpr(AffineExpr &&RHS) noexcept;
  AffineExpr &operator=(const AffineExpr &RHS);
  AffineExpr &operator=(AffineExpr &&RHS) noexcept;
  ~AffineExpr();

  static AffineExpr variable(VarId V) {
    AffineExpr E;
    E.insertAt(0, V, BigInt(1));
    return E;
  }
  static AffineExpr variable(const std::string &Name) {
    return variable(internVar(Name));
  }

  const BigInt &constant() const { return Const; }
  void setConstant(BigInt C) { Const = std::move(C); }

  /// Returns the coefficient of \p V: a reference to the stored value, or
  /// to a shared zero when absent — no BigInt copy per lookup.
  const BigInt &coeff(VarId V) const {
    uint32_t Pos = findPos(V);
    return Pos == Size ? zero() : Terms[Pos].Coef;
  }
  const BigInt &coeff(const std::string &Name) const {
    VarId V = lookupVar(Name);
    return V.valid() ? coeff(V) : zero();
  }
  void setCoeff(VarId V, BigInt C);
  void setCoeff(const std::string &Name, BigInt C) {
    setCoeff(internVar(Name), std::move(C));
  }

  /// Terms in id order (see the file comment: never an observable order).
  TermRange terms() const { return TermRange(Terms, Terms + Size); }

  /// Applies Fn(VarId, const BigInt &) to each term in id order.
  template <typename F> void forEachTerm(F &&Fn) const {
    for (uint32_t I = 0; I < Size; ++I)
      Fn(Terms[I].Var, Terms[I].Coef);
  }

  /// Applies Fn(VarId, const BigInt &) to each term in *name* order — the
  /// observable order, for printing and order-sensitive tie-breaks.
  template <typename F> void forEachTermByName(F &&Fn) const {
    uint32_t Stack[16];
    std::vector<uint32_t> Heap;
    uint32_t *Idx = Stack;
    if (Size > 16) {
      Heap.resize(Size);
      Idx = Heap.data();
    }
    sortedNameOrder(Idx);
    for (uint32_t I = 0; I < Size; ++I)
      Fn(Terms[Idx[I]].Var, Terms[Idx[I]].Coef);
  }

  /// The term whose variable name sorts first (the map's begin()); the
  /// expression must mention at least one variable.
  const Term &leadTermByName() const;

  /// Compares the variable parts of this expression and \p RHS in place
  /// (no temporaries): Same, Opposite or None.  Two zero-variable
  /// expressions have equal — and equally negated — parts; that case
  /// reports Same, so callers testing for cancellation must also accept
  /// Same when isConstant().
  LinearMatch matchLinear(const AffineExpr &RHS) const;

  bool isConstant() const { return Size == 0; }
  bool isZero() const { return Size == 0 && Const.isZero(); }
  /// Number of variables with nonzero coefficients.
  unsigned numVars() const { return Size; }
  /// True while the terms sit in the inline buffer (no heap allocation).
  bool isInlineRep() const { return Terms == inlineData(); }

  AffineExpr operator-() const;
  AffineExpr &operator+=(const AffineExpr &RHS);
  AffineExpr &operator-=(const AffineExpr &RHS);
  AffineExpr &operator*=(const BigInt &Factor);

  /// Divides every coefficient (not the constant) in place by \p G, which
  /// must divide each exactly — the gcd-normalization hot path sweeping
  /// the contiguous row.
  void divCoeffsExact(const BigInt &G);

  friend AffineExpr operator+(AffineExpr L, const AffineExpr &R) {
    return L += R;
  }
  friend AffineExpr operator-(AffineExpr L, const AffineExpr &R) {
    return L -= R;
  }
  friend AffineExpr operator*(AffineExpr L, const BigInt &R) {
    return L *= R;
  }
  friend AffineExpr operator*(const BigInt &L, AffineExpr R) {
    return R *= L;
  }

  friend bool operator==(const AffineExpr &L, const AffineExpr &R) {
    if (L.Const != R.Const || L.Size != R.Size)
      return false;
    for (uint32_t I = 0; I < L.Size; ++I)
      if (L.Terms[I].Var != R.Terms[I].Var ||
          L.Terms[I].Coef != R.Terms[I].Coef)
        return false;
    return true;
  }
  friend bool operator!=(const AffineExpr &L, const AffineExpr &R) {
    return !(L == R);
  }
  /// Total order for use in ordered containers, identical to the order of
  /// the former map representation: constant first, then lexicographic
  /// over (name, coefficient) pairs in name order.  This order reaches
  /// canonicalConjunct's constraint sort and hence the goldens.
  friend bool operator<(const AffineExpr &L, const AffineExpr &R) {
    if (L.Const != R.Const)
      return L.Const < R.Const;
    return L.compareTermsByName(R) < 0;
  }

  /// Replaces \p V with \p Replacement (which may itself mention other
  /// variables, but not \p V).
  void substitute(VarId V, const AffineExpr &Replacement);
  void substitute(const std::string &Name, const AffineExpr &Replacement) {
    VarId V = lookupVar(Name);
    if (V.valid())
      substitute(V, Replacement);
  }

  /// Renames a variable; the new name must not already appear.
  void renameVar(VarId From, VarId To);
  void renameVar(const std::string &From, const std::string &To) {
    VarId F = lookupVar(From);
    if (F.valid() && mentions(F))
      renameVar(F, internVar(To));
  }

  /// Evaluates with every variable bound by \p Values; asserts all
  /// present.  A linear merge-join: both sides are id-sorted.
  BigInt evaluate(const Assignment &Values) const;

  /// GCD of the variable coefficients only (0 when constant).
  BigInt coeffGcd() const;

  void collectVars(VarSet &Out) const {
    for (uint32_t I = 0; I < Size; ++I)
      Out.insert(Terms[I].Var);
  }
  bool mentions(VarId V) const { return findPos(V) != Size; }
  bool mentions(const std::string &Name) const {
    VarId V = lookupVar(Name);
    return V.valid() && mentions(V);
  }

  /// Renders e.g. "2*i - 3*j + 7" (terms in name order).
  std::string toString() const;

  size_t hash() const;

  /// The shared zero coefficient coeff() returns for absent variables.
  static const BigInt &zero();

private:
  Term *inlineData() { return reinterpret_cast<Term *>(InlineBuf); }
  const Term *inlineData() const {
    return reinterpret_cast<const Term *>(InlineBuf);
  }

  /// Position of V's term, or Size when absent.
  uint32_t findPos(VarId V) const {
    for (uint32_t I = 0; I < Size; ++I) {
      if (Terms[I].Var == V)
        return I;
      if (V < Terms[I].Var)
        return Size;
    }
    return Size;
  }
  /// First position whose id is >= V.
  uint32_t lowerPos(VarId V) const {
    uint32_t I = 0;
    while (I < Size && Terms[I].Var < V)
      ++I;
    return I;
  }

  void growTo(uint32_t NeedCap);
  void insertAt(uint32_t Pos, VarId V, BigInt C);
  void eraseAt(uint32_t Pos);
  /// Replaces the stored terms with Src[0..N), moving out of Src.
  void adoptTerms(Term *Src, uint32_t N);
  void destroyTerms();
  /// this += (Negate ? -1 : +1) * (Scale ? *Scale : 1) * Σ RTerms.
  void mergeAddScaled(const Term *RTerms, uint32_t RN, const BigInt *Scale,
                      bool Negate);
  /// Fills Idx[0..Size) with term positions sorted by variable name.
  void sortedNameOrder(uint32_t *Idx) const;
  /// Three-way name-lexicographic term comparison (see operator<).
  int compareTermsByName(const AffineExpr &RHS) const;

  static void noteInlineOp() {
    if (arithCounters().CountOps.load(std::memory_order_relaxed))
      exprCounters().InlineOps.fetch_add(1, std::memory_order_relaxed);
  }

  Term *Terms;       ///< Inline buffer or heap array, id-sorted.
  uint32_t Size = 0; ///< Live terms.
  uint32_t Cap = InlineCapacity;
  BigInt Const;
  alignas(Term) unsigned char InlineBuf[sizeof(Term) * InlineCapacity];
};

std::ostream &operator<<(std::ostream &OS, const AffineExpr &E);

} // namespace omega

#endif // OMEGA_PRESBURGER_AFFINEEXPR_H
