//===- presburger/Conjunct.h - Conjunctive clauses -------------*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Conjunct is one clause of a disjunctive normal form: a conjunction of
/// affine equalities, inequalities and stride constraints, over free
/// variables plus clause-local existentially quantified *wildcards* (the
/// paper's "auxiliary variables" of the projected format, §2.1).
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_PRESBURGER_CONJUNCT_H
#define OMEGA_PRESBURGER_CONJUNCT_H

#include "presburger/Constraint.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace omega {

/// One DNF clause: /\ constraints, with some variables bound by ∃.
class Conjunct {
public:
  Conjunct() = default;

  /// The always-true clause.
  static Conjunct trueConjunct() { return Conjunct(); }

  void add(Constraint C) { Items.push_back(std::move(C)); }
  void addAll(const Conjunct &Other);

  const std::vector<Constraint> &constraints() const { return Items; }
  std::vector<Constraint> &constraints() { return Items; }
  bool empty() const { return Items.empty(); }

  const VarSet &wildcards() const { return Wildcards; }
  void addWildcard(VarId V) { Wildcards.insert(V); }
  void addWildcard(const std::string &Name) { Wildcards.insert(Name); }
  /// Clause-wildcard membership.  Note this is a set test, not a VarId
  /// role-bit test: projection declares user variables as clause wildcards
  /// without renaming them.
  bool isWildcard(VarId V) const { return Wildcards.contains(V); }
  bool isWildcard(const std::string &Name) const {
    return Wildcards.count(Name) != 0;
  }
  /// Drops wildcard declarations that no constraint mentions.
  void pruneUnusedWildcards();

  /// Removes and returns the wildcard set (used by projection, which takes
  /// ownership of the existential structure).
  VarSet takeWildcards() {
    VarSet Out;
    std::swap(Out, Wildcards);
    return Out;
  }

  /// All variables mentioned by constraints (including wildcards).
  VarSet mentionedVars() const;
  /// Mentioned variables that are not wildcards.
  VarSet freeVars() const;

  bool mentions(VarId V) const;
  bool mentions(const std::string &Name) const;

  /// Substitutes V := Replacement in every constraint.  If V was a
  /// wildcard it stops being one.  Any *new* variables introduced by
  /// Replacement are not quantified.
  void substitute(VarId V, const AffineExpr &Replacement);
  void substitute(const std::string &Name, const AffineExpr &Replacement);

  /// Renames a variable (From must not be To; To must be fresh).
  void renameVar(VarId From, VarId To);
  void renameVar(const std::string &From, const std::string &To);

  /// Gives every wildcard a globally fresh name (capture-free merging).
  void refreshWildcards();

  /// True iff all constraints hold at \p Values.  All free variables must be
  /// bound and the clause must have no wildcards (use
  /// omega::containsPoint for clauses with wildcards); stride constraints
  /// are checked directly.
  bool contains(const Assignment &Values) const;

  /// Conjunction of two clauses (wildcards are refreshed to avoid capture).
  static Conjunct merge(const Conjunct &A, const Conjunct &B);

  /// Converts stride constraints `c | e` into projected format
  /// `∃α: e = cα` (§3.2).  After this, no Stride constraints remain.
  void stridesToWildcards();

  /// Renders e.g. "exists $1: { i - 2*$1 = 0; i <= n }".
  std::string toString() const;

private:
  std::vector<Constraint> Items;
  VarSet Wildcards;
};

std::ostream &operator<<(std::ostream &OS, const Conjunct &C);

/// A memoization-ready form of a clause plus its cache key.
///
/// The canonical form has every constraint normalized (GCD-reduced,
/// inequality-tightened, stride-reduced — Constraint::normalize),
/// trivially-true constraints and duplicates dropped, the rest sorted, and
/// unused wildcard declarations pruned; a clause normalization proves
/// infeasible collapses to the canonical false clause `{ -1 >= 0 }` with
/// key "UNSAT".  All of these are semantics-preserving rewrites, so equal
/// keys imply semantically equal clauses — the soundness condition for
/// reusing a memoized result (DESIGN.md §8).  Clauses that differ only in
/// constraint order or in un-normalized coefficient scaling share a key;
/// alpha-variants (same clause, different wildcard names) do not, which
/// costs cache capacity but never correctness.
///
/// The key is a prefix-free binary encoding of the canonical clause over
/// interned VarIds (bijective with names within a process): varint counts
/// and ids, zigzag-varint values, and a length-tagged decimal escape for
/// values beyond BigInt's inline range.  It decodes back to the canonical
/// clause, so distinct canonical clauses get distinct keys; no valid key
/// equals "UNSAT".  Keys are process-local, exactly like the cache they
/// index.
struct CanonicalConjunct {
  Conjunct C;      ///< The canonical form; semantically equal to the input.
  std::string Key; ///< Equal keys imply semantically equal clauses.
};

/// Appends \p V to a cache key as a LEB128 varint (self-delimiting).
void appendKeyVarint(std::string &Key, uint64_t V);

CanonicalConjunct canonicalConjunct(const Conjunct &In);

} // namespace omega

#endif // OMEGA_PRESBURGER_CONJUNCT_H
