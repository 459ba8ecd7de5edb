//===- presburger/Conjunct.cpp - Conjunctive clauses ---------------------===//

#include "presburger/Conjunct.h"

#include "support/Error.h"

#include <algorithm>
#include <ostream>
#include <sstream>

using namespace omega;

void Conjunct::addAll(const Conjunct &Other) {
  for (const Constraint &C : Other.Items)
    Items.push_back(C);
  for (VarId W : Other.Wildcards.ids())
    Wildcards.insert(W);
}

void Conjunct::pruneUnusedWildcards() {
  VarSet Used = mentionedVars();
  const std::vector<VarId> Ids = Wildcards.ids();
  for (VarId W : Ids)
    if (!Used.contains(W))
      Wildcards.erase(W);
}

VarSet Conjunct::mentionedVars() const {
  VarSet Out;
  for (const Constraint &C : Items)
    C.collectVars(Out);
  return Out;
}

VarSet Conjunct::freeVars() const {
  VarSet Out = mentionedVars();
  for (VarId W : Wildcards.ids())
    Out.erase(W);
  return Out;
}

bool Conjunct::mentions(VarId V) const {
  for (const Constraint &C : Items)
    if (C.mentions(V))
      return true;
  return false;
}

bool Conjunct::mentions(const std::string &Name) const {
  VarId V = lookupVar(Name);
  return V.valid() && mentions(V);
}

void Conjunct::substitute(VarId V, const AffineExpr &Replacement) {
  for (Constraint &C : Items)
    C.substitute(V, Replacement);
  Wildcards.erase(V);
}

void Conjunct::substitute(const std::string &Name,
                          const AffineExpr &Replacement) {
  VarId V = lookupVar(Name);
  if (V.valid())
    substitute(V, Replacement);
}

void Conjunct::renameVar(VarId From, VarId To) {
  check(From != To, "rename to same name");
  for (Constraint &C : Items)
    C.renameVar(From, To);
  if (Wildcards.erase(From))
    Wildcards.insert(To);
}

void Conjunct::renameVar(const std::string &From, const std::string &To) {
  VarId F = lookupVar(From);
  if (!F.valid()) {
    check(From != To, "rename to same name");
    return;
  }
  renameVar(F, internVar(To));
}

void Conjunct::refreshWildcards() {
  const std::vector<VarId> Old = Wildcards.ids();
  for (VarId W : Old)
    renameVar(W, freshWildcardId());
}

bool Conjunct::contains(const Assignment &Values) const {
  check(Wildcards.empty(),
        "Conjunct::contains requires a wildcard-free clause");
  for (const Constraint &C : Items)
    if (!C.holds(Values))
      return false;
  return true;
}

Conjunct Conjunct::merge(const Conjunct &A, const Conjunct &B) {
  Conjunct RA = A, RB = B;
  RA.refreshWildcards();
  RB.refreshWildcards();
  RA.addAll(RB);
  return RA;
}

void Conjunct::stridesToWildcards() {
  std::vector<Constraint> NewItems;
  NewItems.reserve(Items.size());
  for (Constraint &C : Items) {
    if (!C.isStride()) {
      NewItems.push_back(std::move(C));
      continue;
    }
    // c | e  ==>  ∃α: e - cα = 0.
    VarId Alpha = freshWildcardId();
    AffineExpr E = C.expr();
    E.setCoeff(Alpha, -C.modulus());
    NewItems.push_back(Constraint::eq(std::move(E)));
    Wildcards.insert(Alpha);
  }
  Items = std::move(NewItems);
}

std::string Conjunct::toString() const {
  std::ostringstream OS;
  if (!Wildcards.empty()) {
    OS << "exists ";
    bool First = true;
    for (const std::string &W : Wildcards) {
      if (!First)
        OS << ", ";
      OS << W;
      First = false;
    }
    OS << ": ";
  }
  OS << "{";
  for (size_t I = 0; I < Items.size(); ++I) {
    if (I)
      OS << "; ";
    OS << " " << Items[I];
  }
  OS << (Items.empty() ? "}" : " }");
  return OS.str();
}

std::ostream &omega::operator<<(std::ostream &OS, const Conjunct &C) {
  return OS << C.toString();
}

void omega::appendKeyVarint(std::string &Key, uint64_t V) {
  while (V >= 0x80) {
    Key += static_cast<char>(static_cast<uint8_t>(V) | 0x80);
    V >>= 7;
  }
  Key += static_cast<char>(V);
}

namespace {

/// Appends \p V self-delimited: a value in BigInt's inline range is the
/// varint of its zigzag code shifted left one bit (tag 0); anything larger
/// is the varint of (length << 1 | 1) followed by its decimal digits.
void appendKeyValue(std::string &Key, const BigInt &V) {
  if (V.isSmallRep()) {
    // |V| < 2^62, so the zigzag code is below 2^63 and the shift is exact.
    const int64_t X = V.toInt64();
    const uint64_t Zig =
        (static_cast<uint64_t>(X) << 1) ^ static_cast<uint64_t>(X >> 63);
    appendKeyVarint(Key, Zig << 1);
    return;
  }
  const std::string Digits = V.toString();
  appendKeyVarint(Key, (uint64_t(Digits.size()) << 1) | 1);
  Key += Digits;
}

} // namespace

CanonicalConjunct omega::canonicalConjunct(const Conjunct &In) {
  CanonicalConjunct Out;
  std::vector<Constraint> Ks;
  Ks.reserve(In.constraints().size());
  for (const Constraint &K : In.constraints()) {
    Constraint N = K;
    if (!N.normalize() || N.isTriviallyFalse()) {
      Out.C = Conjunct();
      Out.C.add(Constraint::ge(AffineExpr(-1)));
      Out.Key = "UNSAT";
      return Out;
    }
    if (N.isTriviallyTrue())
      continue;
    Ks.push_back(std::move(N));
  }
  std::sort(Ks.begin(), Ks.end());
  Ks.erase(std::unique(Ks.begin(), Ks.end()), Ks.end());

  // The key sweeps the flat rows (DESIGN.md §8): the constraint count, then
  // per constraint its kind byte, a stride's modulus, the term count, the
  // (id, coefficient) pairs in storage (id) order and the constant; last the
  // used wildcard ids.  Every field is self-delimiting, so the key decodes
  // back to the clause and distinct canonical clauses get distinct keys.
  // The constraint *order* above is the observable name-based sort; only
  // the per-constraint rendering uses ids.
  std::string Key;
  Key.reserve(8 + Ks.size() * 12);
  appendKeyVarint(Key, Ks.size());
  for (Constraint &K : Ks) {
    Key += static_cast<char>(K.kind());
    if (K.isStride())
      appendKeyValue(Key, K.modulus());
    const AffineExpr &E = K.expr();
    appendKeyVarint(Key, E.numVars());
    for (const auto &[V, C] : E.terms()) {
      appendKeyVarint(Key, V.raw());
      appendKeyValue(Key, C);
    }
    appendKeyValue(Key, E.constant());
    Out.C.add(std::move(K));
  }
  // Only wildcards the canonical constraints still mention are part of the
  // clause's meaning (and of the key).
  VarSet Used = Out.C.mentionedVars();
  for (VarId W : In.wildcards().ids())
    if (Used.contains(W))
      Out.C.addWildcard(W);
  const std::vector<VarId> &Wilds = Out.C.wildcards().ids();
  appendKeyVarint(Key, Wilds.size());
  for (VarId W : Wilds)
    appendKeyVarint(Key, W.raw());
  Out.Key = std::move(Key);
  return Out;
}
