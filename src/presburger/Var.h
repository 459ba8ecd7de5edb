//===- presburger/Var.h - Variable names and assignments -------*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Variables are interned by name into VarIds (presburger/VarTable.h).  A
/// variable plays one of three roles per query, following the paper's
/// terminology:
///   * counted variables (the set V of a summation (Σ V : P : x)),
///   * symbolic constants (remaining free variables; answers are given in
///     terms of these),
///   * wildcards (existentially quantified clause-local auxiliaries, named
///     "$<n>" so they can never collide with user variables; the role is
///     also carried in the id's high bit).
/// Wildcard names are minted in the active query context's naming frame
/// (support/QueryContext.h): "$<prefix>x<n>" inside a frame, and from the
/// process-global counter "$<n>" outside any.  forEachDisjunct below and
/// the conjunct cache's memo pins install the frames.
///
/// VarSet and Assignment are flat id vectors: a VarSet is sorted by *name*
/// (so iteration order — the observable order everywhere clauses print or
/// canonically sort — is identical to the std::set<std::string> it
/// replaces), while an Assignment is sorted by *id* (so evaluation is a
/// merge-join with AffineExpr's id-sorted terms).  String-taking methods
/// remain as thin interning shims for the parser, tools, and tests.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_PRESBURGER_VAR_H
#define OMEGA_PRESBURGER_VAR_H

#include "presburger/VarTable.h"
#include "support/BigInt.h"

#include <functional>
#include <initializer_list>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace omega {

/// Deterministically ordered set of variables: a flat vector of VarIds
/// sorted by variable *name*.  Iterators dereference to the name, so code
/// written against std::set<std::string> (range-for over names, count/
/// insert/erase by name, std::includes) keeps working; id-based accessors
/// provide the allocation-free fast paths.
class VarSet {
public:
  using value_type = std::string;

  class iterator {
  public:
    using iterator_category = std::bidirectional_iterator_tag;
    using value_type = std::string;
    using difference_type = std::ptrdiff_t;
    using pointer = const std::string *;
    using reference = const std::string &;

    iterator() = default;
    const std::string &operator*() const { return varName(*P); }
    const std::string *operator->() const { return &varName(*P); }
    iterator &operator++() {
      ++P;
      return *this;
    }
    iterator operator++(int) {
      iterator T = *this;
      ++P;
      return T;
    }
    iterator &operator--() {
      --P;
      return *this;
    }
    iterator operator--(int) {
      iterator T = *this;
      --P;
      return T;
    }
    /// The interned id at this position (fast-path accessor).
    VarId id() const { return *P; }
    friend bool operator==(iterator L, iterator R) { return L.P == R.P; }
    friend bool operator!=(iterator L, iterator R) { return L.P != R.P; }

  private:
    explicit iterator(const VarId *P) : P(P) {}
    const VarId *P = nullptr;
    friend class VarSet;
  };
  using const_iterator = iterator;
  using reverse_iterator = std::reverse_iterator<iterator>;
  using const_reverse_iterator = reverse_iterator;

  VarSet() = default;
  VarSet(std::initializer_list<std::string> Names) {
    for (const std::string &N : Names)
      insert(N);
  }
  template <typename It> VarSet(It First, It Last) {
    for (; First != Last; ++First)
      insert(*First);
  }

  iterator begin() const { return iterator(Ids.data()); }
  iterator end() const { return iterator(Ids.data() + Ids.size()); }
  reverse_iterator rbegin() const { return reverse_iterator(end()); }
  reverse_iterator rend() const { return reverse_iterator(begin()); }

  bool empty() const { return Ids.empty(); }
  size_t size() const { return Ids.size(); }
  void clear() { Ids.clear(); }
  void swap(VarSet &Other) { Ids.swap(Other.Ids); }

  std::pair<iterator, bool> insert(VarId V) {
    size_t Pos = lowerBoundPos(V);
    if (Pos < Ids.size() && Ids[Pos] == V)
      return {iterator(Ids.data() + Pos), false};
    Ids.insert(Ids.begin() + static_cast<std::ptrdiff_t>(Pos), V);
    return {iterator(Ids.data() + Pos), true};
  }
  std::pair<iterator, bool> insert(const std::string &Name) {
    return insert(internVar(Name));
  }
  template <typename It> void insert(It First, It Last) {
    for (; First != Last; ++First)
      insert(*First);
  }

  size_t erase(VarId V) {
    size_t Pos = lowerBoundPos(V);
    if (Pos >= Ids.size() || Ids[Pos] != V)
      return 0;
    Ids.erase(Ids.begin() + static_cast<std::ptrdiff_t>(Pos));
    return 1;
  }
  size_t erase(const std::string &Name) {
    VarId V = lookupVar(Name);
    return V.valid() ? erase(V) : 0;
  }
  iterator erase(iterator It) {
    size_t Pos = static_cast<size_t>(It.P - Ids.data());
    Ids.erase(Ids.begin() + static_cast<std::ptrdiff_t>(Pos));
    return iterator(Ids.data() + Pos);
  }

  bool contains(VarId V) const {
    size_t Pos = lowerBoundPos(V);
    return Pos < Ids.size() && Ids[Pos] == V;
  }
  bool contains(const std::string &Name) const {
    VarId V = lookupVar(Name);
    return V.valid() && contains(V);
  }
  size_t count(VarId V) const { return contains(V) ? 1 : 0; }
  size_t count(const std::string &Name) const { return contains(Name) ? 1 : 0; }

  iterator find(const std::string &Name) const {
    VarId V = lookupVar(Name);
    if (!V.valid())
      return end();
    size_t Pos = lowerBoundPos(V);
    if (Pos >= Ids.size() || Ids[Pos] != V)
      return end();
    return iterator(Ids.data() + Pos);
  }

  /// The underlying name-sorted id vector (fast-path iteration).
  const std::vector<VarId> &ids() const { return Ids; }

  /// Superset test: true iff every member of \p Sub is in this set.
  /// Two-pointer walk over the shared name order; compares names only to
  /// advance past non-members.
  bool includes(const VarSet &Sub) const {
    size_t I = 0;
    for (VarId V : Sub.Ids) {
      while (I < Ids.size() && Ids[I] != V &&
             compareVarNames(Ids[I], V) < 0)
        ++I;
      if (I >= Ids.size() || Ids[I] != V)
        return false;
      ++I;
    }
    return true;
  }

  friend bool operator==(const VarSet &L, const VarSet &R) {
    return L.Ids == R.Ids;
  }
  friend bool operator!=(const VarSet &L, const VarSet &R) {
    return !(L == R);
  }

private:
  /// First position whose name is not less than V's name.
  size_t lowerBoundPos(VarId V) const {
    size_t Lo = 0, Hi = Ids.size();
    while (Lo < Hi) {
      size_t Mid = Lo + (Hi - Lo) / 2;
      if (Ids[Mid] == V ? false : compareVarNames(Ids[Mid], V) < 0)
        Lo = Mid + 1;
      else
        Hi = Mid;
    }
    return Lo;
  }

  std::vector<VarId> Ids; ///< Sorted by name (the observable order).
};

/// A concrete integer valuation of variables: a flat vector of
/// (VarId, value) entries sorted by id, so AffineExpr::evaluate is a
/// linear merge-join.  Iteration yields std::pair<VarId, BigInt> in id
/// order — deterministic within a process, but NOT name order; callers
/// that print assignments sort by name themselves.
class Assignment {
public:
  using Entry = std::pair<VarId, BigInt>;
  using value_type = Entry;
  using iterator = std::vector<Entry>::iterator;
  using const_iterator = std::vector<Entry>::const_iterator;

  Assignment() = default;
  Assignment(std::initializer_list<std::pair<std::string, BigInt>> Init) {
    for (const auto &[Name, Value] : Init)
      (*this)[Name] = Value;
  }

  iterator begin() { return Entries.begin(); }
  iterator end() { return Entries.end(); }
  const_iterator begin() const { return Entries.begin(); }
  const_iterator end() const { return Entries.end(); }

  bool empty() const { return Entries.empty(); }
  size_t size() const { return Entries.size(); }
  void clear() { Entries.clear(); }

  BigInt &operator[](VarId V) {
    size_t Pos = lowerBoundPos(V);
    if (Pos < Entries.size() && Entries[Pos].first == V)
      return Entries[Pos].second;
    return Entries
        .emplace(Entries.begin() + static_cast<std::ptrdiff_t>(Pos), V,
                 BigInt(0))
        ->second;
  }
  BigInt &operator[](const std::string &Name) {
    return (*this)[internVar(Name)];
  }

  /// Fast lookup: the stored value, or nullptr when unbound.
  const BigInt *lookup(VarId V) const {
    size_t Pos = lowerBoundPos(V);
    if (Pos < Entries.size() && Entries[Pos].first == V)
      return &Entries[Pos].second;
    return nullptr;
  }

  /// Checked access (std::map::at compatible): throws std::out_of_range
  /// when \p V is unbound.
  const BigInt &at(VarId V) const {
    if (const BigInt *P = lookup(V))
      return *P;
    throw std::out_of_range("Assignment::at: unbound variable");
  }
  const BigInt &at(const std::string &Name) const {
    VarId V = lookupVar(Name);
    if (V.valid())
      if (const BigInt *P = lookup(V))
        return *P;
    throw std::out_of_range("Assignment::at: unbound variable " + Name);
  }

  const_iterator find(VarId V) const {
    size_t Pos = lowerBoundPos(V);
    if (Pos < Entries.size() && Entries[Pos].first == V)
      return Entries.begin() + static_cast<std::ptrdiff_t>(Pos);
    return Entries.end();
  }
  const_iterator find(const std::string &Name) const {
    VarId V = lookupVar(Name);
    return V.valid() ? find(V) : Entries.end();
  }
  iterator find(VarId V) {
    size_t Pos = lowerBoundPos(V);
    if (Pos < Entries.size() && Entries[Pos].first == V)
      return Entries.begin() + static_cast<std::ptrdiff_t>(Pos);
    return Entries.end();
  }
  iterator find(const std::string &Name) {
    VarId V = lookupVar(Name);
    return V.valid() ? find(V) : Entries.end();
  }

  size_t count(VarId V) const { return lookup(V) ? 1 : 0; }
  size_t count(const std::string &Name) const {
    VarId V = lookupVar(Name);
    return V.valid() && lookup(V) ? 1 : 0;
  }

  /// Inserts (V, Value) if V is unbound; returns (position, inserted).
  std::pair<iterator, bool> emplace(VarId V, BigInt Value) {
    size_t Pos = lowerBoundPos(V);
    if (Pos < Entries.size() && Entries[Pos].first == V)
      return {Entries.begin() + static_cast<std::ptrdiff_t>(Pos), false};
    return {Entries.emplace(Entries.begin() +
                                static_cast<std::ptrdiff_t>(Pos),
                            V, std::move(Value)),
            true};
  }
  std::pair<iterator, bool> emplace(const std::string &Name, BigInt Value) {
    return emplace(internVar(Name), std::move(Value));
  }
  /// Range insert (std::map compatible): keeps existing bindings.
  template <typename It> void insert(It First, It Last) {
    for (; First != Last; ++First)
      emplace(First->first, First->second);
  }

  size_t erase(VarId V) {
    size_t Pos = lowerBoundPos(V);
    if (Pos >= Entries.size() || Entries[Pos].first != V)
      return 0;
    Entries.erase(Entries.begin() + static_cast<std::ptrdiff_t>(Pos));
    return 1;
  }
  size_t erase(const std::string &Name) {
    VarId V = lookupVar(Name);
    return V.valid() ? erase(V) : 0;
  }

  friend bool operator==(const Assignment &L, const Assignment &R) {
    return L.Entries == R.Entries;
  }
  friend bool operator!=(const Assignment &L, const Assignment &R) {
    return !(L == R);
  }

private:
  size_t lowerBoundPos(VarId V) const {
    size_t Lo = 0, Hi = Entries.size();
    while (Lo < Hi) {
      size_t Mid = Lo + (Hi - Lo) / 2;
      if (Entries[Mid].first < V)
        Lo = Mid + 1;
      else
        Hi = Mid;
    }
    return Lo;
  }

  std::vector<Entry> Entries; ///< Sorted by id (merge-join order).
};

/// Returns a process-unique wildcard name "$<n>", or the frame-local name
/// "$<prefix>x<n>" inside a naming frame (support/QueryContext.h).  Shim
/// over freshWildcardId() (VarTable.h) for name-level callers.
std::string freshWildcard();

/// Returns true for names produced by freshWildcard().  Prefer
/// VarId::isWildcard() — a bit test — when an id is at hand.
inline bool isWildcardName(const std::string &Name) {
  return !Name.empty() && Name[0] == '$';
}

/// Runs Fn(0..N-1) in index order on the calling thread, each index under
/// its own naming frame "<batch>t<I>".  This keeps wildcard names a
/// function of the query alone (DESIGN.md §8): a frame's prefix depends
/// only on the item's position in the disjunct tree, so the names an item
/// mints do not depend on how much an earlier sibling minted.  The batch
/// prefix is frame-local inside a frame ("<frame>b<k>"), otherwise
/// process-global ("g<k>"), and is allocated once per call.
void forEachDisjunct(size_t N, const std::function<void(size_t)> &Fn);

/// Resets the process-global wildcard and batch counters to zero so a
/// repeated run mints identical names.  Test/bench hook only: existing
/// clauses keep their names, so mixing objects from before and after a
/// reset can capture wildcards.  Must be called outside any naming frame.
void resetWildcardState();

} // namespace omega

#endif // OMEGA_PRESBURGER_VAR_H
