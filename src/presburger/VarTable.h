//===- presburger/VarTable.h - Interned variable identities ----*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The process-wide variable symbol table (DESIGN.md §16).  Every variable
/// name is interned exactly once into a `VarId` — a 32-bit handle whose
/// high bit records the wildcard role, so the hot paths (term merges,
/// feasibility pre-checks, cache keys) compare and hash machine integers
/// instead of strings, and `isWildcardName` becomes a bit test.
///
/// Invariant: equal names have equal ids and vice versa, process-wide, for
/// the lifetime of the process.  The table is append-only; `varName()` is
/// lock-free (ids are only handed out after their entry is published), and
/// `internVar()` takes a mutex but only runs at the boundary — the parser,
/// the string-taking API shims, and wildcard minting.
///
/// Determinism note: id *numeric order* is interning order, which under
/// concurrent queries (omegad sessions) depends on thread scheduling.  Ids therefore never
/// leak into observable orderings — anything printed or canonically sorted
/// orders by name (see AffineExpr::compareTerms / VarSet) — but they are
/// safe for process-local uses: term storage order, cache keys, hashes.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_PRESBURGER_VARTABLE_H
#define OMEGA_PRESBURGER_VARTABLE_H

#include <cstdint>
#include <string>
#include <string_view>

namespace omega {

/// Interned variable handle.  Cheap to copy, compare, and hash; the name is
/// one lock-free table lookup away.  The default-constructed id is invalid.
class VarId {
public:
  /// Role flag: set for wildcard variables (names minted by freshWildcard,
  /// all starting with '$').  Carried in the id so role tests never touch
  /// the name.
  static constexpr uint32_t WildcardBit = 1u << 31;
  static constexpr uint32_t InvalidRaw = ~0u;

  constexpr VarId() = default;
  constexpr explicit VarId(uint32_t Raw) : Raw(Raw) {}

  constexpr uint32_t raw() const { return Raw; }
  /// Index of this id's entry in the symbol table.
  constexpr uint32_t index() const { return Raw & ~WildcardBit; }
  constexpr bool isWildcard() const { return (Raw & WildcardBit) != 0; }
  constexpr bool valid() const { return Raw != InvalidRaw; }

  friend constexpr bool operator==(VarId L, VarId R) { return L.Raw == R.Raw; }
  friend constexpr bool operator!=(VarId L, VarId R) { return L.Raw != R.Raw; }
  /// Id (interning) order — process-local only, NOT name order.
  friend constexpr bool operator<(VarId L, VarId R) { return L.Raw < R.Raw; }

private:
  uint32_t Raw = InvalidRaw;
};

/// Interns \p Name, returning its process-unique id (creating an entry on
/// first sight).  Thread-safe; takes the intern mutex.
VarId internVar(std::string_view Name);

/// Returns the id of \p Name if it has ever been interned, otherwise an
/// invalid id.  Never creates an entry.  Thread-safe.
VarId lookupVar(std::string_view Name);

/// Returns the name of a valid id.  Lock-free and wait-free: entries are
/// immutable once published.
const std::string &varName(VarId Id);

/// Compares two variables by name (the observable order).  Equivalent to
/// varName(L).compare(varName(R)) but short-circuits equal ids.
int compareVarNames(VarId L, VarId R);

/// Mints a fresh wildcard id: "$<n>" process-globally, or the frame-local
/// "$<prefix>x<n>" inside the active context's naming frame
/// (support/QueryContext.h).  The name is built and interned exactly once,
/// here.
VarId freshWildcardId();

/// Number of interned entries (test/introspection hook).
uint32_t varTableSize();

} // namespace omega

template <> struct std::hash<omega::VarId> {
  size_t operator()(omega::VarId Id) const {
    // splitmix64 finalizer on the raw id.
    uint64_t X = Id.raw() + 0x9e3779b97f4a7c15ull;
    X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
    X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
    return static_cast<size_t>(X ^ (X >> 31));
  }
};

#endif // OMEGA_PRESBURGER_VARTABLE_H
