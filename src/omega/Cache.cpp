//===- omega/Cache.cpp - Memoized feasibility and projection -------------===//
//
// The public omega::feasible / omega::projectVars wrap the Projector-based
// implementations (Project.cpp) with memo tables keyed by the clause's
// canonical form: feasibility answers in a small direct-mapped table owned
// by the calling thread, projections in one process-wide LRU cache.  Cache
// misses are computed on the *canonical* clause under a pinned wildcard
// scope, which makes the stored value a pure function of the key:
//
//   * canonicalConjunct sorts and normalizes constraints, so every clause
//     with the same key presents the Projector with an identical problem;
//   * the pinned scope ("k<depth>") means any wildcards minted during the
//     computation have names that depend only on the nesting depth of
//     memoized computations on this thread — not on global counter state or
//     on which thread (or in which order) racing misses run.  Returned
//     clauses are wildcard-free (the Omega.h invariant), so pinned names
//     never escape into results; they only steer internal elimination
//     order, identically for every computation of the same key.
//
// Together these make it safe for racing threads to populate the same
// projection key (whichever insert lands first, the value is the same) and
// for every thread to keep its own feasibility answers: no two threads can
// disagree about a key.  See DESIGN.md §8.
//
//===----------------------------------------------------------------------===//

#include "omega/Omega.h"

#include "support/Cache.h"
#include "support/QueryContext.h"
#include "support/Stats.h"
#include "support/ThreadAnnotations.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

using namespace omega;

namespace {

/// Default capacity: projection-cache entries, and the bound that slotsFor
/// turns into each thread's feasibility slots.
constexpr size_t DefaultCapacity = 1 << 14;

/// Lock-free mirror of the capacity, read on every feasible() /
/// projectVars() call.  Going through LruCache::capacity() would take the
/// cache mutex even when memoization is disabled, serializing the sessions.
std::atomic<size_t> CapacityKnob{DefaultCapacity};

/// Bumped by configureConjunctCache and clearConjunctCache.  A thread's
/// feasibility memo synced to an older epoch counts as empty, and its owner
/// empties (and resizes) it on the next access.
std::atomic<uint64_t> Epoch{1};

/// The epoch the last clearConjunctCache started.  Memo counters synced
/// before it belong to a cleared run and no longer count.
std::atomic<uint64_t> ClearedAt{1};

LruCache<std::vector<Conjunct>> &projCache() {
  static LruCache<std::vector<Conjunct>> C(DefaultCapacity);
  return C;
}

/// The largest power of two <= Capacity / 4, and at least 1; 0 disables.
/// A quarter, because every busy thread holds a table of its own: at the
/// default capacity, a full Capacity per thread raised omegad's peak RSS
/// by a tenth (DESIGN.md §8).
size_t slotsFor(size_t Capacity) {
  return Capacity ? std::bit_floor(std::max<size_t>(Capacity / 4, 1)) : 0;
}

/// Adds to a counter that only its owning thread writes: a plain load and
/// store (no locked read-modify-write), atomic only so that
/// conjunctCacheStats() may read it from another thread.
void bump(std::atomic<uint64_t> &C) {
  C.store(C.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

/// One thread's feasibility memo: a direct-mapped table from canonical key
/// to answer, with no lock, no recency list and, once the key buffers have
/// grown, no allocation.  Only the owning thread touches Slots or writes
/// the counters.
struct FeasMemo {
  struct Slot {
    std::string Key;
    bool Used = false;
    bool Value = false;
  };
  std::vector<Slot> Slots;         ///< Power-of-two size; empty = disabled.
  std::atomic<uint64_t> Synced{0}; ///< Epoch of Slots and the counters.
  std::atomic<uint64_t> Hits{0}, Misses{0}, Evictions{0}, Entries{0};

  /// Empties the table at epoch E, resized to the current capacity; the
  /// counters restart too if a clear came since the last sync.
  void sync(uint64_t E) {
    if (Synced.load(std::memory_order_relaxed) <
        ClearedAt.load(std::memory_order_relaxed))
      for (std::atomic<uint64_t> *C : {&Hits, &Misses, &Evictions})
        C->store(0, std::memory_order_relaxed);
    size_t N = slotsFor(CapacityKnob.load(std::memory_order_relaxed));
    if (Slots.size() != N)
      Slots = std::vector<Slot>(N);
    else
      for (Slot &S : Slots)
        S.Used = false;
    Entries.store(0, std::memory_order_relaxed);
    Synced.store(E, std::memory_order_release);
  }

  /// A hit needs the whole key to match, not just its slot.
  std::optional<bool> lookup(size_t Hash, std::string_view Key) {
    if (Slots.empty())
      return std::nullopt;
    const Slot &S = Slots[Hash & (Slots.size() - 1)];
    if (S.Used && S.Key == Key) {
      bump(Hits);
      return S.Value;
    }
    bump(Misses);
    return std::nullopt;
  }

  /// Overwrites Key's slot; returns 1 if that evicted another answer.
  /// Indexes afresh: a nested feasible() may have resized the table.
  size_t insert(size_t Hash, std::string_view Key, bool Value) {
    if (Slots.empty())
      return 0;
    Slot &S = Slots[Hash & (Slots.size() - 1)];
    const bool Evicted = S.Used;
    bump(Evicted ? Evictions : Entries);
    S.Key.assign(Key);
    S.Used = true;
    S.Value = Value;
    return Evicted;
  }
};

/// Every thread's memo.  A thread that exits parks its memo for the next
/// thread to adopt, so a new omegad session starts with the answers the
/// last one computed; beyond MaxParkedMemos, the memo is freed and its
/// counters fold into Retired until the next clear.  Locked when a thread
/// first uses its memo or exits, and by configure/clear/stats; never per
/// lookup.
struct MemoRegistry {
  Mutex M;
  std::vector<FeasMemo *> Live OMEGA_GUARDED_BY(M);
  std::vector<std::unique_ptr<FeasMemo>> Parked OMEGA_GUARDED_BY(M);
  CacheStats Retired OMEGA_GUARDED_BY(M);
};

/// Memos kept for adoption after their threads exit: enough for a burst of
/// sessions to reconnect warm, few enough that idle tables stay small.
constexpr size_t MaxParkedMemos = 8;

MemoRegistry &memoRegistry() {
  // Never destroyed: a thread may exit, and unregister, after static
  // destruction has begun.  omegatidy: allow(naked-new)
  static MemoRegistry *R = new MemoRegistry;
  return *R;
}

/// The calling thread's memo, adopted or created when the thread first
/// needs it and parked (or freed) when the thread exits.
struct ThreadMemo {
  std::unique_ptr<FeasMemo> Memo;

  ThreadMemo() {
    MemoRegistry &R = memoRegistry();
    MutexLock Lock(R.M);
    if (R.Parked.empty()) {
      Memo = std::make_unique<FeasMemo>();
    } else {
      Memo = std::move(R.Parked.back());
      R.Parked.pop_back();
    }
    R.Live.push_back(Memo.get());
  }

  ~ThreadMemo() {
    MemoRegistry &R = memoRegistry();
    MutexLock Lock(R.M);
    std::erase(R.Live, Memo.get());
    if (R.Parked.size() < MaxParkedMemos) {
      R.Parked.push_back(std::move(Memo));
      return;
    }
    if (Memo->Synced.load(std::memory_order_relaxed) >=
        ClearedAt.load(std::memory_order_relaxed)) {
      R.Retired.Hits += Memo->Hits.load(std::memory_order_relaxed);
      R.Retired.Misses += Memo->Misses.load(std::memory_order_relaxed);
      R.Retired.Evictions += Memo->Evictions.load(std::memory_order_relaxed);
    }
  }
};

FeasMemo &feasMemo() {
  // omegatidy: allow(thread-local) per-thread memo storage (DESIGN.md §8)
  thread_local ThreadMemo T;
  FeasMemo &M = *T.Memo;
  const uint64_t E = Epoch.load(std::memory_order_acquire);
  if (M.Synced.load(std::memory_order_relaxed) != E)
    M.sync(E);
  return M;
}

/// The naming frame a memoized computation runs in.  A miss at pin depth
/// d computes under "k<d>"; nested misses (e.g. the feasibility probes a
/// Disjoint projection makes) get "k<d+1>".  The depth a computation sees
/// depends only on the key's own recursion structure, so pinned names are
/// reproducible per key.
NamingFrame pinnedFrame() {
  const unsigned Depth = activeQueryContext().pinDepth();
  return NamingFrame("k" + std::to_string(Depth), Depth + 1);
}

/// Whether the *current query* participates in memoization: the storage
/// must have capacity, and the active context must not have opted out.
/// Work outside any query (direct API probes in tests) runs under the root
/// context, which participates.
bool cacheEnabled() {
  return CapacityKnob.load(std::memory_order_relaxed) != 0 &&
         activeQueryContext().CacheEnabled;
}

/// The canonical key (prefix-free) followed by the projected ids and the
/// mode, in the same varint encoding.
std::string projectionKey(std::string Key, const VarSet &Vars,
                          ShadowMode Mode) {
  appendKeyVarint(Key, Vars.size());
  for (VarId V : Vars.ids())
    appendKeyVarint(Key, V.raw());
  appendKeyVarint(Key, static_cast<uint64_t>(Mode));
  return Key;
}

} // namespace

bool omega::feasible(const Conjunct &C) {
  pipelineStats().FeasibilityTests += 1;
  // The unconstrained clause is Z^n: feasible with no Projector run and no
  // cache traffic.  Negation-driven callers (coalescing, gist) produce a
  // steady trickle of these, and canonicalizing an empty clause just to
  // hit the cache costs more than answering it.
  if (C.constraints().empty())
    return true;
  if (!cacheEnabled()) {
    // Pinned like a miss, so the wildcards the Projector mints reuse the
    // per-depth names instead of growing the append-only VarTable.
    QueryScope Pin(pinnedFrame());
    return detail::feasibleImpl(C);
  }

  CanonicalConjunct Canon = canonicalConjunct(C);
  if (Canon.Key == "UNSAT")
    return false;
  FeasMemo &Memo = feasMemo();
  const size_t Hash = std::hash<std::string_view>{}(Canon.Key);
  if (std::optional<bool> Hit = Memo.lookup(Hash, Canon.Key)) {
    pipelineStats().CacheHits += 1;
    traceCount(TraceCounter::CacheHits);
    return *Hit;
  }
  pipelineStats().CacheMisses += 1;
  traceCount(TraceCounter::CacheMisses);
  bool Result;
  {
    QueryScope Pin(pinnedFrame());
    Result = detail::feasibleImpl(Canon.C);
  }
  pipelineStats().CacheEvictions += Memo.insert(Hash, Canon.Key, Result);
  return Result;
}

std::vector<Conjunct> omega::projectVars(const Conjunct &C, const VarSet &Vars,
                                         ShadowMode Mode) {
  pipelineStats().ProjectionCalls += 1;
  TraceSpan Span("projectVars");
  Span.count(TraceCounter::ConstraintsIn, C.constraints().size());
  // Projection always runs on the canonical clause under a pinned scope —
  // even with the cache disabled — so its result (including constraint
  // order within returned clauses) is a function of the clause alone, not
  // of the cache knob.  feasible() below skips this on the uncached path
  // because a bool cannot carry ordering.
  CanonicalConjunct Canon = canonicalConjunct(C);
  if (!cacheEnabled()) {
    QueryScope Pin(pinnedFrame());
    std::vector<Conjunct> Result = detail::projectVarsImpl(Canon.C, Vars, Mode);
    Span.count(TraceCounter::ClausesOut, Result.size());
    return Result;
  }

  std::string Key = projectionKey(std::move(Canon.Key), Vars, Mode);
  if (std::optional<std::vector<Conjunct>> Hit = projCache().lookup(Key)) {
    pipelineStats().CacheHits += 1;
    Span.count(TraceCounter::CacheHits);
    Span.count(TraceCounter::ClausesOut, Hit->size());
    return std::move(*Hit);
  }
  pipelineStats().CacheMisses += 1;
  Span.count(TraceCounter::CacheMisses);
  std::vector<Conjunct> Result;
  {
    QueryScope Pin(pinnedFrame());
    Result = detail::projectVarsImpl(Canon.C, Vars, Mode);
  }
  pipelineStats().CacheEvictions += projCache().insert(std::move(Key), Result);
  Span.count(TraceCounter::ClausesOut, Result.size());
  return Result;
}

void omega::configureConjunctCache(size_t Capacity) {
  CapacityKnob.store(Capacity, std::memory_order_relaxed);
  projCache().setCapacity(Capacity);
  MemoRegistry &R = memoRegistry();
  MutexLock Lock(R.M);
  Epoch.store(Epoch.load(std::memory_order_relaxed) + 1,
              std::memory_order_release);
}

size_t omega::conjunctCacheCapacity() {
  return CapacityKnob.load(std::memory_order_relaxed);
}

void omega::clearConjunctCache() {
  projCache().clear();
  projCache().resetStats();
  MemoRegistry &R = memoRegistry();
  MutexLock Lock(R.M);
  // ClearedAt first: a thread that sees the new epoch must see it too.
  const uint64_t E = Epoch.load(std::memory_order_relaxed) + 1;
  ClearedAt.store(E, std::memory_order_relaxed);
  Epoch.store(E, std::memory_order_release);
  R.Retired = CacheStats();
}

ConjunctCacheStats omega::conjunctCacheStats() {
  CacheStats P = projCache().stats();
  ConjunctCacheStats Out;
  Out.Entries = projCache().size();
  MemoRegistry &R = memoRegistry();
  MutexLock Lock(R.M);
  Out.Hits = P.Hits + R.Retired.Hits;
  Out.Misses = P.Misses + R.Retired.Misses;
  Out.Evictions = P.Evictions + R.Retired.Evictions;
  const uint64_t E = Epoch.load(std::memory_order_relaxed);
  const uint64_t Cleared = ClearedAt.load(std::memory_order_relaxed);
  auto Add = [&](const FeasMemo &M) {
    const uint64_t Synced = M.Synced.load(std::memory_order_acquire);
    if (Synced < Cleared)
      return;
    Out.Hits += M.Hits.load(std::memory_order_relaxed);
    Out.Misses += M.Misses.load(std::memory_order_relaxed);
    Out.Evictions += M.Evictions.load(std::memory_order_relaxed);
    if (Synced == E)
      Out.Entries += M.Entries.load(std::memory_order_relaxed);
  };
  for (const FeasMemo *M : R.Live)
    Add(*M);
  for (const std::unique_ptr<FeasMemo> &M : R.Parked)
    Add(*M);
  return Out;
}
