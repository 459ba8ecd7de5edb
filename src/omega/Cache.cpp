//===- omega/Cache.cpp - Memoized feasibility and projection -------------===//
//
// The public omega::feasible / omega::projectVars wrap the Projector-based
// implementations (Project.cpp) with a process-wide LRU cache keyed by the
// clause's canonical form.  Cache misses are computed on the *canonical*
// clause under a pinned wildcard scope, which makes the stored value a pure
// function of the key:
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
// Together these make it safe for racing threads to populate the same key:
// whichever insert lands first, the value is the same.  See DESIGN.md §8.
//
//===----------------------------------------------------------------------===//

#include "omega/Omega.h"

#include "support/Cache.h"
#include "support/QueryContext.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <atomic>
#include <string>

using namespace omega;

namespace {

/// Default capacity per cache (feasibility and projection are separate
/// caches so cheap feasibility entries cannot evict expensive projections).
constexpr size_t DefaultCapacity = 1 << 14;

/// Lock-free mirror of the caches' capacity, read on every feasible() /
/// projectVars() call.  Going through LruCache::capacity() would take the
/// cache mutex even when memoization is disabled, serializing the workers.
std::atomic<size_t> CapacityKnob{DefaultCapacity};

LruCache<bool> &feasCache() {
  static LruCache<bool> C(DefaultCapacity);
  return C;
}

LruCache<std::vector<Conjunct>> &projCache() {
  static LruCache<std::vector<Conjunct>> C(DefaultCapacity);
  return C;
}

/// Nesting depth of in-flight memoized computations on this thread.  A
/// miss at depth d computes under scope "k<d>"; nested misses (e.g. the
/// feasibility probes a Disjoint projection makes) get "k<d+1>".  The
/// depth a computation sees depends only on the key's own recursion
/// structure, so pinned names are reproducible per key.
thread_local unsigned PinDepth = 0;

class PinnedScope {
public:
  PinnedScope() : Scope("k" + std::to_string(PinDepth++)) {}
  ~PinnedScope() { --PinDepth; }

private:
  WildcardScope Scope;
};

/// Whether the *current query* participates in memoization: the storage
/// must have capacity, and the active QueryContext (if any) must not have
/// opted out.  Queries outside any context (direct API probes in tests)
/// default to participating.
bool cacheEnabled() {
  if (CapacityKnob.load(std::memory_order_relaxed) == 0)
    return false;
  const QueryContext *Ctx = activeQueryContext();
  return !Ctx || Ctx->CacheEnabled;
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
  if (!cacheEnabled())
    return detail::feasibleImpl(C);

  CanonicalConjunct Canon = canonicalConjunct(C);
  if (Canon.Key == "UNSAT")
    return false;
  if (std::optional<bool> Hit = feasCache().lookup(Canon.Key)) {
    pipelineStats().CacheHits += 1;
    traceCount(TraceCounter::CacheHits);
    return *Hit;
  }
  pipelineStats().CacheMisses += 1;
  traceCount(TraceCounter::CacheMisses);
  bool Result;
  {
    PinnedScope Pin;
    Result = detail::feasibleImpl(Canon.C);
  }
  pipelineStats().CacheEvictions +=
      feasCache().insert(std::move(Canon.Key), Result);
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
    PinnedScope Pin;
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
    PinnedScope Pin;
    Result = detail::projectVarsImpl(Canon.C, Vars, Mode);
  }
  pipelineStats().CacheEvictions += projCache().insert(std::move(Key), Result);
  Span.count(TraceCounter::ClausesOut, Result.size());
  return Result;
}

void omega::configureConjunctCache(size_t Capacity) {
  CapacityKnob.store(Capacity, std::memory_order_relaxed);
  feasCache().setCapacity(Capacity);
  projCache().setCapacity(Capacity);
}

size_t omega::conjunctCacheCapacity() {
  return CapacityKnob.load(std::memory_order_relaxed);
}

void omega::clearConjunctCache() {
  feasCache().clear();
  projCache().clear();
  feasCache().resetStats();
  projCache().resetStats();
}

ConjunctCacheStats omega::conjunctCacheStats() {
  CacheStats F = feasCache().stats();
  CacheStats P = projCache().stats();
  ConjunctCacheStats Out;
  Out.Hits = F.Hits + P.Hits;
  Out.Misses = F.Misses + P.Misses;
  Out.Evictions = F.Evictions + P.Evictions;
  Out.Entries = feasCache().size() + projCache().size();
  return Out;
}
