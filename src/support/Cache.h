//===- support/Cache.h - Bounded thread-safe LRU cache ---------*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A mutex-protected, bounded, least-recently-used cache from string keys
/// to values, with hit/miss/eviction counters.  The omega layer builds its
/// conjunct memoization (feasibility and projection results keyed by
/// canonical clause form) on top of this; see omega/Omega.h and DESIGN.md
/// §8 for what is and is not safe to memoize.
///
/// Values must be safe to copy out under the lock (the cache hands back
/// copies, never references, so entries can be evicted at any time).
///
/// Each key is stored once, in its recency-list node; the index maps
/// string_views of those keys (list nodes never move, so the views stay
/// valid until the node is erased, and the index entry goes first).
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_SUPPORT_CACHE_H
#define OMEGA_SUPPORT_CACHE_H

#include "support/ThreadAnnotations.h"

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace omega {

/// Counter snapshot for one cache.
struct CacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
};

/// Bounded LRU map<string, Value>.  A capacity of 0 disables the cache:
/// every lookup misses (uncounted) and inserts are dropped.
template <typename Value> class LruCache {
public:
  explicit LruCache(size_t Capacity) : Cap(Capacity) {}

  /// Returns a copy of the cached value and refreshes its recency, or
  /// nullopt on a miss.
  std::optional<Value> lookup(std::string_view Key) {
    MutexLock Lock(M);
    if (Cap == 0)
      return std::nullopt;
    auto It = Map.find(Key);
    if (It == Map.end()) {
      ++St.Misses;
      return std::nullopt;
    }
    Order.splice(Order.begin(), Order, It->second);
    ++St.Hits;
    return It->second->second;
  }

  /// Inserts (or refreshes) Key -> V, evicting least-recently-used entries
  /// beyond capacity.  Returns the number of entries evicted.
  size_t insert(std::string Key, Value V) {
    MutexLock Lock(M);
    if (Cap == 0)
      return 0;
    auto It = Map.find(Key);
    if (It != Map.end()) {
      // Racing computations of the same key produce equal values (keys
      // determine results); keep the existing entry, refresh recency.
      Order.splice(Order.begin(), Order, It->second);
      return 0;
    }
    Order.emplace_front(std::move(Key), std::move(V));
    Map.emplace(Order.front().first, Order.begin());
    size_t Evicted = 0;
    while (Map.size() > Cap) {
      evictOldest();
      ++Evicted;
    }
    St.Evictions += Evicted;
    return Evicted;
  }

  void setCapacity(size_t Capacity) {
    MutexLock Lock(M);
    Cap = Capacity;
    while (Map.size() > Cap) {
      evictOldest();
      ++St.Evictions;
    }
  }

  size_t capacity() const {
    MutexLock Lock(M);
    return Cap;
  }

  size_t size() const {
    MutexLock Lock(M);
    return Map.size();
  }

  /// Drops all entries (counters are kept; see resetStats).
  void clear() {
    MutexLock Lock(M);
    Map.clear();
    Order.clear();
  }

  CacheStats stats() const {
    MutexLock Lock(M);
    return St;
  }

  void resetStats() {
    MutexLock Lock(M);
    St = CacheStats();
  }

private:
  using Entry = std::pair<std::string, Value>;

  /// Drops the least recent entry: index first, while its key view is live.
  void evictOldest() OMEGA_REQUIRES(M) {
    Map.erase(Order.back().first);
    Order.pop_back();
  }

  mutable Mutex M;
  size_t Cap OMEGA_GUARDED_BY(M);
  /// Front = most recent.  Owns the keys.
  std::list<Entry> Order OMEGA_GUARDED_BY(M);
  /// Views into Order's keys.
  std::unordered_map<std::string_view, typename std::list<Entry>::iterator>
      Map OMEGA_GUARDED_BY(M);
  CacheStats St OMEGA_GUARDED_BY(M);
};

} // namespace omega

#endif // OMEGA_SUPPORT_CACHE_H
