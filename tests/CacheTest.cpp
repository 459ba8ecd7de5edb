//===- tests/CacheTest.cpp - LruCache + conjunct memoization tests -------===//
//
// Three layers of coverage: the generic bounded LRU map (support/Cache.h),
// the canonical conjunct key (presburger/Conjunct.h) — specifically that
// semantics-preserving rewrites (permutation, scaling, duplication,
// trivially-true constraints) collide onto one key — and the memoized
// omega entry points (omega/Cache.cpp): cached and uncached answers agree,
// also with threads racing clears and resizes, and the stats
// counters/eviction bookkeeping add up across threads.
//
//===----------------------------------------------------------------------===//

#include "omega/Omega.h"
#include "presburger/VarTable.h"
#include "support/Cache.h"
#include "support/QueryContext.h"

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

using namespace omega;

namespace {

AffineExpr var(const std::string &N) { return AffineExpr::variable(N); }

//===----------------------------------------------------------------------===//
// LruCache
//===----------------------------------------------------------------------===//

TEST(LruCache, HitMissAndCounters) {
  LruCache<int> C(4);
  EXPECT_FALSE(C.lookup("a").has_value());
  EXPECT_EQ(C.insert("a", 1), 0u);
  auto Hit = C.lookup("a");
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(*Hit, 1);
  CacheStats S = C.stats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Evictions, 0u);
  EXPECT_EQ(C.size(), 1u);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache<int> C(2);
  C.insert("a", 1);
  C.insert("b", 2);
  // Touch "a" so "b" becomes the LRU entry.
  EXPECT_TRUE(C.lookup("a").has_value());
  EXPECT_EQ(C.insert("c", 3), 1u);
  EXPECT_TRUE(C.lookup("a").has_value());
  EXPECT_FALSE(C.lookup("b").has_value()) << "LRU entry should be evicted";
  EXPECT_TRUE(C.lookup("c").has_value());
  EXPECT_EQ(C.stats().Evictions, 1u);
}

TEST(LruCache, InsertExistingRefreshesRecency) {
  LruCache<int> C(2);
  C.insert("a", 1);
  C.insert("b", 2);
  // Re-inserting "a" keeps the first value and refreshes recency, so the
  // next eviction takes "b".
  EXPECT_EQ(C.insert("a", 99), 0u);
  C.insert("c", 3);
  auto A = C.lookup("a");
  ASSERT_TRUE(A.has_value());
  EXPECT_EQ(*A, 1) << "racing re-insert must keep the original value";
  EXPECT_FALSE(C.lookup("b").has_value());
}

TEST(LruCache, CapacityZeroDisables) {
  LruCache<int> C(0);
  C.insert("a", 1);
  EXPECT_FALSE(C.lookup("a").has_value());
  EXPECT_EQ(C.size(), 0u);
  // Disabled lookups are uncounted: a disabled cache reports 0% activity
  // instead of a misleading 100% miss rate.
  EXPECT_EQ(C.stats().Misses, 0u);
}

TEST(LruCache, ShrinkEvictsAndClearKeepsCounters) {
  LruCache<int> C(4);
  for (int I = 0; I < 4; ++I)
    C.insert(std::string(1, char('a' + I)), I);
  C.setCapacity(1);
  EXPECT_EQ(C.size(), 1u);
  EXPECT_EQ(C.stats().Evictions, 3u);
  C.clear();
  EXPECT_EQ(C.size(), 0u);
  EXPECT_EQ(C.stats().Evictions, 3u) << "clear() keeps counters";
  C.resetStats();
  EXPECT_EQ(C.stats().Evictions, 0u);
}

TEST(LruCache, SingleOwnedKeysSurviveEvictionAndReinsert) {
  // Short keys live inside their list node (small-string buffer), long
  // ones on the heap; binary keys carry NUL bytes.  The index holds views
  // of those keys, so lookups must work from independent copies and across
  // evictions, refreshes and re-inserts.
  const std::string Long(200, 'k');
  const std::string Nul1("a\0b", 3), Nul2("a\0c", 3);
  LruCache<int> C(3);
  C.insert(Long + "1", 1);
  C.insert(Nul1, 2);
  C.insert(Nul2, 3);
  EXPECT_EQ(C.lookup(std::string(Nul1)), std::optional<int>(2));
  EXPECT_EQ(C.lookup(std::string(Nul2)), std::optional<int>(3));
  EXPECT_FALSE(C.lookup(std::string_view("a", 1)).has_value());
  // Refresh the long key, then evict Nul1 (now the oldest).
  EXPECT_EQ(C.insert(Long + "1", 99), 0u);
  EXPECT_EQ(C.insert("d", 4), 1u);
  EXPECT_FALSE(C.lookup(Nul1).has_value());
  EXPECT_EQ(C.lookup(Long + "1"), std::optional<int>(1));
  // Re-insert the evicted key: a fresh entry owning a fresh key.
  EXPECT_EQ(C.insert(Nul1, 5), 1u); // Evicts Nul2.
  EXPECT_EQ(C.lookup(Nul1), std::optional<int>(5));
  EXPECT_FALSE(C.lookup(Nul2).has_value());
  EXPECT_EQ(C.size(), 3u);
  // Churn far past capacity: every surviving key still resolves.
  for (int I = 0; I < 100; ++I)
    C.insert(Long + std::to_string(I), I);
  EXPECT_EQ(C.size(), 3u);
  for (int I = 97; I < 100; ++I)
    EXPECT_EQ(C.lookup(Long + std::to_string(I)), std::optional<int>(I));
  C.setCapacity(1);
  EXPECT_EQ(C.lookup(Long + "99"), std::optional<int>(99));
  EXPECT_EQ(C.size(), 1u);
}

//===----------------------------------------------------------------------===//
// Canonical conjunct keys
//===----------------------------------------------------------------------===//

TEST(CanonicalKey, PermutedConstraintsCollide) {
  Conjunct A, B;
  A.add(Constraint::ge(var("x") - AffineExpr(1)));
  A.add(Constraint::ge(AffineExpr(10) - var("y")));
  A.add(Constraint::stride(3, var("x") + var("y")));
  B.add(Constraint::stride(3, var("x") + var("y")));
  B.add(Constraint::ge(AffineExpr(10) - var("y")));
  B.add(Constraint::ge(var("x") - AffineExpr(1)));
  EXPECT_EQ(canonicalConjunct(A).Key, canonicalConjunct(B).Key);
}

TEST(CanonicalKey, ScaledConstraintsCollide) {
  // 2x + 2y - 4 >= 0 normalizes (GCD division) to x + y - 2 >= 0.
  Conjunct A, B;
  A.add(Constraint::ge(BigInt(2) * var("x") + BigInt(2) * var("y") -
                       AffineExpr(4)));
  B.add(Constraint::ge(var("x") + var("y") - AffineExpr(2)));
  EXPECT_EQ(canonicalConjunct(A).Key, canonicalConjunct(B).Key);
}

TEST(CanonicalKey, DuplicatesAndTautologiesDropOut) {
  Conjunct A, B;
  A.add(Constraint::ge(var("x")));
  A.add(Constraint::ge(var("x")));          // duplicate
  A.add(Constraint::ge(AffineExpr(5)));     // trivially true
  B.add(Constraint::ge(var("x")));
  EXPECT_EQ(canonicalConjunct(A).Key, canonicalConjunct(B).Key);
}

TEST(CanonicalKey, InfeasibleCollapsesToUnsat) {
  Conjunct A;
  A.add(Constraint::ge(var("x")));
  A.add(Constraint::ge(AffineExpr(-3))); // -3 >= 0: trivially false
  CanonicalConjunct Canon = canonicalConjunct(A);
  EXPECT_EQ(Canon.Key, "UNSAT");
  EXPECT_FALSE(feasible(Canon.C));
}

TEST(CanonicalKey, UnusedWildcardsDropOut) {
  Conjunct A, B;
  A.add(Constraint::ge(var("x") - var("'w0")));
  A.addWildcard("'w0");
  A.addWildcard("'w1"); // mentioned nowhere
  B.add(Constraint::ge(var("x") - var("'w0")));
  B.addWildcard("'w0");
  EXPECT_EQ(canonicalConjunct(A).Key, canonicalConjunct(B).Key);
  // But a *used* wildcard is part of the key: dropping it changes meaning.
  Conjunct C;
  C.add(Constraint::ge(var("x") - var("'w0")));
  EXPECT_NE(canonicalConjunct(A).Key, canonicalConjunct(C).Key);
}

TEST(CanonicalKey, DifferentConstantsDiffer) {
  Conjunct A, B;
  A.add(Constraint::ge(var("x") - AffineExpr(1)));
  B.add(Constraint::ge(var("x") - AffineExpr(2)));
  EXPECT_NE(canonicalConjunct(A).Key, canonicalConjunct(B).Key);
}

/// Values at the edges of the key's value encoding: BigInt's inline range
/// ends at 2^62 - 1; 2^62 and beyond take the decimal escape.
std::vector<BigInt> boundaryValues() {
  std::vector<BigInt> Out;
  // Varint byte edges, 2^61, 2^62 - 1, 2^62, 2^62 + 1, 2^63, 2^64 + 1, 2^32
  // and 2^128 (five limbs).
  for (const char *Mag :
       {"1", "2", "63", "64", "127", "128", "2305843009213693952",
        "4611686018427387903", "4611686018427387904", "4611686018427387905",
        "9223372036854775808", "18446744073709551617",
        "4294967296", "340282366920938463463374607431768211456"}) {
    Out.push_back(BigInt(std::string_view(Mag)));
    Out.push_back(-BigInt(std::string_view(Mag)));
  }
  return Out;
}

/// Asserts the keys are pairwise distinct.
void expectDistinct(const std::vector<std::string> &Keys) {
  for (size_t I = 0; I < Keys.size(); ++I)
    for (size_t J = I + 1; J < Keys.size(); ++J)
      EXPECT_NE(Keys[I], Keys[J]) << "keys " << I << " and " << J;
}

TEST(CanonicalKey, CoefficientsAtEncodingBoundariesDiffer) {
  // x + v*y + 1 >= 0: unit coefficient on x keeps v unnormalized.
  std::vector<std::string> Keys;
  for (const BigInt &V : boundaryValues()) {
    Conjunct C;
    C.add(Constraint::ge(var("x") + V * var("y") + AffineExpr(1)));
    Keys.push_back(canonicalConjunct(C).Key);
  }
  expectDistinct(Keys);
}

TEST(CanonicalKey, ConstantsAtEncodingBoundariesDiffer) {
  std::vector<std::string> Keys;
  std::vector<BigInt> Values = boundaryValues();
  Values.push_back(BigInt(0));
  for (const BigInt &V : Values) {
    Conjunct C;
    C.add(Constraint::ge(var("x") + AffineExpr(V)));
    C.add(Constraint::eq(var("y") - AffineExpr(V)));
    Keys.push_back(canonicalConjunct(C).Key);
  }
  expectDistinct(Keys);
}

TEST(CanonicalKey, SpilledValuesMatchTheirNormalForm) {
  // The same value reached by arithmetic and by parsing keys identically,
  // and a spilled clause that normalizes back into the inline range keys
  // like its small twin.
  const BigInt P62 = BigInt(std::string_view("4611686018427387904"));
  const BigInt Built = BigInt(int64_t(1) << 61) * BigInt(2);
  ASSERT_FALSE(Built.isSmallRep());
  Conjunct A, B;
  A.add(Constraint::ge(var("x") - P62 * var("y") + AffineExpr(P62)));
  B.add(Constraint::ge(var("x") - Built * var("y") + AffineExpr(Built)));
  EXPECT_EQ(canonicalConjunct(A).Key, canonicalConjunct(B).Key);

  Conjunct Scaled, Small;
  Scaled.add(Constraint::ge(P62 * var("x") + P62 * BigInt(2) * var("y") -
                            P62 * BigInt(3)));
  Small.add(Constraint::ge(var("x") + BigInt(2) * var("y") - AffineExpr(3)));
  EXPECT_EQ(canonicalConjunct(Scaled).Key, canonicalConjunct(Small).Key);
}

TEST(CanonicalKey, FieldPositionsAreNotInterchangeable) {
  // The same numbers in different fields: stride modulus against
  // coefficient, coefficient against constant, one constraint against two,
  // and a term against the wildcard list.
  std::vector<std::string> Keys;
  auto Add = [&](Conjunct C) { Keys.push_back(canonicalConjunct(C).Key); };
  {
    Conjunct C;
    C.add(Constraint::stride(BigInt(5), var("x") + BigInt(2) * var("y")));
    Add(C);
  }
  {
    Conjunct C;
    C.add(Constraint::stride(BigInt(7), var("x") + BigInt(5) * var("y")));
    Add(C);
  }
  {
    Conjunct C;
    C.add(Constraint::ge(var("x") + BigInt(5) * var("y") + AffineExpr(2)));
    Add(C);
  }
  {
    Conjunct C;
    C.add(Constraint::ge(var("x") + BigInt(2) * var("y") + AffineExpr(5)));
    Add(C);
  }
  {
    Conjunct C;
    C.add(Constraint::ge(var("x") + BigInt(2) * var("y")));
    C.add(Constraint::ge(AffineExpr(5) - var("x")));
    Add(C);
  }
  {
    Conjunct C;
    C.add(Constraint::ge(var("x") + BigInt(2) * var("y") + AffineExpr(5)));
    C.add(Constraint::eq(var("x") + var("'kw"))); // Free 'kw.
    Add(C);
  }
  {
    Conjunct C;
    C.add(Constraint::ge(var("x") + BigInt(2) * var("y") + AffineExpr(5)));
    C.add(Constraint::eq(var("x") + var("'kw")));
    C.addWildcard("'kw"); // The same shape, existential.
    Add(C);
  }
  expectDistinct(Keys);
}

TEST(CanonicalKey, EqualKeysIffEqualCanonicalClauses) {
  // Random small clauses over few variables and values collide often in
  // canonical form; the key must merge exactly those.  Canonical clauses
  // are compared through their printed form (names, values, order and
  // wildcards).
  std::mt19937_64 Rng(99);
  auto Pick = [&](int N) { return static_cast<int>(Rng() % unsigned(N)); };
  const std::vector<BigInt> Edges = boundaryValues();
  auto Value = [&] {
    return Pick(8) == 0 ? Edges[Pick(int(Edges.size()))]
                        : BigInt(int64_t(Pick(7)) - 3);
  };
  const char *Names[] = {"x", "y", "z", "'kw"};
  std::map<std::string, std::string> ByKey, ByClause;
  for (int I = 0; I < 4000; ++I) {
    Conjunct C;
    for (int K = 1 + Pick(3); K > 0; --K) {
      AffineExpr E(Value());
      for (int T = Pick(4); T > 0; --T)
        E += Value() * var(Names[Pick(4)]);
      switch (Pick(3)) {
      case 0:
        C.add(Constraint::eq(std::move(E)));
        break;
      case 1:
        C.add(Constraint::ge(std::move(E)));
        break;
      default:
        C.add(Constraint::stride(BigInt(2 + Pick(3)), std::move(E)));
        break;
      }
    }
    if (Pick(2))
      C.addWildcard("'kw");
    CanonicalConjunct Canon = canonicalConjunct(C);
    const std::string Shape = Canon.C.toString();
    auto [KIt, NewKey] = ByKey.emplace(Canon.Key, Shape);
    auto [CIt, NewClause] = ByClause.emplace(Shape, Canon.Key);
    EXPECT_EQ(KIt->second, Shape) << "one key for two canonical clauses";
    EXPECT_EQ(CIt->second, Canon.Key) << "two keys for " << Shape;
    EXPECT_EQ(NewKey, NewClause);
  }
  EXPECT_LT(ByKey.size(), 4000u) << "the generator should repeat clauses";
}

TEST(CanonicalKey, NoClauseKeysAsUnsat) {
  // 85 constraints put 'U' (0x55) in the count byte; the kind byte after
  // it can never be 'N'.
  Conjunct C;
  for (int I = 0; I < 85; ++I)
    C.add(Constraint::ge(var("x") + BigInt(I + 2) * var("y") + AffineExpr(I)));
  CanonicalConjunct Canon = canonicalConjunct(C);
  ASSERT_EQ(Canon.C.constraints().size(), 85u);
  EXPECT_EQ(Canon.Key[0], 'U');
  EXPECT_NE(Canon.Key.substr(0, 5), "UNSAT");
}

//===----------------------------------------------------------------------===//
// Memoized omega entry points
//===----------------------------------------------------------------------===//

/// A deterministic little pool of random conjuncts over x, y.
std::vector<Conjunct> randomConjuncts(unsigned Seed, int Count) {
  std::mt19937_64 Rng(Seed);
  auto RC = [&] { return BigInt(int64_t(Rng() % 9) - 4); };
  std::vector<Conjunct> Out;
  for (int I = 0; I < Count; ++I) {
    Conjunct C;
    unsigned N = 2 + Rng() % 3;
    for (unsigned K = 0; K < N; ++K)
      C.add(Constraint::ge(RC() * var("x") + RC() * var("y") +
                           AffineExpr(RC() * 3)));
    C.add(Constraint::ge(var("x") + AffineExpr(6)));
    C.add(Constraint::ge(AffineExpr(6) - var("x")));
    Out.push_back(std::move(C));
  }
  return Out;
}

/// RAII: restores the default cache capacity and a clean cache.
struct CacheGuard {
  ~CacheGuard() {
    configureConjunctCache(size_t(1) << 14);
    clearConjunctCache();
  }
};

TEST(ConjunctCache, CachedMatchesUncached) {
  CacheGuard Guard;
  std::vector<Conjunct> Pool = randomConjuncts(123, 24);

  std::vector<bool> Uncached;
  configureConjunctCache(0);
  for (const Conjunct &C : Pool)
    Uncached.push_back(feasible(C));

  configureConjunctCache(size_t(1) << 14);
  clearConjunctCache();
  for (size_t Round = 0; Round < 2; ++Round)
    for (size_t I = 0; I < Pool.size(); ++I)
      EXPECT_EQ(feasible(Pool[I]), Uncached[I])
          << "conjunct " << I << " round " << Round;

  ConjunctCacheStats S = conjunctCacheStats();
  EXPECT_GT(S.Hits, 0u) << "second round must hit";
  EXPECT_GT(S.Misses, 0u);
  EXPECT_GT(S.Entries, 0u);
}

TEST(ConjunctCache, ProjectionCachedMatchesUncached) {
  CacheGuard Guard;
  std::vector<Conjunct> Pool = randomConjuncts(456, 12);

  std::vector<std::string> Uncached;
  configureConjunctCache(0);
  for (const Conjunct &C : Pool) {
    std::string S;
    for (const Conjunct &R : projectVars(C, {"y"}, ShadowMode::Exact))
      S += R.toString() + ";";
    Uncached.push_back(S);
  }

  configureConjunctCache(size_t(1) << 14);
  clearConjunctCache();
  for (size_t Round = 0; Round < 2; ++Round)
    for (size_t I = 0; I < Pool.size(); ++I) {
      std::string S;
      for (const Conjunct &R : projectVars(Pool[I], {"y"}, ShadowMode::Exact))
        S += R.toString() + ";";
      EXPECT_EQ(S, Uncached[I]) << "conjunct " << I << " round " << Round;
    }
  EXPECT_GT(conjunctCacheStats().Hits, 0u);
}

TEST(ConjunctCache, BoundedSizeEvicts) {
  CacheGuard Guard;
  configureConjunctCache(4);
  clearConjunctCache();
  std::vector<Conjunct> Pool = randomConjuncts(789, 16);
  for (const Conjunct &C : Pool)
    (void)feasible(C);
  ConjunctCacheStats S = conjunctCacheStats();
  // Two caches (feasibility + projection) of capacity 4; only feasibility
  // was exercised, so at most 4 entries may remain.
  EXPECT_LE(S.Entries, 4u);
  EXPECT_GT(S.Evictions, 0u) << "16 distinct keys through capacity 4";
}

TEST(ConjunctCache, ClearResetsEntriesAndStats) {
  CacheGuard Guard;
  configureConjunctCache(size_t(1) << 14);
  clearConjunctCache();
  std::vector<Conjunct> Pool = randomConjuncts(321, 8);
  for (const Conjunct &C : Pool)
    (void)feasible(C);
  EXPECT_GT(conjunctCacheStats().Entries, 0u);
  clearConjunctCache();
  ConjunctCacheStats S = conjunctCacheStats();
  EXPECT_EQ(S.Entries, 0u);
  EXPECT_EQ(S.Hits, 0u);
  EXPECT_EQ(S.Misses, 0u);
}

TEST(ConjunctCache, FeasibilitySlotsFollowCapacity) {
  // 8000 distinct keys: a thread's table holds at most a quarter of the
  // capacity, so 4096 answers at the default and more at 1<<16.
  CacheGuard Guard;
  AffineExpr X = var("x");
  auto Fill = [&] {
    clearConjunctCache();
    for (int K = 0; K < 8000; ++K) {
      Conjunct C;
      C.add(Constraint::le(AffineExpr(BigInt(0)), X));
      C.add(Constraint::le(X, AffineExpr(BigInt(K))));
      (void)feasible(C);
    }
    return conjunctCacheStats().Entries;
  };
  configureConjunctCache(size_t(1) << 14);
  EXPECT_LE(Fill(), 4096u);
  configureConjunctCache(size_t(1) << 16);
  EXPECT_GT(Fill(), 5000u) << "16384 slots, ~6300 of them filled";
}

TEST(ConjunctCache, UncachedFeasibilityInternsNoFreshNames) {
  // Equality elimination mints a wildcard per call; uncached calls must
  // mint it under a pinned scope, as misses do, or every call grows the
  // append-only VarTable by one name.
  CacheGuard Guard;
  AffineExpr X = var("x"), Y = var("y"), Z = var("z");
  Conjunct C;
  C.add(Constraint::eq(BigInt(3) * X + BigInt(5) * Y,
                       AffineExpr(BigInt(7)) + BigInt(2) * Z));
  for (const AffineExpr &V : {X, Y}) {
    C.add(Constraint::le(AffineExpr(BigInt(0)), V));
    C.add(Constraint::le(V, AffineExpr(BigInt(10))));
  }
  C.add(Constraint::le(AffineExpr(BigInt(0)), Z));
  C.add(Constraint::le(Z, AffineExpr(BigInt(4))));

  configureConjunctCache(0);
  uint32_t Before = varTableSize();
  for (int I = 0; I < 1000; ++I)
    ASSERT_TRUE(feasible(C));
  EXPECT_LE(varTableSize(), Before + 1) << "capacity 0";

  configureConjunctCache(size_t(1) << 14);
  QueryScope NoCache;
  NoCache.context().CacheEnabled = false;
  Before = varTableSize();
  for (int I = 0; I < 1000; ++I)
    ASSERT_TRUE(feasible(C));
  EXPECT_LE(varTableSize(), Before + 1) << "query opted out";
}

TEST(ConjunctCache, ConcurrentMemosMatchUncachedUnderClearAndResize) {
  CacheGuard Guard;
  std::vector<Conjunct> Pool = randomConjuncts(2024, 32);
  std::vector<bool> Uncached;
  configureConjunctCache(0);
  for (const Conjunct &C : Pool)
    Uncached.push_back(feasible(C));
  configureConjunctCache(size_t(1) << 14);
  clearConjunctCache();

  // Each worker walks the pool from its own offset, so the threads'
  // tables overlap in keys but fill in different orders.
  std::atomic<int> Mismatches{0};
  std::atomic<int> Running{4};
  std::vector<std::thread> Workers;
  for (size_t T = 0; T < 4; ++T)
    Workers.emplace_back([&, T] {
      for (size_t Round = 0; Round < 40; ++Round)
        for (size_t I = 0; I < Pool.size(); ++I) {
          size_t K = (I * (T + 1) + T * 7) % Pool.size();
          if (feasible(Pool[K]) != Uncached[K])
            Mismatches.fetch_add(1);
        }
      Running.fetch_sub(1);
    });
  std::thread Churn([&] {
    const size_t Capacities[] = {4, 1, 0, 3, size_t(1) << 14};
    for (size_t I = 0; Running.load() > 0; ++I) {
      clearConjunctCache();
      configureConjunctCache(Capacities[I % 5]);
      (void)conjunctCacheStats();
      std::this_thread::yield();
    }
  });
  for (std::thread &W : Workers)
    W.join();
  Churn.join();
  EXPECT_EQ(Mismatches.load(), 0);
}

TEST(ConjunctCache, HitsOnEveryThreadAreCountedAndMemosOutliveThreads) {
  CacheGuard Guard;
  configureConjunctCache(size_t(1) << 14);
  std::vector<Conjunct> Pool = randomConjuncts(555, 16);
  auto TwoRounds = [&] {
    for (int Round = 0; Round < 2; ++Round)
      for (const Conjunct &C : Pool)
        (void)feasible(C);
  };

  // What one thread makes of two rounds from an empty memo.
  clearConjunctCache();
  TwoRounds();
  ConjunctCacheStats One = conjunctCacheStats();
  ASSERT_GT(One.Hits, 0u);

  // The same on more threads than exited memos are parked: every thread's
  // counters and entries show while they run; after they exit, every
  // thread's counters still show, and the parked memos' entries.
  clearConjunctCache();
  constexpr unsigned N = 12;
  std::latch Done(N + 1), Exit(1);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < N; ++T)
    Threads.emplace_back([&] {
      TwoRounds();
      Done.count_down();
      Exit.wait();
    });
  Done.arrive_and_wait();
  ConjunctCacheStats Live = conjunctCacheStats();
  EXPECT_EQ(Live.Hits, N * One.Hits);
  EXPECT_EQ(Live.Misses, N * One.Misses);
  EXPECT_EQ(Live.Entries, N * One.Entries);
  Exit.count_down();
  for (std::thread &T : Threads)
    T.join();
  ConjunctCacheStats After = conjunctCacheStats();
  EXPECT_EQ(After.Hits, N * One.Hits);
  EXPECT_EQ(After.Misses, N * One.Misses);
  EXPECT_GT(After.Entries, 0u) << "parked memos keep their answers";
  EXPECT_LT(After.Entries, Live.Entries) << "only a few memos are parked";

  // A new thread adopts a parked memo: its first round only hits.
  std::thread([&] {
    for (const Conjunct &C : Pool)
      (void)feasible(C);
  }).join();
  ConjunctCacheStats Adopted = conjunctCacheStats();
  EXPECT_EQ(Adopted.Misses, After.Misses);
  EXPECT_GT(Adopted.Hits, After.Hits);

  clearConjunctCache();
  ConjunctCacheStats Cleared = conjunctCacheStats();
  EXPECT_EQ(Cleared.Hits, 0u);
  EXPECT_EQ(Cleared.Entries, 0u);
}

} // namespace
