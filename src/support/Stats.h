//===- support/Stats.h - Pipeline observability counters -------*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Observability for the counting pipeline: cache hit/miss rates, clause
/// and splinter volumes, backend work and the arithmetic and IR layers.
/// Counters are atomics so concurrent queries (omegad sessions) can fold
/// into a shared block without coordination.  Where the time went is the
/// trace's job (support/Trace.h: `--trace-summary` prints total and
/// exclusive self time per phase); these counters say how much work ran.
///
/// `omegacount --stats` / `omegalint --stats` print the human-readable
/// form; bench_pipeline emits the JSON form for BENCH_*.json trajectories.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_SUPPORT_STATS_H
#define OMEGA_SUPPORT_STATS_H

#include <atomic>
#include <cstdint>
#include <string>

namespace omega {

/// The live (atomic) counter set.  Use snapshotPipelineStats() to read.
///
/// Every field is a std::atomic, so this struct carries no mutex and is
/// exempt from OMEGA_GUARDED_BY annotations (DESIGN.md §13): concurrent
/// increments from sessions are safe by construction, and the snapshot
/// reader tolerates tearing *across* counters (it reports a monotonic
/// point-in-time view, not a consistent cut).
struct PipelineCounters {
  // Work volume.
  std::atomic<uint64_t> FeasibilityTests{0};
  std::atomic<uint64_t> ProjectionCalls{0};
  std::atomic<uint64_t> ClausesSimplified{0};
  std::atomic<uint64_t> SplintersGenerated{0};
  // Conjunct cache.
  std::atomic<uint64_t> CacheHits{0};
  std::atomic<uint64_t> CacheMisses{0};
  std::atomic<uint64_t> CacheEvictions{0};
  // Clause coalescing (omega/Simplify.cpp).  Pairs counts full
  // (Omega-backed) pair evaluations; Prefiltered counts candidate pairs
  // the clause index rejected with no feasible()/implies() call at all;
  // Merges counts pair merges actually applied to a clause list.
  std::atomic<uint64_t> CoalescePairs{0};
  std::atomic<uint64_t> CoalescePrefiltered{0};
  std::atomic<uint64_t> CoalesceMerges{0};
  // Budgets (support/Budget.h): limits tripped, and whole queries that
  // fell back to certified bounds instead of an exact answer.
  std::atomic<uint64_t> BudgetTrips{0};
  std::atomic<uint64_t> DegradedQueries{0};
  // Backend dispatch (counting/Backend.h): work volume of the automaton
  // and enumerate backends, and Auto dispatches that fell back to pugh
  // after a refusal.
  std::atomic<uint64_t> AutomatonDfaStates{0};
  std::atomic<uint64_t> AutomatonProductStates{0};
  std::atomic<uint64_t> AutomatonTransitions{0};
  std::atomic<uint64_t> EnumeratedPoints{0};
  std::atomic<uint64_t> BackendFallbacks{0};
};

/// Arithmetic-layer counters (the BigInt small-value optimization,
/// DESIGN.md §10).  Spills — transitions of a stored value to the
/// heap-allocated limb representation — are always counted because they
/// are rare and are the signal the allocation-free claim is checked
/// against.  Per-operation fast/slow tallies cost an atomic increment on
/// every arithmetic operation, so they are gated behind CountOps (enabled
/// by `--stats` and the bench harnesses).
struct ArithCounters {
  std::atomic<uint64_t> Spills{0};  ///< Limb representations materialized.
  std::atomic<uint64_t> FastOps{0}; ///< Inline-int64 fast-path operations.
  std::atomic<uint64_t> SlowOps{0}; ///< Limb slow-path operations.
  std::atomic<bool> CountOps{false};
};

/// IR-layer counters (the flat term storage of presburger/AffineExpr.h).
/// Spills — heap term arrays materialized for expressions wider than the
/// inline capacity — are always counted.  Per-operation inline tallies are
/// gated behind the same CountOps flag as the BigInt fast/slow counters.
struct ExprCounters {
  std::atomic<uint64_t> Spills{0};    ///< Heap term arrays allocated.
  std::atomic<uint64_t> InlineOps{0}; ///< Term mutations completed inline.
};

/// One complete counter set.  The process has one (what work outside any
/// stats-collecting query tallies into); a query that collects stats has
/// its own, and its context (support/QueryContext.h) resolves every
/// counter site to it.
struct QueryStatsBlock {
  PipelineCounters Pipeline;
  ArithCounters Arith;
  ExprCounters Expr;
};

/// The pipeline counters work on this thread attributes to: the active
/// context's block (support/QueryContext.h).
PipelineCounters &pipelineStats();

/// A plain copy of the counters at one instant.
struct PipelineStatsSnapshot {
  uint64_t FeasibilityTests, ProjectionCalls, ClausesSimplified,
      SplintersGenerated;
  uint64_t CacheHits, CacheMisses, CacheEvictions;
  uint64_t CoalescePairs, CoalescePrefiltered, CoalesceMerges;
  uint64_t BudgetTrips, DegradedQueries;
  uint64_t AutomatonDfaStates, AutomatonProductStates, AutomatonTransitions,
      EnumeratedPoints, BackendFallbacks;
  // Arithmetic layer: limb (heap) representations produced, and the
  // fast/slow per-op tallies (nonzero only under
  // CountOptions::CountArithOps).
  uint64_t BigIntSpills, BigIntFastOps, BigIntSlowOps;
  // IR term storage (presburger/AffineExpr.h): mutations completed in the
  // inline term buffer (gated by CountOptions::CountArithOps, like the
  // per-op BigInt tallies) and heap term arrays materialized past
  // InlineCapacity.
  uint64_t ExprTermsInline, ExprTermsSpilled;

  /// One-line-per-counter human form (for --stats).
  std::string toPretty() const;
  /// Single JSON object (for bench_pipeline / BENCH_*.json).
  std::string toJson() const;
};

/// Snapshot of one block (a query's CountResult::Stats, a server's sink).
PipelineStatsSnapshot snapshotQueryStats(const QueryStatsBlock &Block);

/// Snapshot of the block this thread currently resolves to.
PipelineStatsSnapshot snapshotPipelineStats();

/// Adds every counter of \p Block into the block this thread currently
/// resolves to.  Called after the query's scope pops, so a nested query
/// folds into its enclosing collector and a top-level query folds into the
/// process-wide counters — process-wide observability (--stats at tool
/// exit) keeps seeing all work.  The CountOps flag is configuration, not a
/// tally, and is not folded.
void foldQueryStats(const QueryStatsBlock &Block);

} // namespace omega

#endif // OMEGA_SUPPORT_STATS_H
