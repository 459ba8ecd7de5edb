//===- support/Stats.cpp - Pipeline observability counters ---------------===//

#include "support/Stats.h"

#include "support/QueryContext.h"

#include <sstream>

using namespace omega;

PipelineCounters &omega::pipelineStats() {
  return activeQueryContext().Stats->Pipeline;
}

PipelineStatsSnapshot omega::snapshotQueryStats(const QueryStatsBlock &B) {
  const PipelineCounters &C = B.Pipeline;
  PipelineStatsSnapshot S;
  S.FeasibilityTests = C.FeasibilityTests.load();
  S.ProjectionCalls = C.ProjectionCalls.load();
  S.ClausesSimplified = C.ClausesSimplified.load();
  S.SplintersGenerated = C.SplintersGenerated.load();
  S.CacheHits = C.CacheHits.load();
  S.CacheMisses = C.CacheMisses.load();
  S.CacheEvictions = C.CacheEvictions.load();
  S.CoalescePairs = C.CoalescePairs.load();
  S.CoalescePrefiltered = C.CoalescePrefiltered.load();
  S.CoalesceMerges = C.CoalesceMerges.load();
  S.BudgetTrips = C.BudgetTrips.load();
  S.DegradedQueries = C.DegradedQueries.load();
  S.AutomatonDfaStates = C.AutomatonDfaStates.load();
  S.AutomatonProductStates = C.AutomatonProductStates.load();
  S.AutomatonTransitions = C.AutomatonTransitions.load();
  S.EnumeratedPoints = C.EnumeratedPoints.load();
  S.BackendFallbacks = C.BackendFallbacks.load();
  S.BigIntSpills = B.Arith.Spills.load();
  S.BigIntFastOps = B.Arith.FastOps.load();
  S.BigIntSlowOps = B.Arith.SlowOps.load();
  S.ExprTermsInline = B.Expr.InlineOps.load();
  S.ExprTermsSpilled = B.Expr.Spills.load();
  return S;
}

PipelineStatsSnapshot omega::snapshotPipelineStats() {
  return snapshotQueryStats(*activeQueryContext().Stats);
}

void omega::foldQueryStats(const QueryStatsBlock &Block) {
  QueryStatsBlock &Dst = *activeQueryContext().Stats;
  auto Fold = [](std::atomic<uint64_t> &D, const std::atomic<uint64_t> &S) {
    if (uint64_t V = S.load(std::memory_order_relaxed))
      D.fetch_add(V, std::memory_order_relaxed);
  };
  const PipelineCounters &Src = Block.Pipeline;
  Fold(Dst.Pipeline.FeasibilityTests, Src.FeasibilityTests);
  Fold(Dst.Pipeline.ProjectionCalls, Src.ProjectionCalls);
  Fold(Dst.Pipeline.ClausesSimplified, Src.ClausesSimplified);
  Fold(Dst.Pipeline.SplintersGenerated, Src.SplintersGenerated);
  Fold(Dst.Pipeline.CacheHits, Src.CacheHits);
  Fold(Dst.Pipeline.CacheMisses, Src.CacheMisses);
  Fold(Dst.Pipeline.CacheEvictions, Src.CacheEvictions);
  Fold(Dst.Pipeline.CoalescePairs, Src.CoalescePairs);
  Fold(Dst.Pipeline.CoalescePrefiltered, Src.CoalescePrefiltered);
  Fold(Dst.Pipeline.CoalesceMerges, Src.CoalesceMerges);
  Fold(Dst.Pipeline.BudgetTrips, Src.BudgetTrips);
  Fold(Dst.Pipeline.DegradedQueries, Src.DegradedQueries);
  Fold(Dst.Pipeline.AutomatonDfaStates, Src.AutomatonDfaStates);
  Fold(Dst.Pipeline.AutomatonProductStates, Src.AutomatonProductStates);
  Fold(Dst.Pipeline.AutomatonTransitions, Src.AutomatonTransitions);
  Fold(Dst.Pipeline.EnumeratedPoints, Src.EnumeratedPoints);
  Fold(Dst.Pipeline.BackendFallbacks, Src.BackendFallbacks);
  Fold(Dst.Arith.Spills, Block.Arith.Spills);
  Fold(Dst.Arith.FastOps, Block.Arith.FastOps);
  Fold(Dst.Arith.SlowOps, Block.Arith.SlowOps);
  Fold(Dst.Expr.Spills, Block.Expr.Spills);
  Fold(Dst.Expr.InlineOps, Block.Expr.InlineOps);
}

std::string PipelineStatsSnapshot::toPretty() const {
  std::ostringstream OS;
  uint64_t Lookups = CacheHits + CacheMisses;
  OS << "pipeline stats:\n"
     << "  feasibility tests:   " << FeasibilityTests << "\n"
     << "  projection calls:    " << ProjectionCalls << "\n"
     << "  clauses simplified:  " << ClausesSimplified << "\n"
     << "  splinters generated: " << SplintersGenerated << "\n"
     << "  cache hits/misses:   " << CacheHits << "/" << CacheMisses;
  if (Lookups)
    OS << " (" << (100 * CacheHits / Lookups) << "% hit)";
  OS << "\n"
     << "  cache evictions:     " << CacheEvictions << "\n"
     << "  coalesce pairs:      " << CoalescePairs << " ("
     << CoalescePrefiltered << " prefiltered, " << CoalesceMerges
     << " merged)\n"
     << "  budget trips:        " << BudgetTrips << "\n"
     << "  degraded queries:    " << DegradedQueries << "\n"
     << "  automaton dfa/product states: " << AutomatonDfaStates << "/"
     << AutomatonProductStates << "\n"
     << "  automaton transitions: " << AutomatonTransitions << "\n"
     << "  enumerated points:   " << EnumeratedPoints << "\n"
     << "  backend fallbacks:   " << BackendFallbacks << "\n"
     << "  bigint spills:       " << BigIntSpills << "\n"
     << "  bigint fast/slow ops: " << BigIntFastOps << "/" << BigIntSlowOps
     << "\n"
     << "  expr inline ops:     " << ExprTermsInline << "\n"
     << "  expr term spills:    " << ExprTermsSpilled << "\n";
  return OS.str();
}

std::string PipelineStatsSnapshot::toJson() const {
  // Key order is part of the schema: "schema" first, then the counters in
  // declaration order.  Bump the schema number on any key change so CI and
  // dashboards can detect drift (tools/ci.sh asserts it).
  std::ostringstream OS;
  // Schema 7 (was 6): drops simplify_ms / disjoint_ms / coalesce_ms /
  // summation_ms; per-phase time comes from the trace.  (Schema 6 dropped
  // parallel_batches / parallel_tasks, schema 5 added expr_terms_*.)
  OS << "{"
     << "\"schema\": 7, "
     << "\"feasibility_tests\": " << FeasibilityTests << ", "
     << "\"projection_calls\": " << ProjectionCalls << ", "
     << "\"clauses_simplified\": " << ClausesSimplified << ", "
     << "\"splinters_generated\": " << SplintersGenerated << ", "
     << "\"cache_hits\": " << CacheHits << ", "
     << "\"cache_misses\": " << CacheMisses << ", "
     << "\"cache_evictions\": " << CacheEvictions << ", "
     << "\"coalesce_pairs\": " << CoalescePairs << ", "
     << "\"coalesce_prefiltered\": " << CoalescePrefiltered << ", "
     << "\"coalesce_merges\": " << CoalesceMerges << ", "
     << "\"budget_trips\": " << BudgetTrips << ", "
     << "\"degraded_queries\": " << DegradedQueries << ", "
     << "\"automaton_dfa_states\": " << AutomatonDfaStates << ", "
     << "\"automaton_product_states\": " << AutomatonProductStates << ", "
     << "\"automaton_transitions\": " << AutomatonTransitions << ", "
     << "\"enumerated_points\": " << EnumeratedPoints << ", "
     << "\"backend_fallbacks\": " << BackendFallbacks << ", "
     << "\"bigint_spills\": " << BigIntSpills << ", "
     << "\"bigint_fast_ops\": " << BigIntFastOps << ", "
     << "\"bigint_slow_ops\": " << BigIntSlowOps << ", "
     << "\"expr_terms_inline\": " << ExprTermsInline << ", "
     << "\"expr_terms_spilled\": " << ExprTermsSpilled << "}";
  return OS.str();
}
