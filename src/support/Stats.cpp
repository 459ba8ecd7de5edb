//===- support/Stats.cpp - Pipeline observability counters ---------------===//

#include "support/Stats.h"

#include "support/BigInt.h"

#include <sstream>

using namespace omega;

void PipelineCounters::reset() {
  FeasibilityTests = 0;
  ProjectionCalls = 0;
  ClausesSimplified = 0;
  SplintersGenerated = 0;
  CacheHits = 0;
  CacheMisses = 0;
  CacheEvictions = 0;
  CoalescePairs = 0;
  CoalescePrefiltered = 0;
  CoalesceMerges = 0;
  BudgetTrips = 0;
  DegradedQueries = 0;
  AutomatonDfaStates = 0;
  AutomatonProductStates = 0;
  AutomatonTransitions = 0;
  BackendFallbacks = 0;
  EnumeratedPoints = 0;
  ArithCounters &A = arithCounters();
  A.Spills = 0;
  A.FastOps = 0;
  A.SlowOps = 0;
  ExprCounters &E = exprCounters();
  E.Spills = 0;
  E.InlineOps = 0;
  SimplifyNanos = 0;
  DisjointNanos = 0;
  CoalesceNanos = 0;
  SummationNanos = 0;
}

PipelineCounters &omega::pipelineStats() {
  if (detail::ActivePipelineStats)
    return *detail::ActivePipelineStats;
  static PipelineCounters Counters;
  return Counters;
}

PipelineStatsSnapshot omega::snapshotStats(const PipelineCounters &C,
                                           const ArithCounters &A,
                                           const ExprCounters &E) {
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
  S.BigIntSpills = A.Spills.load();
  S.BigIntFastOps = A.FastOps.load();
  S.BigIntSlowOps = A.SlowOps.load();
  S.ExprTermsInline = E.InlineOps.load();
  S.ExprTermsSpilled = E.Spills.load();
  S.SimplifyNanos = C.SimplifyNanos.load();
  S.DisjointNanos = C.DisjointNanos.load();
  S.CoalesceNanos = C.CoalesceNanos.load();
  S.SummationNanos = C.SummationNanos.load();
  return S;
}

PipelineStatsSnapshot omega::snapshotPipelineStats() {
  return snapshotStats(pipelineStats(), arithCounters(), exprCounters());
}

namespace {
double ms(uint64_t Nanos) { return static_cast<double>(Nanos) / 1e6; }
} // namespace

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
     << "  expr term spills:    " << ExprTermsSpilled << "\n"
     << "  simplify time:       " << ms(SimplifyNanos) << " ms\n"
     << "  disjoint time:       " << ms(DisjointNanos) << " ms\n"
     << "  coalesce time:       " << ms(CoalesceNanos) << " ms\n"
     << "  summation time:      " << ms(SummationNanos) << " ms\n";
  return OS.str();
}

std::string PipelineStatsSnapshot::toJson() const {
  // Key order is part of the schema: "schema" first, then the counters in
  // declaration order.  Bump the schema number on any key change so CI and
  // dashboards can detect drift (tools/ci.sh asserts it).
  std::ostringstream OS;
  // Schema 6 (was 5): drops parallel_batches / parallel_tasks with the
  // intra-query fan-out.  (Schema 5 added expr_terms_inline /
  // expr_terms_spilled; schema 4 the coalesce_* counters.)
  OS << "{"
     << "\"schema\": 6, "
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
     << "\"expr_terms_spilled\": " << ExprTermsSpilled << ", "
     << "\"simplify_ms\": " << ms(SimplifyNanos) << ", "
     << "\"disjoint_ms\": " << ms(DisjointNanos) << ", "
     << "\"coalesce_ms\": " << ms(CoalesceNanos) << ", "
     << "\"summation_ms\": " << ms(SummationNanos) << "}";
  return OS.str();
}
