//===- support/QueryContext.cpp - Per-query execution context ------------===//
//
// All state here is thread-local: the active-context pointer plus the
// counter redirects declared next to their counter structs (Stats.h,
// BigInt.h).  No locks: a query never leaves the thread that installed it.
//
//===----------------------------------------------------------------------===//

#include "support/QueryContext.h"

using namespace omega;

namespace {
thread_local const QueryContext *ActiveCtx = nullptr;
} // namespace

const QueryContext *omega::activeQueryContext() { return ActiveCtx; }

QueryContextScope::QueryContextScope(const QueryContext &Ctx)
    : PrevCtx(ActiveCtx), PrevPipeline(detail::ActivePipelineStats),
      PrevArith(detail::ActiveArithStats),
      PrevExpr(detail::ActiveExprStats) {
  ActiveCtx = &Ctx;
  if (Ctx.Stats) {
    detail::ActivePipelineStats = &Ctx.Stats->Pipeline;
    detail::ActiveArithStats = &Ctx.Stats->Arith;
    detail::ActiveExprStats = &Ctx.Stats->Expr;
  }
}

QueryContextScope::~QueryContextScope() {
  ActiveCtx = PrevCtx;
  detail::ActivePipelineStats = PrevPipeline;
  detail::ActiveArithStats = PrevArith;
  detail::ActiveExprStats = PrevExpr;
}

void omega::foldQueryStats(const QueryStatsBlock &Block) {
  PipelineCounters &Dst = pipelineStats();
  const PipelineCounters &Src = Block.Pipeline;
  auto Fold = [](std::atomic<uint64_t> &D, const std::atomic<uint64_t> &S) {
    if (uint64_t V = S.load(std::memory_order_relaxed))
      D.fetch_add(V, std::memory_order_relaxed);
  };
  Fold(Dst.FeasibilityTests, Src.FeasibilityTests);
  Fold(Dst.ProjectionCalls, Src.ProjectionCalls);
  Fold(Dst.ClausesSimplified, Src.ClausesSimplified);
  Fold(Dst.SplintersGenerated, Src.SplintersGenerated);
  Fold(Dst.CacheHits, Src.CacheHits);
  Fold(Dst.CacheMisses, Src.CacheMisses);
  Fold(Dst.CacheEvictions, Src.CacheEvictions);
  Fold(Dst.CoalescePairs, Src.CoalescePairs);
  Fold(Dst.CoalescePrefiltered, Src.CoalescePrefiltered);
  Fold(Dst.CoalesceMerges, Src.CoalesceMerges);
  Fold(Dst.BudgetTrips, Src.BudgetTrips);
  Fold(Dst.DegradedQueries, Src.DegradedQueries);
  Fold(Dst.AutomatonDfaStates, Src.AutomatonDfaStates);
  Fold(Dst.AutomatonProductStates, Src.AutomatonProductStates);
  Fold(Dst.AutomatonTransitions, Src.AutomatonTransitions);
  Fold(Dst.EnumeratedPoints, Src.EnumeratedPoints);
  Fold(Dst.BackendFallbacks, Src.BackendFallbacks);
  Fold(Dst.SimplifyNanos, Src.SimplifyNanos);
  Fold(Dst.DisjointNanos, Src.DisjointNanos);
  Fold(Dst.CoalesceNanos, Src.CoalesceNanos);
  Fold(Dst.SummationNanos, Src.SummationNanos);
  ArithCounters &DA = arithCounters();
  Fold(DA.Spills, Block.Arith.Spills);
  Fold(DA.FastOps, Block.Arith.FastOps);
  Fold(DA.SlowOps, Block.Arith.SlowOps);
  ExprCounters &DE = exprCounters();
  Fold(DE.Spills, Block.Expr.Spills);
  Fold(DE.InlineOps, Block.Expr.InlineOps);
}
