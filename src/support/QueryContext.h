//===- support/QueryContext.h - Per-query execution context ----*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-query execution context.  Everything a query's work resolves
/// through hangs off one QueryContext:
///   * the counter block it tallies into (pipelineStats(), arithCounters(),
///     exprCounters());
///   * the effort budget it is charged against (support/Budget.h);
///   * the wildcard naming frame it mints names in (presburger/Var.h);
///   * whether it uses the conjunct cache and records into a trace session.
/// The thread's active context is one thread-local pointer.  A query runs
/// start to finish on the thread that issued it, so none of this needs a
/// lock, and concurrent queries on different threads (omegad sessions)
/// share only the deliberately process-wide pieces: the cache storage,
/// the feasibility-memo registry and the process-wide stats block.
///
/// One RAII type, QueryScope, installs a child context and restores the
/// parent on exit, also when unwinding.  A child starts as a copy of its
/// parent, so it shares the parent's knobs, stats block, budget and naming
/// frame until it replaces one.  Query entry, nested budget passes,
/// forEachDisjunct items and memo pins are all child installs.  A budget or
/// naming frame a scope installs is owned by that scope.
///
/// Outside any scope a thread sees the root context: cache and trace
/// participation on, no budget, the process-global wildcard names, and
/// the process-wide stats block.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_SUPPORT_QUERYCONTEXT_H
#define OMEGA_SUPPORT_QUERYCONTEXT_H

#include "support/Budget.h"
#include "support/Stats.h"

#include <optional>
#include <string>
#include <utility>

namespace omega {

/// A wildcard naming frame (presburger/Var.h).  Names minted under it are
/// "$<Prefix>x<Counter>" and disjunct batches opened under it are
/// "<Prefix>b<Batches>", so the names a frame mints depend only on its
/// position in the query, not on what sibling frames minted.  PinDepth
/// counts the memo pins enclosing the frame (omega/Cache.cpp).
struct NamingFrame {
  NamingFrame(std::string Prefix, unsigned PinDepth)
      : Prefix(std::move(Prefix)), PinDepth(PinDepth) {}

  std::string Prefix;
  unsigned Counter = 0;
  unsigned Batches = 0;
  unsigned PinDepth;
};

namespace detail {
/// The process-wide counters: where work outside any stats-collecting
/// query tallies, and where finished top-level queries fold.
inline QueryStatsBlock ProcessStats;
} // namespace detail

/// The environment one query's work runs under.
struct QueryContext {
  /// Whether this query reads and populates the conjunct cache.  The cache
  /// storage itself is process-wide (configureConjunctCache).
  bool CacheEnabled = true;
  /// Whether spans opened by this query record into the active trace
  /// session.  Servers clear it so a query cannot join a trace session
  /// that someone else opened.
  bool TraceParticipant = true;
  /// The counter block this query tallies into; never null.
  QueryStatsBlock *Stats = &detail::ProcessStats;
  /// The budget this query is charged against; null for none.
  BudgetState *Budget = nullptr;
  /// The naming frame; null for the process-global names "$<n>".
  NamingFrame *Naming = nullptr;

  /// Memo pins enclosing the naming frame (0 outside any frame).
  unsigned pinDepth() const { return Naming ? Naming->PinDepth : 0; }
};

namespace detail {
inline const QueryContext RootContext;
/// This thread's active context; QueryScope is its only writer.
/// omegatidy: allow(thread-local) the one per-query pointer.
inline thread_local const QueryContext *ActiveContext = &RootContext;
} // namespace detail

/// The context installed on this thread (the root outside any scope).
inline const QueryContext &activeQueryContext() {
  return *detail::ActiveContext;
}

/// The arithmetic counters ops on this thread tally into.  Inline: BigInt
/// checks CountOps on every arithmetic operation.
inline ArithCounters &arithCounters() {
  return detail::ActiveContext->Stats->Arith;
}

/// The expression counters term operations on this thread tally into.
inline ExprCounters &exprCounters() {
  return detail::ActiveContext->Stats->Expr;
}

/// RAII: installs a child of the active context for the scope's lifetime
/// and restores the parent on destruction.  Knobs and the stats block are
/// set through context() before any work runs under the scope.
class QueryScope {
public:
  /// A child that shares everything with its parent.
  QueryScope();
  /// A child with its own budget; naming and stats stay shared.
  explicit QueryScope(const EffortBudget &Budget);
  /// A child with its own naming frame; the budget and stats stay shared.
  explicit QueryScope(NamingFrame Naming);
  /// A child with its own budget and naming frame.
  QueryScope(const EffortBudget &Budget, NamingFrame Naming);
  ~QueryScope();

  QueryScope(const QueryScope &) = delete;
  QueryScope &operator=(const QueryScope &) = delete;

  QueryContext &context() { return Ctx; }

private:
  const QueryContext *Parent;
  QueryContext Ctx;
  std::optional<BudgetState> OwnBudget;
  std::optional<NamingFrame> OwnNaming;
};

} // namespace omega

#endif // OMEGA_SUPPORT_QUERYCONTEXT_H
