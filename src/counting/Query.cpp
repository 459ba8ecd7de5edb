//===- counting/Query.cpp - Unified options-taking query entry point -----===//
//
// Implements omega::sumPolynomial / omega::countSolutions / countBatch:
// re-entrant entry points that translate a CountOptions into a
// QueryContext installed for the query's duration (support/QueryContext.h)
// instead of mutating process globals.  Concurrent queries on different
// threads — omegad sessions, batch hosts — therefore run with independent
// knobs and independent stats.  The one process-wide piece a query may
// still claim is the trace session, which is single-occupancy by design:
// queries with CollectTrace serialize on a mutex, and every other query
// simply opts out of participating in a foreign session.
//
//===----------------------------------------------------------------------===//

#include "counting/Backend.h"
#include "counting/Summation.h"

#include "support/BigInt.h"
#include "support/QueryContext.h"
#include "support/ThreadAnnotations.h"

using namespace omega;

namespace {

/// The lock serializing traced queries (tracing is process-wide and
/// single-session, DESIGN.md §12).  Function-local so it constructs on
/// first traced query.
Mutex &traceSessionMutex() {
  static Mutex M;
  return M;
}

/// RAII around one query's trace session: acquires the session lock and
/// starts tracing when the query wants a trace, and guarantees the session
/// is stopped and the lock released on every exit path (including
/// exceptions out of the backend).
///
/// The conditional acquisition is outside what the capability analysis can
/// model (lock held iff Enabled), so the methods opt out wholesale; the
/// invariant is local to this 25-line class.
class ScopedTraceSession {
public:
  explicit ScopedTraceSession(bool Enabled)
      OMEGA_NO_THREAD_SAFETY_ANALYSIS : Enabled(Enabled) {
    if (!Enabled)
      return;
    traceSessionMutex().lock();
    startTracing();
  }

  /// Ends the session and returns its data (null when not tracing).
  std::shared_ptr<const TraceData> finish() {
    if (!Enabled || Stopped)
      return nullptr;
    Stopped = true;
    return stopTracing();
  }

  ~ScopedTraceSession() OMEGA_NO_THREAD_SAFETY_ANALYSIS {
    if (!Enabled)
      return;
    if (!Stopped)
      (void)stopTracing();
    traceSessionMutex().unlock();
  }

  ScopedTraceSession(const ScopedTraceSession &) = delete;
  ScopedTraceSession &operator=(const ScopedTraceSession &) = delete;

private:
  bool Enabled;
  bool Stopped = false;
};

} // namespace

CountResult omega::sumPolynomial(const Formula &F, const VarSet &Vars,
                                 const QuasiPolynomial &X,
                                 const CountOptions &Opts) {
  // The cache storage is shared and grow-only from here: a query may ask
  // for more capacity than the host configured, never less, so one
  // small-cache query cannot evict a server's warm entries.  Opting out of
  // the cache entirely is per-query (QueryContext::CacheEnabled).
  if (Opts.CacheEnabled && Opts.CacheCapacity > conjunctCacheCapacity())
    configureConjunctCache(Opts.CacheCapacity);

  QueryStatsBlock Block;
  const bool WantStats = Opts.CollectStats || Opts.CountArithOps;
  Block.Arith.CountOps.store(Opts.CountArithOps, std::memory_order_relaxed);

  CountResult Out;
  try {
    QueryScope Scope;
    QueryContext &Ctx = Scope.context();
    Ctx.CacheEnabled = Opts.CacheEnabled;
    // A traced query participates in its own session; an untraced query
    // inherits participation, so a tool-level trace keeps seeing nested
    // queries and bare startTracing() callers (tests) keep recording.
    Ctx.TraceParticipant |= Opts.CollectTrace;
    // Without a block of its own the query tallies into its parent's.
    if (WantStats)
      Ctx.Stats = &Block;
    ScopedTraceSession Trace(Opts.CollectTrace);
    // Backend selection and the per-backend algorithms live in
    // counting/Backend.cpp; the default (Pugh) reproduces the pre-PR-7
    // pipeline bit for bit.
    Out = dispatchCount(F, Vars, X, Opts);
    Out.Trace = Trace.finish();
  } catch (...) {
    // The scope has unwound, so the fold lands in the enclosing targets —
    // work done before the throw stays visible to aggregate stats.
    if (WantStats)
      foldQueryStats(Block);
    throw;
  }
  if (WantStats) {
    Out.Stats = snapshotQueryStats(Block);
    // Fold the block into whatever this thread resolves to now that the
    // scope popped — an enclosing query's block, a server's shared block,
    // or the process-wide counters — so aggregate observability (--stats
    // at tool exit, omegad's stats endpoint) still sees all work.
    foldQueryStats(Block);
  }
  return Out;
}

CountResult omega::countSolutions(const Formula &F, const VarSet &Vars,
                                  const CountOptions &Opts) {
  return sumPolynomial(F, Vars, QuasiPolynomial(Rational(1)), Opts);
}

std::vector<CountResult> omega::countBatch(std::span<const CountQuery> Queries) {
  std::vector<CountResult> Out;
  Out.reserve(Queries.size());
  // Sequential by design: each element gets its own context and stats
  // delta (isolation is the contract QueryApiTest pins), and parallelism
  // belongs above the batch (omegad runs whole queries on sessions).
  for (const CountQuery &Q : Queries)
    Out.push_back(sumPolynomial(Q.F, Q.Vars, Q.X, Q.Opts));
  return Out;
}
