//===- support/Trace.h - Hierarchical pipeline tracing ---------*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structured tracing for the counting pipeline: RAII spans form a tree
/// that mirrors where a query spends its effort — Pugh's §6 "how and why"
/// question asked of a single run.  Each span records wall time plus a
/// small fixed set of counters (constraints in, clauses out, splinters,
/// cache hits/misses, BigInt spills, budget charges) and optional string
/// annotations (budget exhaustion, degradation).
///
/// Thread model (DESIGN.md §12): the innermost open span is thread-local,
/// and a query runs on the thread that issued it, so every span a query
/// opens parents to the span open around it on that thread.  Completed
/// spans land in lock-free per-thread ring buffers; exporters snapshot the
/// rings after the query quiesces.
///
/// Cost model: with tracing disabled (the default) every instrumentation
/// site is one relaxed atomic load and a predictable branch — the ci.sh
/// trace leg gates this at <= 1% on bench_pipeline.  Tracing is
/// process-wide and not reentrant: start, run queries, stop, export.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_SUPPORT_TRACE_H
#define OMEGA_SUPPORT_TRACE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace omega {

/// Per-span counters.  The enum indexes a fixed array in every span, so
/// adding a counter is O(1) space per span and needs no per-site strings.
enum class TraceCounter : unsigned {
  ConstraintsIn,  ///< Constraints entering the phase.
  ClausesIn,      ///< Clauses (or clause pairs) entering the phase.
  ClausesOut,     ///< Clauses leaving the phase.
  Splinters,      ///< Splinters produced (§2.3.3).
  CacheHits,      ///< Conjunct-cache hits charged to this span.
  CacheMisses,    ///< Conjunct-cache misses charged to this span.
  BigIntSpills,   ///< Limb representations materialized under this span.
  BudgetCharges,  ///< Budget charge/checkpoint calls under this span.
};
constexpr unsigned NumTraceCounters = 8;

namespace trace_detail {
/// The process-wide enable flag.  Read (relaxed) by every instrumentation
/// site; everything else about the subsystem is behind this one branch.
extern std::atomic<bool> Enabled;
} // namespace trace_detail

/// True iff startTracing() is active.  The single cheap check every
/// tracing site is gated on.
inline bool tracingEnabled() {
  return trace_detail::Enabled.load(std::memory_order_relaxed);
}

/// One completed span, as exported.
struct TraceSpanRecord {
  uint64_t Id = 0;     ///< Unique per trace session, starts at 1.
  uint64_t Parent = 0; ///< Id of the parent span; 0 = root.
  const char *Name = nullptr; ///< Static phase name ("simplify", ...).
  uint32_t Tid = 0;    ///< Dense thread number (0 = first tracing thread).
  uint64_t StartNs = 0, DurNs = 0; ///< Relative to startTracing().
  uint64_t Counters[NumTraceCounters] = {};
  /// Rare string notes, e.g. {"budget_trip", "splinters=8 at projection"}.
  std::vector<std::pair<const char *, std::string>> Annotations;
};

/// Everything one tracing session collected; returned by stopTracing().
struct TraceData {
  std::vector<TraceSpanRecord> Spans; ///< Sorted by StartNs.
  uint64_t Dropped = 0; ///< Spans lost to ring-buffer overwrite.

  /// Chrome trace_event JSON (load in chrome://tracing or Perfetto):
  /// one complete ("ph":"X") event per span, counters and parent id under
  /// "args".  Always a single JSON object that json.load()s.
  std::string toChromeJson() const;

  /// Human-readable per-phase aggregation: span count, total and *self*
  /// wall time (total minus time in child spans), and counter sums.
  std::string toSummary() const;

  /// The record with the given id, or nullptr.
  const TraceSpanRecord *find(uint64_t Id) const;
};

/// Clears all ring buffers and enables span collection.  Not reentrant:
/// tracing is process-wide, one session at a time.
void startTracing();

/// Disables collection and returns the session's spans.  Call only when no
/// traced query is in flight (the rings are single-writer; exporters do
/// not synchronize with running spans).
std::shared_ptr<const TraceData> stopTracing();

/// RAII span.  Constructing with tracing disabled is the fast path: one
/// flag load, no id allocation, destructor does nothing.  Spans must be
/// strictly nested per thread (stack objects guarantee this).  Name must
/// point to storage that outlives the session (string literals).
class TraceSpan {
public:
  explicit TraceSpan(const char *Name);
  ~TraceSpan();

  /// True when this span is live (tracing was enabled at construction).
  bool active() const { return Rec != nullptr; }

  /// Adds to one of this span's counters.  No-op when inactive.
  void count(TraceCounter C, uint64_t N = 1);

  /// Attaches a key=value note.  Key must be a string literal.
  void annotate(const char *Key, std::string Value);

  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

private:
  TraceSpanRecord *Rec; ///< Null when tracing is off; else the open record.
};

/// Adds to a counter of the innermost open span on this thread (no-op when
/// tracing is off or no span is open).  This is how leaf subsystems — the
/// conjunct cache, BigInt spills, budget charges — attribute events to
/// whichever phase is running without knowing about it.
void traceCount(TraceCounter C, uint64_t N = 1);

/// Annotates the innermost open span on this thread (same contract as
/// traceCount).  Used for budget exhaustion and degradation notes.
void traceAnnotate(const char *Key, std::string Value);

} // namespace omega

#endif // OMEGA_SUPPORT_TRACE_H
