//===- support/Trace.cpp - Hierarchical pipeline tracing -----------------===//
//
// Storage layout: each thread owns a ring of completed TraceSpanRecords
// (single writer, no lock on the push path).  Open spans are a per-thread
// intrusive stack allocated per span on the heap — tracing-on cost is not
// gated, only tracing-off cost is.  A global registry (mutex + ring list)
// exists so start/stop can clear and snapshot every thread's ring; the
// mutex is taken once per thread lifetime (registration) and once per
// session boundary, never per span.
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include "support/Json.h"
#include "support/QueryContext.h"
#include "support/ThreadAnnotations.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <map>
#include <sstream>

using namespace omega;

std::atomic<bool> omega::trace_detail::Enabled{false};

namespace {

/// Spans kept per thread before the ring wraps (oldest overwritten).
constexpr size_t RingCapacity = size_t(1) << 16;

struct ThreadRing {
  std::vector<TraceSpanRecord> Buf;
  size_t Head = 0;      ///< Next overwrite position once Buf is full.
  uint64_t Dropped = 0; ///< Records overwritten this session.
  uint32_t Tid = 0;     ///< Dense registration index.

  void push(TraceSpanRecord &&R) {
    if (Buf.size() < RingCapacity) {
      Buf.push_back(std::move(R));
      return;
    }
    Buf[Head] = std::move(R);
    Head = (Head + 1) % RingCapacity;
    ++Dropped;
  }

  void clear() {
    Buf.clear();
    Head = 0;
    Dropped = 0;
  }
};

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Registry {
  Mutex M;
  /// Every thread's completed-span ring.  The rings themselves are
  /// single-writer thread-local state and deliberately unannotated:
  /// stopTracing() reads them under the start/stop contract ("no traced
  /// query in flight"), which the capability model cannot express
  /// (DESIGN.md §13).  Only the registry vector is guarded.
  std::vector<std::shared_ptr<ThreadRing>> Rings OMEGA_GUARDED_BY(M);
  std::atomic<uint64_t> NextId{1};
  /// Session epoch in steady-clock nanoseconds.  Atomic, not guarded:
  /// startTracing() writes it while every instrumentation site reads it
  /// unlocked — a GUARDED_BY here would either race or serialize spans.
  std::atomic<uint64_t> SessionStartNs{nowNs()};
};

Registry &registry() {
  static Registry R;
  return R;
}

/// An open span: the record under construction plus the intrusive stack
/// link.  Rec is the first member so TraceSpan can hold &OS->Rec and the
/// destructor can cast back (standard layout).
struct OpenSpan {
  TraceSpanRecord Rec;
  OpenSpan *Prev = nullptr;
};
static_assert(offsetof(OpenSpan, Rec) == 0,
              "TraceSpan recovers the OpenSpan from its record address");

struct ThreadState {
  std::shared_ptr<ThreadRing> Ring;
  OpenSpan *Open = nullptr; ///< Innermost open span on this thread.

  ThreadRing &ring() {
    if (!Ring) {
      Ring = std::make_shared<ThreadRing>();
      Registry &R = registry();
      MutexLock Lock(R.M);
      Ring->Tid = static_cast<uint32_t>(R.Rings.size());
      R.Rings.push_back(Ring);
    }
    return *Ring;
  }
};

// omegatidy: allow(thread-local) per-thread recorder storage (DESIGN.md §12)
thread_local ThreadState TLS;

uint64_t sinceSessionStartNs() {
  return nowNs() - registry().SessionStartNs.load(std::memory_order_relaxed);
}

const char *counterName(unsigned I) {
  static const char *Names[NumTraceCounters] = {
      "constraints_in", "clauses_in",    "clauses_out",   "splinters",
      "cache_hits",     "cache_misses",  "bigint_spills", "budget_charges"};
  return Names[I];
}

} // namespace

void omega::startTracing() {
  Registry &R = registry();
  MutexLock Lock(R.M);
  for (const std::shared_ptr<ThreadRing> &Ring : R.Rings)
    Ring->clear();
  R.NextId.store(1, std::memory_order_relaxed);
  R.SessionStartNs.store(nowNs(), std::memory_order_relaxed);
  trace_detail::Enabled.store(true, std::memory_order_relaxed);
}

std::shared_ptr<const TraceData> omega::stopTracing() {
  trace_detail::Enabled.store(false, std::memory_order_relaxed);
  Registry &R = registry();
  MutexLock Lock(R.M);
  auto Data = std::make_shared<TraceData>();
  for (const std::shared_ptr<ThreadRing> &Ring : R.Rings) {
    Data->Dropped += Ring->Dropped;
    for (const TraceSpanRecord &Rec : Ring->Buf)
      Data->Spans.push_back(Rec);
  }
  std::sort(Data->Spans.begin(), Data->Spans.end(),
            [](const TraceSpanRecord &A, const TraceSpanRecord &B) {
              return A.StartNs != B.StartNs ? A.StartNs < B.StartNs
                                            : A.Id < B.Id;
            });
  return Data;
}

TraceSpan::TraceSpan(const char *Name) : Rec(nullptr) {
  if (!tracingEnabled())
    return;
  // Participation gate: while some query holds the (single, process-wide)
  // trace session, threads running a *different* query must not record
  // into it.  This constructor is the one place spans are born, so gating
  // here covers the whole subsystem; with no span open, traceCount /
  // traceAnnotate already no-op through TLS.Open.
  if (!activeQueryContext().TraceParticipant)
    return;
  // Tracing-on cost is not gated; the open-span stack is intrusive and
  // per-thread, released in ~TraceSpan.  omegatidy: allow(naked-new)
  OpenSpan *OS = new OpenSpan;
  OS->Rec.Id = registry().NextId.fetch_add(1, std::memory_order_relaxed);
  OS->Rec.Parent = TLS.Open ? TLS.Open->Rec.Id : 0;
  OS->Rec.Name = Name;
  OS->Rec.Tid = TLS.ring().Tid;
  OS->Rec.StartNs = sinceSessionStartNs();
  OS->Prev = TLS.Open;
  TLS.Open = OS;
  Rec = &OS->Rec;
}

TraceSpan::~TraceSpan() {
  if (!Rec)
    return;
  OpenSpan *OS = reinterpret_cast<OpenSpan *>(Rec);
  Rec->DurNs = sinceSessionStartNs() - Rec->StartNs;
  TLS.Open = OS->Prev;
  TLS.ring().push(std::move(OS->Rec));
  delete OS;
}

void TraceSpan::count(TraceCounter C, uint64_t N) {
  if (Rec)
    Rec->Counters[static_cast<unsigned>(C)] += N;
}

void TraceSpan::annotate(const char *Key, std::string Value) {
  if (Rec)
    Rec->Annotations.emplace_back(Key, std::move(Value));
}

void omega::traceCount(TraceCounter C, uint64_t N) {
  if (!tracingEnabled())
    return;
  if (OpenSpan *OS = TLS.Open)
    OS->Rec.Counters[static_cast<unsigned>(C)] += N;
}

void omega::traceAnnotate(const char *Key, std::string Value) {
  if (!tracingEnabled())
    return;
  if (OpenSpan *OS = TLS.Open)
    OS->Rec.Annotations.emplace_back(Key, std::move(Value));
}

const TraceSpanRecord *TraceData::find(uint64_t Id) const {
  for (const TraceSpanRecord &R : Spans)
    if (R.Id == Id)
      return &R;
  return nullptr;
}

std::string TraceData::toChromeJson() const {
  std::ostringstream OS;
  OS << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"schema\":2,"
     << "\"dropped_spans\":" << Dropped << "},\"traceEvents\":[";
  bool First = true;
  for (const TraceSpanRecord &R : Spans) {
    if (!First)
      OS << ",";
    First = false;
    // Chrome complete events use microsecond doubles.
    OS << "{\"name\":\"" << jsonEscape(R.Name) << "\",\"cat\":\"omega\","
       << "\"ph\":\"X\",\"ts\":" << static_cast<double>(R.StartNs) / 1e3
       << ",\"dur\":" << static_cast<double>(R.DurNs) / 1e3
       << ",\"pid\":1,\"tid\":" << R.Tid << ",\"args\":{\"id\":" << R.Id
       << ",\"parent\":" << R.Parent;
    for (unsigned I = 0; I < NumTraceCounters; ++I)
      if (R.Counters[I])
        OS << ",\"" << counterName(I) << "\":" << R.Counters[I];
    for (const auto &[Key, Value] : R.Annotations)
      OS << ",\"" << jsonEscape(Key) << "\":\"" << jsonEscape(Value) << "\"";
    OS << "}}";
  }
  OS << "]}";
  return OS.str();
}

std::string TraceData::toSummary() const {
  // Self time: a span's duration minus the duration of its direct children.
  std::map<uint64_t, uint64_t> ChildNs;
  for (const TraceSpanRecord &R : Spans)
    if (R.Parent)
      ChildNs[R.Parent] += R.DurNs;

  struct Agg {
    uint64_t Spans = 0, TotalNs = 0, SelfNs = 0;
    uint64_t Counters[NumTraceCounters] = {};
  };
  std::map<std::string, Agg> ByName;
  for (const TraceSpanRecord &R : Spans) {
    Agg &A = ByName[R.Name];
    A.Spans += 1;
    A.TotalNs += R.DurNs;
    uint64_t Sub = 0;
    if (auto It = ChildNs.find(R.Id); It != ChildNs.end())
      Sub = std::min(It->second, R.DurNs);
    A.SelfNs += R.DurNs - Sub;
    for (unsigned I = 0; I < NumTraceCounters; ++I)
      A.Counters[I] += R.Counters[I];
  }
  // Every instrumented phase appears even with zero spans, so consumers
  // (the ci.sh trace leg greps for all nine) can tell "phase never ran"
  // from "phase missing from the format".
  static const char *Phases[] = {"simplify",  "toDNF",      "crossConjoin",
                                 "projectVars", "splinter", "makeDisjoint",
                                 "coalesce",  "summation",  "snfReparam"};
  for (const char *P : Phases)
    ByName.emplace(P, Agg{});

  auto Ms = [](uint64_t Ns) { return static_cast<double>(Ns) / 1e6; };
  std::ostringstream OS;
  OS << "trace summary: " << Spans.size() << " span"
     << (Spans.size() == 1 ? "" : "s");
  if (Dropped)
    OS << " (+" << Dropped << " dropped)";
  OS << "\n  phase            spans    total ms     self ms  counters\n";
  // Order by self time (descending), name as tie-break, zero-span phases
  // last in name order.
  std::vector<std::pair<std::string, Agg>> Rows(ByName.begin(), ByName.end());
  std::stable_sort(Rows.begin(), Rows.end(),
                   [](const auto &A, const auto &B) {
                     return A.second.SelfNs > B.second.SelfNs;
                   });
  for (const auto &[Name, A] : Rows) {
    OS << "  " << Name;
    for (size_t Pad = Name.size(); Pad < 17; ++Pad)
      OS << ' ';
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%5llu %11.3f %11.3f",
                  static_cast<unsigned long long>(A.Spans), Ms(A.TotalNs),
                  Ms(A.SelfNs));
    OS << Buf;
    bool AnyCounter = false;
    for (unsigned I = 0; I < NumTraceCounters; ++I)
      if (A.Counters[I]) {
        OS << (AnyCounter ? " " : "  ") << counterName(I) << "="
           << A.Counters[I];
        AnyCounter = true;
      }
    OS << "\n";
  }
  return OS.str();
}
