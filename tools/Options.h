//===- tools/Options.h - Shared tool flag parsing --------------*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flags every pipeline tool shares — --cache/--no-cache, --budget,
/// --backend, --stats, --trace, --trace-summary — parsed once, into a
/// CountOptions.  omegacount, omegalint, and bench_pipeline each call
/// parseSharedOption() from their argv loop so the flags behave (and are
/// documented) identically everywhere; tool-specific flags stay in the
/// tools.  countFlag() is the one parser for numeric flag values, used by
/// these tools and by omegad and omegaclient.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_TOOLS_OPTIONS_H
#define OMEGA_TOOLS_OPTIONS_H

#include "counting/Backend.h"
#include "omega/Omega.h"
#include "support/QueryContext.h"

#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <string>

namespace omega {

/// Shared tool configuration: the query options plus the tool-side
/// reporting toggles they imply.
struct ToolOptions {
  CountOptions Count;
  /// --backend was given: route the query through the unified CountResult
  /// API and report which backend answered.
  bool HaveBackend = false;
  /// --stats: print the pipeline counter summary to stderr on exit.
  bool Stats = false;
  /// --trace FILE: write Chrome trace_event JSON here.
  std::string TraceFile;
  /// --trace-summary: print the per-phase self-time table to stderr.
  bool TraceSummary = false;

  bool wantTrace() const { return !TraceFile.empty() || TraceSummary; }
};

/// The value of numeric flag \p Flag: \p Text as a decimal count that
/// fits in \p T, i.e. digits only (no sign, no blanks) and at most T's
/// maximum.  Anything else, including a value that would wrap, calls
/// \p Fail (which must not return) with a usage message.
template <typename T>
T countFlag(const std::string &Flag, const std::string &Text,
            const std::function<void(const std::string &)> &Fail) {
  constexpr uint64_t Max =
      static_cast<uint64_t>(std::numeric_limits<T>::max());
  bool Ok = !Text.empty();
  uint64_t N = 0;
  for (char C : Text) {
    uint64_t Digit = static_cast<uint64_t>(C - '0');
    if (C < '0' || C > '9' || N > (Max - Digit) / 10) {
      Ok = false;
      break;
    }
    N = N * 10 + Digit;
  }
  if (!Ok)
    Fail("expected an integer from 0 to " + std::to_string(Max) + " after " +
         Flag + ": " + Text);
  return Ok ? static_cast<T>(N) : T(0);
}

/// The shared block for --help texts (one string so the tools cannot
/// drift apart).
inline const char *sharedOptionsHelp() {
  return "  --cache N        conjunct cache capacity (entries); "
         "--no-cache disables\n"
         "  --budget SPEC    effort budget, e.g. "
         "\"bits=64,splinters=32,clauses=256,depth=24,ms=5000\";\n"
         "                   on exhaustion degrades to certified bounds\n"
         "  --backend B      counting backend: pugh | automaton | "
         "enumerate | auto\n"
         "                   (automaton/enumerate answer exactly or refuse; "
         "auto falls back to pugh)\n"
         "  --stats          print pipeline statistics to stderr\n"
         "  --trace FILE     write a Chrome trace_event JSON of the run "
         "(chrome://tracing)\n"
         "  --trace-summary  print per-phase span/self-time summary to "
         "stderr\n";
}

/// Consumes Argv[I] if it is one of the shared flags, advancing \p I past
/// any flag value.  Returns true iff the argument was consumed.  \p Fail
/// is called with a message (and must not return) on a malformed value.
inline bool
parseSharedOption(int Argc, char **Argv, int &I, ToolOptions &Opts,
                  const std::function<void(const std::string &)> &Fail) {
  std::string Arg = Argv[I];
  auto Next = [&]() -> std::string {
    if (++I >= Argc)
      Fail("missing value after " + Arg);
    return Argv[I];
  };
  auto SetBudget = [&](const std::string &Spec) {
    Result<EffortBudget> B = EffortBudget::parse(Spec);
    if (!B)
      Fail(B.error().toString());
    Opts.Count.Budget = *B;
  };
  auto SetBackend = [&](const std::string &Name) {
    if (!backendKindFromName(Name, Opts.Count.Backend))
      Fail("unknown backend: " + Name +
           " (expected pugh, automaton, enumerate, or auto)");
    Opts.HaveBackend = true;
  };
  if (Arg == "--backend") {
    SetBackend(Next());
  } else if (Arg.rfind("--backend=", 0) == 0) {
    SetBackend(Arg.substr(10));
  } else if (Arg == "--cache") {
    Opts.Count.CacheCapacity = countFlag<size_t>(Arg, Next(), Fail);
    Opts.Count.CacheEnabled = Opts.Count.CacheCapacity > 0;
  } else if (Arg == "--no-cache") {
    Opts.Count.CacheEnabled = false;
  } else if (Arg == "--budget") {
    SetBudget(Next());
  } else if (Arg.rfind("--budget=", 0) == 0) {
    SetBudget(Arg.substr(9));
  } else if (Arg == "--stats") {
    Opts.Stats = true;
    Opts.Count.CollectStats = true;
    // Fast/slow op tallies are off by default; --stats implies them.
    Opts.Count.CountArithOps = true;
  } else if (Arg == "--trace") {
    Opts.TraceFile = Next();
  } else if (Arg == "--trace-summary") {
    Opts.TraceSummary = true;
  } else {
    return false;
  }
  return true;
}

/// Applies the parsed knobs to the process, which the tool owns: the
/// conjunct cache gets exactly the requested capacity (0 under
/// --no-cache), and the process-wide counters that --stats prints at exit
/// count per-operation arithmetic when asked.  Call before any query runs,
/// outside any QueryScope.  Queries routed through CountOptions run in
/// their own context and fold their counters back into the process's.
inline void configureToolProcess(const ToolOptions &Opts) {
  configureConjunctCache(Opts.Count.CacheEnabled ? Opts.Count.CacheCapacity
                                                 : 0);
  arithCounters().CountOps.store(Opts.Count.CountArithOps,
                                 std::memory_order_relaxed);
}

/// Starts the process-wide trace session when --trace/--trace-summary was
/// given.  Call once, before the traced work.
inline void startToolTrace(const ToolOptions &Opts) {
  if (Opts.wantTrace())
    startTracing();
}

/// Ends the trace session and writes the requested exporter outputs.
/// Returns false (after printing a diagnostic) if the trace file cannot
/// be written.  Safe to call when tracing was not requested.
inline bool finishToolTrace(const ToolOptions &Opts, const char *Tool) {
  if (!Opts.wantTrace())
    return true;
  std::shared_ptr<const TraceData> Data = stopTracing();
  if (!Opts.TraceFile.empty()) {
    std::ofstream Out(Opts.TraceFile);
    if (!Out) {
      std::cerr << Tool << ": error: cannot write " << Opts.TraceFile << "\n";
      return false;
    }
    Out << Data->toChromeJson() << "\n";
  }
  if (Opts.TraceSummary)
    std::cerr << Data->toSummary();
  return true;
}

} // namespace omega

#endif // OMEGA_TOOLS_OPTIONS_H
