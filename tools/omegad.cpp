//===- tools/omegad.cpp - Long-running counting service ------------------===//
//
// The counting daemon:
//
//   omegad --socket /tmp/omega.sock [--max-inflight 4] [--hard-limit 16]
//
// Listens on a local AF_UNIX socket for length-prefixed binary count
// requests (src/server/Protocol.h), executes them concurrently on
// per-connection sessions (each query on its session's thread) with one
// persistent conjunct cache, and applies budgeted admission control: past
// the soft in-flight limit queries run under the shed budget (degrading to
// certified bounds fast), past the hard limit they are answered
// Overloaded without running.  See DESIGN.md §17 and README "Running
// omegad"; drive it with tools/omegaclient.cpp.
//
// Options:
//   --socket PATH        listening socket path (required)
//   --max-inflight N     soft in-flight limit (default 4)
//   --hard-limit N       hard in-flight limit (default 4x soft)
//   --shed-budget SPEC   budget clamp for shed queries (EffortBudget
//                        spec, e.g. "splinters=8,clauses=64"; default
//                        a finite built-in clamp)
//   --cache N            shared conjunct cache capacity per kind
//   --idle-timeout-ms N  disconnect clients idle this long (0 = never)
//   --stats-on-exit      print the stats JSON document on shutdown
//
// Exits 0 after a graceful SIGINT/SIGTERM shutdown (all in-flight
// queries answered, socket unlinked); exits 1 on startup failure.
//
//===----------------------------------------------------------------------===//

#include "server/Server.h"
#include "support/Signal.h"

#include "Options.h"

#include <iostream>
#include <poll.h>
#include <string>

using namespace omega;
using namespace omega::server;

namespace {

void fail(const std::string &Msg) {
  std::cerr << "omegad: error: " << Msg << "\n";
  std::exit(1);
}

} // namespace

int main(int Argc, char **Argv) {
  ServerOptions Opts;
  Opts.ShedBudget = defaultShedBudget();
  bool HardSet = false;
  bool StatsOnExit = false;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> std::string {
      if (++I >= Argc)
        fail("missing value after " + Arg);
      return Argv[I];
    };
    if (Arg == "--socket")
      Opts.SocketPath = Next();
    else if (Arg == "--max-inflight")
      Opts.SoftInFlight = countFlag<uint32_t>(Arg, Next(), fail);
    else if (Arg == "--hard-limit") {
      Opts.HardInFlight = countFlag<uint32_t>(Arg, Next(), fail);
      HardSet = true;
    } else if (Arg == "--shed-budget") {
      Result<EffortBudget> B = EffortBudget::parse(Next());
      if (!B)
        fail(B.error().toString());
      Opts.ShedBudget = *B;
    } else if (Arg == "--cache")
      Opts.CacheCapacity = countFlag<size_t>(Arg, Next(), fail);
    else if (Arg == "--idle-timeout-ms")
      Opts.IdleTimeoutMs = countFlag<int>(Arg, Next(), fail);
    else if (Arg == "--stats-on-exit")
      StatsOnExit = true;
    else if (Arg == "--help" || Arg == "-h") {
      std::cout
          << "usage: omegad --socket PATH [options]\n"
             "  --max-inflight N     soft in-flight limit (default 4)\n"
             "  --hard-limit N       hard in-flight limit (default 4x "
             "soft)\n"
             "  --shed-budget SPEC   budget clamp for shed queries\n"
             "  --cache N            conjunct cache capacity (default "
             "16384)\n"
             "  --idle-timeout-ms N  idle client disconnect (default "
             "30000)\n"
             "  --stats-on-exit      print stats JSON on shutdown\n";
      return 0;
    } else
      fail("unknown option: " + Arg);
  }

  if (Opts.SocketPath.empty())
    fail("--socket is required (try --help)");
  if (!HardSet)
    Opts.HardInFlight = Opts.SoftInFlight > UINT32_MAX / 4
                            ? UINT32_MAX
                            : Opts.SoftInFlight * 4;

  int SignalFd = installShutdownSignalPipe();
  if (SignalFd < 0)
    fail("cannot install signal handlers");

  Server Daemon(Opts);
  std::string Err;
  if (!Daemon.start(Err))
    fail(Err);
  std::cerr << "omegad: listening on " << Opts.SocketPath << " (soft "
            << Opts.SoftInFlight << ", hard " << Opts.HardInFlight
            << ")\n";

  // Wait for SIGINT/SIGTERM via the self-pipe; everything interesting
  // happens on the server's own threads.
  struct pollfd Pfd = {SignalFd, POLLIN, 0};
  while (!shutdownSignalled())
    ::poll(&Pfd, 1, 500);

  std::cerr << "omegad: shutting down (draining in-flight queries)\n";
  Daemon.stop();
  if (StatsOnExit)
    std::cout << Daemon.statsJson() << "\n";
  std::cerr << "omegad: shutdown complete\n";
  return 0;
}
