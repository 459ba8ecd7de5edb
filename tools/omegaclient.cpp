//===- tools/omegaclient.cpp - omegad client and load generator ----------===//
//
// Client for the omegad counting service:
//
//   omegaclient --socket /tmp/omega.sock --vars i,j "1 <= i,j <= 10"
//   omegaclient --socket S --file q.presburger --check
//   omegaclient --socket S --batch list.txt --connections 4
//
// Submits count requests over the binary wire protocol
// (src/server/Protocol.h) and prints one line per response.  --batch
// reads a file of .presburger paths and submits them all over one
// connection; --connections N replays the whole query set over N
// concurrent connections and verifies every connection got bit-identical
// answers (the server-side determinism check).  --check additionally
// recomputes every query in-process through countBatch and compares.
//
// Options:
//   --socket PATH       server socket (required)
//   --vars a,b,c        counted variables for a formula argument
//   --file F            one .presburger query (repeatable)
//   --batch LIST        file with one .presburger path per line
//   --connections N     concurrent connections replaying the set
//   --repeat N          send the query set N times per connection
//   --check             recompute in-process and compare answers
//   --no-cache          opt this query out of the shared cache
//   --budget SPEC       effort budget (e.g. "splinters=8,clauses=64")
//   --backend NAME      pugh | automaton | enumerate | auto
//   --query-stats       request the per-query stats delta
//   --stats             fetch and print the server stats JSON
//   --ping              liveness probe only
//   --timeout-ms N      per-frame response deadline (default 120000)
//
// Exit codes: the worst response outcome mapped through
// queryOutcomeExitCode (0 answered, 1 diagnostic, 75 overloaded /
// draining), or 4 on any comparison mismatch (--check or
// cross-connection), or 3 on connection-level failures.
//
//===----------------------------------------------------------------------===//

#include "counting/Backend.h"
#include "omega/Omega.h"
#include "presburger/Parser.h"
#include "server/Protocol.h"
#include "support/Status.h"

#include "FormulaFile.h"
#include "Options.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace omega;
using namespace omega::server;

namespace {

void fail(const std::string &Msg) {
  std::cerr << "omegaclient: error: " << Msg << "\n";
  std::exit(3);
}

std::vector<std::string> splitList(const std::string &S) {
  std::vector<std::string> Out;
  std::istringstream IS(S);
  std::string Item;
  while (std::getline(IS, Item, ','))
    if (!Item.empty())
      Out.push_back(Item);
  return Out;
}

int connectTo(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    ::close(Fd);
    return -1;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

/// One line summarizing a response, stable across runs so scripts (and
/// the cross-connection comparison) can diff it.
std::string summarize(const CountResponseMsg &R) {
  std::string Out = queryOutcomeName(R.Outcome);
  if (R.Outcome == QueryOutcome::Bounded)
    Out += " lower=[" + R.Lower + "] upper=[" + R.Upper + "]";
  else if (queryOutcomeIsAnswer(R.Outcome))
    Out += " " + R.Value;
  else if (!R.ErrorText.empty())
    Out += " " + R.ErrorText;
  if (!R.Backend.empty())
    Out += " (" + R.Backend + ")";
  return Out;
}

struct RunResult {
  std::vector<CountResponseMsg> Responses;
  bool TransportOk = true;
};

/// Sends every request over one fresh connection, in order.
RunResult runConnection(const std::string &Path,
                        const std::vector<CountRequestMsg> &Requests,
                        unsigned Repeat, int TimeoutMs) {
  RunResult Out;
  int Fd = connectTo(Path);
  if (Fd < 0) {
    Out.TransportOk = false;
    return Out;
  }
  std::vector<uint8_t> Payload;
  for (unsigned R = 0; R < Repeat && Out.TransportOk; ++R) {
    for (const CountRequestMsg &M : Requests) {
      if (writeFrame(Fd, encodeCountRequest(M)) != IoStatus::Ok ||
          readFrame(Fd, Payload, TimeoutMs) != IoStatus::Ok) {
        Out.TransportOk = false;
        break;
      }
      CountResponseMsg Resp;
      if (!decodeCountResponse(Payload, Resp)) {
        Out.TransportOk = false;
        break;
      }
      Out.Responses.push_back(std::move(Resp));
    }
  }
  ::close(Fd);
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string SocketPath;
  std::vector<std::string> Vars;
  std::string FormulaText;
  std::vector<std::string> Files;
  unsigned Connections = 1;
  unsigned Repeat = 1;
  int TimeoutMs = 120000;
  bool Check = false, WantStats = false, Ping = false;
  CountRequestMsg Proto; // Per-query options shared by every request.

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> std::string {
      if (++I >= Argc)
        fail("missing value after " + Arg);
      return Argv[I];
    };
    if (Arg == "--socket")
      SocketPath = Next();
    else if (Arg == "--vars")
      Vars = splitList(Next());
    else if (Arg == "--file")
      Files.push_back(Next());
    else if (Arg == "--batch") {
      std::string List = Next();
      std::ifstream In(List);
      if (!In)
        fail("cannot open batch list: " + List);
      std::string Line;
      while (std::getline(In, Line))
        if (!Line.empty() && Line[0] != '#')
          Files.push_back(Line);
    } else if (Arg == "--connections")
      Connections = std::max(1u, countFlag<unsigned>(Arg, Next(), fail));
    else if (Arg == "--repeat")
      Repeat = std::max(1u, countFlag<unsigned>(Arg, Next(), fail));
    else if (Arg == "--check")
      Check = true;
    else if (Arg == "--no-cache")
      Proto.CacheEnabled = false;
    else if (Arg == "--budget")
      Proto.Budget = Next();
    else if (Arg == "--backend") {
      std::string Name = Next();
      BackendKind K;
      if (!backendKindFromName(Name, K))
        fail("unknown backend: " + Name);
      Proto.Backend = static_cast<uint8_t>(K);
    } else if (Arg == "--query-stats")
      Proto.CollectStats = true;
    else if (Arg == "--stats")
      WantStats = true;
    else if (Arg == "--ping")
      Ping = true;
    else if (Arg == "--timeout-ms")
      TimeoutMs = countFlag<int>(Arg, Next(), fail);
    else if (Arg == "--help" || Arg == "-h") {
      std::cout << "usage: omegaclient --socket PATH [options] "
                   "[\"formula\" --vars i,j]\n"
                   "see the header of tools/omegaclient.cpp for the full "
                   "option list\n";
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-')
      fail("unknown option: " + Arg);
    else if (FormulaText.empty())
      FormulaText = Arg;
    else
      fail("multiple formulas given");
  }

  if (SocketPath.empty())
    fail("--socket is required (try --help)");

  // Assemble the request set.
  std::vector<CountRequestMsg> Requests;
  if (!FormulaText.empty()) {
    if (Vars.empty())
      fail("--vars required with a formula argument");
    CountRequestMsg M = Proto;
    M.Formula = FormulaText;
    M.Vars = Vars;
    Requests.push_back(std::move(M));
  }
  for (const std::string &Path : Files) {
    FormulaFile FF;
    std::string Err;
    if (!readFormulaFile(Path, FF, Err))
      fail(Path + ": " + Err);
    CountRequestMsg M = Proto;
    M.Formula = FF.FormulaText;
    M.Vars = Vars.empty() ? FF.Vars : Vars;
    Requests.push_back(std::move(M));
  }

  if (Ping) {
    int Fd = connectTo(SocketPath);
    if (Fd < 0)
      fail("cannot connect to " + SocketPath);
    std::vector<uint8_t> Payload;
    MsgType T;
    if (writeFrame(Fd, encodeEmpty(MsgType::Ping)) != IoStatus::Ok ||
        readFrame(Fd, Payload, TimeoutMs) != IoStatus::Ok ||
        !peekType(Payload, T) || T != MsgType::Pong)
      fail("no pong from " + SocketPath);
    ::close(Fd);
    std::cout << "pong\n";
    if (Requests.empty() && !WantStats)
      return 0;
  }

  if (Requests.empty() && !WantStats)
    fail("nothing to do: give a formula, --file/--batch, --ping, or "
         "--stats");

  int Exit = 0;
  if (!Requests.empty()) {
    // Fan the query set out over the requested number of connections.
    std::vector<RunResult> Results(Connections);
    if (Connections == 1) {
      Results[0] = runConnection(SocketPath, Requests, Repeat, TimeoutMs);
    } else {
      std::vector<std::thread> Threads;
      Threads.reserve(Connections);
      for (unsigned C = 0; C < Connections; ++C)
        Threads.emplace_back([&, C] {
          Results[C] = runConnection(SocketPath, Requests, Repeat,
                                     TimeoutMs);
        });
      for (std::thread &T : Threads)
        T.join();
    }

    for (const RunResult &R : Results)
      if (!R.TransportOk)
        fail("connection to " + SocketPath + " failed mid-run");

    // Print connection 0's responses and fold its outcomes into the exit
    // code.
    const std::vector<CountResponseMsg> &First = Results[0].Responses;
    for (size_t I = 0; I < First.size(); ++I) {
      std::cout << "q" << I << ": " << summarize(First[I]) << "\n";
      if (Proto.CollectStats && !First[I].StatsJson.empty())
        std::cout << "q" << I << " stats: " << First[I].StatsJson << "\n";
      Exit = std::max(Exit, queryOutcomeExitCode(First[I].Outcome));
    }

    // Cross-connection determinism: every connection must have received
    // bit-identical summaries for the same query sequence.
    for (unsigned C = 1; C < Connections; ++C)
      for (size_t I = 0; I < First.size(); ++I)
        if (summarize(Results[C].Responses[I]) != summarize(First[I])) {
          std::cerr << "omegaclient: MISMATCH across connections on q" << I
                    << ":\n  c0: " << summarize(First[I])
                    << "\n  c" << C << ": "
                    << summarize(Results[C].Responses[I]) << "\n";
          return 4;
        }

    if (Check) {
      // Recompute in-process through the same batch entry point the
      // server's queries funnel into, and demand identical answers.
      std::vector<CountQuery> Local;
      Local.reserve(Requests.size());
      for (const CountRequestMsg &M : Requests) {
        ParseResult PR = parseFormula(M.Formula);
        if (!PR)
          fail("--check parse: " + PR.Error);
        CountQuery Q;
        Q.F = *PR.Value;
        Q.Vars = VarSet(M.Vars.begin(), M.Vars.end());
        Q.Opts.Backend = static_cast<BackendKind>(M.Backend);
        Q.Opts.CacheEnabled = M.CacheEnabled;
        if (!M.Budget.empty()) {
          Result<EffortBudget> B = EffortBudget::parse(M.Budget);
          if (!B)
            fail("--check budget: " + B.error().toString());
          Q.Opts.Budget = *B;
        }
        Local.push_back(std::move(Q));
      }
      std::vector<CountResult> LocalResults = countBatch(Local);
      for (size_t I = 0; I < Requests.size(); ++I) {
        const CountResponseMsg &Remote = First[I];
        const CountResult &Mine = LocalResults[I];
        bool Same = Remote.Outcome == Mine.outcome();
        if (Same && queryOutcomeIsAnswer(Remote.Outcome))
          Same = Mine.Status == CountStatus::Bounded
                     ? (Remote.Lower == Mine.Lower.toString() &&
                        Remote.Upper == Mine.Upper.toString())
                     : Remote.Value == Mine.Value.toString();
        if (!Same) {
          std::cerr << "omegaclient: MISMATCH server vs in-process on q"
                    << I << ":\n  server: " << summarize(Remote)
                    << "\n  local:  " << queryOutcomeName(Mine.outcome())
                    << " "
                    << (Mine.Status == CountStatus::Error
                            ? Mine.Err.toString()
                            : Mine.Value.toString())
                    << "\n";
          return 4;
        }
      }
      std::cout << "check: " << Requests.size() << " quer"
                << (Requests.size() == 1 ? "y" : "ies")
                << " match in-process results\n";
    }
  }

  if (WantStats) {
    int Fd = connectTo(SocketPath);
    if (Fd < 0)
      fail("cannot connect to " + SocketPath);
    std::vector<uint8_t> Payload;
    std::string Json;
    if (writeFrame(Fd, encodeEmpty(MsgType::StatsRequest)) !=
            IoStatus::Ok ||
        readFrame(Fd, Payload, TimeoutMs) != IoStatus::Ok ||
        !decodeStatsResponse(Payload, Json))
      fail("stats request failed");
    ::close(Fd);
    std::cout << Json << "\n";
  }

  return Exit;
}
