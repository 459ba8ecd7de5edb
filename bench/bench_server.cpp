//===- bench/bench_server.cpp - omegad sustained throughput --------------===//
//
// Measures the counting service end to end: an in-process Server on a
// temp AF_UNIX socket, driven by 1/4/8 concurrent client connections
// submitting crossConjoin-heavy count queries over the real wire
// protocol.  Each connection count is measured twice — cold (fresh
// conjunct cache) and warm (identical query set resubmitted against the
// cache the cold pass populated) — because the persistent cross-query
// cache is the reason omegad exists: a process-per-query pipeline pays
// the cold column on every single query.
//
//   bench_server [--quick] [--queries N] [--scale N] [--reps N]
//                [--out FILE]
//
// Every warm answer is compared against its cold twin (the determinism
// contract over the wire), one JSON object is printed to stdout, and the
// run hard-fails on any mismatch or transport error.  --quick shrinks
// the workload so the binary doubles as a ctest smoke test; ci.sh gates
// warm_speedup_min >= 1.5 on the full run and commits the JSON as
// BENCH_server.json.
//
//===----------------------------------------------------------------------===//

#include "omega/Omega.h"
#include "presburger/Var.h"
#include "server/Protocol.h"
#include "server/Server.h"

#include <chrono>
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
  std::cerr << "bench_server: error: " << Msg << "\n";
  std::exit(1);
}

int connectTo(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

/// Query \p Idx of the set: a conjunction of two interval unions with a
/// coupling constraint and a stride, offset by the index so every query
/// in the set is distinct (no cross-query cache reuse inside one cold
/// pass — the warm pass alone gets the hits).
CountRequestMsg makeQuery(int Idx, int Scale) {
  auto Union = [&](const std::string &V, int Offset) {
    std::ostringstream OS;
    OS << "(";
    for (int I = 0; I < Scale; ++I) {
      if (I)
        OS << " || ";
      int Lo = 1 + Offset + 12 * I;
      int Hi = Lo + 9;
      OS << Lo << " <= " << V << " <= " << Hi;
    }
    OS << ")";
    return OS.str();
  };
  std::ostringstream OS;
  OS << Union("i", Idx) << " && " << Union("j", 2 * Idx) << " && i + j <= "
     << 12 * Scale + 3 * Idx << " && 2 | i + j";
  CountRequestMsg M;
  M.Formula = OS.str();
  M.Vars = {"i", "j"};
  return M;
}

struct PassResult {
  double WallMs = 0;
  double Qps = 0;
  std::vector<std::string> Answers; ///< Index-aligned with the query set.
  bool Ok = true;
};

/// Submits the whole query set once, sliced round-robin over
/// \p Connections concurrent connections, and times the full pass.
PassResult runPass(const std::string &Socket,
                   const std::vector<CountRequestMsg> &Queries,
                   unsigned Connections) {
  PassResult Out;
  Out.Answers.assign(Queries.size(), "");
  std::vector<std::thread> Threads;
  std::vector<char> ThreadOk(Connections, 1);
  auto T0 = std::chrono::steady_clock::now();
  for (unsigned C = 0; C < Connections; ++C)
    Threads.emplace_back([&, C] {
      int Fd = connectTo(Socket);
      if (Fd < 0) {
        ThreadOk[C] = 0;
        return;
      }
      std::vector<uint8_t> Payload;
      for (size_t I = C; I < Queries.size(); I += Connections) {
        if (writeFrame(Fd, encodeCountRequest(Queries[I])) !=
                IoStatus::Ok ||
            readFrame(Fd, Payload, 120000) != IoStatus::Ok) {
          ThreadOk[C] = 0;
          break;
        }
        CountResponseMsg R;
        if (!decodeCountResponse(Payload, R) ||
            !queryOutcomeIsAnswer(R.Outcome)) {
          ThreadOk[C] = 0;
          break;
        }
        Out.Answers[I] = R.Value; // Slices are disjoint: no two threads
                                  // ever write the same index.
      }
      ::close(Fd);
    });
  for (std::thread &T : Threads)
    T.join();
  auto T1 = std::chrono::steady_clock::now();
  Out.WallMs =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          T1 - T0)
          .count();
  Out.Qps = Out.WallMs > 0
                ? 1000.0 * static_cast<double>(Queries.size()) / Out.WallMs
                : 0;
  for (char OkFlag : ThreadOk)
    Out.Ok = Out.Ok && OkFlag;
  return Out;
}

struct ConfigResult {
  unsigned Connections;
  PassResult Cold, Warm;
  double WarmSpeedup = 0;
};

} // namespace

int main(int Argc, char **Argv) {
  int Queries = 24, Scale = 6, Reps = 3;
  bool Quick = false;
  std::string OutPath;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto NextInt = [&](int Fallback) {
      return ++I < Argc ? std::atoi(Argv[I]) : Fallback;
    };
    if (Arg == "--quick") {
      Quick = true;
      Queries = 6;
      Scale = 4;
      Reps = 1;
    } else if (Arg == "--queries")
      Queries = NextInt(Queries);
    else if (Arg == "--scale")
      Scale = NextInt(Scale);
    else if (Arg == "--reps")
      Reps = NextInt(Reps);
    else if (Arg == "--out")
      OutPath = ++I < Argc ? Argv[I] : "";
    else {
      std::cerr << "usage: bench_server [--quick] [--queries N] "
                   "[--scale N] [--reps N] [--out FILE]\n";
      return 1;
    }
  }

  std::vector<CountRequestMsg> QuerySet;
  QuerySet.reserve(Queries);
  for (int I = 0; I < Queries; ++I)
    QuerySet.push_back(makeQuery(I, Scale));

  const std::vector<unsigned> ConnectionCounts =
      Quick ? std::vector<unsigned>{1, 2} : std::vector<unsigned>{1, 4, 8};
  std::vector<ConfigResult> Results;

  for (unsigned Connections : ConnectionCounts) {
    // Fresh server and fresh cache per configuration, so each cold column
    // really is cold and configurations do not contaminate each other.
    clearConjunctCache();
    resetWildcardState();
    ServerOptions Opts;
    Opts.SocketPath = "/tmp/bench-omegad-" + std::to_string(::getpid()) +
                      "-" + std::to_string(Connections) + ".sock";
    Opts.SoftInFlight = 16; // Measure execution, not admission control.
    Opts.HardInFlight = 64;
    // Size the caches for the whole query set: the full-scale set
    // overflows the 1<<14 default and thrash erases the warm column.  A
    // pass needs tens of thousands of feasibility answers, and each
    // thread's feasibility table gets a quarter of the capacity.
    Opts.CacheCapacity = 1 << 19;
    Server S(Opts);
    std::string Err;
    if (!S.start(Err))
      fail(Err);

    ConfigResult R;
    R.Connections = Connections;
    // Best-of-Reps per column, like bench_pipeline: a cold rep starts from
    // an emptied cache every time, a warm rep keeps what cold populated.
    for (int Rep = 0; Rep < Reps; ++Rep) {
      clearConjunctCache();
      resetWildcardState();
      PassResult P = runPass(Opts.SocketPath, QuerySet, Connections);
      if (Rep == 0 || (P.Ok && P.WallMs < R.Cold.WallMs))
        R.Cold = std::move(P);
    }
    // Re-prime from the surviving cold answers' state: the last cold rep
    // left the cache populated with exactly this query set.
    for (int Rep = 0; Rep < Reps; ++Rep) {
      PassResult P = runPass(Opts.SocketPath, QuerySet, Connections);
      if (Rep == 0 || (P.Ok && P.WallMs < R.Warm.WallMs))
        R.Warm = std::move(P);
    }
    S.stop();
    if (!R.Cold.Ok || !R.Warm.Ok)
      fail("transport failure at " + std::to_string(Connections) +
           " connections");
    // Wire-level determinism: the warm pass (and thus every connection
    // layout) must reproduce the cold answers bit for bit.
    for (size_t I = 0; I < QuerySet.size(); ++I)
      if (R.Warm.Answers[I] != R.Cold.Answers[I] ||
          (Results.empty() ? false
                           : R.Cold.Answers[I] !=
                                 Results[0].Cold.Answers[I])) {
        std::cerr << "bench_server: DETERMINISM VIOLATION on query " << I
                  << " at " << Connections << " connections\n";
        return 1;
      }
    R.WarmSpeedup = R.Warm.Qps > 0 ? R.Warm.Qps / R.Cold.Qps : 0;
    Results.push_back(std::move(R));
  }

  double WarmSpeedupMin = -1;
  std::ostringstream JS;
  JS << "{\"schema\":1,\"bench\":\"server\",\"queries\":" << Queries
     << ",\"scale\":" << Scale << ",\"reps\":" << Reps
     << ",\"hardware_concurrency\":"
     << std::thread::hardware_concurrency() << ",\"configs\":[";
  for (size_t I = 0; I < Results.size(); ++I) {
    const ConfigResult &R = Results[I];
    if (I)
      JS << ",";
    JS << "{\"connections\":" << R.Connections
       << ",\"cold_ms\":" << R.Cold.WallMs << ",\"cold_qps\":" << R.Cold.Qps
       << ",\"warm_ms\":" << R.Warm.WallMs << ",\"warm_qps\":" << R.Warm.Qps
       << ",\"warm_speedup\":" << R.WarmSpeedup << "}";
    if (WarmSpeedupMin < 0 || R.WarmSpeedup < WarmSpeedupMin)
      WarmSpeedupMin = R.WarmSpeedup;
  }
  JS << "],\"warm_speedup_min\":" << WarmSpeedupMin
     << ",\"answers_identical\":true}";

  std::cout << JS.str() << "\n";
  if (!OutPath.empty()) {
    std::ofstream Out(OutPath);
    Out << JS.str() << "\n";
  }
  std::cout << "bench_server: ok\n";
  return 0;
}
