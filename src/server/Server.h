//===- server/Server.h - The omegad counting service -----------*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-running counting service behind the omegad tool (DESIGN.md
/// §17).  A Server listens on a local AF_UNIX stream socket, accepts
/// connections onto per-connection Session threads, bounds concurrent
/// query execution with a RequestQueue, and shares one persistent
/// conjunct cache (and one stats sink) across every query it ever runs —
/// the warm-cache advantage a process-per-query pipeline cannot have.
///
/// Embeddable by design: ServerTest and bench_server run a Server
/// in-process on a temp socket; tools/omegad.cpp adds only flag parsing
/// and signal handling around this class.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_SERVER_SERVER_H
#define OMEGA_SERVER_SERVER_H

#include "support/Budget.h"

#include <cstdint>
#include <string>

namespace omega {
namespace server {

/// Startup configuration for one Server.
struct ServerOptions {
  /// Filesystem path of the AF_UNIX listening socket.  An existing file
  /// at the path is unlinked at startup (a stale socket from a crashed
  /// server must not brick the service).
  std::string SocketPath;
  /// Admission thresholds (RequestQueue.h): below Soft queries run with
  /// the client's budget, below Hard they run shed, at Hard they are
  /// rejected Overloaded.
  uint32_t SoftInFlight = 4;
  uint32_t HardInFlight = 16;
  /// The budget clamp applied to shed queries — finite limits so a shed
  /// query degrades to certified dark/real-shadow bounds quickly instead
  /// of occupying a slot indefinitely.
  EffortBudget ShedBudget;
  /// Shared conjunct cache capacity, configured once at startup.
  size_t CacheCapacity = size_t(1) << 14;
  /// Per-connection read deadline; an idle client is disconnected after
  /// this long with no complete frame.  <= 0 waits forever.
  int IdleTimeoutMs = 30000;
};

/// Sensible finite defaults for ServerOptions::ShedBudget.
EffortBudget defaultShedBudget();

/// The service: listen/accept/dispatch plus graceful shutdown.
class Server {
public:
  explicit Server(ServerOptions Opts);
  ~Server(); ///< Calls stop() if still running.

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds the socket and starts the accept thread.  False (with \p Err
  /// set) on any socket-level failure.
  bool start(std::string &Err);

  /// Graceful shutdown: stop accepting, mark draining (new requests get
  /// ShuttingDown), shut down every session's read side, then join all
  /// session threads — every query already admitted runs to completion
  /// and its response is delivered before this returns.  Idempotent.
  void stop();

  /// The stats document served to StatsRequest frames and omegad's
  /// SIGUSR-style dumps: {"pipeline": <schema-6 snapshot>, "server":
  /// {admission counters, per-client counters}}.
  std::string statsJson();

  const ServerOptions &options() const;

private:
  struct Impl;
  Impl *P;
};

} // namespace server
} // namespace omega

#endif // OMEGA_SERVER_SERVER_H
