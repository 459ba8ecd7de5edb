//===- server/Session.h - One omegad client connection ---------*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One accepted connection's request loop.  A Session owns its socket fd
/// and runs on its own thread: read a frame, decide admission, execute
/// the query under a connection-level QueryContext (stats redirected to
/// the server's shared block, trace participation off), write the reply.
/// Everything a session needs from its server comes in through the
/// SessionHost view, so Session compiles without seeing Server at all.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_SERVER_SESSION_H
#define OMEGA_SERVER_SESSION_H

#include "server/Protocol.h"
#include "server/RequestQueue.h"
#include "support/Budget.h"
#include "support/QueryContext.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

namespace omega {
namespace server {

/// Per-connection request counters.  Written by the session thread,
/// snapshotted by the stats endpoint from other threads, hence atomics
/// (relaxed: these are tallies, not synchronization).
struct ClientCounters {
  std::atomic<uint64_t> Requests{0};  ///< Count requests received.
  std::atomic<uint64_t> Answered{0};  ///< Ran to an answer or diagnostic.
  std::atomic<uint64_t> Shed{0};      ///< Ran under the clamped budget.
  std::atomic<uint64_t> Rejected{0};  ///< Turned away (Overloaded /
                                      ///< ShuttingDown).
  std::atomic<uint64_t> Malformed{0}; ///< Undecodable frames.
};

/// The server facilities one session borrows.  All references outlive the
/// session: the server joins every session thread before tearing down.
struct SessionHost {
  RequestQueue &Queue;
  QueryStatsBlock &Stats;          ///< Shared sink for query counters.
  const EffortBudget &ShedBudget;  ///< Clamp applied on Admission::Shed.
  std::atomic<bool> &Draining;     ///< Set once shutdown begins.
  size_t CacheCapacity;            ///< The shared cache's configured size.
  int IdleTimeoutMs;               ///< Per-connection read deadline.
  std::function<std::string()> StatsJson; ///< Composes the stats reply.
};

/// Handles one connection until EOF, timeout, malformed input, or drain.
class Session {
public:
  /// Takes ownership of \p Fd (closed in the destructor).
  Session(int Fd, uint64_t Id, const SessionHost &Host);
  ~Session();

  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  /// The blocking request loop; returns when the connection is done.
  /// The socket's FIN is sent before returning (the fd itself lives until
  /// destruction), so the peer sees EOF as soon as the loop ends, not
  /// when the server gets around to reaping the session.
  void run();

  /// Asynchronously stops the read side: a session blocked in readFrame
  /// sees EOF and winds down after finishing (and answering) any query
  /// already in flight.  This is how graceful shutdown drains sessions.
  void shutdownRead();

  uint64_t id() const { return Id; }
  const ClientCounters &counters() const { return Counters; }

private:
  /// The request loop proper; run() wraps it with the closing FIN.
  void serve();

  /// Executes one decoded count request end to end and returns the reply.
  CountResponseMsg handleCount(const CountRequestMsg &M);

  int Fd;
  const uint64_t Id;
  SessionHost Host;
  ClientCounters Counters;
};

/// The shed clamp: each budget knob becomes the tighter of the client's
/// and the server's (0 = unlimited loses to any limit).  Exposed for
/// ServerTest.
EffortBudget clampBudget(const EffortBudget &Client,
                         const EffortBudget &Shed);

} // namespace server
} // namespace omega

#endif // OMEGA_SERVER_SESSION_H
