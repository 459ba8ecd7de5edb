//===- server/Protocol.h - omegad wire protocol ----------------*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The omegad wire protocol: length-prefixed binary frames over a local
/// AF_UNIX stream socket (DESIGN.md §17).
///
/// Framing:  u32 little-endian payload length, then the payload.  The
/// first payload byte is the message type; the rest is the type-specific
/// body.  All integers are little-endian, all strings are u32 length +
/// raw bytes (no terminator).  Frames larger than kMaxFrameBytes are
/// rejected before allocation, so a hostile length prefix cannot balloon
/// the server.
///
/// Decoding is total: every decode function consumes a byte span and
/// returns false (never throws, never reads out of bounds) on anything
/// malformed — short bodies, trailing garbage, lengths past the end.  The
/// server maps a failed decode to QueryOutcome::MalformedFrame and drops
/// the connection without aborting.
///
/// The outcome byte of a CountResponse is the QueryOutcome enum
/// (support/Status.h) verbatim — the same vocabulary the tools' exit
/// codes derive from.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_SERVER_PROTOCOL_H
#define OMEGA_SERVER_PROTOCOL_H

#include "support/Status.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace omega {
namespace server {

/// Hard ceiling on one frame's payload (1 MiB).  Far above any realistic
/// formula, far below anything that could hurt the host.
constexpr uint32_t kMaxFrameBytes = 1u << 20;

/// First payload byte of every frame.
enum class MsgType : uint8_t {
  CountRequest = 1,  ///< Client -> server: one counting query.
  CountResponse = 2, ///< Server -> client: the query's outcome.
  Ping = 3,          ///< Client -> server: liveness probe (empty body).
  Pong = 4,          ///< Server -> client: liveness echo (empty body).
  StatsRequest = 5,  ///< Client -> server: stats snapshot (empty body).
  StatsResponse = 6, ///< Server -> client: stats JSON (one string).
};

/// One counting query as it crosses the wire.  Mirrors the CountOptions
/// fields a remote caller may set; tracing stays host-side (a server never
/// lets a client claim the process-wide trace session).
struct CountRequestMsg {
  std::string Formula;           ///< Formula text (parser syntax).
  std::vector<std::string> Vars; ///< Counted variables.
  uint8_t Backend = 0;           ///< BackendKind, numeric.
  bool CacheEnabled = true;      ///< Participate in the shared cache.
  bool CollectStats = false;     ///< Return a per-query stats delta.
  std::string Budget;            ///< EffortBudget spec ("" = unlimited).
};

/// A query's reply.  Value/Lower/Upper are the printed piecewise answers.
/// The determinism contract covers the values they denote, not their
/// printed form: omegad sessions share the process-wide fresh-name
/// counters, so a wildcard or splinter name in the text can depend on how
/// sessions interleave (DESIGN.md §17).
struct CountResponseMsg {
  QueryOutcome Outcome = QueryOutcome::InternalError;
  std::string Value;     ///< Answer when the outcome is an answer.
  std::string Lower;     ///< Certified bounds when Outcome == Bounded.
  std::string Upper;
  std::string ErrorText; ///< Diagnostic when the outcome is an error.
  std::string Backend;   ///< Which backend answered.
  std::string StatsJson; ///< Schema-6 stats JSON when CollectStats.
};

//===----------------------------------------------------------------------===//
// Payload encode/decode (pure byte-vector transforms; no I/O).
//===----------------------------------------------------------------------===//

std::vector<uint8_t> encodeCountRequest(const CountRequestMsg &M);
std::vector<uint8_t> encodeCountResponse(const CountResponseMsg &M);
/// Ping/Pong/StatsRequest have empty bodies; StatsResponse carries JSON.
std::vector<uint8_t> encodeEmpty(MsgType T);
std::vector<uint8_t> encodeStatsResponse(const std::string &Json);

/// Reads the message type of a payload (false on an empty payload).
bool peekType(const std::vector<uint8_t> &Payload, MsgType &T);

/// Each decode requires the matching type byte, a complete body, and no
/// trailing bytes.
bool decodeCountRequest(const std::vector<uint8_t> &Payload,
                        CountRequestMsg &Out);
bool decodeCountResponse(const std::vector<uint8_t> &Payload,
                         CountResponseMsg &Out);
bool decodeStatsResponse(const std::vector<uint8_t> &Payload,
                         std::string &Json);

//===----------------------------------------------------------------------===//
// Framed socket I/O (poll-based, with per-call timeouts).
//===----------------------------------------------------------------------===//

enum class IoStatus {
  Ok,
  Eof,      ///< Peer closed cleanly at a frame boundary.
  Timeout,  ///< No complete frame within the deadline.
  TooBig,   ///< Length prefix exceeded kMaxFrameBytes.
  Error,    ///< Socket error (errno-level), or mid-frame EOF.
};

/// Reads one complete frame's payload.  \p TimeoutMs applies to the whole
/// frame, not per byte; <= 0 means wait forever.
IoStatus readFrame(int Fd, std::vector<uint8_t> &Payload, int TimeoutMs);

/// Writes the length prefix and payload.  Returns Ok or Error.
IoStatus writeFrame(int Fd, const std::vector<uint8_t> &Payload);

} // namespace server
} // namespace omega

#endif // OMEGA_SERVER_PROTOCOL_H
