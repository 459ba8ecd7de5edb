//===- server/Protocol.cpp - omegad wire protocol ------------------------===//
//
// Pure byte-level encode/decode plus poll-based framed socket I/O.  The
// decode side is written against hostile input: a cursor that refuses to
// read past the end, explicit length caps, and no exceptions — a bad
// frame yields `false`, never UB and never an abort (the abort-free
// discipline of DESIGN.md §9 extends to the wire).
//
//===----------------------------------------------------------------------===//

#include "server/Protocol.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace omega;
using namespace omega::server;

//===----------------------------------------------------------------------===//
// Encoding
//===----------------------------------------------------------------------===//

namespace {

void putU8(std::vector<uint8_t> &Out, uint8_t V) { Out.push_back(V); }

void putU32(std::vector<uint8_t> &Out, uint32_t V) {
  Out.push_back(static_cast<uint8_t>(V));
  Out.push_back(static_cast<uint8_t>(V >> 8));
  Out.push_back(static_cast<uint8_t>(V >> 16));
  Out.push_back(static_cast<uint8_t>(V >> 24));
}

void putStr(std::vector<uint8_t> &Out, const std::string &S) {
  putU32(Out, static_cast<uint32_t>(S.size()));
  Out.insert(Out.end(), S.begin(), S.end());
}

/// Bounds-checked read cursor.  Every get* returns false instead of
/// reading past End; a failed read poisons nothing (Out params are only
/// written on success).
struct Cursor {
  const uint8_t *P;
  const uint8_t *End;

  explicit Cursor(const std::vector<uint8_t> &Bytes)
      : P(Bytes.data()), End(Bytes.data() + Bytes.size()) {}

  bool getU8(uint8_t &V) {
    if (End - P < 1)
      return false;
    V = *P++;
    return true;
  }

  bool getU32(uint32_t &V) {
    if (End - P < 4)
      return false;
    V = static_cast<uint32_t>(P[0]) | (static_cast<uint32_t>(P[1]) << 8) |
        (static_cast<uint32_t>(P[2]) << 16) |
        (static_cast<uint32_t>(P[3]) << 24);
    P += 4;
    return true;
  }

  bool getStr(std::string &S) {
    uint32_t Len;
    if (!getU32(Len))
      return false;
    // A string cannot be longer than the bytes that remain; this also
    // rejects absurd lengths before any allocation happens.
    if (Len > static_cast<size_t>(End - P))
      return false;
    S.assign(reinterpret_cast<const char *>(P), Len);
    P += Len;
    return true;
  }

  bool atEnd() const { return P == End; }
};

bool checkType(Cursor &C, MsgType Want) {
  uint8_t T;
  return C.getU8(T) && T == static_cast<uint8_t>(Want);
}

} // namespace

std::vector<uint8_t> server::encodeCountRequest(const CountRequestMsg &M) {
  std::vector<uint8_t> Out;
  putU8(Out, static_cast<uint8_t>(MsgType::CountRequest));
  putStr(Out, M.Formula);
  putU32(Out, static_cast<uint32_t>(M.Vars.size()));
  for (const std::string &V : M.Vars)
    putStr(Out, V);
  putU8(Out, M.Backend);
  putU8(Out, M.CacheEnabled ? 1 : 0);
  putU8(Out, M.CollectStats ? 1 : 0);
  putStr(Out, M.Budget);
  return Out;
}

std::vector<uint8_t> server::encodeCountResponse(const CountResponseMsg &M) {
  std::vector<uint8_t> Out;
  putU8(Out, static_cast<uint8_t>(MsgType::CountResponse));
  putU8(Out, static_cast<uint8_t>(M.Outcome));
  putStr(Out, M.Value);
  putStr(Out, M.Lower);
  putStr(Out, M.Upper);
  putStr(Out, M.ErrorText);
  putStr(Out, M.Backend);
  putStr(Out, M.StatsJson);
  return Out;
}

std::vector<uint8_t> server::encodeEmpty(MsgType T) {
  return {static_cast<uint8_t>(T)};
}

std::vector<uint8_t> server::encodeStatsResponse(const std::string &Json) {
  std::vector<uint8_t> Out;
  putU8(Out, static_cast<uint8_t>(MsgType::StatsResponse));
  putStr(Out, Json);
  return Out;
}

bool server::peekType(const std::vector<uint8_t> &Payload, MsgType &T) {
  if (Payload.empty())
    return false;
  uint8_t Raw = Payload[0];
  if (Raw < static_cast<uint8_t>(MsgType::CountRequest) ||
      Raw > static_cast<uint8_t>(MsgType::StatsResponse))
    return false;
  T = static_cast<MsgType>(Raw);
  return true;
}

bool server::decodeCountRequest(const std::vector<uint8_t> &Payload,
                                CountRequestMsg &Out) {
  Cursor C(Payload);
  CountRequestMsg M;
  if (!checkType(C, MsgType::CountRequest))
    return false;
  if (!C.getStr(M.Formula))
    return false;
  uint32_t NumVars;
  if (!C.getU32(NumVars))
    return false;
  // Each var costs at least 4 bytes of length prefix, so this bound makes
  // a hostile count fail fast instead of looping a billion times.
  if (NumVars > kMaxFrameBytes / 4)
    return false;
  M.Vars.reserve(NumVars);
  for (uint32_t I = 0; I < NumVars; ++I) {
    std::string V;
    if (!C.getStr(V))
      return false;
    M.Vars.push_back(std::move(V));
  }
  uint8_t Cache, Stats;
  if (!C.getU8(M.Backend) || !C.getU8(Cache) || !C.getU8(Stats) ||
      !C.getStr(M.Budget))
    return false;
  if (!C.atEnd())
    return false;
  M.CacheEnabled = Cache != 0;
  M.CollectStats = Stats != 0;
  Out = std::move(M);
  return true;
}

bool server::decodeCountResponse(const std::vector<uint8_t> &Payload,
                                 CountResponseMsg &Out) {
  Cursor C(Payload);
  CountResponseMsg M;
  uint8_t Outcome;
  if (!checkType(C, MsgType::CountResponse))
    return false;
  if (!C.getU8(Outcome) || !C.getStr(M.Value) || !C.getStr(M.Lower) ||
      !C.getStr(M.Upper) || !C.getStr(M.ErrorText) || !C.getStr(M.Backend) ||
      !C.getStr(M.StatsJson))
    return false;
  if (!C.atEnd())
    return false;
  M.Outcome = static_cast<QueryOutcome>(Outcome);
  Out = std::move(M);
  return true;
}

bool server::decodeStatsResponse(const std::vector<uint8_t> &Payload,
                                 std::string &Json) {
  Cursor C(Payload);
  std::string S;
  if (!checkType(C, MsgType::StatsResponse))
    return false;
  if (!C.getStr(S) || !C.atEnd())
    return false;
  Json = std::move(S);
  return true;
}

//===----------------------------------------------------------------------===//
// Framed socket I/O
//===----------------------------------------------------------------------===//

namespace {

/// Milliseconds left until \p Deadline (steady clock), clamped at 0;
/// -1 when there is no deadline.
int remainingMs(std::chrono::steady_clock::time_point Deadline, bool Have) {
  if (!Have)
    return -1;
  auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                  Deadline - std::chrono::steady_clock::now())
                  .count();
  return Left > 0 ? static_cast<int>(Left) : 0;
}

/// Reads exactly \p Len bytes, polling for readability so a stalled peer
/// cannot pin the thread past the deadline.  \p Sofar distinguishes a
/// clean EOF (nothing read yet) from a truncated frame.
IoStatus readExact(int Fd, uint8_t *Buf, size_t Len,
                   std::chrono::steady_clock::time_point Deadline,
                   bool HaveDeadline, bool &CleanEofOk) {
  size_t Got = 0;
  while (Got < Len) {
    int Wait = remainingMs(Deadline, HaveDeadline);
    if (HaveDeadline && Wait == 0)
      return IoStatus::Timeout;
    struct pollfd Pfd = {Fd, POLLIN, 0};
    int PR = ::poll(&Pfd, 1, Wait);
    if (PR == 0)
      return IoStatus::Timeout;
    if (PR < 0) {
      if (errno == EINTR)
        continue;
      return IoStatus::Error;
    }
    ssize_t N = ::read(Fd, Buf + Got, Len - Got);
    if (N == 0) {
      // EOF at a frame boundary is a clean close; mid-frame it is a
      // truncated frame and reported as an error.
      return (Got == 0 && CleanEofOk) ? IoStatus::Eof : IoStatus::Error;
    }
    if (N < 0) {
      if (errno == EINTR || errno == EAGAIN)
        continue;
      return IoStatus::Error;
    }
    Got += static_cast<size_t>(N);
    CleanEofOk = false;
  }
  return IoStatus::Ok;
}

} // namespace

IoStatus server::readFrame(int Fd, std::vector<uint8_t> &Payload,
                           int TimeoutMs) {
  const bool HaveDeadline = TimeoutMs > 0;
  const auto Deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(HaveDeadline ? TimeoutMs : 0);
  uint8_t LenBytes[4];
  bool CleanEofOk = true;
  IoStatus S = readExact(Fd, LenBytes, 4, Deadline, HaveDeadline, CleanEofOk);
  if (S != IoStatus::Ok)
    return S;
  uint32_t Len = static_cast<uint32_t>(LenBytes[0]) |
                 (static_cast<uint32_t>(LenBytes[1]) << 8) |
                 (static_cast<uint32_t>(LenBytes[2]) << 16) |
                 (static_cast<uint32_t>(LenBytes[3]) << 24);
  if (Len > kMaxFrameBytes)
    return IoStatus::TooBig;
  Payload.resize(Len);
  if (Len == 0)
    return IoStatus::Ok;
  CleanEofOk = false;
  return readExact(Fd, Payload.data(), Len, Deadline, HaveDeadline,
                   CleanEofOk);
}

IoStatus server::writeFrame(int Fd, const std::vector<uint8_t> &Payload) {
  if (Payload.size() > kMaxFrameBytes)
    return IoStatus::TooBig;
  std::vector<uint8_t> Buf;
  Buf.reserve(4 + Payload.size());
  putU32(Buf, static_cast<uint32_t>(Payload.size()));
  Buf.insert(Buf.end(), Payload.begin(), Payload.end());
  size_t Sent = 0;
  while (Sent < Buf.size()) {
    // send() with MSG_NOSIGNAL: a peer that has already closed yields
    // EPIPE (an Error) instead of a SIGPIPE that would kill this process.
    // Plain write() remains for descriptors that are not sockets.
    ssize_t N = ::send(Fd, Buf.data() + Sent, Buf.size() - Sent,
                       MSG_NOSIGNAL);
    if (N < 0 && errno == ENOTSOCK)
      N = ::write(Fd, Buf.data() + Sent, Buf.size() - Sent);
    if (N < 0) {
      if (errno == EINTR || errno == EAGAIN)
        continue;
      return IoStatus::Error;
    }
    Sent += static_cast<size_t>(N);
  }
  return IoStatus::Ok;
}
