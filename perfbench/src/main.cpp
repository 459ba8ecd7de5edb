//===- perfbench/src/main.cpp - Benchmark runs ----------------------------===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
//
//   omegabench --workload paper_mix|dnf_blowup|omegad_mixed --seed N
//              --seconds S --trace 0|1 [--workdir DIR]
//   omegabench --selftest [--workdir DIR]
//
// Runs one workload and prints, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.  Every answer is
// checked against the independent reference (Reference.cpp) after the
// timed phase.  DIR holds the omegad socket (default: the current
// directory).  perfbench/README.md documents the workloads and metrics.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "counting/Backend.h"
#include "counting/Summation.h"
#include "presburger/Parser.h"
#include "server/Protocol.h"
#include "server/Server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <sched.h>
#include <sstream>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace omega;
using namespace omega::server;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// Queries per second of --seconds each workload issues: a fixed,
/// seed-determined amount of work sized so that the timed phase takes about
/// --seconds on a 4-core x86-64 host.  Every build measures the same
/// queries, so the query mix and the benchmark's own bookkeeping (part of
/// peak_rss_mb) do not depend on how fast the program is.
size_t queriesPerSecond(const std::string &W) {
  if (W == "paper_mix")
    return 400;
  return W == "dnf_blowup" ? 45 : 900;
}
/// At least this many queries per timed phase: the 95th percentile (nearest
/// rank) then has at least 10 samples beyond it.
constexpr size_t kMinSamples = 200;
/// Set-up is timed this many times per run, once before the timed phase
/// and the rest spread over the answer checks after it, so that a short
/// slow stretch of the host does not decide the figure; the median is
/// reported.
constexpr size_t kSetupReps = 41;
/// The deadline the traced run's deadline pass gives unbudgeted queries.
constexpr uint64_t kDeadlineMs = 1;
/// Hard kill deadline of the forked 9-point stencil probe.
constexpr int kProbeDeadlineMs = 1000;

[[noreturn]] void die(const std::string &Msg) {
  std::cerr << "omegabench: error: " << Msg << "\n";
  std::exit(2);
}

Formula parseOrDie(const Query &Q) {
  ParseResult P = parseFormula(Q.Text);
  if (!P)
    die("generated query does not parse: " + Q.Text + ": " + P.Error);
  return *P.Value;
}

VarSet varsOf(const Query &Q) { return VarSet(Q.Vars.begin(), Q.Vars.end()); }

CountOptions optionsFor(const Query &Q) {
  CountOptions O;
  O.Backend = Q.Backend;
  if (!Q.Budget.empty()) {
    Result<EffortBudget> B = EffortBudget::parse(Q.Budget);
    if (!B)
      die("bad budget " + Q.Budget);
    O.Budget = *B;
  }
  return O;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Nearest-rank percentile.
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = size_t(std::ceil(P / 100.0 * double(V.size())));
  return V[std::min(V.size(), std::max<size_t>(Rank, 1)) - 1];
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0;
}

void freshPipelineState() {
  configureConjunctCache(CountOptions{}.CacheCapacity);
  clearConjunctCache();
  resetWildcardState();
}

//===----------------------------------------------------------------------===//
// In-memory spans recorded around the public calls.
//===----------------------------------------------------------------------===//

struct Span {
  const char *Name;
  int Parent;
  Clock::time_point Start, End;
};

class Tracer {
public:
  int begin(const char *Name, int Parent) {
    Spans.push_back({Name, Parent, Clock::now(), {}});
    return int(Spans.size()) - 1;
  }
  void end(int Id) { Spans[size_t(Id)].End = Clock::now(); }

  /// Total duration and total self time (duration minus the time its
  /// children cover; children of one span never overlap) per span name, ms.
  std::map<std::string, std::pair<double, double>> totals() const {
    std::vector<double> ChildMs(Spans.size(), 0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        ChildMs[size_t(S.Parent)] += msBetween(S.Start, S.End);
    std::map<std::string, std::pair<double, double>> Out;
    for (size_t I = 0; I < Spans.size(); ++I) {
      double Dur = msBetween(Spans[I].Start, Spans[I].End);
      auto &[Total, Self] = Out[Spans[I].Name];
      Total += Dur;
      Self += Dur - ChildMs[I];
    }
    return Out;
  }

  std::vector<Span> Spans;
};

class ScopedSpan {
public:
  ScopedSpan(Tracer *T, const char *Name, int Parent)
      : T(T), Id(T ? T->begin(Name, Parent) : -1) {}
  ~ScopedSpan() {
    if (T)
      T->end(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;
  int id() const { return Id; }

private:
  Tracer *T;
  int Id;
};

//===----------------------------------------------------------------------===//
// Answer checking.
//===----------------------------------------------------------------------===//

/// One answer as the user saw it: in-process results keep the values,
/// wire results keep the printed text.
struct Answer {
  QueryOutcome Outcome = QueryOutcome::InternalError;
  bool Transport = true; ///< False when the RPC itself failed.
  PiecewiseValue Value, Lower, Upper;
  std::string ValueText, LowerText, UpperText;
  bool Printed = false; ///< Values live in the *Text fields only.
  double Ms = 0;
};

std::string answerText(const Answer &A) {
  if (A.Printed)
    return A.ValueText + " | " + A.LowerText + " | " + A.UpperText;
  return A.Value.toString() + " | " + A.Lower.toString() + " | " +
         A.Upper.toString();
}

Answer inProcessAnswer(const CountResult &R, double Ms) {
  Answer A;
  A.Outcome = R.outcome();
  A.Value = R.Value;
  A.Lower = R.Lower;
  A.Upper = R.Upper;
  A.Ms = Ms;
  return A;
}

/// Guarded pieces of an in-process answer.
size_t answerPieces(const Answer &A) {
  return A.Value.pieces().size() + A.Lower.pieces().size() +
         A.Upper.pieces().size();
}

/// Checks one answer against the reference.  Printed (wire) answers are
/// evaluated from their text, so they are checked as independently of the
/// in-process pipeline as in-process answers are.  Certified bounds are a
/// right answer to a budgeted query, or when \p MayDegrade (a server shed
/// the request on purpose).
Verdict checkAnswer(const Query &Q, const Answer &A, bool MayDegrade = false) {
  if (!A.Transport)
    return {false, "transport failure"};
  if (!queryOutcomeIsAnswer(A.Outcome))
    return {false, std::string("outcome ") + queryOutcomeName(A.Outcome)};
  if (A.Outcome == QueryOutcome::Unbounded)
    return {false, "finite set answered unbounded"};
  bool Bounded = A.Outcome == QueryOutcome::Bounded;
  if (Bounded && Q.Budget.empty() && !MayDegrade)
    return {false, "unbudgeted query degraded to bounds (shed)"};
  Formula F = parseOrDie(Q);
  AnswerView V, Lo, Hi;
  if (!A.Printed) {
    V = viewOf(Q, A.Value);
    Lo = viewOf(Q, A.Lower);
    Hi = viewOf(Q, A.Upper);
  } else if (Bounded ? !viewOfPrinted(Q, A.LowerText, Lo) ||
                           !viewOfPrinted(Q, A.UpperText, Hi)
                     : !viewOfPrinted(Q, A.ValueText, V)) {
    return {false, "unparsable printed answer " + answerText(A)};
  }
  return Bounded ? checkBounds(Q, F, Lo, Hi) : checkExact(Q, F, V);
}

//===----------------------------------------------------------------------===//
// Wire client.
//===----------------------------------------------------------------------===//

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

CountRequestMsg requestFor(const Query &Q) {
  CountRequestMsg M;
  M.Formula = Q.Text;
  M.Vars = Q.Vars;
  M.Backend = uint8_t(Q.Backend);
  M.Budget = Q.Budget;
  return M;
}

/// One request/response round trip, timed as the client sees it; spans
/// for encode / rpc / decode when \p T is set.
Answer callServer(int Fd, const Query &Q, Tracer *T = nullptr) {
  Answer A;
  A.Printed = true;
  auto T0 = Clock::now();
  ScopedSpan Root(T, "request", -1);
  std::vector<uint8_t> Out, In;
  {
    ScopedSpan S(T, "encode", Root.id());
    Out = encodeCountRequest(requestFor(Q));
  }
  {
    ScopedSpan S(T, "rpc", Root.id());
    A.Transport = writeFrame(Fd, Out) == IoStatus::Ok &&
                  readFrame(Fd, In, 120000) == IoStatus::Ok;
  }
  CountResponseMsg R;
  {
    ScopedSpan S(T, "decode", Root.id());
    A.Transport = A.Transport && decodeCountResponse(In, R);
  }
  A.Ms = msBetween(T0, Clock::now());
  A.Outcome = R.Outcome;
  A.ValueText = std::move(R.Value);
  A.LowerText = std::move(R.Lower);
  A.UpperText = std::move(R.Upper);
  return A;
}

/// A started in-process omegad plus one connection per client.
struct Service {
  std::unique_ptr<Server> S;
  std::vector<int> Fds;

  Service() = default;
  Service(const Service &) = delete;
  Service &operator=(const Service &) = delete;
  ~Service() { close(); }
  void close() {
    for (int Fd : Fds)
      ::close(Fd);
    Fds.clear();
    if (S)
      S->stop();
    S.reset();
  }
};

/// Starts a server with the default admission limits, or with \p Soft /
/// \p Hard in-flight limits when they are nonzero.
void openService(Service &Svc, const std::string &Socket, unsigned Clients,
                 uint32_t Soft = 0, uint32_t Hard = 0) {
  ServerOptions Opts;
  Opts.SocketPath = Socket;
  if (Soft) {
    Opts.SoftInFlight = Soft;
    Opts.HardInFlight = Hard;
  }
  Svc.S = std::make_unique<Server>(Opts);
  std::string Err;
  if (!Svc.S->start(Err))
    die("server start failed: " + Err);
  for (unsigned C = 0; C < Clients; ++C) {
    int Fd = connectTo(Socket);
    if (Fd < 0)
      die("cannot connect to " + Socket);
    Svc.Fds.push_back(Fd);
  }
}

//===----------------------------------------------------------------------===//
// Workload runs.
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool SelfTest = false;
  std::string WorkDir = ".";
};

/// The queries one run issued and what came back, per client stream.
struct RunLog {
  std::vector<std::vector<Query>> Streams;
  std::vector<std::vector<Answer>> Answers;
  double WallMs = 0;    ///< Wall time of the timed phase.
  double SetupS = 0;    ///< The set-up before the timed phase.
  double PeakRssMb = 0; ///< After the timed phase.

  size_t completed() const {
    size_t N = 0;
    for (const auto &A : Answers)
      N += A.size();
    return N;
  }
};

bool isInProcess(const std::string &W) { return W != "omegad_mixed"; }

/// The queries of one timed phase of about \p Seconds: a pure function of
/// the workload, the seed and \p Seconds, split over \p Streams client
/// streams.
std::vector<std::vector<Query>> generateStreams(const Args &A, double Seconds,
                                                unsigned Streams) {
  size_t Total = std::max(
      kMinSamples,
      size_t(std::llround(double(queriesPerSecond(A.Workload)) * Seconds)));
  std::vector<std::vector<Query>> Out(Streams);
  for (unsigned C = 0; C < Streams; ++C) {
    size_t Count = (Total + Streams - 1) / Streams;
    if (!isInProcess(A.Workload)) {
      extendOmegadStream(A.Seed, C, Count, Out[C]);
      continue;
    }
    for (size_t I = 0; I < Count; ++I)
      Out[C].push_back(A.Workload == "paper_mix"
                           ? paperMixQuery(A.Seed, I)
                           : dnfBlowupQuery(A.Seed, I));
  }
  return Out;
}

Answer runInProcess(const Query &Q) {
  auto T0 = Clock::now();
  ParseResult P = parseFormula(Q.Text);
  if (!P)
    return {};
  CountResult R = countSolutions(*P.Value, varsOf(Q), optionsFor(Q));
  return inProcessAnswer(R, msBetween(T0, Clock::now()));
}

/// Set-up as a user pays it: cache configuration plus one warm-up query.
double inProcessSetupOnceS() {
  resetWildcardState();
  auto T0 = Clock::now();
  configureConjunctCache(CountOptions{}.CacheCapacity);
  clearConjunctCache();
  Answer A = runInProcess(warmupQuery());
  if (A.Outcome != QueryOutcome::Exact)
    die("warm-up query failed");
  return msBetween(T0, Clock::now()) / 1000.0;
}

/// Moves the calling thread round-robin over the CPUs the process may run
/// on, and back to all of them when destroyed.  On a shared host each CPU
/// slows down on its own, for seconds at a time; a serial run that visits
/// every CPU in turn sees their average speed rather than that of the one
/// the scheduler happened to leave it on.
class CpuRotation {
public:
  CpuRotation() {
    CPU_ZERO(&Saved);
    if (sched_getaffinity(0, sizeof(Saved), &Saved) != 0)
      return;
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Saved))
        Cpus.push_back(C);
  }
  ~CpuRotation() {
    if (Cpus.size() > 1)
      sched_setaffinity(0, sizeof(Saved), &Saved);
  }
  CpuRotation(const CpuRotation &) = delete;
  CpuRotation &operator=(const CpuRotation &) = delete;

  void next() {
    if (Cpus.size() < 2)
      return;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpus[Next++ % Cpus.size()], &One);
    sched_setaffinity(0, sizeof(One), &One);
  }

private:
  cpu_set_t Saved;
  std::vector<int> Cpus;
  size_t Next = 0;
};

/// Queries a serial run issues on one CPU before it moves to the next.
constexpr size_t kQueriesPerCpu = 16;

/// One thread issuing the stream's queries back to back, moving to the
/// next CPU every kQueriesPerCpu queries (between queries, untimed).  The
/// phase's wall time is the sum of the latencies.
void runSerial(RunLog &L) {
  L.Answers.assign(1, {});
  L.WallMs = 0;
  CpuRotation Cpus;
  for (const Query &Q : L.Streams[0]) {
    if (L.Answers[0].size() % kQueriesPerCpu == 0)
      Cpus.next();
    L.Answers[0].push_back(runInProcess(Q));
    L.WallMs += L.Answers[0].back().Ms;
  }
}

unsigned clientCount() {
  unsigned N = std::thread::hardware_concurrency();
  return std::max(1u, std::min(4u, N));
}

std::string socketPath(const Args &A) {
  return A.WorkDir + "/omegad-" + std::to_string(::getpid()) + ".sock";
}

/// Set-up for omegad_mixed: Server::start, one connection per client and
/// one warm-up query over the wire.  Leaves the service open.
double serviceSetupOnceS(const Args &A, Service &Svc, unsigned Clients) {
  Svc.close();
  freshPipelineState();
  auto T0 = Clock::now();
  openService(Svc, socketPath(A), Clients);
  Answer Warm = callServer(Svc.Fds[0], warmupQuery());
  if (!Warm.Transport || Warm.Outcome != QueryOutcome::Exact)
    die("warm-up request failed");
  return msBetween(T0, Clock::now()) / 1000.0;
}

double setupOnceS(const Args &A, Service &Svc) {
  return isInProcess(A.Workload) ? inProcessSetupOnceS()
                                 : serviceSetupOnceS(A, Svc, clientCount());
}

/// Closed loop: client C sends the requests of L.Streams[C] over
/// connection C, each when the previous reply arrives, recording spans
/// into (*Tracers)[C] when \p Tracers is set.
void runClients(Service &Svc, RunLog &L,
                std::vector<Tracer> *Tracers = nullptr) {
  size_t Clients = L.Streams.size();
  L.Answers.assign(Clients, {});
  auto T0 = Clock::now();
  auto Client = [&](size_t C) {
    Tracer *T = Tracers ? &(*Tracers)[C] : nullptr;
    for (const Query &Q : L.Streams[C]) {
      L.Answers[C].push_back(callServer(Svc.Fds[C], Q, T));
      if (!L.Answers[C].back().Transport)
        break;
    }
  };
  std::vector<std::thread> Threads;
  for (size_t C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      // An exception must not escape the thread: it ends this client's
      // loop with a failed request instead.
      try {
        Client(C);
      } catch (const std::exception &E) {
        std::cerr << "omegabench: client " << C << ": " << E.what() << "\n";
        Answer Failed;
        Failed.Transport = false;
        if (L.Answers[C].size() < L.Streams[C].size())
          L.Answers[C].push_back(std::move(Failed));
      }
    });
  for (std::thread &T : Threads)
    T.join();
  L.WallMs = msBetween(T0, Clock::now());
}

/// The 9-point 0-1 stencil in a forked child under a hard kill deadline.
/// Returns true when it answered correctly in time.
bool runStencilProbe() {
  Query Q = nineStencilProbe();
  std::cout.flush();
  pid_t Pid = ::fork();
  if (Pid < 0)
    die("fork failed");
  if (Pid == 0) {
    rlimit Mem{size_t(1) << 30, size_t(1) << 30};
    setrlimit(RLIMIT_AS, &Mem);
    Formula F = parseOrDie(Q);
    CountResult R = countSolutions(F, varsOf(Q), CountOptions{});
    _exit(R.exact() && checkExact(Q, F, viewOf(Q, R.Value)).Ok ? 0 : 3);
  }
  auto T0 = Clock::now();
  int Status = 0;
  while (true) {
    pid_t W = ::waitpid(Pid, &Status, WNOHANG);
    if (W == Pid)
      return WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
    if (msBetween(T0, Clock::now()) >= kProbeDeadlineMs) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, &Status, 0);
      return false;
    }
    ::usleep(2000);
  }
}

/// Generation, set-up, then the timed phase over the queries of about
/// \p Seconds.  Leaves \p Svc open for omegad_mixed.
void runWorkload(const Args &A, double Seconds, RunLog &L, Service &Svc) {
  bool InProcess = isInProcess(A.Workload);
  L.Streams = generateStreams(A, Seconds, InProcess ? 1 : clientCount());
  L.SetupS = setupOnceS(A, Svc);
  if (InProcess)
    runSerial(L);
  else
    runClients(Svc, L);
  L.PeakRssMb = peakRssMb();
}

struct Tally {
  size_t Attempted = 0, Failed = 0;
  /// Failures that are not wrong answers (the killed probe).
  size_t Hangs = 0;
  bool correct() const { return Failed == Hangs; }
  void add(bool Ok, const Query &Q, const std::string &Why) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      std::cerr << "omegabench: FAILED " << Q.Shape << ": " << Why << "\n  "
                << Q.Text << "\n";
    }
  }
};

/// Checks every answer of the run, calling \p Between(K) before the K-th.
void checkRun(const RunLog &L, Tally &T,
              const std::function<void(size_t)> &Between = nullptr) {
  size_t K = 0;
  for (size_t C = 0; C < L.Answers.size(); ++C)
    for (size_t I = 0; I < L.Answers[C].size(); ++I) {
      if (Between)
        Between(K++);
      Verdict V = checkAnswer(L.Streams[C][I], L.Answers[C][I]);
      T.add(V.Ok, L.Streams[C][I], V.Why);
    }
}

/// omegad_mixed requests per client whose pieces answer_pieces counts.
constexpr size_t kPiecesPerClient = 400;

/// The answer_pieces total: every answer of an in-process run.  omegad
/// sessions share one fresh-name counter, so the printed form of a wire
/// answer can depend on how concurrent requests interleave; on
/// omegad_mixed the first kPiecesPerClient requests of each client are
/// therefore counted again serially in process, from a fresh pipeline
/// state, leaving out repeats and deadline-budgeted queries (whose answers
/// depend on timing).
size_t answerPiecesOf(const Args &A, const RunLog &L) {
  size_t Pieces = 0;
  if (isInProcess(A.Workload)) {
    for (const Answer &An : L.Answers[0])
      Pieces += answerPieces(An);
    return Pieces;
  }
  freshPipelineState();
  for (const auto &Stream : L.Streams)
    for (size_t I = 0; I < std::min(kPiecesPerClient, Stream.size()); ++I)
      if (Stream[I].Kind != Role::Repeat && Stream[I].BudgetMs == 0)
        Pieces += answerPieces(runInProcess(Stream[I]));
  return Pieces;
}

std::vector<double> latencies(const RunLog &L) {
  std::vector<double> Out;
  for (const auto &As : L.Answers)
    for (const Answer &An : As)
      Out.push_back(An.Ms);
  return Out;
}

using Metrics = std::vector<std::tuple<std::string, double, std::string>>;

void printResult(bool Correct, const Tally &T, const Metrics &M) {
  std::ostringstream OS;
  OS.precision(10);
  OS << "{\"correct\": " << (Correct ? "true" : "false")
     << ", \"attempted\": " << T.Attempted << ", \"failed\": " << T.Failed
     << ", \"metrics\": {";
  for (size_t I = 0; I < M.size(); ++I) {
    const auto &[Name, Value, Unit] = M[I];
    OS << (I ? ", " : "") << "\"" << Name << "\": {\"value\": " << Value
       << ", \"unit\": \"" << Unit << "\"}";
  }
  OS << "}}";
  std::cout << OS.str() << std::endl;
}

int runEndToEnd(const Args &A) {
  Tally T;
  if (A.Workload == "paper_mix") {
    // Before set-up, so the child forks from a process with no threads.
    bool ProbeOk = runStencilProbe();
    T.add(ProbeOk, nineStencilProbe(), "no correct answer by the deadline");
    T.Hangs += !ProbeOk;
  }
  RunLog L;
  Service Svc;
  runWorkload(A, A.Seconds, L, Svc);
  // The other set-ups, each on the next CPU, spread over the checks.
  std::vector<double> Setups = {L.SetupS};
  {
    CpuRotation Cpus;
    auto setupAgain = [&] {
      Cpus.next();
      Setups.push_back(setupOnceS(A, Svc));
    };
    size_t Stride = std::max<size_t>(1, L.completed() / (kSetupReps - 1));
    checkRun(L, T, [&](size_t K) {
      if (K % Stride == 0 && Setups.size() < kSetupReps)
        setupAgain();
    });
    while (Setups.size() < kSetupReps)
      setupAgain();
  }
  Svc.close();
  size_t Pieces = answerPiecesOf(A, L);
  std::vector<double> Lat = latencies(L);
  Metrics M = {
      {"latency_p50_ms", percentile(Lat, 50), "ms"},
      {"latency_p95_ms", percentile(Lat, 95), "ms"},
      {"queries_per_s", 1000.0 * double(L.completed()) / L.WallMs, "1/s"},
      {"setup_s", median(Setups), "s"},
      {"peak_rss_mb", L.PeakRssMb, "MB"},
      {"answered_frac", 1.0 - double(T.Failed) / double(T.Attempted),
       "ratio"},
      {"answer_pieces", double(Pieces), "count"},
  };
  std::cerr << "omegabench: " << A.Workload << " seed " << A.Seed << ": "
            << L.completed() << " queries, " << T.Failed << " failed\n";
  printResult(T.correct(), T, M);
  return 0;
}

//===----------------------------------------------------------------------===//
// The traced run: per-layer metrics.
//===----------------------------------------------------------------------===//

/// The run's queries in the order they were sent (clients interleaved
/// round-robin).
std::vector<const Query *> replayOrder(const RunLog &L) {
  std::vector<const Query *> Out;
  for (size_t I = 0;; ++I) {
    bool Any = false;
    for (size_t C = 0; C < L.Answers.size(); ++C)
      if (I < L.Answers[C].size()) {
        Out.push_back(&L.Streams[C][I]);
        Any = true;
      }
    if (!Any)
      return Out;
  }
}

/// The decomposed pipeline: parse, disjoint simplify, one summation per
/// clause, with spans when \p T is set.  Returns the summed answer.
PiecewiseValue decomposed(const Query &Q, Tracer *T, size_t &Clauses) {
  ScopedSpan Root(T, "query", -1);
  std::optional<Formula> F;
  {
    ScopedSpan S(T, "parse", Root.id());
    ParseResult P = parseFormula(Q.Text);
    if (!P)
      die("parse failed in the traced pass");
    F = std::move(P.Value);
  }
  std::vector<Conjunct> DNF;
  {
    ScopedSpan S(T, "simplify", Root.id());
    SimplifyOptions SO;
    SO.Disjoint = true;
    DNF = simplify(*F, SO);
  }
  Clauses += DNF.size();
  PiecewiseValue Sum;
  VarSet Vars = varsOf(Q);
  for (const Conjunct &C : DNF) {
    ScopedSpan S(T, "sum_conjunct", Root.id());
    Sum += sumOverConjunct(C, Vars, QuasiPolynomial(Rational(1)));
  }
  return Sum;
}

/// Does the decomposed exact value agree with countSolutions' answer at
/// the check points?
Verdict agrees(const Query &Q, const PiecewiseValue &Dec,
               const CountResult &R) {
  if (Dec.isUnbounded())
    return {R.Status == CountStatus::Unbounded, "decomposed answer unbounded"};
  std::vector<Point> Pts = checkPoints(Q, viewOf(Q, Dec));
  if (Pts.empty())
    for (const auto &H : Q.Hand)
      Pts.push_back(H.first);
  for (const Point &P : Pts) {
    Assignment S = bindSymbols(Q, P);
    Rational D = Dec.evaluate(S);
    if (R.Status == CountStatus::Exact) {
      if (!(R.Value.evaluate(S) == D))
        return {false, "decomposed and countSolutions answers differ"};
    } else if (R.Status == CountStatus::Bounded) {
      if (!(R.Lower.evaluate(S) <= D) ||
          (!R.Upper.isUnbounded() && !(D <= R.Upper.evaluate(S))))
        return {false, "decomposed answer outside countSolutions' bounds"};
    } else {
      return {false, "countSolutions did not answer"};
    }
  }
  return {};
}

/// Times of the decomposed pipeline over \p Order from a fresh pipeline
/// state, without spans and with them, each the best of this many passes
/// (alternated, so a slow stretch of the host hits both alike).
constexpr int kOverheadReps = 3;

int runTraced(const Args &A) {
  Tally T;
  // U: the untraced workload over the queries of a quarter of --seconds,
  // divided by the client count because most passes below replay them
  // serially; the traced passes below replay exactly its queries.
  RunLog U;
  Service Svc;
  unsigned Threads = isInProcess(A.Workload) ? 1 : clientCount();
  runWorkload(A, A.Seconds / (4 * Threads), U, Svc);
  Svc.close();
  checkRun(U, T);
  std::vector<const Query *> Order = replayOrder(U);
  double N = double(Order.size());

  // W: the same requests over the wire with the run's client count and
  // spans around encode / rpc / decode.  For the in-process workloads this
  // shows what omegad would add to their queries.  Then 64 pings.
  std::vector<Tracer> WireT(U.Streams.size());
  double PingUs = 0;
  {
    freshPipelineState();
    openService(Svc, socketPath(A), unsigned(U.Streams.size()));
    RunLog W;
    W.Streams = U.Streams;
    runClients(Svc, W, &WireT);
    for (const auto &As : W.Answers)
      for (const Answer &An : As)
        if (!An.Transport)
          die("transport failure in the wire replay");
    std::vector<double> Rtt;
    for (int K = 0; K < 64; ++K) {
      auto T0 = Clock::now();
      std::vector<uint8_t> In;
      if (writeFrame(Svc.Fds[0], encodeEmpty(MsgType::Ping)) != IoStatus::Ok ||
          readFrame(Svc.Fds[0], In, 10000) != IoStatus::Ok)
        die("ping failed");
      Rtt.push_back(msBetween(T0, Clock::now()) * 1000);
    }
    PingUs = median(Rtt);
    Svc.close();
  }

  // O: admission control under the same requests, spread over
  // min(4, nproc) connections against limits below that count, so some
  // requests are shed to bounds (checked) and some rejected Overloaded.
  std::string StatsJson;
  {
    unsigned Conns = clientCount();
    RunLog O;
    O.Streams.assign(Conns, {});
    for (size_t I = 0; I < Order.size(); ++I)
      O.Streams[I % Conns].push_back(*Order[I]);
    freshPipelineState();
    uint32_t Soft = std::max(1u, Conns / 2), Hard = std::max(Soft, Conns - 1);
    openService(Svc, socketPath(A), Conns, Soft, Hard);
    runClients(Svc, O);
    for (size_t C = 0; C < O.Answers.size(); ++C)
      for (size_t I = 0; I < O.Answers[C].size(); ++I)
        if (O.Answers[C][I].Outcome != QueryOutcome::Overloaded) {
          Verdict V = checkAnswer(O.Streams[C][I], O.Answers[C][I],
                                  /*MayDegrade=*/true);
          T.add(V.Ok, O.Streams[C][I], V.Why);
        }
    std::vector<uint8_t> In;
    if (writeFrame(Svc.Fds[0], encodeEmpty(MsgType::StatsRequest)) !=
            IoStatus::Ok ||
        readFrame(Svc.Fds[0], In, 10000) != IoStatus::Ok ||
        !decodeStatsResponse(In, StatsJson))
      die("stats request failed");
    Svc.close();
  }
  std::map<std::string, std::pair<double, double>> WireTotals;
  for (const Tracer &Tr : WireT)
    for (const auto &[Name, TS] : Tr.totals()) {
      WireTotals[Name].first += TS.first;
      WireTotals[Name].second += TS.second;
    }
  auto serverCount = [&](const std::string &Key) {
    size_t P = StatsJson.find("\"" + Key + "\":");
    return P == std::string::npos
               ? 0.0
               : std::atof(StatsJson.c_str() + P + Key.size() + 3);
  };

  // A: the decomposed pipeline, untraced and with a root span per query
  // and child spans per stage; the layer times come from the fastest traced
  // pass, the tracing overhead from the fastest pass of each kind.
  double UntracedMs = 0, TracedMs = 0;
  Tracer Dec;
  size_t Clauses = 0;
  std::vector<PiecewiseValue> DecValues;
  for (int Rep = 0; Rep < kOverheadReps; ++Rep)
    for (bool Traced : {false, true}) {
      freshPipelineState();
      Tracer Pass;
      size_t PassClauses = 0;
      std::vector<PiecewiseValue> Values;
      auto T0 = Clock::now();
      for (const Query *Q : Order)
        Values.push_back(decomposed(*Q, Traced ? &Pass : nullptr, PassClauses));
      double Ms = msBetween(T0, Clock::now());
      if (!Traced) {
        UntracedMs = Rep ? std::min(UntracedMs, Ms) : Ms;
      } else if (!Rep || Ms < TracedMs) {
        TracedMs = Ms;
        Dec = std::move(Pass);
        Clauses = PassClauses;
        DecValues = std::move(Values);
      }
    }
  auto DecTotals = Dec.totals();

  // B: dispatchCount, the backend seam, one span per query.
  freshPipelineState();
  Tracer Disp;
  for (const Query *Q : Order) {
    Formula F = parseOrDie(*Q);
    ScopedSpan S(&Disp, "dispatch", -1);
    (void)dispatchCount(F, varsOf(*Q), QuasiPolynomial(Rational(1)),
                        optionsFor(*Q));
  }
  auto DispTotals = Disp.totals();

  // B': every concrete unbudgeted query dispatched with Backend=Auto — on
  // omegad_mixed part of the traffic, elsewhere what the automaton would
  // do with the workload's concrete queries.  Answers are checked.
  freshPipelineState();
  double AutomatonMs = 0;
  size_t AutomatonQueries = 0;
  for (const Query *Q : Order) {
    if (!Q->Syms.empty() || !Q->Budget.empty())
      continue;
    Formula F = parseOrDie(*Q);
    CountOptions O = optionsFor(*Q);
    O.Backend = BackendKind::Auto;
    auto T0 = Clock::now();
    CountResult R =
        dispatchCount(F, varsOf(*Q), QuasiPolynomial(Rational(1)), O);
    double Ms = msBetween(T0, Clock::now());
    Verdict V = checkAnswer(*Q, inProcessAnswer(R, Ms));
    T.add(V.Ok, *Q, V.Why);
    if (R.Backend == "automaton") {
      AutomatonMs += Ms;
      ++AutomatonQueries;
    }
  }

  // D: every query under a deadline (its own, else kDeadlineMs): how long
  // after the deadline a tripped query returns its certified bounds.
  freshPipelineState();
  double OverrunMs = 0;
  size_t Overruns = 0;
  for (const Query *Q : Order) {
    Query Timed = *Q;
    Timed.BudgetMs = Q->BudgetMs ? Q->BudgetMs : kDeadlineMs;
    CountOptions O = optionsFor(*Q);
    O.Budget.DeadlineMs = Timed.BudgetMs;
    Timed.Budget = O.Budget.toString();
    Formula F = parseOrDie(Timed);
    auto T0 = Clock::now();
    CountResult R = countSolutions(F, varsOf(Timed), O);
    double Ms = msBetween(T0, Clock::now());
    Verdict V = checkAnswer(Timed, inProcessAnswer(R, Ms));
    T.add(V.Ok, Timed, V.Why);
    if (!R.TrippedLimit.empty()) {
      OverrunMs += Ms - double(Timed.BudgetMs);
      ++Overruns;
    }
  }

  // C: countSolutions with the per-query counters, which also gives the
  // answer the decomposed pipeline must agree with.
  freshPipelineState();
  ConjunctCacheStats Before = conjunctCacheStats();
  PipelineStatsSnapshot Sum{};
  for (size_t I = 0; I < Order.size(); ++I) {
    const Query &Q = *Order[I];
    CountOptions O = optionsFor(Q);
    O.CollectStats = true;
    O.CountArithOps = true;
    CountResult R = countSolutions(parseOrDie(Q), varsOf(Q), O);
    const PipelineStatsSnapshot &S = R.Stats;
    Sum.FeasibilityTests += S.FeasibilityTests;
    Sum.ProjectionCalls += S.ProjectionCalls;
    Sum.ClausesSimplified += S.ClausesSimplified;
    Sum.SplintersGenerated += S.SplintersGenerated;
    Sum.CacheHits += S.CacheHits;
    Sum.CacheMisses += S.CacheMisses;
    Sum.CoalescePairs += S.CoalescePairs;
    Sum.CoalescePrefiltered += S.CoalescePrefiltered;
    Sum.CoalesceMerges += S.CoalesceMerges;
    Sum.BudgetTrips += S.BudgetTrips;
    Sum.DegradedQueries += S.DegradedQueries;
    Sum.AutomatonProductStates += S.AutomatonProductStates;
    Sum.AutomatonTransitions += S.AutomatonTransitions;
    Sum.BackendFallbacks += S.BackendFallbacks;
    Sum.ExprTermsInline += S.ExprTermsInline;
    Sum.ExprTermsSpilled += S.ExprTermsSpilled;
    if (Q.BudgetMs == 0) { // Deadline answers depend on timing.
      Verdict V = agrees(Q, DecValues[I], R);
      T.add(V.Ok, Q, V.Why);
    }
  }
  ConjunctCacheStats After = conjunctCacheStats();

  auto perQ = [&](double V) { return N > 0 ? V / N : 0; };
  double Hits = double(Sum.CacheHits), Misses = double(Sum.CacheMisses);
  Metrics M = {
      {"presburger.parse_ms", perQ(DecTotals["parse"].first), "ms"},
      {"omega.simplify_ms", perQ(DecTotals["simplify"].first), "ms"},
      {"counting.summation_ms", perQ(DecTotals["sum_conjunct"].first), "ms"},
      {"trace.query_self_ms", perQ(DecTotals["query"].second), "ms"},
      {"counting.dispatch_ms", perQ(DispTotals["dispatch"].first), "ms"},
      {"backend.automaton_ms",
       AutomatonQueries ? AutomatonMs / double(AutomatonQueries) : 0, "ms"},
      {"budget.deadline_overrun_ms",
       Overruns ? OverrunMs / double(Overruns) : 0, "ms"},
      {"server.ping_rtt_us", PingUs, "us"},
      {"server.protocol_us",
       perQ(WireTotals["encode"].first + WireTotals["decode"].first) * 1000,
       "us"},
      {"server.rpc_ms", perQ(WireTotals["rpc"].first), "ms"},
      {"trace.overhead_pct", 100.0 * (TracedMs - UntracedMs) / UntracedMs,
       "%"},
      {"trace.queries", N, "count"},
      {"omega.clauses_out", perQ(double(Sum.ClausesSimplified)),
       "count/query"},
      {"counting.clauses_summed", perQ(double(Clauses)), "count/query"},
      {"omega.feasibility_tests", perQ(double(Sum.FeasibilityTests)),
       "count/query"},
      {"omega.projection_calls", perQ(double(Sum.ProjectionCalls)),
       "count/query"},
      {"omega.splinters_generated", perQ(double(Sum.SplintersGenerated)),
       "count/query"},
      {"omega.coalesce_pairs", perQ(double(Sum.CoalescePairs)), "count/query"},
      {"omega.coalesce_prefiltered", perQ(double(Sum.CoalescePrefiltered)),
       "count/query"},
      {"omega.coalesce_merges", perQ(double(Sum.CoalesceMerges)),
       "count/query"},
      {"presburger.expr_terms_inline", perQ(double(Sum.ExprTermsInline)),
       "count/query"},
      {"presburger.expr_terms_spilled", perQ(double(Sum.ExprTermsSpilled)),
       "count/query"},
      {"cache.hits", perQ(Hits), "count/query"},
      {"cache.misses", perQ(Misses), "count/query"},
      {"cache.hit_ratio", Hits + Misses > 0 ? Hits / (Hits + Misses) : 0,
       "ratio"},
      {"cache.evictions", perQ(double(After.Evictions - Before.Evictions)),
       "count/query"},
      {"cache.entries", double(After.Entries), "count"},
      {"backend.automaton_queries", double(AutomatonQueries), "count"},
      {"backend.fallbacks", perQ(double(Sum.BackendFallbacks)), "count/query"},
      {"backend.automaton_product_states",
       perQ(double(Sum.AutomatonProductStates)), "count/query"},
      {"backend.automaton_transitions", perQ(double(Sum.AutomatonTransitions)),
       "count/query"},
      {"budget.trips", perQ(double(Sum.BudgetTrips)), "count/query"},
      {"budget.degraded_queries", perQ(double(Sum.DegradedQueries)),
       "count/query"},
      {"server.admitted", serverCount("admitted"), "count"},
      {"server.shed", serverCount("shed"), "count"},
      {"server.rejected", serverCount("rejected"), "count"},
  };
  printResult(T.correct(), T, M);
  return 0;
}

//===----------------------------------------------------------------------===//
// Self-test: determinism and decomposed/countSolutions agreement.
//===----------------------------------------------------------------------===//

int runSelfTest() {
  size_t Bad = 0;
  auto Expect = [&](bool Ok, const std::string &What) {
    if (!Ok) {
      ++Bad;
      std::cerr << "omegabench selftest: FAILED: " << What << "\n";
    }
  };
  const uint64_t Seed = 7;
  auto lists = [&](const std::string &W) {
    std::vector<Query> Qs;
    if (W == "omegad_mixed") {
      for (unsigned C = 0; C < 2; ++C) {
        std::vector<Query> S;
        extendOmegadStream(Seed, C, 30, S);
        Qs.insert(Qs.end(), S.begin(), S.end());
      }
    } else {
      size_t Count = W == "paper_mix" ? 2 * paperMixShapeCount() : 24;
      for (size_t I = 0; I < Count; ++I)
        Qs.push_back(W == "paper_mix" ? paperMixQuery(Seed, I)
                                      : dnfBlowupQuery(Seed, I));
    }
    return Qs;
  };
  for (const std::string W : {"paper_mix", "dnf_blowup", "omegad_mixed"}) {
    std::vector<Query> First = lists(W), Second = lists(W);
    Expect(First.size() == Second.size(), W + ": query list length");
    std::vector<std::string> Texts[2];
    size_t Pieces[2] = {0, 0};
    std::vector<CountResult> Results;
    for (int Pass = 0; Pass < 2; ++Pass) {
      freshPipelineState();
      const std::vector<Query> &Qs = Pass ? Second : First;
      for (const Query &Q : Qs) {
        Expect(Q.Text == First[Texts[Pass].size()].Text,
               W + ": same seed, different query " + Q.Text);
        CountResult R = countSolutions(parseOrDie(Q), varsOf(Q), optionsFor(Q));
        std::string Text = R.Value.toString() + "|" + R.Lower.toString() + "|" +
                           R.Upper.toString();
        Texts[Pass].push_back(Q.BudgetMs ? "" : Text);
        if (!Q.BudgetMs)
          Pieces[Pass] += answerPieces(inProcessAnswer(R, 0));
        if (Pass == 0)
          Results.push_back(std::move(R));
      }
    }
    // After both passes, so neither pass's history includes this work.
    for (size_t I = 0; I < First.size(); ++I) {
      const Query &Q = First[I];
      const CountResult &R = Results[I];
      // The printed-answer evaluator the wire checks rely on must agree
      // with PiecewiseValue::evaluate.
      for (const PiecewiseValue *V : {&R.Value, &R.Lower, &R.Upper}) {
        AnswerView Direct = viewOf(Q, *V), Printed;
        bool Parsed = viewOfPrinted(Q, V->toString(), Printed);
        Expect(Parsed, W + ": unparsable printed answer " + V->toString());
        if (!Parsed || V->isUnbounded())
          continue;
        std::vector<Point> Pts = checkPoints(Q, Direct);
        for (const auto &H : Q.Hand)
          Pts.push_back(H.first);
        for (const Point &P : Pts) {
          Rational X, Y;
          Expect(Direct.At(P, X) && Printed.At(P, Y) && X == Y,
                 W + ": printed answer evaluates differently: " +
                     V->toString());
        }
      }
      if (!Q.BudgetMs) {
        Tracer T;
        size_t Clauses = 0;
        Verdict V = agrees(Q, decomposed(Q, &T, Clauses), R);
        Expect(V.Ok, W + ": " + V.Why + ": " + Q.Text);
      }
    }
    Expect(Texts[0] == Texts[1], W + ": same seed, different answers");
    Expect(Pieces[0] == Pieces[1], W + ": same seed, different answer_pieces");
    std::cerr << "omegabench selftest: " << W << ": " << First.size()
              << " queries, answer_pieces " << Pieces[0] << "\n";
  }
  // The checker must reject a wrong answer.
  {
    Query Q = paperMixQuery(Seed, 0);
    Formula F = parseOrDie(Q);
    CountResult R = countSolutions(F, varsOf(Q), CountOptions{});
    PiecewiseValue Wrong = R.Value;
    Wrong += PiecewiseValue(QuasiPolynomial(Rational(1)));
    Expect(checkExact(Q, F, viewOf(Q, R.Value)).Ok,
           "checker rejects a right answer");
    Expect(!checkExact(Q, F, viewOf(Q, Wrong)).Ok,
           "checker accepts a wrong answer");
  }
  std::cout << (Bad ? "omegabench selftest: FAILED" : "omegabench selftest: ok")
            << std::endl;
  return Bad ? 1 : 0;
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  auto Need = [&](int &I) -> std::string {
    if (I + 1 >= Argc)
      die(std::string("missing value for ") + Argv[I]);
    return Argv[++I];
  };
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--workload")
      A.Workload = Need(I);
    else if (Arg == "--seed")
      A.Seed = std::strtoull(Need(I).c_str(), nullptr, 10);
    else if (Arg == "--seconds")
      A.Seconds = std::strtod(Need(I).c_str(), nullptr);
    else if (Arg == "--trace")
      A.Trace = Need(I) == "1";
    else if (Arg == "--workdir")
      A.WorkDir = Need(I);
    else if (Arg == "--selftest")
      A.SelfTest = true;
    else
      die("unknown argument " + Arg);
  }
  if (!A.SelfTest && A.Workload != "paper_mix" && A.Workload != "dnf_blowup" &&
      A.Workload != "omegad_mixed")
    die("--workload must be paper_mix, dnf_blowup or omegad_mixed");
  if (A.Seconds <= 0)
    die("--seconds must be positive");
  return A;
}

} // namespace

int main(int Argc, char **Argv) {
  // A client whose server went away must see an error, not die.
  std::signal(SIGPIPE, SIG_IGN);
  Args A = parseArgs(Argc, Argv);
  if (A.SelfTest)
    return runSelfTest();
  return A.Trace ? runTraced(A) : runEndToEnd(A);
}
