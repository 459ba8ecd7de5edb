//===- perfbench/src/Workloads.cpp - Seeded query generators -------------===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
//
// Every query is a pure function of (seed, stream, index).  Paper shapes
// are perturbed two ways: counted variables are translated (x := x - t,
// which leaves every count unchanged, so the paper's hand-written values
// still apply), and for some instances bounds, strides and coefficients
// are redrawn (then only the enumeration reference applies).  The
// translation offsets grow with the query index, so no two queries of a
// stream are textually identical.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "apps/Dependence.h"
#include "apps/HpfDistribution.h"
#include "apps/LoopNest.h"
#include "apps/MemoryModel.h"
#include "apps/UniformlyGenerated.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <map>
#include <random>
#include <set>
#include <sstream>

using namespace omega;

namespace perfbench {
namespace {

/// The per-query random source: the same (seed, stream, index) always
/// yields the same query.
std::mt19937_64 queryRng(uint64_t Seed, uint64_t Stream, uint64_t Index) {
  std::seed_seq SS{uint32_t(Seed), uint32_t(Seed >> 32), uint32_t(Stream),
                   uint32_t(Index), uint32_t(Index >> 32)};
  return std::mt19937_64(SS);
}

/// Uniform integer in [Lo, Hi].
int64_t pick(std::mt19937_64 &R, int64_t Lo, int64_t Hi) {
  return std::uniform_int_distribution<int64_t>(Lo, Hi)(R);
}

/// The random source of one query.  pick() draws *balanced* values: the
/// k-th pick of a shape's instances is dealt from a seeded shuffled deck
/// holding each value of its range once, so every stretch of instances
/// holds each structural variant (stencil size, stride, bound) equally
/// often and a run's mix of query costs barely depends on the seed.  A
/// shape therefore makes the same picks, in the same order, on every
/// instance.  Rng draws plain random values (translation offsets, which
/// stencil offsets) that do not change a query's cost much.
struct Draw {
  std::mt19937_64 Rng;
  uint64_t Instance;  ///< How many queries of this shape came before.
  uint64_t DeckSeed;  ///< Seed-dependent, instance-independent.
  uint64_t Calls = 0;
};

uint64_t splitmix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

Draw makeDraw(uint64_t Seed, uint64_t Stream, uint64_t Shape,
              uint64_t Instance, uint64_t I) {
  return Draw{queryRng(Seed, Stream, I), Instance,
              splitmix(Seed * 0x100000001b3ull ^ (Stream << 20) ^ Shape)};
}

int64_t pick(Draw &D, int64_t Lo, int64_t Hi) {
  uint64_t Range = uint64_t(Hi - Lo + 1);
  uint64_t Deal = D.Instance / Range;
  std::vector<int64_t> Deck(Range);
  for (uint64_t K = 0; K < Range; ++K)
    Deck[K] = Lo + int64_t(K);
  uint64_t DeckId = ++D.Calls * 0x632be59bd9b4e019ull + Deal;
  std::mt19937_64 Shuffle(splitmix(D.DeckSeed ^ splitmix(DeckId)));
  std::shuffle(Deck.begin(), Deck.end(), Shuffle);
  return Deck[D.Instance % Range];
}

/// A balanced pick that the paper's canonical instance overrides (the
/// pick is made either way, so later picks keep their decks).
int64_t unlessCanon(Draw &D, bool Canon, int64_t CanonValue, int64_t Lo,
                    int64_t Hi) {
  int64_t V = pick(D, Lo, Hi);
  return Canon ? CanonValue : V;
}

using Shift = std::vector<std::pair<std::string, int64_t>>;

bool isIdentStart(char C) { return std::isalpha((unsigned char)C) || C == '_'; }
bool isIdentChar(char C) { return std::isalnum((unsigned char)C) || C == '_'; }

/// Rewrites every identifier of \p Text through \p Map (identifiers not in
/// the map are kept).
using IdentMap = std::function<std::string(const std::string &)>;

std::string mapIdents(const std::string &Text, const IdentMap &Map) {
  std::string Out;
  for (size_t I = 0; I < Text.size();) {
    if (!isIdentStart(Text[I])) {
      Out += Text[I++];
      continue;
    }
    size_t J = I;
    while (J < Text.size() && isIdentChar(Text[J]))
      ++J;
    Out += Map(Text.substr(I, J - I));
    I = J;
  }
  return Out;
}

/// Translates the solution set: each listed variable x becomes (x - t).
std::string translate(const std::string &Text, const Shift &S) {
  return mapIdents(Text, [&](const std::string &Id) {
    for (const auto &[Name, T] : S)
      if (Id == Name && T != 0)
        return "(" + Name + (T > 0 ? " - " : " + ") +
               std::to_string(T < 0 ? -T : T) + ")";
    return Id;
  });
}

/// Prints an apps-layer formula with its bound variables renamed to
/// w0, w1, ... in order of appearance, so the text does not depend on the
/// process's fresh-name counter (the same seed must give the same text).
std::string canonicalText(const Formula &F,
                          const std::vector<std::string> &Free) {
  static const std::set<std::string> Keywords{"exists", "forall", "TRUE",
                                              "FALSE"};
  std::map<std::string, std::string> Renamed;
  return mapIdents(F.toString(), [&](const std::string &Id) {
    if (Keywords.count(Id) ||
        std::find(Free.begin(), Free.end(), Id) != Free.end())
      return Id;
    auto It = Renamed.find(Id);
    if (It == Renamed.end())
      It = Renamed.emplace(Id, "w" + std::to_string(Renamed.size())).first;
    return It->second;
  });
}

using BoxFn = std::function<Box(const Point &)>;

/// Shifts a base box by the translation offsets (Vars order).
BoxFn shifted(BoxFn Base, std::vector<int64_t> T) {
  return [Base = std::move(Base), T = std::move(T)](const Point &P) {
    Box B = Base(P);
    for (size_t I = 0; I < B.size(); ++I) {
      B[I].first += T[I];
      B[I].second += T[I];
    }
    return B;
  };
}

/// A box with the same [Lo, Hi(symbol 0)] range for every variable.
BoxFn cube(size_t Dims, int64_t Lo, std::function<int64_t(const Point &)> Hi) {
  return [=](const Point &P) { return Box(Dims, {Lo, std::max(Lo, Hi(P))}); };
}

BoxFn fixedBox(Box B) {
  return [B = std::move(B)](const Point &) { return B; };
}

/// Check points for one symbol: a few small values (the regions below and
/// at the guards' thresholds) plus a run of Period consecutive values from
/// a seeded base, so every residue class of the query's strides is hit.
std::vector<Point> onePointSet(Draw &R, int64_t SmallLo,
                               int64_t Period, int64_t BaseLo, int64_t BaseHi) {
  std::vector<Point> Out;
  for (int64_t V = SmallLo; V < SmallLo + 3; ++V)
    Out.push_back({V});
  int64_t Base = pick(R, BaseLo, BaseHi);
  for (int64_t K = 0; K < Period; ++K)
    if (Base + K >= SmallLo + 3)
      Out.push_back({Base + K});
  return Out;
}

AffineExpr v(const char *N) { return AffineExpr::variable(N); }

/// Translates a shape's counted variables by offsets derived from the
/// query index \p I, so every instance is textually distinct.  The sign
/// of an offset can change a query's cost several times over (the
/// canonical X5 query takes about 5x longer shifted one way than the
/// other), so signs follow the instance count rather than chance: every
/// four instances hold each sign twice, once per value of a first
/// two-valued pick.
Query finish(Query Q, Draw &R, uint64_t I) {
  Shift S;
  std::vector<int64_t> T;
  for (size_t K = 0; K < Q.Vars.size(); ++K) {
    const std::string &V = Q.Vars[K];
    bool Up = (R.Instance / 2 + K) % 2;
    int64_t Off = int64_t(7 * I + 3) * (Up ? 1 : -1) + pick(R.Rng, -3, 3);
    S.push_back({V, Off});
    T.push_back(Off);
  }
  Q.Text = translate(Q.Text, S);
  Q.BoxAt = shifted(std::move(Q.BoxAt), std::move(T));
  return Q;
}

/// The first symbol's value (0 for a concrete query).
int64_t sym0(const Point &P) { return P.empty() ? 0 : P[0]; }

//===----------------------------------------------------------------------===//
// paper_mix shapes: the X1-X18 rows and the example formula corpus.
//===----------------------------------------------------------------------===//

using ShapeFn = Query (*)(Draw &);

Query introConst(Draw &R) { // X1: (Σ i : 1<=i<=10 : 1)
  bool Canon = pick(R, 0, 1);
  int64_t K = unlessCanon(R, Canon, 10, 5, 40);
  Query D{"X1.const", "1 <= i <= " + std::to_string(K), {"i"}, {}};
  D.BoxAt = fixedBox({{0, K + 1}});
  D.Points = {{}};
  if (Canon)
    D.Hand = {{{}, BigInt(10)}};
  return D;
}

Query introN(Draw &R) { // X1: (Σ i : 1<=i<=n : 1)
  Query D{"X1.n", "1 <= i <= n", {"i"}, {"n"}};
  D.BoxAt = cube(1, 0, sym0);
  D.Points = onePointSet(R, -1, 2, 4, 30);
  D.SymLo = -3, D.SymHi = 30;
  return D;
}

Query introSquare(Draw &R) { // X1: (Σ i,j : 1<=i,j<=n : 1)
  Query D{"X1.square", "1 <= i,j <= n", {"i", "j"}, {"n"}};
  D.BoxAt = cube(2, 0, sym0);
  D.Points = onePointSet(R, -1, 2, 3, 12);
  D.SymLo = -3, D.SymHi = 12;
  return D;
}

Query introLess(Draw &R) { // X1: (Σ i,j : 1<=i<j<=n : 1)
  Query D{"X1.less", "1 <= i && i < j && j <= n", {"i", "j"}, {"n"}};
  D.BoxAt = cube(2, 0, sym0);
  D.Points = onePointSet(R, 0, 2, 3, 12);
  D.SymLo = -2, D.SymHi = 12;
  return D;
}

/// Points over two symbols covering both orders, equality and the
/// non-positive region.
std::vector<Point> twoPointSet(Draw &R, int64_t Hi) {
  int64_t A = pick(R, 2, Hi - 2), B = A + pick(R, 1, 2);
  return {{0, 3}, {3, 0}, {1, 1}, {A, B}, {B, A}, {A, A}};
}

Query mathematica(Draw &R) { // X2: n(2m-n+1)/2 pitfall
  Query D{"X2.mathematica", "1 <= i <= n && i <= j <= m", {"i", "j"},
          {"m", "n"}};
  D.BoxAt = [](const Point &P) {
    int64_t M = std::max<int64_t>(P[0], 0), N = std::max<int64_t>(P[1], 0);
    return Box{{0, N}, {0, M}};
  };
  D.Points = twoPointSet(R, 10);
  D.SymLo = -1, D.SymHi = 10;
  return D;
}

Query fstText(Draw &R) { // X3: x = 6i + 9j - 7 (25 values)
  bool Canon = pick(R, 0, 1);
  int64_t UI = unlessCanon(R, Canon, 8, 5, 10);
  int64_t UJ = unlessCanon(R, Canon, 5, 3, 7);
  Query D{"X3.projection",
          "exists(i, j: x = 6*i + 9*j - 7 && 1 <= i <= " + std::to_string(UI) +
              " && 1 <= j <= " + std::to_string(UJ) + ")",
          {"x"},
          {}};
  D.BoxAt = fixedBox({{7, 6 * UI + 9 * UJ - 7}});
  D.WitnessLo = 0, D.WitnessHi = std::max(UI, UJ) + 1;
  D.Points = {{}};
  if (Canon)
    D.Hand = {{{}, BigInt(25)}};
  return D;
}

Query section26(Draw &R) { // X4: the §2.6 formula
  Query D{"X4.simplify",
          "1 <= i <= 2*n && 1 <= ip <= 2*n && i = ip && "
          "!exists(i2, j2: 1 <= i2 <= 2*n && 1 <= j2 <= n - 1 && i2 < i && "
          "i2 = ip && 2*j2 = i2) && "
          "!exists(i2, j2: 1 <= i2 <= 2*n && 1 <= j2 <= n - 1 && i2 < i && "
          "i2 = ip && 2*j2 + 1 = i2)",
          {"i", "ip"},
          {"n"}};
  D.BoxAt = cube(2, 0, [](const Point &P) { return 2 * P[0]; });
  D.WitnessLo = 0, D.WitnessHi = 10;
  D.Points = onePointSet(R, -1, 1, 2, 4);
  D.SymLo = -1, D.SymHi = 5;
  return D;
}

Query hpf(Draw &R) { // X5: block-cyclic ownership (128 cells)
  bool Canon = pick(R, 0, 1);
  int64_t B = unlessCanon(R, Canon, 4, 2, 5);
  int64_t P = unlessCanon(R, Canon, 8, 2, 4);
  int64_t Cycles = pick(R, 2, 4), Rest = pick(R, 0, 19);
  int64_t E = Canon ? 1024 : B * P * Cycles + Rest % (B * P);
  BlockCyclic Dist{BigInt(B), BigInt(P), BigInt(E)};
  Query D{"X5.hpf", canonicalText(ownedBy(Dist, "t", "p"), {"t", "p"}), {"t"},
          {"p"}};
  D.BoxAt = fixedBox({{0, E - 1}});
  D.WitnessLo = 0, D.WitnessHi = std::max(B, E / (B * P) + 1);
  if (Canon) {
    // 1024 cells with witnesses up to 128: hand values only.
    for (int64_t Proc = -1; Proc <= 8; ++Proc)
      D.Hand.push_back({{Proc}, BigInt(Proc >= 0 && Proc < 8 ? 128 : 0)});
  } else {
    for (int64_t Proc = -1; Proc <= P; ++Proc)
      D.Points.push_back({Proc});
    D.SymLo = -1, D.SymHi = P;
  }
  return D;
}

Query floorSum(Draw &R) { // X6: Σ_{i=1}^{floor(n/b)} i
  int64_t Bdiv = pick(R, 2, 6);
  Query D{"X6.rational",
          "1 <= j <= i && " + std::to_string(Bdiv) + "*i <= n", {"i", "j"},
          {"n"}};
  D.BoxAt = cube(2, 0, sym0);
  D.Points = onePointSet(R, -1, Bdiv, 5, 10);
  D.SymLo = -2, D.SymHi = 16;
  return D;
}

Query tawbi(Draw &R) { // X7: §6 Example 1
  Query D{"X7.tawbi", "1 <= i <= n && 1 <= j <= i && j <= k <= m",
          {"i", "j", "k"}, {"m", "n"}};
  D.BoxAt = [](const Point &P) {
    int64_t N = std::max<int64_t>(P[1], 0), M = std::max<int64_t>(P[0], 0);
    return Box{{0, N}, {0, N}, {0, M}};
  };
  D.Points = twoPointSet(R, 7);
  D.SymLo = -1, D.SymHi = 7;
  return D;
}

Query hp2(Draw &R) { // X8: §6 Example 2
  int64_t L = pick(R, 2, 4), C = L + pick(R, 1, 4);
  Query D{"X8.example2",
          "1 <= i <= n && " + std::to_string(L) + " <= j <= i && j <= k <= " +
              std::to_string(C),
          {"i", "j", "k"},
          {"n"}};
  D.BoxAt = [C](const Point &P) {
    int64_t N = std::max<int64_t>(P[0], 0);
    return Box{{0, N}, {0, N}, {0, C}};
  };
  D.Points = onePointSet(R, L - 1, 2, C - 1, C + 2);
  D.SymLo = 0, D.SymHi = C + 4;
  return D;
}

Query hp3(Draw &R) { // X9: §6 Example 3 (n^2)
  Query D{"X9.example3", "1 <= i <= 2*n && 1 <= j <= i && i + j <= 2*n",
          {"i", "j"}, {"n"}};
  D.BoxAt = cube(2, 0, [](const Point &P) { return 2 * P[0]; });
  D.Points = onePointSet(R, -1, 2, 3, 8);
  D.SymLo = -2, D.SymHi = 8;
  return D;
}

Query fstApps(Draw &R) { // X10: distinct locations of a(6i+9j-7)
  bool Canon = pick(R, 0, 1);
  int64_t UI = unlessCanon(R, Canon, 8, 5, 10);
  int64_t UJ = unlessCanon(R, Canon, 5, 3, 7);
  LoopNest Nest;
  Nest.add("i", AffineExpr(1), AffineExpr(UI));
  Nest.add("j", AffineExpr(1), AffineExpr(UJ));
  ArrayRef Ref{"a", {BigInt(6) * v("i") + BigInt(9) * v("j") - AffineExpr(7)}};
  std::vector<std::string> Elems;
  Formula F = touchedCells(Nest, {Ref}, "a", Elems);
  Query D{"X10.locations", canonicalText(F, Elems), Elems, {}};
  D.BoxAt = fixedBox({{7, 6 * UI + 9 * UJ - 7}});
  D.WitnessLo = 0, D.WitnessHi = std::max(UI, UJ) + 1;
  D.Points = {{}};
  if (Canon)
    D.Hand = {{{}, BigInt(25)}};
  return D;
}

LoopNest sorNest() {
  LoopNest Nest;
  Nest.add("i", AffineExpr(2), v("N") - AffineExpr(1));
  Nest.add("j", AffineExpr(2), v("N") - AffineExpr(1));
  return Nest;
}

std::vector<ArrayRef> sorRefs() {
  return {{"a", {v("i"), v("j")}},
          {"a", {v("i") - AffineExpr(1), v("j")}},
          {"a", {v("i") + AffineExpr(1), v("j")}},
          {"a", {v("i"), v("j") - AffineExpr(1)}},
          {"a", {v("i"), v("j") + AffineExpr(1)}}};
}

Query sor(Draw &R) { // X11: SOR distinct locations, N^2 - 4
  std::vector<std::string> Elems;
  Formula F = touchedCells(sorNest(), sorRefs(), "a", Elems);
  Elems.push_back("N");
  Query D{"X11.sor", canonicalText(F, Elems), {Elems[0], Elems[1]}, {"N"}};
  D.BoxAt = cube(2, 0, [](const Point &P) { return P[0] + 1; });
  D.WitnessLo = 0, D.WitnessHi = 7;
  D.Points = {{2}, {3}, {pick(R, 4, 6)}};
  D.SymLo = 0, D.SymHi = 6;
  int64_t N = pick(R, 7, 60);
  D.Hand = {{{N}, BigInt(N * N - 4)}, {{500}, BigInt(249996)}};
  return D;
}

Query sorLines(Draw &R) { // X11: 16-element cache lines
  // countDistinctCacheLines' formula over a caller-chosen line size: the
  // canonical 16 at N = 500 is the paper's 16000.
  bool Canon = pick(R, 0, 1);
  int64_t L = unlessCanon(R, Canon, 16, 2, 8);
  std::vector<std::string> Elems;
  Formula Touched = touchedCells(sorNest(), sorRefs(), "a", Elems);
  AffineExpr E0 = v(Elems[0].c_str()) - AffineExpr(1);
  AffineExpr Line = BigInt(L) * v("line0");
  Formula Lines = Formula::exists(
      VarSet(Elems.begin(), Elems.end()),
      Formula::conj({Touched,
                     Formula::atom(Constraint::eq(v("line1") -
                                                  v(Elems[1].c_str()))),
                     Formula::atom(Constraint::ge(E0 - Line)),
                     Formula::atom(Constraint::ge(
                         Line + AffineExpr(L - 1) - E0))}));
  Query D{"X11.lines", canonicalText(Lines, {"line0", "line1", "N"}),
          {"line0", "line1"}, {"N"}};
  D.BoxAt = [](const Point &) { return Box{{0, 0}, {0, 0}}; }; // unused
  // Reference: the lines the SOR footprint touches, counted directly
  // (nested witness search would sweep window^4 per point).
  auto Direct = [L](int64_t N) {
    std::set<std::pair<int64_t, int64_t>> Seen;
    const int64_t DI[5] = {0, -1, 1, 0, 0}, DJ[5] = {0, 0, 0, -1, 1};
    for (int64_t I = 2; I <= N - 1; ++I)
      for (int64_t J = 2; J <= N - 1; ++J)
        for (int K = 0; K < 5; ++K) {
          int64_t E = I + DI[K] - 1;
          int64_t Q = E >= 0 ? E / L : -((-E + L - 1) / L);
          Seen.insert({Q, J + DJ[K]});
        }
    return BigInt(int64_t(Seen.size()));
  };
  for (int64_t N : {int64_t(2), int64_t(3), pick(R, 4, 20), pick(R, 21, 60)})
    D.Hand.push_back({{N}, Direct(N)});
  if (Canon)
    D.Hand.push_back({{500}, BigInt(16000)});
  return D;
}

Query figure1(Draw &R) { // X12 / figure1.presburger (25 values)
  bool Canon = pick(R, 0, 1);
  int64_t C1 = unlessCanon(R, Canon, 7, 5, 9);
  int64_t C2 = unlessCanon(R, Canon, 5, 3, 6);
  Query D{"X12.figure1",
          "exists(b: 0 <= 3*b - a <= " + std::to_string(C1) +
              " && 1 <= a - 2*b <= " + std::to_string(C2) + ")",
          {"a"},
          {}};
  D.BoxAt = fixedBox({{-8, 40}});
  D.WitnessLo = -4, D.WitnessHi = 24;
  D.Points = {{}};
  if (Canon)
    D.Hand = {{{}, BigInt(25)}};
  return D;
}

Query example6(Draw &R) { // X13: §6 Example 6
  bool Canon = pick(R, 0, 1);
  int64_t P = unlessCanon(R, Canon, 2, 1, 4);
  int64_t Q = unlessCanon(R, Canon, 3, 1, 5);
  Query D{"X13.example6",
          "1 <= i && 1 <= j && j <= n && " + std::to_string(P) + "*i <= " +
              std::to_string(Q) + "*j",
          {"i", "j"},
          {"n"}};
  D.BoxAt = [Q](const Point &P) {
    int64_t N = std::max<int64_t>(P[0], 0);
    return Box{{0, Q * N}, {0, N}};
  };
  D.Points = onePointSet(R, -1, 2, 3, 12);
  D.SymLo = -2, D.SymHi = 14;
  if (Canon)
    for (int64_t N : {pick(R, 20, 60), pick(R, 61, 99), int64_t(100)})
      D.Hand.push_back({{N}, BigInt((3 * N * N + 2 * N - N % 2) / 4)});
  return D;
}

Query example6File(Draw &R) { // example6.presburger
  // The corpus file bounds i by n as well, so the paper's closed form does
  // not apply to it; enumeration is its only reference.
  Query D{"ex.example6", "1 <= i,j <= n && 2*i <= 3*j", {"i", "j"}, {"n"}};
  D.BoxAt = cube(2, 0, sym0);
  D.Points = onePointSet(R, -1, 3, 3, 12);
  D.SymLo = -2, D.SymHi = 14;
  return D;
}

Query stencil01(Draw &R) { // X14: 0-1 stencil, k <= 6 offsets
  // Offsets come from the 3x3 neighbourhood of the paper's stencils; with
  // offsets two cells out a 5-point stencil can take over a second, which
  // would let one query decide a run's throughput.  The subset is dealt
  // from the deck of all k-subsets, so instances rarely repeat one.
  int64_t K = pick(R, 3, 6);
  std::vector<unsigned> Subsets;
  for (unsigned Mask = 0; Mask < 512; ++Mask)
    if (std::popcount(Mask) == K)
      Subsets.push_back(Mask);
  unsigned Mask = Subsets[size_t(pick(R, 0, int64_t(Subsets.size()) - 1))];
  std::vector<Offset> Chosen;
  for (unsigned Cell = 0; Cell < 9; ++Cell)
    if (Mask >> Cell & 1)
      Chosen.push_back(
          {BigInt(int64_t(Cell / 3) - 1), BigInt(int64_t(Cell % 3) - 1)});
  Query D{"X14.stencil",
          canonicalText(offsetsZeroOneFormula(Chosen, {"dx", "dy"}),
                        {"dx", "dy"}),
          {"dx", "dy"},
          {}};
  D.BoxAt = fixedBox({{-1, 1}, {-1, 1}});
  D.WitnessLo = 0, D.WitnessHi = 1;
  D.Points = {{}};
  D.Hand = {{{}, BigInt(K)}};
  return D;
}

Query scaling(Draw &R) { // X15: symbolic vs enumeration
  Query D{"X15.scaling", "1 <= i && 1 <= j && j <= n && 2*i <= 3*j",
          {"i", "j"}, {"n"}};
  D.BoxAt = cube(2, 0, [](const Point &P) { return 2 * P[0]; });
  D.Points = onePointSet(R, -1, 2, 3, 10);
  D.SymLo = -2, D.SymHi = 12;
  return D;
}

Query schedule(Draw &R) { // X16: triangular loop (apps LoopNest)
  int64_t Step = pick(R, 1, 3);
  LoopNest Nest;
  Nest.add("i", AffineExpr(1), v("n"));
  Nest.add("j", v("i"), v("n"), BigInt(Step));
  Query D{"X16.schedule",
          canonicalText(Nest.iterationSpace(), {"i", "j", "n"}),
          {"i", "j"},
          {"n"}};
  D.BoxAt = cube(2, 0, sym0);
  D.Points = onePointSet(R, -1, Step, 3, 12);
  D.SymLo = -2, D.SymHi = 14;
  return D;
}

Query dependence(Draw &R) { // X17: wavefront dependence pairs
  bool Row = pick(R, 0, 1);
  int64_t Distance = pick(R, 1, 2);
  int64_t DI = Row ? Distance : 0, DJ = Row ? 0 : Distance;
  LoopNest Nest;
  Nest.add("i", AffineExpr(1), v("n"));
  Nest.add("j", AffineExpr(1), v("n"));
  ArrayRef Write{"a", {v("i"), v("j")}};
  ArrayRef Read{"a", {v("i") - AffineExpr(DI), v("j") - AffineExpr(DJ)}};
  Formula F = dependencePairs(Nest, Write, Read, "_p");
  std::vector<std::string> Vars{"i", "i_p", "j", "j_p"};
  Query D{"X17.dependence", canonicalText(F, {"i", "i_p", "j", "j_p", "n"}),
          Vars, {"n"}};
  D.BoxAt = cube(4, 0, sym0);
  D.WitnessLo = 0, D.WitnessHi = 6;
  D.Points = {{0}, {1}, {2}, {pick(R, 3, 5)}};
  D.SymLo = -1, D.SymHi = 5;
  return D;
}

Query coupled(Draw &R) { // X18: the ablation's coupled nest
  int64_t K = pick(R, 1, 4);
  Query D{"X18.coupled",
          "1 <= a <= n && a <= b <= n && b <= c <= n && a + c <= n + " +
              std::to_string(K),
          {"a", "b", "c"},
          {"n"}};
  D.BoxAt = cube(3, 0, sym0);
  D.Points = onePointSet(R, -1, 2, 3, 7);
  D.SymLo = -2, D.SymHi = 8;
  return D;
}

Query dense(Draw &R) { // dense.presburger
  int64_t C = pick(R, 100, 140), S = pick(R, 2, 4), T = pick(R, 2, 5);
  int64_t G = pick(R, 30, 50), Hi = pick(R, 40, 50);
  std::string H = std::to_string(Hi);
  Query D{"ex.dense",
          "0 <= i <= " + H + " && 0 <= j <= " + H + " && 2*i + 3*j <= " +
              std::to_string(C) + " && " + std::to_string(S) +
              " | i + j && (" + std::to_string(T) + " | i - j || 2*j - i >= " +
              std::to_string(G) + ")",
          {"i", "j"},
          {}};
  D.BoxAt = fixedBox({{0, Hi}, {0, Hi}});
  D.Points = {{}};
  return D;
}

Query quantified(Draw &R) { // quantified.presburger
  int64_t M = pick(R, 2, 5);
  Query D{"ex.quantified",
          "exists(k: i = " + std::to_string(M) + "*k) && 1 <= i <= n", {"i"},
          {"n"}};
  D.BoxAt = cube(1, 0, sym0);
  D.WitnessLo = 0, D.WitnessHi = 16;
  D.Points = onePointSet(R, -1, M, 4, 12);
  D.SymLo = -2, D.SymHi = 16;
  return D;
}

Query strided(Draw &R) { // strided.presburger
  int64_t M = pick(R, 2, 5);
  Query D{"ex.strided", "0 <= i <= n && " + std::to_string(M) + " | i", {"i"},
          {"n"}};
  D.BoxAt = cube(1, 0, sym0);
  D.Points = onePointSet(R, -1, M, 4, 20);
  D.SymLo = -2, D.SymHi = 24;
  return D;
}

Query triangle(Draw &R) { // triangle.presburger
  Query D{"ex.triangle", "1 <= i <= n && i <= j <= n", {"i", "j"}, {"n"}};
  D.BoxAt = cube(2, 0, sym0);
  D.Points = onePointSet(R, -1, 1, 3, 12);
  D.SymLo = -2, D.SymHi = 12;
  return D;
}

Query unionShape(Draw &R) { // union.presburger
  int64_t A = pick(R, 2, 3), B = A + pick(R, 0, 1);
  Query D{"ex.union",
          "(1 <= i <= n) || (" + std::to_string(A) + "*n <= i <= " +
              std::to_string(B + 1) + "*n)",
          {"i"},
          {"n"}};
  D.BoxAt = [B](const Point &P) {
    return Box{{std::min<int64_t>(0, (B + 1) * P[0]),
                std::max<int64_t>(0, (B + 1) * P[0])}};
  };
  D.Points = onePointSet(R, -2, 2, 3, 9);
  D.SymLo = -4, D.SymHi = 10;
  return D;
}

const ShapeFn PaperShapes[] = {
    introConst, introN,   introSquare, introLess, mathematica, fstText,
    section26,  hpf,      floorSum,    tawbi,     hp2,         hp3,
    fstApps,    sor,      sorLines,    figure1,   example6,    stencil01,
    scaling,    schedule, dependence,  coupled,   dense,       example6File,
    quantified, strided,  triangle,    unionShape};
constexpr size_t NumPaperShapes = sizeof(PaperShapes) / sizeof(PaperShapes[0]);

/// Shape of index \p I: each block of NumPaperShapes consecutive indices is
/// a seeded permutation of all shapes, so every prefix of whole blocks has
/// the same shape mix.
size_t paperShapeOf(uint64_t Seed, uint64_t Stream, uint64_t I) {
  std::vector<size_t> Perm(NumPaperShapes);
  for (size_t K = 0; K < NumPaperShapes; ++K)
    Perm[K] = K;
  std::mt19937_64 R = queryRng(Seed, Stream ^ 0x5eed, I / NumPaperShapes);
  std::shuffle(Perm.begin(), Perm.end(), R);
  return Perm[I % NumPaperShapes];
}

Query paperQueryOf(uint64_t Seed, uint64_t Stream, uint64_t I) {
  size_t Shape = paperShapeOf(Seed, Stream, I);
  // Every block holds each shape once, so the block number counts this
  // shape's earlier instances.
  Draw R = makeDraw(Seed, Stream, Shape, I / NumPaperShapes, I);
  // Distinct streams get distinct translations, so their queries differ.
  return finish(PaperShapes[Shape](R), R, I * 8 + (Stream & 7));
}

//===----------------------------------------------------------------------===//
// dnf_blowup: conjunctions of k-interval unions.
//===----------------------------------------------------------------------===//

/// "(lo0 <= V <= hi0 || ...)" over \p K intervals; returns the hull.
std::string intervalUnion(std::mt19937_64 &R, const std::string &V, int64_t K,
                          int64_t Gap, int64_t Width, int64_t &Lo,
                          int64_t &Hi) {
  std::ostringstream OS;
  OS << "(";
  int64_t Start = pick(R, 0, 3);
  Lo = Start, Hi = Start;
  for (int64_t T = 0; T < K; ++T) {
    int64_t A = Start + T * Gap + pick(R, 0, 2);
    int64_t B = A + Width + pick(R, -2, 2);
    if (T)
      OS << " || ";
    OS << A << " <= " << V << " <= " << B;
    Hi = std::max(Hi, B);
  }
  OS << ")";
  return OS.str();
}

} // namespace

size_t paperMixShapeCount() { return NumPaperShapes; }

Query paperMixQuery(uint64_t Seed, uint64_t I) {
  return paperQueryOf(Seed, 1, I);
}

Query dnfBlowupQuery(uint64_t Seed, uint64_t I) {
  Draw R = makeDraw(Seed, 2, 0, I, I);
  Query D;
  D.Vars = {"i", "j"};
  D.Points = {{}};
  int64_t LoI, HiI, LoJ, HiJ;
  // bench_pipeline family: disjoint intervals, a coupling, a stride; or
  // X10's k-clause unions: shifted windows that overlap.
  // The family and both interval counts, which decide most of a query's
  // cost, are dealt together, so every 32 queries hold each combination
  // once and the run's tail latency barely depends on the seed.
  int64_t Combo = pick(R, 0, 31);
  bool Pipeline = Combo & 1;
  int64_t KI = 3 + (Combo >> 1) % 4, KJ = 3 + (Combo >> 3);
  int64_t Spread = pick(R, 0, 2);
  int64_t Gap = Pipeline ? 12 : 3 + Spread, Width = (Pipeline ? 7 : 8) + Spread;
  D.Shape = Pipeline ? "dnf.pipeline" : "dnf.windows";
  std::string UI = intervalUnion(R.Rng, "i", KI, Gap, Width, LoI, HiI);
  std::string UJ = intervalUnion(R.Rng, "j", KJ, Gap, Width, LoJ, HiJ);
  int64_t C = (HiI + HiJ) * pick(R, 5, 8) / 10;
  int64_t M = pick(R, 2, 3);
  std::ostringstream OS;
  OS << UI << " && " << UJ;
  bool SumCoupling = pick(R, 0, 1);
  int64_t Skew = pick(R, 1, 2), StrideCoef = pick(R, 1, 2);
  if (SumCoupling)
    OS << " && i + j <= " << C;
  else
    OS << " && " << Skew << "*i - j <= " << C / 2;
  OS << " && " << M << " | i + " << StrideCoef << "*j";
  D.Text = OS.str();
  D.BoxAt = fixedBox({{LoI, HiI}, {LoJ, HiJ}});
  return finish(std::move(D), R, I);
}

//===----------------------------------------------------------------------===//
// omegad_mixed: four request kinds per block of ten.
//===----------------------------------------------------------------------===//

namespace {

Role roleOf(uint64_t Seed, unsigned Client, uint64_t I) {
  static const Role Block[10] = {Role::Fresh,    Role::Fresh,  Role::Fresh,
                                 Role::Fresh,    Role::Repeat, Role::Repeat,
                                 Role::Dense,    Role::Dense,  Role::Budgeted,
                                 Role::Budgeted};
  std::vector<Role> Perm(Block, Block + 10);
  std::mt19937_64 R = queryRng(Seed, 0x300 + Client, I / 10);
  std::shuffle(Perm.begin(), Perm.end(), R);
  return Perm[I % 10];
}

/// A dense concrete set the Auto policy hands to the automaton backend.
Query denseAuto(Draw &R) {
  int64_t Hi = pick(R, 40, 90), C = pick(R, 2 * Hi, 4 * Hi);
  int64_t S = pick(R, 2, 6), T = pick(R, 2, 5);
  std::string H = std::to_string(Hi);
  Query D{"auto.dense",
          "0 <= i <= " + H + " && 0 <= j <= " + H + " && 2*i + 3*j <= " +
              std::to_string(C) + " && " + std::to_string(S) + " | i + " +
              std::to_string(pick(R, 1, 3)) + "*j && (" + std::to_string(T) +
              " | i - j || 2*j - i >= " + std::to_string(pick(R, 10, Hi)) +
              ")",
          {"i", "j"},
          {}};
  D.BoxAt = fixedBox({{0, Hi}, {0, Hi}});
  D.Points = {{}};
  return D;
}

} // namespace

void extendOmegadStream(uint64_t Seed, unsigned Client, size_t Count,
                        std::vector<Query> &Stream) {
  while (Stream.size() < Count) {
    uint64_t I = Stream.size();
    Role K = roleOf(Seed, Client, I);
    auto Nth = [&](Role Kind) {
      return uint64_t(std::count_if(
          Stream.begin(), Stream.end(),
          [&](const Query &Q) { return Q.Kind == Kind; }));
    };
    // Each kind deals from its own decks, counting its own instances.
    Draw R = makeDraw(Seed, 0x400 + Client, uint64_t(K), Nth(K), I);
    if (K == Role::Repeat) {
      // Favour recent queries, as a compiler re-asking about the loop it
      // is working on would.
      std::vector<uint64_t> Recent;
      for (uint64_t J = I; J-- > 0 && Recent.size() < 8;)
        if (Stream[J].Kind == Role::Fresh)
          Recent.push_back(J);
      if (!Recent.empty()) {
        uint64_t J = Recent[size_t(pick(R, 0, int64_t(Recent.size()) - 1))];
        Query Q = Stream[J];
        Q.Kind = Role::Repeat;
        Stream.push_back(std::move(Q));
        continue;
      }
      K = Role::Fresh; // Nothing to repeat yet.
    }
    Query Q;
    if (K == Role::Fresh) {
      Q = paperQueryOf(Seed, 0x500 + Client, Nth(Role::Fresh));
    } else if (K == Role::Dense) {
      bool Far = pick(R, 0, 3) == 0;
      Q = finish(denseAuto(R), R, I);
      Q.Backend = BackendKind::Auto;
      if (Far) {
        // A quarter of the sets sit 2^45 from the origin: constants too
        // wide for the automaton's int64 state arithmetic, so it refuses
        // and Auto falls back to pugh.
        const int64_t Off = int64_t(1) << 45;
        Q.Text = translate(Q.Text, {{"i", Off}, {"j", Off}});
        Q.BoxAt = shifted(std::move(Q.BoxAt), {Off, Off});
        Q.Shape = "auto.dense_far";
      }
    } else {
      // Concrete formulas whose exact pipeline splinters, under a splinter
      // or deadline budget, so the query degrades to certified bounds.
      if (pick(R, 0, 1)) {
        Q = finish(figure1(R), R, I);
        Q.Budget = "splinters=1";
      } else {
        Q = finish(dense(R), R, I);
        Q.BudgetMs = uint64_t(pick(R, 2, 6));
        Q.Budget = "ms=" + std::to_string(Q.BudgetMs);
      }
      Q.Shape = "budget." + Q.Shape;
    }
    Q.Kind = K;
    Stream.push_back(std::move(Q));
  }
}

Query nineStencilProbe() {
  std::vector<Offset> S;
  for (int64_t X = -1; X <= 1; ++X)
    for (int64_t Y = -1; Y <= 1; ++Y)
      S.push_back({BigInt(X), BigInt(Y)});
  Query Q;
  Q.Shape = "X14.stencil9";
  Q.Text = canonicalText(offsetsZeroOneFormula(S, {"dx", "dy"}), {"dx", "dy"});
  Q.Vars = {"dx", "dy"};
  Q.BoxAt = fixedBox({{-1, 1}, {-1, 1}});
  Q.WitnessLo = 0, Q.WitnessHi = 1;
  Q.Points = {{}};
  Q.Hand = {{{}, BigInt(9)}};
  return Q;
}

Query warmupQuery() {
  // The §2.6 formula: a few milliseconds of projection and splintering,
  // long enough to time steadily.
  Draw R = makeDraw(0, 0, 0, 0, 0);
  Query Q = finish(section26(R), R, 0);
  Q.Shape = "warmup";
  return Q;
}

} // namespace perfbench
