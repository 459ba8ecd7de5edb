//===- perfbench/src/Reference.cpp - Independent answer checking ---------===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
//
// The reference never comes from the pugh pipeline: counts are swept point
// by point over each query's box with baselines' evaluateInBox (which
// decides quantifiers by witness search, not by projection), or taken from
// the paper's hand-written closed forms.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "baselines/Enumerator.h"
#include "presburger/VarTable.h"

#include <cctype>
#include <cstring>
#include <memory>
#include <sstream>

using namespace omega;

namespace perfbench {

Assignment bindSymbols(const Query &Q, const Point &P) {
  Assignment A;
  for (size_t I = 0; I < Q.Syms.size() && I < P.size(); ++I)
    A[internVar(Q.Syms[I])] = BigInt(P[I]);
  return A;
}

namespace {

/// Number of solutions of \p Q at symbol point \p P, by sweeping the
/// query's box with baselines' evaluateInBox.
BigInt referenceCount(const Query &Q, const Formula &F, const Point &P) {
  Box B = Q.BoxAt(P);
  std::vector<VarId> Ids;
  for (const std::string &V : Q.Vars)
    Ids.push_back(internVar(V));
  std::vector<int64_t> X(B.size());
  for (size_t I = 0; I < B.size(); ++I) {
    if (B[I].first > B[I].second)
      return BigInt(0);
    X[I] = B[I].first;
  }
  Assignment A = bindSymbols(Q, P);
  int64_t Count = 0;
  while (true) {
    for (size_t I = 0; I < X.size(); ++I)
      A[Ids[I]] = BigInt(X[I]);
    if (evaluateInBox(F, A, Q.WitnessLo, Q.WitnessHi))
      ++Count;
    size_t I = 0;
    while (I < X.size() && ++X[I] > B[I].second) {
      X[I] = B[I].first;
      ++I;
    }
    if (I == X.size())
      break;
  }
  return BigInt(Count);
}

/// First point of the symbol grid [SymLo, SymHi]^k (k <= 2) where \p Holds.
bool findPoint(const Query &Q, const std::function<bool(const Point &)> &Holds,
               Point &Out) {
  size_t K = Q.Syms.size();
  if (K == 0 || K > 2)
    return false;
  Point P(K, Q.SymLo);
  while (true) {
    if (Holds(P)) {
      Out = P;
      return true;
    }
    size_t I = 0;
    while (I < K && ++P[I] > Q.SymHi)
      P[I++] = Q.SymLo;
    if (I == K)
      return false;
  }
}

std::string pointText(const Query &Q, const Point &P) {
  std::ostringstream OS;
  for (size_t I = 0; I < P.size(); ++I)
    OS << (I ? "," : "") << Q.Syms[I] << "=" << P[I];
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Printed answers: "0", "<unbounded>", or pieces "(if G && G : V)" / "(V)"
// joined by " + ", where a guard G is "E >= 0", "E = 0" or "m | E" and
// E, V are arithmetic over the symbols (rational coefficients, ^, and
// "(E mod m)" atoms).  Evaluated directly from the text.
//===----------------------------------------------------------------------===//

class ExprEval {
public:
  ExprEval(const std::string &Text, const Query &Q, const Point &P)
      : Text(Text), Q(Q), P(P) {}

  /// Evaluates the whole text; false on any syntax it does not know.
  bool run(Rational &Out) {
    if (!expr(Out))
      return false;
    skip();
    return Pos == Text.size();
  }

private:
  void skip() {
    while (Pos < Text.size() && Text[Pos] == ' ')
      ++Pos;
  }
  bool eat(char C) {
    skip();
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }
  bool expr(Rational &Out) {
    bool Neg = eat('-');
    if (!term(Out))
      return false;
    if (Neg)
      Out = -Out;
    while (true) {
      bool Plus = eat('+');
      if (!Plus && !eat('-'))
        return true;
      Rational R;
      if (!term(R))
        return false;
      Out = Plus ? Out + R : Out - R;
    }
  }
  bool term(Rational &Out) {
    if (!factor(Out))
      return false;
    while (true) {
      bool Mul = eat('*');
      if (!Mul && !eat('/'))
        return true;
      Rational R;
      if (!factor(R) || (!Mul && R.isZero()))
        return false;
      Out = Mul ? Out * R : Out / R;
    }
  }
  bool factor(Rational &Out) {
    if (!primary(Out))
      return false;
    if (!eat('^'))
      return true;
    Rational E;
    if (!primary(E) || !E.isInteger() || !E.numerator().fitsInt64())
      return false;
    int64_t N = E.numerator().toInt64();
    if (N < 0 || N > 64)
      return false;
    Rational Base = Out;
    Out = Rational(1);
    for (int64_t K = 0; K < N; ++K)
      Out = Out * Base;
    return true;
  }
  bool primary(Rational &Out) {
    skip();
    if (Pos >= Text.size())
      return false;
    char C = Text[Pos];
    if (C == '(') {
      ++Pos;
      if (!expr(Out))
        return false;
      skip();
      if (Text.compare(Pos, 3, "mod") == 0) {
        Pos += 3;
        Rational M;
        if (!expr(M) || !Out.isInteger() || !M.isInteger() ||
            !M.numerator().isPositive())
          return false;
        BigInt Q = BigInt::floorDiv(Out.numerator(), M.numerator());
        Out = Rational(Out.numerator() - Q * M.numerator());
      }
      return eat(')');
    }
    if (std::isdigit((unsigned char)C)) {
      size_t End = Pos;
      while (End < Text.size() && std::isdigit((unsigned char)Text[End]))
        ++End;
      BigInt V;
      if (!BigInt::fromString(Text.substr(Pos, End - Pos), V))
        return false;
      Pos = End;
      Out = Rational(V);
      return true;
    }
    if (std::isalpha((unsigned char)C) || C == '_') {
      size_t End = Pos;
      while (End < Text.size() &&
             (std::isalnum((unsigned char)Text[End]) || Text[End] == '_'))
        ++End;
      std::string Name = Text.substr(Pos, End - Pos);
      Pos = End;
      for (size_t I = 0; I < Q.Syms.size() && I < P.size(); ++I)
        if (Q.Syms[I] == Name) {
          Out = Rational(BigInt(P[I]));
          return true;
        }
      return false; // Not a symbol of the query.
    }
    return false;
  }

  const std::string &Text;
  const Query &Q;
  const Point &P;
  size_t Pos = 0;
};

bool evalText(const std::string &Text, const Query &Q, const Point &P,
              Rational &Out) {
  return ExprEval(Text, Q, P).run(Out);
}

/// One guard constraint of a printed answer at \p P.
bool constraintHolds(const std::string &K, const Query &Q, const Point &P,
                     bool &Ok) {
  Rational V;
  size_t Bar = K.find(" | ");
  if (Bar != std::string::npos) {
    Rational M;
    Ok = evalText(K.substr(0, Bar), Q, P, M) &&
         evalText(K.substr(Bar + 3), Q, P, V) && M.isInteger() &&
         V.isInteger() && M.numerator().isPositive();
    return Ok && BigInt::floorDiv(V.numerator(), M.numerator()) *
                         M.numerator() == V.numerator();
  }
  for (const char *Op : {" >= 0", " = 0"}) {
    size_t L = std::strlen(Op);
    if (K.size() > L && K.compare(K.size() - L, L, Op) == 0) {
      Ok = evalText(K.substr(0, K.size() - L), Q, P, V);
      return Ok && (Op[1] == '>' ? V.sign() >= 0 : V.isZero());
    }
  }
  Ok = false;
  return false;
}

/// The top-level "(...)" groups of a printed answer, or false when the text
/// is not a sum of parenthesized pieces.
bool splitPieces(const std::string &Text, std::vector<std::string> &Out) {
  size_t I = 0;
  while (I < Text.size()) {
    if (!Out.empty()) {
      if (Text.compare(I, 3, " + ") != 0)
        return false;
      I += 3;
    }
    if (I >= Text.size() || Text[I] != '(')
      return false;
    int Depth = 0;
    size_t J = I;
    for (; J < Text.size(); ++J) {
      Depth += Text[J] == '(' ? 1 : Text[J] == ')' ? -1 : 0;
      if (Depth == 0)
        break;
    }
    if (J == Text.size())
      return false;
    Out.push_back(Text.substr(I + 1, J - I - 1));
    I = J + 1;
  }
  return true;
}

} // namespace

AnswerView viewOf(const Query &Q, const PiecewiseValue &V) {
  AnswerView Out;
  Out.Unbounded = V.isUnbounded();
  Out.Pieces = V.pieces().size();
  auto Value = std::make_shared<PiecewiseValue>(V);
  Out.At = [Value, &Q](const Point &P, Rational &R) {
    R = Value->evaluate(bindSymbols(Q, P));
    return true;
  };
  for (size_t I = 0; I < V.pieces().size(); ++I) {
    if (V.pieces()[I].Guard.constraints().empty())
      continue;
    Out.Guards.push_back([Value, I, &Q](const Point &P) {
      Assignment A = bindSymbols(Q, P);
      for (const Constraint &K : Value->pieces()[I].Guard.constraints())
        if (!K.holds(A))
          return false;
      return true;
    });
  }
  return Out;
}

bool viewOfPrinted(const Query &Q, const std::string &Text, AnswerView &Out) {
  Out = AnswerView();
  if (Text == "<unbounded>") {
    Out.Unbounded = true;
    return true;
  }
  struct PrintedPiece {
    std::vector<std::string> Guard;
    std::string Value;
  };
  auto Pieces = std::make_shared<std::vector<PrintedPiece>>();
  std::vector<std::string> Groups;
  if (Text.empty() || (Text != "0" && !splitPieces(Text, Groups)))
    return false;
  Out.Pieces = Groups.size();
  for (const std::string &G : Groups) {
    PrintedPiece Pc;
    if (G.compare(0, 3, "if ") == 0) {
      size_t Colon = G.find(" : ");
      if (Colon == std::string::npos)
        return false;
      std::string Guard = G.substr(3, Colon - 3);
      for (size_t At = 0;;) {
        size_t And = Guard.find(" && ", At);
        Pc.Guard.push_back(Guard.substr(At, And - At));
        if (And == std::string::npos)
          break;
        At = And + 4;
      }
      Pc.Value = G.substr(Colon + 3);
    } else {
      Pc.Value = G;
    }
    Pieces->push_back(std::move(Pc));
  }
  auto GuardAt = [Pieces, &Q](size_t I, const Point &P, bool &Ok) {
    Ok = true;
    for (const std::string &K : (*Pieces)[I].Guard)
      if (!constraintHolds(K, Q, P, Ok))
        return false;
    return true;
  };
  Out.At = [Pieces, GuardAt, &Q](const Point &P, Rational &R) {
    R = Rational(0);
    for (size_t I = 0; I < Pieces->size(); ++I) {
      bool Ok = true;
      bool Holds = GuardAt(I, P, Ok);
      if (!Ok)
        return false;
      Rational V;
      if (Holds) {
        if (!evalText((*Pieces)[I].Value, Q, P, V))
          return false;
        R = R + V;
      }
    }
    return true;
  };
  for (size_t I = 0; I < Pieces->size(); ++I)
    if (!(*Pieces)[I].Guard.empty())
      Out.Guards.push_back([GuardAt, I](const Point &P) {
        bool Ok = true;
        return GuardAt(I, P, Ok) && Ok;
      });
  return true;
}

std::vector<Point> checkPoints(const Query &Q, const AnswerView &V) {
  std::vector<Point> Out = Q.Points;
  if (Out.empty())
    return Out; // Hand-checked only.
  for (const auto &Holds : V.Guards) {
    bool Covered = false;
    for (const Point &P : Out)
      if (Holds(P)) {
        Covered = true;
        break;
      }
    Point Extra;
    if (!Covered && findPoint(Q, Holds, Extra))
      Out.push_back(Extra);
  }
  return Out;
}

Verdict checkExact(const Query &Q, const Formula &F, const AnswerView &V) {
  if (V.Unbounded)
    return {false, "finite set answered <unbounded>"};
  auto Compare = [&](const Point &P, const BigInt &Want,
                     const char *Source) -> Verdict {
    Rational Got;
    if (!V.At(P, Got))
      return {false, "answer not evaluable at " + pointText(Q, P)};
    if (!(Got == Rational(Want)))
      return {false, "at " + pointText(Q, P) + ": answer " + Got.toString() +
                         ", " + Source + " " + Want.toString()};
    return {};
  };
  for (const Point &P : checkPoints(Q, V)) {
    Verdict R = Compare(P, referenceCount(Q, F, P), "enumeration");
    if (!R.Ok)
      return R;
  }
  for (const auto &[P, Want] : Q.Hand) {
    Verdict R = Compare(P, Want, "paper");
    if (!R.Ok)
      return R;
  }
  return {};
}

Verdict checkBounds(const Query &Q, const Formula &F, const AnswerView &Lower,
                    const AnswerView &Upper) {
  auto Bracket = [&](const Point &P, const BigInt &Truth) -> Verdict {
    Rational T(Truth), Lo, Hi;
    if (Lower.Unbounded || !Lower.At(P, Lo) || !(Lo <= T))
      return {false, "at " + pointText(Q, P) + ": lower bound above " +
                         Truth.toString()};
    if (!Upper.Unbounded && (!Upper.At(P, Hi) || !(T <= Hi)))
      return {false, "at " + pointText(Q, P) + ": upper bound below " +
                         Truth.toString()};
    return {};
  };
  for (const Point &P : checkPoints(Q, Lower)) {
    Verdict V = Bracket(P, referenceCount(Q, F, P));
    if (!V.Ok)
      return V;
  }
  for (const auto &[P, Want] : Q.Hand) {
    Verdict V = Bracket(P, Want);
    if (!V.Ok)
      return V;
  }
  return {};
}

} // namespace perfbench
