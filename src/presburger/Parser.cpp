//===- presburger/Parser.cpp - Text syntax for formulas ------------------===//

#include "presburger/Parser.h"

#include "presburger/NonLinear.h"
#include "support/Budget.h"
#include "support/Error.h"

#include <cctype>
#include <sstream>
#include <vector>

using namespace omega;

namespace {

enum class TokKind {
  End,
  Int,
  Name,
  LParen,
  RParen,
  Comma,
  Colon,
  Plus,
  Minus,
  Star,
  Slash,
  Bar,    // stride divides
  AndAnd,
  OrOr,
  Bang,
  Le,
  Lt,
  Ge,
  Gt,
  Eq,
  Ne,
  KwExists,
  KwForall,
  KwMod,
  KwFloor,
  KwCeil,
  KwTrue,
  KwFalse,
  Error
};

struct Token {
  TokKind Kind;
  std::string Text;
  size_t Pos;
};

std::vector<Token> lex(std::string_view S, std::string &Error) {
  std::vector<Token> Toks;
  size_t I = 0;
  auto Push = [&](TokKind K, size_t Start, size_t Len) {
    Toks.push_back({K, std::string(S.substr(Start, Len)), Start});
  };
  while (I < S.size()) {
    char C = S[I];
    if (std::isspace(static_cast<unsigned char>(C))) {
      ++I;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(C))) {
      size_t Start = I;
      while (I < S.size() && std::isdigit(static_cast<unsigned char>(S[I])))
        ++I;
      Push(TokKind::Int, Start, I - Start);
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      size_t Start = I;
      while (I < S.size() &&
             (std::isalnum(static_cast<unsigned char>(S[I])) || S[I] == '_'))
        ++I;
      std::string Word(S.substr(Start, I - Start));
      TokKind K = TokKind::Name;
      if (Word == "exists")
        K = TokKind::KwExists;
      else if (Word == "forall")
        K = TokKind::KwForall;
      else if (Word == "mod")
        K = TokKind::KwMod;
      else if (Word == "floor")
        K = TokKind::KwFloor;
      else if (Word == "ceil")
        K = TokKind::KwCeil;
      else if (Word == "TRUE" || Word == "true")
        K = TokKind::KwTrue;
      else if (Word == "FALSE" || Word == "false")
        K = TokKind::KwFalse;
      else if (Word == "and")
        K = TokKind::AndAnd;
      else if (Word == "or")
        K = TokKind::OrOr;
      else if (Word == "not")
        K = TokKind::Bang;
      Toks.push_back({K, std::move(Word), Start});
      continue;
    }
    auto Two = [&](char A, char B) {
      return C == A && I + 1 < S.size() && S[I + 1] == B;
    };
    if (Two('&', '&')) {
      Push(TokKind::AndAnd, I, 2);
      I += 2;
      continue;
    }
    if (Two('|', '|')) {
      Push(TokKind::OrOr, I, 2);
      I += 2;
      continue;
    }
    if (Two('<', '=')) {
      Push(TokKind::Le, I, 2);
      I += 2;
      continue;
    }
    if (Two('>', '=')) {
      Push(TokKind::Ge, I, 2);
      I += 2;
      continue;
    }
    if (Two('=', '=')) {
      Push(TokKind::Eq, I, 2);
      I += 2;
      continue;
    }
    if (Two('!', '=')) {
      Push(TokKind::Ne, I, 2);
      I += 2;
      continue;
    }
    switch (C) {
    case '(':
      Push(TokKind::LParen, I, 1);
      break;
    case ')':
      Push(TokKind::RParen, I, 1);
      break;
    case ',':
      Push(TokKind::Comma, I, 1);
      break;
    case ':':
      Push(TokKind::Colon, I, 1);
      break;
    case '+':
      Push(TokKind::Plus, I, 1);
      break;
    case '-':
      Push(TokKind::Minus, I, 1);
      break;
    case '*':
      Push(TokKind::Star, I, 1);
      break;
    case '/':
      Push(TokKind::Slash, I, 1);
      break;
    case '|':
      Push(TokKind::Bar, I, 1);
      break;
    case '!':
      Push(TokKind::Bang, I, 1);
      break;
    case '<':
      Push(TokKind::Lt, I, 1);
      break;
    case '>':
      Push(TokKind::Gt, I, 1);
      break;
    case '=':
      Push(TokKind::Eq, I, 1);
      break;
    default: {
      std::ostringstream OS;
      OS << "unexpected character '" << C << "' at offset " << I;
      Error = OS.str();
      return Toks;
    }
    }
    ++I;
  }
  Toks.push_back({TokKind::End, "", S.size()});
  return Toks;
}

/// Recursive-descent parser with token-index backtracking for the
/// atom-vs-parenthesized-formula ambiguity.
class Parser {
public:
  explicit Parser(std::vector<Token> Toks) : Toks(std::move(Toks)) {}

  std::optional<Formula> run(std::string &Error) {
    std::optional<Formula> F = parseOr();
    if (F && peek().Kind != TokKind::End)
      F = fail("trailing input");
    if (!F) {
      Error = Diag;
      return std::nullopt;
    }
    return F;
  }

private:
  const Token &peek(unsigned Ahead = 0) const {
    size_t I = std::min(Idx + Ahead, Toks.size() - 1);
    return Toks[I];
  }
  const Token &advance() { return Toks[Idx++]; }
  bool accept(TokKind K) {
    if (peek().Kind != K)
      return false;
    ++Idx;
    return true;
  }
  std::nullopt_t fail(const std::string &Msg) {
    // Keep the diagnostic from the furthest point reached.
    if (Diag.empty() || peek().Pos >= DiagPos) {
      std::ostringstream OS;
      OS << Msg << " at offset " << peek().Pos;
      Diag = OS.str();
      DiagPos = peek().Pos;
    }
    return std::nullopt;
  }
  bool expect(TokKind K, const char *What) {
    if (accept(K))
      return true;
    fail(std::string("expected ") + What);
    return false;
  }

  /// Parses an Int token's text through the fallible channel: the lexer
  /// only emits digit runs, but tool-facing input must never be able to
  /// reach BigInt's fatal-on-malformed string constructor.
  std::optional<BigInt> intValue(const Token &T) {
    BigInt V;
    if (!BigInt::fromString(T.Text, V)) {
      fail("malformed integer literal");
      return std::nullopt;
    }
    return V;
  }

  std::optional<Formula> parseOr() {
    std::optional<Formula> L = parseAnd();
    if (!L)
      return std::nullopt;
    std::vector<Formula> Parts{*L};
    while (accept(TokKind::OrOr)) {
      std::optional<Formula> R = parseAnd();
      if (!R)
        return std::nullopt;
      Parts.push_back(*R);
    }
    return Formula::disj(std::move(Parts));
  }

  std::optional<Formula> parseAnd() {
    std::optional<Formula> L = parseNot();
    if (!L)
      return std::nullopt;
    std::vector<Formula> Parts{*L};
    while (accept(TokKind::AndAnd)) {
      std::optional<Formula> R = parseNot();
      if (!R)
        return std::nullopt;
      Parts.push_back(*R);
    }
    return Formula::conj(std::move(Parts));
  }

  std::optional<Formula> parseNot() {
    if (accept(TokKind::Bang)) {
      std::optional<Formula> F = parseNot();
      if (!F)
        return std::nullopt;
      return Formula::negation(*F);
    }
    if (peek().Kind == TokKind::KwExists || peek().Kind == TokKind::KwForall) {
      bool IsExists = advance().Kind == TokKind::KwExists;
      if (!expect(TokKind::LParen, "'(' after quantifier"))
        return std::nullopt;
      VarSet Vars;
      do {
        if (peek().Kind != TokKind::Name) {
          fail("expected variable name");
          return std::nullopt;
        }
        Vars.insert(advance().Text);
      } while (accept(TokKind::Comma));
      if (!expect(TokKind::Colon, "':' after quantified variables"))
        return std::nullopt;
      std::optional<Formula> Body = parseOr();
      if (!Body)
        return std::nullopt;
      if (!expect(TokKind::RParen, "')' closing quantifier"))
        return std::nullopt;
      return IsExists ? Formula::exists(std::move(Vars), *Body)
                      : Formula::forall(std::move(Vars), *Body);
    }
    if (accept(TokKind::KwTrue))
      return Formula::trueFormula();
    if (accept(TokKind::KwFalse))
      return Formula::falseFormula();

    // Try an atom; on failure fall back to a parenthesized formula.
    size_t Save = Idx;
    if (std::optional<Formula> A = parseAtom())
      return A;
    Idx = Save;
    if (accept(TokKind::LParen)) {
      std::optional<Formula> F = parseOr();
      if (!F)
        return std::nullopt;
      if (!expect(TokKind::RParen, "')'"))
        return std::nullopt;
      return F;
    }
    fail("expected formula");
    return std::nullopt;
  }

  static bool isCmp(TokKind K) {
    return K == TokKind::Le || K == TokKind::Lt || K == TokKind::Ge ||
           K == TokKind::Gt || K == TokKind::Eq || K == TokKind::Ne;
  }

  /// One comparison; Ne expands to a disjunction.  Returns nullopt when
  /// \p Op is not a comparison token (the callers' isCmp guard makes that
  /// unreachable today, but a parse-layer helper must stay abort-free).
  static std::optional<Formula> buildCmp(const AffineExpr &A, TokKind Op,
                                         const AffineExpr &B) {
    switch (Op) {
    case TokKind::Le:
      return Formula::atom(Constraint::le(A, B));
    case TokKind::Lt:
      return Formula::atom(Constraint::lt(A, B));
    case TokKind::Ge:
      return Formula::atom(Constraint::ge(A, B));
    case TokKind::Gt:
      return Formula::atom(Constraint::gt(A, B));
    case TokKind::Eq:
      return Formula::atom(Constraint::eq(A, B));
    case TokKind::Ne:
      return Formula::disj({Formula::atom(Constraint::lt(A, B)),
                            Formula::atom(Constraint::gt(A, B))});
    default:
      return std::nullopt;
    }
  }

  std::optional<Formula> parseAtom() {
    // Stride atom: INT '|' expr.
    if (peek().Kind == TokKind::Int && peek(1).Kind == TokKind::Bar) {
      std::optional<BigInt> ModV = intValue(peek());
      if (!ModV)
        return std::nullopt;
      BigInt Mod = std::move(*ModV);
      Idx += 2;
      if (!Mod.isPositive()) {
        fail("stride modulus must be positive");
        return std::nullopt;
      }
      std::optional<LoweredExpr> E = parseExpr();
      if (!E)
        return std::nullopt;
      Formula Atom = Formula::atom(Constraint::stride(Mod, E->Expr));
      return wrapSide(std::move(Atom), E->Side);
    }

    std::optional<std::vector<LoweredExpr>> Prev = parseExprList();
    if (!Prev)
      return std::nullopt;
    if (!isCmp(peek().Kind)) {
      fail("expected comparison operator");
      return std::nullopt;
    }
    Conjunct Side;
    std::vector<Formula> Cmps;
    while (isCmp(peek().Kind)) {
      TokKind Op = advance().Kind;
      std::optional<std::vector<LoweredExpr>> Next = parseExprList();
      if (!Next)
        return std::nullopt;
      for (const LoweredExpr &A : *Prev)
        for (const LoweredExpr &B : *Next) {
          std::optional<Formula> Cmp = buildCmp(A.Expr, Op, B.Expr);
          if (!Cmp) {
            fail("expected comparison operator");
            return std::nullopt;
          }
          Cmps.push_back(std::move(*Cmp));
        }
      for (const LoweredExpr &A : *Prev)
        Side.addAll(A.Side);
      Prev = std::move(Next);
    }
    for (const LoweredExpr &A : *Prev)
      Side.addAll(A.Side);
    return wrapSide(Formula::conj(std::move(Cmps)), Side);
  }

  /// Conjoins floor/ceil/mod side conditions and binds their wildcards.
  static Formula wrapSide(Formula F, const Conjunct &Side) {
    if (Side.wildcards().empty() && Side.constraints().empty())
      return F;
    std::vector<Formula> Parts;
    for (const Constraint &C : Side.constraints())
      Parts.push_back(Formula::atom(C));
    Parts.push_back(std::move(F));
    return Formula::exists(Side.wildcards(), Formula::conj(std::move(Parts)));
  }

  std::optional<std::vector<LoweredExpr>> parseExprList() {
    std::vector<LoweredExpr> List;
    do {
      std::optional<LoweredExpr> E = parseExpr();
      if (!E)
        return std::nullopt;
      List.push_back(std::move(*E));
    } while (accept(TokKind::Comma));
    return List;
  }

  std::optional<LoweredExpr> parseExpr() {
    std::optional<LoweredExpr> L = parseTerm();
    if (!L)
      return std::nullopt;
    while (peek().Kind == TokKind::Plus || peek().Kind == TokKind::Minus) {
      bool Neg = advance().Kind == TokKind::Minus;
      std::optional<LoweredExpr> R = parseTerm();
      if (!R)
        return std::nullopt;
      L->Expr += Neg ? -R->Expr : R->Expr;
      L->Side.addAll(R->Side);
    }
    return L;
  }

  std::optional<LoweredExpr> parseTerm() {
    std::optional<LoweredExpr> L = parseFactor();
    if (!L)
      return std::nullopt;
    while (true) {
      if (accept(TokKind::Star)) {
        std::optional<LoweredExpr> R = parseFactor();
        if (!R)
          return std::nullopt;
        if (!L->Expr.isConstant() && !R->Expr.isConstant()) {
          fail("nonlinear product (one operand of '*' must be constant)");
          return std::nullopt;
        }
        if (L->Expr.isConstant()) {
          BigInt C = L->Expr.constant();
          L->Expr = R->Expr * C;
        } else {
          L->Expr *= R->Expr.constant();
        }
        L->Side.addAll(R->Side);
        continue;
      }
      if (peek().Kind == TokKind::KwMod) {
        advance();
        if (peek().Kind != TokKind::Int) {
          fail("expected integer modulus after 'mod'");
          return std::nullopt;
        }
        std::optional<BigInt> Mod = intValue(advance());
        if (!Mod)
          return std::nullopt;
        if (!Mod->isPositive()) {
          fail("modulus must be positive");
          return std::nullopt;
        }
        LoweredExpr M = lowerMod(L->Expr, *Mod);
        M.Side.addAll(L->Side);
        std::swap(M.Side, L->Side);
        L->Expr = std::move(M.Expr);
        continue;
      }
      break;
    }
    return L;
  }

  std::optional<LoweredExpr> parseFactor() {
    if (peek().Kind == TokKind::Int) {
      std::optional<BigInt> C = intValue(advance());
      if (!C)
        return std::nullopt;
      LoweredExpr E;
      E.Expr = AffineExpr(std::move(*C));
      return E;
    }
    if (peek().Kind == TokKind::Name) {
      LoweredExpr E;
      E.Expr = AffineExpr::variable(advance().Text);
      return E;
    }
    if (accept(TokKind::Minus)) {
      std::optional<LoweredExpr> E = parseFactor();
      if (!E)
        return std::nullopt;
      E->Expr = -E->Expr;
      return E;
    }
    if (accept(TokKind::LParen)) {
      std::optional<LoweredExpr> E = parseExpr();
      if (!E)
        return std::nullopt;
      if (!expect(TokKind::RParen, "')'"))
        return std::nullopt;
      return E;
    }
    if (peek().Kind == TokKind::KwFloor || peek().Kind == TokKind::KwCeil) {
      bool IsFloor = advance().Kind == TokKind::KwFloor;
      if (!expect(TokKind::LParen, "'(' after floor/ceil"))
        return std::nullopt;
      std::optional<LoweredExpr> E = parseExpr();
      if (!E)
        return std::nullopt;
      if (!expect(TokKind::Slash, "'/' in floor/ceil"))
        return std::nullopt;
      if (peek().Kind != TokKind::Int) {
        fail("expected integer divisor");
        return std::nullopt;
      }
      std::optional<BigInt> DivV = intValue(advance());
      if (!DivV)
        return std::nullopt;
      BigInt Div = std::move(*DivV);
      if (!Div.isPositive()) {
        fail("divisor must be positive");
        return std::nullopt;
      }
      if (!expect(TokKind::RParen, "')' closing floor/ceil"))
        return std::nullopt;
      LoweredExpr R =
          IsFloor ? lowerFloor(E->Expr, Div) : lowerCeil(E->Expr, Div);
      R.Side.addAll(E->Side);
      return R;
    }
    fail("expected expression");
    return std::nullopt;
  }

  std::vector<Token> Toks;
  size_t Idx = 0;
  std::string Diag;
  size_t DiagPos = 0;
};

} // namespace

ParseResult omega::parseFormula(std::string_view Text) {
  ParseResult R;
  std::string LexError;
  std::vector<Token> Toks = lex(Text, LexError);
  if (!LexError.empty()) {
    R.Error = LexError;
    return R;
  }
  // Under an active EffortBudget, oversized literals are rejected here as
  // ordinary parse diagnostics (not BudgetExceeded throws) so malformed
  // input never reaches the solver at all.
  if (const BudgetState *B = activeBudget()) {
    if (uint64_t MaxBits = B->Limits.MaxCoefficientBits) {
      for (const Token &T : Toks) {
        BigInt V;
        if (T.Kind == TokKind::Int &&
            (!BigInt::fromString(T.Text, V) || V.bitWidth() > MaxBits)) {
          R.Error = "integer literal exceeds budget bits=" +
                    std::to_string(MaxBits) + " at offset " +
                    std::to_string(T.Pos);
          return R;
        }
      }
    }
  }
  Parser P(std::move(Toks));
  std::string ParseError;
  R.Value = P.run(ParseError);
  if (!R.Value)
    R.Error = ParseError.empty() ? "parse error" : ParseError;
  return R;
}

Formula omega::parseFormulaOrDie(std::string_view Text) {
  ParseResult R = parseFormula(Text);
  check(bool(R), "formula literal failed to parse");
  return *R.Value;
}
