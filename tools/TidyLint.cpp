//===- tools/TidyLint.cpp - omegatidy lint engine ------------------------===//
//
// Token-level enforcement of the repo invariants listed in TidyLint.h.
// The tokenizer is deliberately small: it understands comments, string and
// character literals, preprocessor lines, and qualified identifiers, which
// is exactly enough for rules that trigger on spellings (`assert(`,
// `std::mutex`, `new`) and on the shape of class bodies (guarded-by).
//
//===----------------------------------------------------------------------===//

#include "TidyLint.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <sstream>

using namespace omega;
using namespace omega::tidy;

std::string Finding::toString() const {
  std::ostringstream OS;
  OS << Path << ":" << Line << ":" << Col << ": " << Rule << ": " << Message;
  return OS.str();
}

namespace {

enum class Tk { Ident, Number, String, Punct };

struct Token {
  Tk Kind;
  std::string Text;
  size_t Line;
  size_t Col;
};

/// Per-line rule suppressions harvested from `omegatidy: allow(...)`
/// comments.  A comment on line N silences lines N and N+1.
using Suppressions = std::map<size_t, std::set<std::string>>;

void recordAllows(const std::string &Comment, size_t Line, Suppressions &S) {
  const std::string Key = "omegatidy: allow(";
  size_t At = Comment.find(Key);
  if (At == std::string::npos)
    return;
  size_t Begin = At + Key.size();
  size_t End = Comment.find(')', Begin);
  if (End == std::string::npos)
    return;
  std::string Rule;
  for (size_t I = Begin; I <= End; ++I) {
    char C = I < End ? Comment[I] : ',';
    if (C == ',' || C == ' ') {
      if (!Rule.empty()) {
        S[Line].insert(Rule);
        S[Line + 1].insert(Rule);
      }
      Rule.clear();
    } else {
      Rule += C;
    }
  }
}

/// Tokenizes C++ source.  Comments and preprocessor directives are
/// consumed (not emitted); suppression comments land in \p Sup, directive
/// lines (with continuations folded) in \p Directives as (line, text).
/// Qualified identifiers (`std::mutex`, `omega::Mutex`) merge into one
/// token; `>>` splits into two `>` so template depth tracking is trivial.
std::vector<Token> tokenize(const std::string &Text, Suppressions &Sup,
                            std::vector<std::pair<size_t, std::string>>
                                &Directives) {
  std::vector<Token> Out;
  size_t Line = 1, Col = 1;
  size_t I = 0, N = Text.size();
  bool AtLineStart = true;

  auto advance = [&](char C) {
    if (C == '\n') {
      ++Line;
      Col = 1;
      AtLineStart = true;
    } else {
      ++Col;
      if (!std::isspace(static_cast<unsigned char>(C)))
        AtLineStart = false;
    }
  };

  while (I < N) {
    char C = Text[I];
    // Whitespace.
    if (std::isspace(static_cast<unsigned char>(C))) {
      advance(C);
      ++I;
      continue;
    }
    // Line comment.
    if (C == '/' && I + 1 < N && Text[I + 1] == '/') {
      size_t End = Text.find('\n', I);
      if (End == std::string::npos)
        End = N;
      recordAllows(Text.substr(I, End - I), Line, Sup);
      while (I < End)
        advance(Text[I++]);
      continue;
    }
    // Block comment.
    if (C == '/' && I + 1 < N && Text[I + 1] == '*') {
      size_t End = Text.find("*/", I + 2);
      if (End == std::string::npos)
        End = N;
      else
        End += 2;
      recordAllows(Text.substr(I, End - I), Line, Sup);
      while (I < End)
        advance(Text[I++]);
      continue;
    }
    // Preprocessor directive: swallow to end of line, folding
    // backslash-continuations, and save the text for the line rules.
    if (C == '#' && AtLineStart) {
      size_t StartLine = Line;
      std::string Dir;
      while (I < N) {
        char D = Text[I];
        if (D == '\n') {
          if (!Dir.empty() && Dir.back() == '\\') {
            Dir.pop_back();
            advance(D);
            ++I;
            continue;
          }
          break;
        }
        // A comment ends the directive text but not the line scan.
        if (D == '/' && I + 1 < N &&
            (Text[I + 1] == '/' || Text[I + 1] == '*'))
          break;
        Dir += D;
        advance(D);
        ++I;
      }
      Directives.emplace_back(StartLine, Dir);
      continue;
    }
    // String / char literal (handles escapes; raw strings are not used in
    // this repo, and a raw string would only make the linter conservative).
    if (C == '"' || C == '\'') {
      size_t StartLine = Line, StartCol = Col;
      char Quote = C;
      advance(C);
      ++I;
      std::string Body;
      while (I < N && Text[I] != Quote) {
        if (Text[I] == '\\' && I + 1 < N) {
          Body += Text[I];
          advance(Text[I++]);
        }
        Body += Text[I];
        advance(Text[I++]);
      }
      if (I < N) {
        advance(Text[I]);
        ++I;
      }
      Out.push_back({Tk::String, Body, StartLine, StartCol});
      continue;
    }
    // Identifier, possibly qualified.
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      size_t StartLine = Line, StartCol = Col;
      std::string Id;
      while (I < N && (std::isalnum(static_cast<unsigned char>(Text[I])) ||
                       Text[I] == '_')) {
        Id += Text[I];
        advance(Text[I++]);
      }
      while (I + 1 < N && Text[I] == ':' && Text[I + 1] == ':') {
        size_t J = I + 2;
        if (J >= N || (!std::isalpha(static_cast<unsigned char>(Text[J])) &&
                       Text[J] != '_'))
          break;
        Id += "::";
        advance(Text[I++]);
        advance(Text[I++]);
        while (I < N && (std::isalnum(static_cast<unsigned char>(Text[I])) ||
                         Text[I] == '_')) {
          Id += Text[I];
          advance(Text[I++]);
        }
      }
      Out.push_back({Tk::Ident, Id, StartLine, StartCol});
      continue;
    }
    // Number (loose: accepts hex/float tails, which is fine — no rule
    // looks inside numbers).
    if (std::isdigit(static_cast<unsigned char>(C))) {
      size_t StartLine = Line, StartCol = Col;
      std::string Num;
      while (I < N && (std::isalnum(static_cast<unsigned char>(Text[I])) ||
                       Text[I] == '.' || Text[I] == '\'')) {
        Num += Text[I];
        advance(Text[I++]);
      }
      Out.push_back({Tk::Number, Num, StartLine, StartCol});
      continue;
    }
    // Punctuation, one char at a time (`>>` becomes `>` `>`).
    Out.push_back({Tk::Punct, std::string(1, C), Line, Col});
    advance(C);
    ++I;
  }
  return Out;
}

bool startsWith(const std::string &S, const char *Prefix) {
  return S.rfind(Prefix, 0) == 0;
}

bool endsWith(const std::string &S, const std::string &Suffix) {
  return S.size() >= Suffix.size() &&
         S.compare(S.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
}

/// The engine: tokenizes once, then runs every rule.
class Linter {
public:
  Linter(const std::string &Path, const std::string &RelPath,
         const std::string &Text)
      : Path(Path), RelPath(RelPath),
        IsHeader(endsWith(RelPath, ".h")),
        Toks(tokenize(Text, Sup, Directives)) {}

  std::vector<Finding> run() {
    tokenRules();
    directiveRules();
    if (IsHeader)
      headerGuardRule();
    std::sort(Out.begin(), Out.end(), [](const Finding &A, const Finding &B) {
      return std::tie(A.Line, A.Col, A.Rule) < std::tie(B.Line, B.Col, B.Rule);
    });
    return std::move(Out);
  }

private:
  const std::string Path;
  const std::string RelPath;
  const bool IsHeader;
  Suppressions Sup;
  std::vector<std::pair<size_t, std::string>> Directives;
  std::vector<Token> Toks;
  std::vector<Finding> Out;

  void report(const Token &At, const char *Rule, const std::string &Msg) {
    auto It = Sup.find(At.Line);
    if (It != Sup.end() && It->second.count(Rule))
      return;
    Out.push_back({Path, At.Line, At.Col, Rule, Msg});
  }

  const Token *next(size_t I) const {
    return I + 1 < Toks.size() ? &Toks[I + 1] : nullptr;
  }

  // --- Rules over the token stream --------------------------------------

  void tokenRules() {
    const bool InSrc = startsWith(RelPath, "src/");
    const bool IsBigInt = RelPath == "src/support/BigInt.cpp";
    const bool IsAnnotations = RelPath == "src/support/ThreadAnnotations.h";
    const bool IsTrace = RelPath == "src/support/Trace.h" ||
                         RelPath == "src/support/Trace.cpp";

    static const char *RawSync[] = {
        "std::mutex",          "std::timed_mutex",
        "std::recursive_mutex", "std::recursive_timed_mutex",
        "std::shared_mutex",    "std::shared_timed_mutex",
        "std::lock_guard",      "std::unique_lock",
        "std::scoped_lock",     "std::shared_lock",
        "std::condition_variable", "std::condition_variable_any"};

    for (size_t I = 0; I < Toks.size(); ++I) {
      const Token &T = Toks[I];
      if (T.Kind != Tk::Ident)
        continue;
      const Token *Nx = next(I);
      const Token *Pv = I > 0 ? &Toks[I - 1] : nullptr;

      if (InSrc && T.Text == "assert" && Nx && Nx->Text == "(")
        report(T, "assert",
               "assert() in src/ compiles out under NDEBUG; use check() / "
               "fatalError() or return a Result (DESIGN.md §9)");

      if (!IsBigInt) {
        bool AfterOperator = Pv && Pv->Kind == Tk::Ident &&
                             (Pv->Text == "operator" ||
                              endsWith(Pv->Text, "::operator"));
        // Placement new ("new (addr) T{...}") constructs into storage the
        // caller already owns; only allocating new is a lifetime hazard.
        bool Placement = Nx && Nx->Text == "(";
        if (T.Text == "new" && !AfterOperator && !Placement)
          report(T, "naked-new",
                 "naked new; own memory with containers or smart pointers "
                 "(only support/BigInt.cpp spill paths are exempt)");
        if ((T.Text == "malloc" || T.Text == "calloc" ||
             T.Text == "realloc" || T.Text == "free" ||
             endsWith(T.Text, "::malloc") || endsWith(T.Text, "::calloc") ||
             endsWith(T.Text, "::realloc") || endsWith(T.Text, "::free")) &&
            Nx && Nx->Text == "(")
          report(T, "naked-new",
                 "raw " + T.Text + "(); own memory with containers or smart "
                 "pointers (only support/BigInt.cpp spill paths are exempt)");
      }

      if (!IsAnnotations)
        for (const char *Raw : RawSync)
          if (T.Text == Raw)
            report(T, "mutex-wrapper",
                   T.Text + " is invisible to -Wthread-safety; use "
                   "omega::Mutex / MutexLock / UniqueLock / "
                   "ConditionVariable from support/ThreadAnnotations.h");

      // String-keyed variable containers reintroduce per-term string
      // compares/hashes on IR paths; only the parser and the Var boundary
      // may map names, everything else keys on interned VarIds.
      if (InSrc && !startsWith(RelPath, "src/presburger/Parser") &&
          !startsWith(RelPath, "src/presburger/Var") &&
          (T.Text == "std::map" || T.Text == "std::unordered_map") &&
          I + 4 < Toks.size() && Toks[I + 1].Text == "<" &&
          Toks[I + 2].Text == "std::string" && Toks[I + 3].Text == ",") {
        const std::string &Val = Toks[I + 4].Text;
        if (Val == "BigInt" || Val == "omega::BigInt" || Val == "VarId" ||
            Val == "omega::VarId")
          report(T, "string-keyed-vars",
                 T.Text + "<std::string, " + Val + "> on an IR path; "
                 "intern names into VarId (presburger/VarTable.h) and key "
                 "on ids (DESIGN.md §16)");
      }

      if (!IsTrace &&
          (T.Text == "TraceSpan" || endsWith(T.Text, "::TraceSpan")) && Nx &&
          (Nx->Text == "(" || Nx->Text == "{"))
        report(T, "trace-span-temp",
               "unnamed temporary TraceSpan is destroyed immediately and "
               "times nothing; name the span object");

      if (IsHeader && T.Text == "using" && Nx && Nx->Kind == Tk::Ident &&
          Nx->Text == "namespace")
        report(T, "include-hygiene",
               "`using namespace` in a header leaks into every includer");

      // The process-global knob setters were retired with the omegad
      // redesign; any surviving reference (call, declaration, or shim) is
      // a regression toward cross-query mutable state.
      static const char *LegacyKnobs[] = {
          "setWorkerCount", "setConjunctCacheCapacity", "setArithOpCounting"};
      for (const char *Knob : LegacyKnobs)
        if (T.Text == Knob || endsWith(T.Text, std::string("::") + Knob))
          report(T, "legacy-knob",
                 T.Text + " was removed with the global-knob API; pass "
                 "CountOptions per query (omega/Omega.h) or configure the "
                 "server via ServerOptions (DESIGN.md §17)");

      // A query's environment lives in its QueryContext, reached through
      // the one thread-local context pointer; another thread_local is
      // either more per-query state that belongs there or per-thread
      // storage that must say why it is not.
      if (InSrc && T.Text == "thread_local")
        report(T, "thread-local",
               "thread_local in src/; per-query state belongs in the "
               "QueryContext (support/QueryContext.h), and per-thread "
               "storage needs `omegatidy: allow(thread-local)` with a "
               "reason (DESIGN.md §13)");
    }

    guardedByRule();
  }

  // --- guarded-by: classes holding a Mutex ------------------------------

  struct Member {
    std::vector<Token> Tokens;
  };

  /// True when \p M declares a by-value member of capability type Mutex.
  static bool declaresMutex(const Member &M) {
    for (size_t I = 0; I + 1 < M.Tokens.size(); ++I) {
      const Token &T = M.Tokens[I];
      if (T.Kind == Tk::Ident &&
          (T.Text == "Mutex" || T.Text == "omega::Mutex") &&
          M.Tokens[I + 1].Kind == Tk::Ident)
        return true;
    }
    return false;
  }

  /// True when the statement can only be a function or type declaration,
  /// not mutable lock-protected data.
  static bool exemptMember(const Member &M) {
    if (M.Tokens.empty())
      return true;
    static const char *Skip[] = {"using",  "typedef",   "friend",
                                 "static", "constexpr", "operator",
                                 "explicit", "template", "class",
                                 "struct", "enum",      "virtual"};
    size_t Angle = 0;
    for (size_t I = 0; I < M.Tokens.size(); ++I) {
      const Token &T = M.Tokens[I];
      if (T.Kind == Tk::Ident) {
        for (const char *S : Skip)
          if (T.Text == S)
            return true;
        if (T.Text == "OMEGA_GUARDED_BY" || T.Text == "OMEGA_PT_GUARDED_BY")
          return true; // Annotated: satisfied.
        if (T.Text == "const" && I == 0)
          return true; // Immutable after construction.
        if (T.Text.find("atomic") != std::string::npos)
          return true; // std::atomic<...>: safe unguarded.
        if (T.Text == "ConditionVariable" ||
            endsWith(T.Text, "::ConditionVariable"))
          return true; // Internally synchronized.
        if (T.Text == "Mutex" || T.Text == "omega::Mutex")
          return true; // The capability itself.
      } else if (T.Kind == Tk::Punct) {
        if (T.Text == "<" && I > 0 && M.Tokens[I - 1].Kind == Tk::Ident)
          ++Angle;
        else if (T.Text == ">" && Angle > 0)
          --Angle;
        else if (T.Text == "(" && Angle == 0)
          return true; // Function declaration.
        else if (T.Text == "=" && Angle == 0)
          break; // Initializer: judge only the declaration part.
      }
    }
    return false;
  }

  static std::string memberName(const Member &M) {
    std::string Name = "<member>";
    size_t Angle = 0;
    for (size_t I = 0; I < M.Tokens.size(); ++I) {
      const Token &T = M.Tokens[I];
      if (T.Kind == Tk::Punct) {
        if (T.Text == "<" && I > 0 && M.Tokens[I - 1].Kind == Tk::Ident)
          ++Angle;
        else if (T.Text == ">" && Angle > 0)
          --Angle;
        else if ((T.Text == "=" || T.Text == "[") && Angle == 0)
          break;
      } else if (T.Kind == Tk::Ident && Angle == 0) {
        Name = T.Text;
      }
    }
    return Name;
  }

  /// Skips Toks[I] (an opening brace/paren/bracket) to its match; returns
  /// the index after the closer.
  size_t skipBalanced(size_t I, const char *Open, const char *Close) const {
    int Depth = 0;
    for (; I < Toks.size(); ++I) {
      if (Toks[I].Kind != Tk::Punct)
        continue;
      if (Toks[I].Text == Open)
        ++Depth;
      else if (Toks[I].Text == Close && --Depth == 0)
        return I + 1;
    }
    return I;
  }

  void guardedByRule() {
    if (RelPath == "src/support/ThreadAnnotations.h")
      return; // MutexLock/UniqueLock hold the Mutex by design.
    for (size_t I = 0; I < Toks.size(); ++I) {
      const Token &T = Toks[I];
      if (T.Kind != Tk::Ident || (T.Text != "class" && T.Text != "struct"))
        continue;
      if (I > 0 && Toks[I - 1].Kind == Tk::Ident &&
          Toks[I - 1].Text == "enum")
        continue;
      // Find the body '{' (or give up at ';' — forward declaration, or
      // '(' — elaborated type in a parameter).
      size_t J = I + 1;
      while (J < Toks.size() && Toks[J].Text != "{" && Toks[J].Text != ";" &&
             Toks[J].Text != "(" && Toks[J].Text != ")" &&
             Toks[J].Text != "=")
        ++J;
      if (J >= Toks.size() || Toks[J].Text != "{")
        continue;
      lintClassBody(J);
    }
  }

  /// Collects the direct data-member statements of the class body opening
  /// at Toks[Open] and applies the guarded-by judgement.
  void lintClassBody(size_t Open) {
    std::vector<Member> Members;
    Member Cur;
    size_t I = Open + 1;
    while (I < Toks.size() && Toks[I].Text != "}") {
      const Token &T = Toks[I];
      if (T.Kind == Tk::Punct && (T.Text == "{" || T.Text == "(")) {
        const char *Close = T.Text == "{" ? "}" : ")";
        size_t After = skipBalanced(I, T.Text.c_str(), Close);
        if (T.Text == "{" &&
            !(After < Toks.size() && Toks[After].Text == ";")) {
          // Function body (not a brace-init followed by ';'): statement
          // over, nothing declared.
          Cur = Member{};
          I = After;
          continue;
        }
        // Brace-init or parameter list: keep judging the declaration; a
        // '(' records as a token so exemptMember sees function shapes.
        if (T.Text == "(")
          Cur.Tokens.push_back(T);
        I = After;
        continue;
      }
      if (T.Kind == Tk::Punct && T.Text == ";") {
        if (!Cur.Tokens.empty())
          Members.push_back(std::move(Cur));
        Cur = Member{};
        ++I;
        continue;
      }
      if (T.Kind == Tk::Ident &&
          (T.Text == "public" || T.Text == "private" ||
           T.Text == "protected") &&
          next(I) && next(I)->Text == ":") {
        Cur = Member{};
        I += 2;
        continue;
      }
      Cur.Tokens.push_back(T);
      ++I;
    }

    if (!std::any_of(Members.begin(), Members.end(), declaresMutex))
      return;
    for (const Member &M : Members) {
      if (exemptMember(M))
        continue;
      const Token &At = M.Tokens.front();
      report(At, "guarded-by",
             "field '" + memberName(M) + "' shares a class with a Mutex "
             "but has no OMEGA_GUARDED_BY annotation (DESIGN.md §13)");
    }
  }

  // --- Rules over preprocessor directives -------------------------------

  void directiveRules() {
    const bool InSrc = startsWith(RelPath, "src/");
    const bool IsAnnotations = RelPath == "src/support/ThreadAnnotations.h";
    for (const auto &[Line, Text] : Directives) {
      std::string Dir = Text;
      Dir.erase(std::remove_if(Dir.begin(), Dir.end(),
                               [](char C) { return C == ' ' || C == '\t'; }),
                Dir.end());
      if (!startsWith(Dir, "#include"))
        continue;
      Token At{Tk::Punct, "#", Line, 1};
      std::string Target = Dir.substr(8);
      if (InSrc && (Target == "<cassert>" || Target == "<assert.h>"))
        report(At, "assert",
               "including " + Target + " in src/; invariants use check() / "
               "fatalError() from support/Error.h");
      if (!IsAnnotations &&
          (Target == "<mutex>" || Target == "<condition_variable>"))
        report(At, "mutex-wrapper",
               "include support/ThreadAnnotations.h instead of " + Target +
               "; raw standard-library locks are invisible to "
               "-Wthread-safety");
      if (Target.size() > 1 && Target[0] == '"' &&
          Target.find("..") != std::string::npos)
        report(At, "include-hygiene",
               "quoted include escapes with \"..\"; include paths are "
               "rooted at src/");
    }
  }

  // --- Header guard ------------------------------------------------------

  void headerGuardRule() {
    std::string Expected = expectedHeaderGuard(RelPath);
    std::string IfndefName, DefineName;
    size_t IfndefLine = 1;
    for (const auto &[Line, Text] : Directives) {
      std::istringstream IS(Text);
      std::string Hash, Name;
      IS >> Hash >> Name;
      if (Hash == "#ifndef" && IfndefName.empty()) {
        IfndefName = Name;
        IfndefLine = Line;
      } else if (Hash == "#define" && !IfndefName.empty() &&
                 DefineName.empty()) {
        DefineName = Name;
      }
    }
    Token At{Tk::Punct, "#", IfndefLine, 1};
    if (IfndefName.empty() || DefineName != IfndefName) {
      report(At, "header-guard",
             "header lacks a complete #ifndef/#define guard (expected " +
                 Expected + ")");
      return;
    }
    if (IfndefName != Expected)
      report(At, "header-guard",
             "guard " + IfndefName + " does not spell the path; expected " +
                 Expected);
  }
};

} // namespace

std::string tidy::expectedHeaderGuard(const std::string &RelPath) {
  std::vector<std::string> Parts;
  std::string Cur;
  for (char C : RelPath) {
    if (C == '/') {
      if (!Cur.empty())
        Parts.push_back(Cur);
      Cur.clear();
    } else {
      Cur += C;
    }
  }
  if (!Cur.empty())
    Parts.push_back(Cur);
  if (!Parts.empty() && Parts.front() == "src")
    Parts.erase(Parts.begin());
  if (!Parts.empty() && endsWith(Parts.back(), ".h"))
    Parts.back().resize(Parts.back().size() - 2);
  std::string Guard = "OMEGA";
  for (const std::string &P : Parts) {
    Guard += '_';
    for (char C : P)
      if (std::isalnum(static_cast<unsigned char>(C)))
        Guard += static_cast<char>(
            std::toupper(static_cast<unsigned char>(C)));
  }
  return Guard + "_H";
}

std::vector<Finding> tidy::lintSource(const std::string &Path,
                                      const std::string &RelPath,
                                      const std::string &Text) {
  return Linter(Path, RelPath, Text).run();
}
