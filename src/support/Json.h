//===- support/Json.h - JSON string escaping --------------------*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one JSON string escaper, shared by the trace exporter and the bench
/// emitters.  It escapes '"' and '\', writes newline and tab as \n and \t,
/// and every other control character below 0x20 as \u00XX, so any byte
/// string becomes a valid JSON string body (UTF-8 passes through as is).
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_SUPPORT_JSON_H
#define OMEGA_SUPPORT_JSON_H

#include <cstdio>
#include <string>
#include <string_view>

namespace omega {

/// The body of a JSON string literal holding \p S (no surrounding quotes).
inline std::string jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Hex[8];
        std::snprintf(Hex, sizeof(Hex), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(C)));
        Out += Hex;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

} // namespace omega

#endif // OMEGA_SUPPORT_JSON_H
