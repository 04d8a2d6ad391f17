//===-- obs/Json.cpp - Metrics JSON export and helpers --------------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "obs/Json.h"

#include <cctype>
#include <cfloat>
#include <clocale>
#include <cmath>
#include <cstdio>
#include <cstring>

using namespace pgsd;
using namespace pgsd::obs;

namespace {

/// Rewrites whatever decimal separator the C locale produced into the
/// '.' JSON requires. The separator can be multi-byte (localeconv()
/// reports it), so replace the reported string, not just ','.
std::string normalizeDecimalPoint(const char *Buf) {
  const char *Sep = ".";
  if (const struct lconv *LC = localeconv())
    if (LC->decimal_point && LC->decimal_point[0])
      Sep = LC->decimal_point;
  std::string Out;
  size_t SepLen = std::strlen(Sep);
  for (const char *P = Buf; *P;) {
    if (SepLen && std::strncmp(P, Sep, SepLen) == 0) {
      Out += '.';
      P += SepLen;
    } else {
      Out += *P++;
    }
  }
  return Out;
}

/// Clamps non-finite values to representable JSON numbers.
double clampFinite(double Value) {
  if (std::isnan(Value))
    return 0.0;
  if (std::isinf(Value))
    return Value > 0 ? DBL_MAX : -DBL_MAX;
  return Value;
}

} // namespace

std::string obs::jsonNumber(double Value) {
  Value = clampFinite(Value);
  char Buf[64];
  // %.17g round-trips every double; try shorter forms first so common
  // values print compactly ("0.25", not "0.25000000000000000").
  for (int Prec = 6; Prec <= 17; Prec += (Prec == 6 ? 9 : 2)) {
    std::snprintf(Buf, sizeof(Buf), "%.*g", Prec, Value);
    double Back = 0.0;
    std::sscanf(Buf, "%lf", &Back);
    if (Back == Value)
      break;
  }
  return normalizeDecimalPoint(Buf);
}

std::string obs::jsonUInt(uint64_t Value) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%llu",
                static_cast<unsigned long long>(Value));
  return Buf;
}

namespace {

/// Appends the JSON escape of \p S to \p Out.
void appendEscaped(std::string &Out, std::string_view S) {
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += static_cast<char>(C);
      }
    }
  }
}

} // namespace

std::string obs::jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  appendEscaped(Out, S);
  return Out;
}

std::string obs::jsonString(std::string_view S) {
  // One reserved buffer: concatenating "\"" + jsonEscape(S) + "\"" trips
  // a false -Wrestrict in GCC 12's inlined prepend at -O3.
  std::string Out;
  Out.reserve(S.size() + 2);
  Out += '"';
  appendEscaped(Out, S);
  Out += '"';
  return Out;
}

//===----------------------------------------------------------------------===//
// metrics.json emission
//===----------------------------------------------------------------------===//

namespace {

template <typename MapT, typename EmitValue>
void emitSection(std::string &Out, const char *Key, const MapT &Map,
                 bool Last, EmitValue Emit) {
  Out += "  \"";
  Out += Key;
  Out += "\": {";
  bool First = true;
  for (const auto &[Name, Value] : Map) {
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "    " + jsonString(Name) + ": ";
    Emit(Out, Value);
  }
  Out += First ? "}" : "\n  }";
  Out += Last ? "\n" : ",\n";
}

} // namespace

std::string obs::metricsToJson(const LocalMetrics &Snap) {
  std::string Out = "{\n  \"schema\": \"pgsd-metrics-v1\",\n";
  emitSection(Out, "counters", Snap.Counters, false,
              [](std::string &O, uint64_t V) { O += jsonUInt(V); });
  emitSection(Out, "gauges", Snap.Gauges, false,
              [](std::string &O, double V) { O += jsonNumber(V); });
  emitSection(Out, "phases", Snap.Phases, false,
              [](std::string &O, const PhaseStats &S) {
                O += "{\"count\": " + jsonUInt(S.Count) +
                     ", \"wall_s\": " + jsonNumber(S.WallSeconds) +
                     ", \"cpu_s\": " + jsonNumber(S.CpuSeconds) + "}";
              });
  emitSection(Out, "histograms", Snap.Histograms, true,
              [](std::string &O, const HistogramData &H) {
                O += "{\"upper_bounds\": [";
                for (size_t I = 0; I != H.UpperBounds.size(); ++I) {
                  if (I)
                    O += ", ";
                  O += jsonNumber(H.UpperBounds[I]);
                }
                O += "], \"counts\": [";
                for (size_t I = 0; I != H.Counts.size(); ++I) {
                  if (I)
                    O += ", ";
                  O += jsonUInt(H.Counts[I]);
                }
                O += "], \"total\": " + jsonUInt(H.Total) + "}";
              });
  Out += "}\n";
  return Out;
}

bool obs::writeMetricsJson(const std::string &Path,
                           const LocalMetrics &Snap) {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  std::string Json = metricsToJson(Snap);
  size_t Written = std::fwrite(Json.data(), 1, Json.size(), Out);
  bool OK = Written == Json.size();
  return std::fclose(Out) == 0 && OK;
}

bool obs::writeMetricsJson(const std::string &Path) {
  return writeMetricsJson(Path, Registry::global().snapshot());
}

//===----------------------------------------------------------------------===//
// Strict JSON syntax validation
//===----------------------------------------------------------------------===//

namespace {

/// Recursive-descent JSON syntax walker (builds no tree).
class JsonScanner {
public:
  explicit JsonScanner(std::string_view T) : Text(T) {}

  bool run(std::string *Error) {
    skipWs();
    bool OK = value() && (skipWs(), Pos == Text.size());
    if (!OK && Error) {
      *Error = "JSON syntax error at byte " + std::to_string(Pos) +
               (Reason.empty() ? "" : ": " + Reason);
    }
    return OK;
  }

private:
  std::string_view Text;
  size_t Pos = 0;
  std::string Reason;

  bool fail(const char *Why) {
    if (Reason.empty())
      Reason = Why;
    return false;
  }

  int peek() const {
    return Pos < Text.size() ? static_cast<unsigned char>(Text[Pos]) : -1;
  }

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool literal(const char *Word) {
    size_t Len = std::strlen(Word);
    if (Text.substr(Pos, Len) != Word)
      return fail("bad literal");
    Pos += Len;
    return true;
  }

  bool value() {
    // Defensive depth limit (metrics files nest 3 deep).
    if (++Depth > 64)
      return fail("nesting too deep");
    bool OK = valueInner();
    --Depth;
    return OK;
  }
  unsigned Depth = 0;

  bool valueInner() {
    switch (peek()) {
    case '{':
      return object();
    case '[':
      return array();
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return number();
    }
  }

  bool object() {
    ++Pos; // '{'
    skipWs();
    if (peek() == '}') {
      ++Pos;
      return true;
    }
    for (;;) {
      skipWs();
      if (peek() != '"')
        return fail("expected object key");
      if (!string())
        return false;
      skipWs();
      if (peek() != ':')
        return fail("expected ':'");
      ++Pos;
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      if (peek() == '}') {
        ++Pos;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool array() {
    ++Pos; // '['
    skipWs();
    if (peek() == ']') {
      ++Pos;
      return true;
    }
    for (;;) {
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      if (peek() == ']') {
        ++Pos;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool string() {
    ++Pos; // '"'
    while (Pos < Text.size()) {
      unsigned char C = Text[Pos];
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (C < 0x20)
        return fail("raw control character in string");
      if (C == '\\') {
        ++Pos;
        switch (peek()) {
        case '"':
        case '\\':
        case '/':
        case 'b':
        case 'f':
        case 'n':
        case 'r':
        case 't':
          ++Pos;
          break;
        case 'u': {
          ++Pos;
          for (int I = 0; I != 4; ++I, ++Pos)
            if (!std::isxdigit(peek()))
              return fail("bad \\u escape");
          break;
        }
        default:
          return fail("bad escape");
        }
      } else {
        ++Pos;
      }
    }
    return fail("unterminated string");
  }

  bool number() {
    size_t Start = Pos;
    if (peek() == '-')
      ++Pos;
    if (peek() == '0') {
      ++Pos;
    } else if (std::isdigit(peek())) {
      while (std::isdigit(peek()))
        ++Pos;
    } else {
      return fail("expected value");
    }
    if (peek() == '.') {
      ++Pos;
      if (!std::isdigit(peek()))
        return fail("digit required after '.'");
      while (std::isdigit(peek()))
        ++Pos;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++Pos;
      if (peek() == '+' || peek() == '-')
        ++Pos;
      if (!std::isdigit(peek()))
        return fail("digit required in exponent");
      while (std::isdigit(peek()))
        ++Pos;
    }
    return Pos != Start;
  }
};

} // namespace

bool obs::validateJson(std::string_view Text, std::string *Error) {
  return JsonScanner(Text).run(Error);
}
