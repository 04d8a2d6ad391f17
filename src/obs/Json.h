//===-- obs/Json.h - Metrics JSON export and helpers -------------*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// JSON export for the metrics registry, plus the low-level formatting
/// helpers every JSON writer in the repo (metrics.json, BENCH_*.json)
/// routes numbers and strings through. Two classes of latent bugs live
/// at this boundary and are fixed centrally here:
///
///  * Non-finite doubles: NaN and +/-inf are not valid JSON. A zero
///    denominator in a ratio (e.g. a sub-resolution timing) must not
///    poison a whole report file, so jsonNumber() clamps: NaN -> 0,
///    +/-inf -> +/-DBL_MAX (documented, pinned by ObsTest).
///  * Locale-dependent formatting: printf "%f" renders the decimal
///    separator from LC_NUMERIC ("3,14" under de_DE), which is invalid
///    JSON. jsonNumber() normalizes the separator to '.' regardless of
///    the process locale.
///
/// metrics.json schema ("pgsd-metrics-v1"; see DESIGN.md for field
/// semantics):
///
/// \code
///   {
///     "schema": "pgsd-metrics-v1",
///     "counters":   { "<name>": <uint>, ... },
///     "gauges":     { "<name>": <number>, ... },
///     "phases":     { "<name>": { "count": <uint>,
///                                 "wall_s": <number>,
///                                 "cpu_s": <number> }, ... },
///     "histograms": { "<name>": { "upper_bounds": [<number>, ...],
///                                 "counts": [<uint>, ...],
///                                 "total": <uint> }, ... }
///   }
/// \endcode
///
/// Keys are emitted in sorted order and numbers deterministically, so
/// the output is byte-stable for golden tests.
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_OBS_JSON_H
#define PGSD_OBS_JSON_H

#include "obs/Metrics.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace pgsd {
namespace obs {

/// Formats \p Value as a valid JSON number: shortest round-trip form,
/// '.' decimal separator under any locale, non-finite values clamped
/// (NaN -> 0, +/-inf -> +/-DBL_MAX).
std::string jsonNumber(double Value);

/// Formats an unsigned integer (always valid JSON).
std::string jsonUInt(uint64_t Value);

/// Escapes \p S for inclusion inside a JSON string literal (quotes,
/// backslashes, and control characters; no surrounding quotes).
std::string jsonEscape(std::string_view S);

/// Convenience: "\"<escaped>\"".
std::string jsonString(std::string_view S);

/// Renders \p Snap as the metrics.json document described above.
std::string metricsToJson(const LocalMetrics &Snap);

/// Writes metricsToJson(Snap) to \p Path. Returns false on I/O error.
bool writeMetricsJson(const std::string &Path, const LocalMetrics &Snap);

/// Snapshot-and-write of the global registry.
bool writeMetricsJson(const std::string &Path);

/// Strict syntax validation of a complete JSON document (RFC 8259
/// grammar: object/array/string/number/true/false/null, no trailing
/// garbage). On failure returns false and, when \p Error is non-null,
/// stores a byte offset + reason message. Used by ObsTest and the
/// metrics_check tool to prove every exported file parses.
bool validateJson(std::string_view Text, std::string *Error = nullptr);

} // namespace obs
} // namespace pgsd

#endif // PGSD_OBS_JSON_H
