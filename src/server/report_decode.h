// Ingest report decoding: a schema-specialized zero-allocation fast path
// with a generic JsonValue fallback.
//
// The ingest endpoint accepts exactly three body shapes — a bare array of
// report objects, {"reports": [...]}, or a single report object — and a
// report object carries at most four known keys, all numbers.  The fast
// path parses those shapes directly from the request buffer into a
// workspace-arena-backed `Report` span: no JsonValue tree, no per-field
// std::string, SIMD-assisted whitespace/string scanning (via the
// src/simd dispatch table, exact at every level) and a
// std::from_chars double conversion.
//
// Fallback contract: the fast path never produces its own error — it
// either decodes a batch the generic codec would decode to the same bits,
// or reports "not mine" and the generic codec runs on the same body.
// Every 400 message, status code, and decoded Report is therefore
// byte-identical to the generic path by construction; the differential
// suite in tests/report_decode_test.cpp proves it corpus-by-corpus at
// every SIMD level.  Conditions that force the fallback: string escapes
// in keys, duplicate keys, unknown keys, non-object report elements,
// numeric overflow/underflow (strtod and from_chars disagree on the
// out-of-range result), any malformed document, and any document that
// would 400.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/workspace.h"
#include "pipeline/report_queue.h"

namespace sybiltd::server {

struct JsonValue;

// Which warn event (if any) the handler logs for a failed decode.
enum class DecodeErrorKind {
  kNone,
  kJson,    // body is not valid JSON -> ingest_invalid_json
  kShape,   // valid JSON, unrecognized shape -> no log, 400
  kReport,  // a report object failed validation -> ingest_invalid_report
};

// A decoded ingest batch.  `reports` points into `arena` (fast path) or
// `heap` (generic path); both storages move with the struct.
struct DecodedReports {
  bool ok = true;
  bool fast_path = false;  // decoded by the schema-specialized path
  DecodeErrorKind error_kind = DecodeErrorKind::kNone;
  std::size_t error_index = 0;  // failing report index for kReport
  std::size_t batch_size = 0;   // decoded batch size, also set for kReport
  std::string error;            // full 400 message text
  std::string detail;           // bare parser/report error for the warn log
  std::span<pipeline::Report> reports;

  Workspace::Borrowed<pipeline::Report> arena;
  std::vector<pipeline::Report> heap;
};

// Decode an ingest request body.  Tries the fast path first, falling back
// to the generic codec; the result is identical either way, only
// `fast_path` and the storage differ.
DecodedReports decode_reports(std::string_view body, std::size_t campaign,
                              std::size_t task_count);

// Internals, exposed for the differential tests and microbenches.
// decode_reports_fast returns false ("not mine") without touching the
// error fields; decode_reports_generic always produces a verdict.
bool decode_reports_fast(std::string_view body, std::size_t campaign,
                         std::size_t task_count, DecodedReports* out);
void decode_reports_generic(std::string_view body, std::size_t campaign,
                            std::size_t task_count, DecodedReports* out);

// One report object from a parsed JsonValue tree, with the 400 message
// detail on failure.  Used by the generic path.
bool decode_report(const JsonValue& value, std::size_t campaign,
                   std::size_t task_count, pipeline::Report* out,
                   std::string* error);

}  // namespace sybiltd::server
