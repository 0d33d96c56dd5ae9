#include "server/report_decode.h"

#include <charconv>
#include <cmath>
#include <system_error>

#include "server/json.h"
#include "simd/simd.h"

namespace sybiltd::server {

namespace {

// A syntactically minimal report object ({"account":0,"task":0,"value":0}
// is 32 bytes) plus its separator comfortably exceeds this, so
// body.size() / kMinReportBytes + 1 arena slots always suffice.
constexpr std::size_t kMinReportBytes = 24;

// 2^53, the as_index() exact-integer cutoff in json.cpp.
constexpr double kMaxIndexValue = 9007199254740992.0;

// Streaming cursor over the raw body.  The whitespace and string scans
// route through the SIMD dispatch table; the table reference is loaded
// once per decode, so the level is fixed for the whole batch.
struct FastParser {
  const char* data;
  std::size_t pos;
  std::size_t end;
  const simd::KernelTable& k;

  void skip_ws() { pos = k.scan_json_ws(data, pos, end); }
  bool at_end() const { return pos >= end; }
  char peek() const { return data[pos]; }
  bool eat(char c) {
    if (pos < end && data[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
};

// Unescaped string at an opening quote; false (-> generic path) on any
// escape, control byte, or missing close quote.  The view aliases the
// request buffer — no copy.
bool parse_plain_string(FastParser& p, std::string_view* out) {
  const std::size_t start = p.pos + 1;
  const std::size_t stop = p.k.scan_json_string(p.data, start, p.end);
  if (stop >= p.end || p.data[stop] != '"') return false;
  *out = std::string_view(p.data + start, stop - start);
  p.pos = stop + 1;
  return true;
}

// JSON number with strtod-identical bits.  Plain integers up to 15 digits
// (< 2^53) convert exactly via uint64; everything else goes through
// std::from_chars, which is correctly rounded like glibc strtod.  False
// on malformed grammar (leading zero, missing digits — the generic parser
// owns the 400) and on out-of-range results, where strtod saturates to
// +-inf/0 but from_chars leaves the value unset.
bool parse_number(FastParser& p, double* out) {
  const std::size_t start = p.pos;
  bool negative = false;
  if (p.pos < p.end && p.data[p.pos] == '-') {
    negative = true;
    ++p.pos;
  }
  const std::size_t int_start = p.pos;
  std::uint64_t magnitude = 0;
  while (p.pos < p.end && p.data[p.pos] >= '0' && p.data[p.pos] <= '9') {
    magnitude = magnitude * 10 +
                static_cast<std::uint64_t>(p.data[p.pos] - '0');
    ++p.pos;
  }
  const std::size_t int_digits = p.pos - int_start;
  if (int_digits == 0) return false;
  if (int_digits > 1 && p.data[int_start] == '0') return false;
  bool plain_int = true;
  if (p.pos < p.end && p.data[p.pos] == '.') {
    plain_int = false;
    ++p.pos;
    const std::size_t frac_start = p.pos;
    while (p.pos < p.end && p.data[p.pos] >= '0' && p.data[p.pos] <= '9') {
      ++p.pos;
    }
    if (p.pos == frac_start) return false;
  }
  if (p.pos < p.end && (p.data[p.pos] == 'e' || p.data[p.pos] == 'E')) {
    plain_int = false;
    ++p.pos;
    if (p.pos < p.end && (p.data[p.pos] == '+' || p.data[p.pos] == '-')) {
      ++p.pos;
    }
    const std::size_t exp_start = p.pos;
    while (p.pos < p.end && p.data[p.pos] >= '0' && p.data[p.pos] <= '9') {
      ++p.pos;
    }
    if (p.pos == exp_start) return false;
  }
  if (plain_int && int_digits <= 15) {
    const double value = static_cast<double>(magnitude);
    *out = negative ? -value : value;
    return true;
  }
  double value = 0.0;
  const auto result =
      std::from_chars(p.data + start, p.data + p.pos, value);
  if (result.ec != std::errc() || result.ptr != p.data + p.pos) return false;
  *out = value;
  return true;
}

// Number that JsonValue::as_index would accept: non-negative, integral,
// <= 2^53.  Exponent forms like 1e3 pass, exactly as the generic path.
bool parse_index_number(FastParser& p, std::size_t* out) {
  double value = 0.0;
  if (!parse_number(p, &value)) return false;
  if (!(value >= 0.0) || value != std::floor(value)) return false;
  if (value > kMaxIndexValue) return false;
  *out = static_cast<std::size_t>(value);
  return true;
}

// Report object at '{'.  Fills every Report field on success; false on
// anything the generic path must arbitrate: unknown or duplicate keys
// (JsonValue::find keeps the first), escapes in keys, non-number values,
// missing required keys, and out-of-range task indexes.
bool parse_report_object(FastParser& p, std::size_t campaign,
                         std::size_t task_count, pipeline::Report* out) {
  ++p.pos;  // '{'
  p.skip_ws();
  if (p.at_end() || p.peek() == '}') return false;  // empty object -> 400
  bool has_account = false, has_task = false, has_value = false,
       has_ts = false;
  std::size_t account = 0, task = 0;
  double value = 0.0, timestamp_hours = 0.0;
  while (true) {
    p.skip_ws();
    if (p.at_end() || p.peek() != '"') return false;
    std::string_view key;
    if (!parse_plain_string(p, &key)) return false;
    p.skip_ws();
    if (!p.eat(':')) return false;
    p.skip_ws();
    if (key == "account") {
      if (has_account || !parse_index_number(p, &account)) return false;
      has_account = true;
    } else if (key == "task") {
      if (has_task || !parse_index_number(p, &task)) return false;
      has_task = true;
    } else if (key == "value") {
      if (has_value || !parse_number(p, &value)) return false;
      if (std::isnan(value)) return false;
      has_value = true;
    } else if (key == "timestamp_hours") {
      if (has_ts || !parse_number(p, &timestamp_hours)) return false;
      has_ts = true;
    } else {
      return false;
    }
    p.skip_ws();
    if (p.eat(',')) continue;
    if (p.eat('}')) break;
    return false;
  }
  if (!has_account || !has_task || !has_value) return false;
  if (task >= task_count) return false;
  out->campaign = campaign;
  out->account = account;
  out->task = task;
  out->value = value;
  out->timestamp_hours = timestamp_hours;
  out->ingest_ticks = 0;
  return true;
}

// Array of report objects at '['.
bool parse_report_array(FastParser& p, std::size_t campaign,
                        std::size_t task_count, pipeline::Report* reports,
                        std::size_t capacity, std::size_t* count) {
  ++p.pos;  // '['
  p.skip_ws();
  if (p.at_end()) return false;
  if (p.peek() == ']') {
    ++p.pos;
    *count = 0;
    return true;
  }
  std::size_t n = 0;
  while (true) {
    p.skip_ws();
    if (p.at_end() || p.peek() != '{') return false;
    if (n >= capacity) return false;  // unreachable given kMinReportBytes
    if (!parse_report_object(p, campaign, task_count, &reports[n])) {
      return false;
    }
    ++n;
    p.skip_ws();
    if (p.eat(',')) continue;
    if (p.eat(']')) {
      *count = n;
      return true;
    }
    return false;
  }
}

}  // namespace

bool decode_reports_fast(std::string_view body, std::size_t campaign,
                         std::size_t task_count, DecodedReports* out) {
  if (body.empty()) return false;
  FastParser p{body.data(), 0, body.size(), simd::kernels()};
  p.skip_ws();
  if (p.at_end()) return false;

  auto arena = Workspace::local().borrow<pipeline::Report>(
      body.size() / kMinReportBytes + 1);
  pipeline::Report* reports = arena.data();
  const std::size_t capacity = arena.size();
  std::size_t count = 0;

  const char first = p.peek();
  if (first == '[') {
    if (!parse_report_array(p, campaign, task_count, reports, capacity,
                            &count)) {
      return false;
    }
  } else if (first == '{') {
    const std::size_t object_start = p.pos;
    ++p.pos;
    p.skip_ws();
    if (p.at_end() || p.peek() != '"') return false;
    FastParser probe = p;
    std::string_view key;
    if (!parse_plain_string(probe, &key)) return false;
    if (key == "reports") {
      // Wrapper shape.  More members after the array would still be the
      // wrapper shape generically ({"reports": [...]} wins over the
      // single-object reading whenever the key exists), but they are rare
      // and the generic path handles them identically.
      p.pos = probe.pos;
      p.skip_ws();
      if (!p.eat(':')) return false;
      p.skip_ws();
      if (p.at_end() || p.peek() != '[') return false;
      if (!parse_report_array(p, campaign, task_count, reports, capacity,
                              &count)) {
        return false;
      }
      p.skip_ws();
      if (!p.eat('}')) return false;
    } else {
      // Single report object.  parse_report_object rejects any "reports"
      // member as an unknown key, so a body the generic path would treat
      // as the wrapper shape can never be mis-decoded here.
      p.pos = object_start;
      if (!parse_report_object(p, campaign, task_count, &reports[0])) {
        return false;
      }
      count = 1;
    }
  } else {
    return false;
  }
  p.skip_ws();
  if (!p.at_end()) return false;  // trailing characters -> generic 400

  out->ok = true;
  out->fast_path = true;
  out->error_kind = DecodeErrorKind::kNone;
  out->batch_size = count;
  out->arena = std::move(arena);
  out->reports = std::span<pipeline::Report>(out->arena.data(), count);
  return true;
}

bool decode_report(const JsonValue& value, std::size_t campaign,
                   std::size_t task_count, pipeline::Report* out,
                   std::string* error) {
  if (!value.is_object()) {
    *error = "report must be a JSON object";
    return false;
  }
  const JsonValue* account = value.find("account");
  const JsonValue* task = value.find("task");
  const JsonValue* report_value = value.find("value");
  if (account == nullptr || !account->as_index(&out->account)) {
    *error = "report needs a non-negative integer \"account\"";
    return false;
  }
  if (task == nullptr || !task->as_index(&out->task)) {
    *error = "report needs a non-negative integer \"task\"";
    return false;
  }
  if (out->task >= task_count) {
    *error = "task index out of range for the campaign";
    return false;
  }
  if (report_value == nullptr || !report_value->is_number() ||
      std::isnan(report_value->number)) {
    *error = "report needs a finite number \"value\"";
    return false;
  }
  out->value = report_value->number;
  out->timestamp_hours = 0.0;
  if (const JsonValue* ts = value.find("timestamp_hours")) {
    if (!ts->is_number()) {
      *error = "\"timestamp_hours\" must be a number";
      return false;
    }
    out->timestamp_hours = ts->number;
  }
  out->campaign = campaign;
  return true;
}

void decode_reports_generic(std::string_view body, std::size_t campaign,
                            std::size_t task_count, DecodedReports* out) {
  out->fast_path = false;
  JsonValue doc;
  std::string parse_error;
  if (!json_parse(body, doc, &parse_error)) {
    out->ok = false;
    out->error_kind = DecodeErrorKind::kJson;
    out->error = "invalid JSON: " + parse_error;
    out->detail = std::move(parse_error);
    return;
  }
  // Accept three shapes: a bare array of reports, {"reports": [...]}, or a
  // single report object.
  const std::vector<JsonValue>* reports = nullptr;
  std::vector<JsonValue> single;
  if (doc.is_array()) {
    reports = &doc.array;
  } else if (const JsonValue* wrapped = doc.find("reports")) {
    if (!wrapped->is_array()) {
      out->ok = false;
      out->error_kind = DecodeErrorKind::kShape;
      out->error = "\"reports\" must be an array";
      return;
    }
    reports = &wrapped->array;
  } else if (doc.is_object()) {
    single.push_back(doc);
    reports = &single;
  } else {
    out->ok = false;
    out->error_kind = DecodeErrorKind::kShape;
    out->error = "expected a report object or an array of reports";
    return;
  }
  out->batch_size = reports->size();
  out->heap.resize(reports->size());
  for (std::size_t i = 0; i < reports->size(); ++i) {
    std::string error;
    if (!decode_report((*reports)[i], campaign, task_count, &out->heap[i],
                       &error)) {
      out->ok = false;
      out->error_kind = DecodeErrorKind::kReport;
      out->error_index = i;
      out->error = "report " + std::to_string(i) + ": " + error;
      out->detail = std::move(error);
      out->heap.clear();
      out->reports = {};
      return;
    }
  }
  out->reports = std::span<pipeline::Report>(out->heap);
  out->ok = true;
}

DecodedReports decode_reports(std::string_view body, std::size_t campaign,
                              std::size_t task_count) {
  DecodedReports out;
  if (decode_reports_fast(body, campaign, task_count, &out)) {
    return out;
  }
  decode_reports_generic(body, campaign, task_count, &out);
  return out;
}

}  // namespace sybiltd::server
