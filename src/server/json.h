// Minimal dependency-free JSON for the wire codec.
//
// The server needs to parse small request documents (campaign configs,
// report batches) and render responses; this is a strict recursive-descent
// parser over a plain tagged value — no allocator tricks, no SAX layer —
// sized for bodies that are already bounded by HttpLimits::max_body_bytes.
// Object members keep their insertion order, numbers are doubles (the
// report fields are doubles and small indices, both exactly
// representable), and \uXXXX escapes decode to UTF-8 including surrogate
// pairs.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sybiltd::server {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  // First member with this key, or nullptr (also when not an object).
  const JsonValue* find(std::string_view key) const;

  // The number as a non-negative integer index; false when not a number,
  // negative, fractional, or too large to round-trip through a double.
  bool as_index(std::size_t* out) const;
};

// Parse a complete document (surrounding whitespace allowed, trailing
// garbage rejected).  On failure returns false and, when `error` is given,
// describes the failure with its byte offset.
bool json_parse(std::string_view text, JsonValue& out,
                std::string* error = nullptr);

// --- Writer helpers (shared by the endpoint handlers) ----------------------

// Append `s` as a quoted JSON string with all required escapes.
void json_append_string(std::string& out, std::string_view s);

}  // namespace sybiltd::server
