// The one double formatter behind every rendered number: the snapshot
// truths/groups views, the metrics expositions and trace-span arguments.
//
// append_g17 writes exactly what printf("%.17g") writes — 17 significant
// digits, which round-trip every double — without printf.  The C++
// standard defines to_chars(first, last, value, chars_format::general, 17)
// as the printf conversion %.17g in the "C" locale ([charconv.to.chars]),
// so the bytes are the same by definition; tests/obs_test.cpp checks that
// against snprintf on seeded random bit patterns and the edge values.
//
// append_g17 is meant for finite values: JSON has no literal for NaN or
// infinity (append_json_number writes null for them) and the Prometheus
// text format spells them NaN/+Inf/-Inf.
#pragma once

#include <charconv>
#include <cmath>
#include <string>

namespace sybiltd::obs {

inline void append_g17(std::string& out, double value) {
  char buffer[32];  // %.17g needs at most 24: "-1.2345678901234567e-308"
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof(buffer), value,
                    std::chars_format::general, 17);
  out.append(buffer, result.ptr);
}

// A double as a JSON number.  NaN and the infinities have no JSON literal
// and become null.
inline void append_json_number(std::string& out, double value) {
  if (std::isfinite(value)) {
    append_g17(out, value);
  } else {
    out += "null";
  }
}

}  // namespace sybiltd::obs
