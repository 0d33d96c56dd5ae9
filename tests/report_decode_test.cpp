// Differential suite for the schema-specialized ingest decoder.
//
// The fast path's correctness argument is "anything it accepts, the
// generic codec decodes to the same bits; anything else falls back" — so
// the tests here drive both paths over a corpus of edge-case bodies (and
// randomized ones) and assert the full DecodedReports verdict matches:
// ok flag, error kind/index/text, batch size, and every Report field
// bit-for-bit.  The corpus runs at every compiled-in SIMD level, since the
// whitespace/string scans route through the dispatch table.

#include "server/report_decode.h"

#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "server/json.h"
#include "simd/simd.h"

namespace sybiltd::server {
namespace {

constexpr std::size_t kCampaign = 3;
constexpr std::size_t kTaskCount = 8;

// Restore the ambient dispatch level after a sweep.
struct LevelGuard {
  simd::Level saved = simd::active_level();
  ~LevelGuard() { simd::set_active_level(saved); }
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

::testing::AssertionResult same_decode(const DecodedReports& fast,
                                       const DecodedReports& generic,
                                       const std::string& body) {
  const auto fail = [&](const std::string& what) {
    return ::testing::AssertionFailure()
           << what << " for body: " << body.substr(0, 160);
  };
  if (fast.ok != generic.ok) return fail("ok mismatch");
  if (!fast.ok) {
    if (fast.error_kind != generic.error_kind) {
      return fail("error_kind mismatch");
    }
    if (fast.error != generic.error) {
      return fail("error text mismatch: \"" + fast.error + "\" vs \"" +
                  generic.error + "\"");
    }
    if (fast.error_kind == DecodeErrorKind::kReport &&
        (fast.error_index != generic.error_index ||
         fast.batch_size != generic.batch_size)) {
      return fail("error index/batch mismatch");
    }
    return ::testing::AssertionSuccess();
  }
  if (fast.reports.size() != generic.reports.size()) {
    return fail("report count mismatch");
  }
  for (std::size_t i = 0; i < fast.reports.size(); ++i) {
    const pipeline::Report& a = fast.reports[i];
    const pipeline::Report& b = generic.reports[i];
    if (a.campaign != b.campaign || a.account != b.account ||
        a.task != b.task || bits(a.value) != bits(b.value) ||
        bits(a.timestamp_hours) != bits(b.timestamp_hours) ||
        a.ingest_ticks != b.ingest_ticks) {
      return fail("report " + std::to_string(i) + " mismatch");
    }
  }
  return ::testing::AssertionSuccess();
}

// Run the production decode (fast path allowed) against the pure generic
// decode at the current SIMD level.
void expect_differential(const std::string& body) {
  DecodedReports fast = decode_reports(body, kCampaign, kTaskCount);
  DecodedReports generic;
  decode_reports_generic(body, kCampaign, kTaskCount, &generic);
  EXPECT_FALSE(generic.fast_path);
  EXPECT_TRUE(same_decode(fast, generic, body));
}

void sweep_levels(const std::string& body) {
  LevelGuard guard;
  for (const simd::Level level : simd::available_levels()) {
    simd::set_active_level(level);
    SCOPED_TRACE(std::string("level=") + std::string(simd::level_name(level)));
    expect_differential(body);
  }
}

// --- Corpus -----------------------------------------------------------------

const std::vector<std::string>& corpus() {
  static const std::vector<std::string> bodies = [] {
    std::vector<std::string> c = {
        // Canonical valid shapes.
        R"([{"account":1,"task":2,"value":3.5}])",
        R"({"account":1,"task":0,"value":-2.25,"timestamp_hours":17.5})",
        R"({"reports":[{"account":0,"task":0,"value":1e3},)"
        R"({"account":1,"task":1,"value":2.5e-3}]})",
        "[]",
        R"({"reports":[]})",
        R"({"reports" : [ ] })",
        // Whitespace stress, including runs longer than one vector.
        "  [ { \"account\" : 1 , \"task\" : 0 , \"value\" : 4 } ]  \n",
        std::string(80, ' ') + R"([{"account":1,"task":0,"value":4}])" +
            std::string(40, '\t'),
        "[\n\t{\"account\":\t1,\n\"task\":0,\r\n\"value\":2}\n]",
        // Key order permutations.
        R"({"value":2,"task":0,"account":1})",
        R"({"timestamp_hours":-4.5,"value":2,"task":7,"account":0})",
        // Numeric edge cases: 15/16/17 digit integers, the 2^53 index
        // boundary, denormals, overflow (strtod saturates to inf and the
        // generic path ACCEPTS it), underflow (strtod flushes to zero).
        R"([{"account":999999999999999,"task":0,"value":1}])",
        R"([{"account":1234567890123456,"task":0,"value":1}])",
        R"([{"account":12345678901234567,"task":0,"value":1}])",
        R"([{"account":9007199254740992,"task":0,"value":1}])",
        R"([{"account":9007199254740993,"task":0,"value":1}])",
        R"([{"account":19007199254740993,"task":0,"value":1}])",
        R"([{"account":0,"task":0,"value":0.1}])",
        R"([{"account":0,"task":0,"value":-0}])",
        R"([{"account":0,"task":0,"value":-0.0}])",
        R"([{"account":0,"task":0,"value":1e308}])",
        R"([{"account":0,"task":0,"value":1e999}])",
        R"([{"account":0,"task":0,"value":-1e999}])",
        R"([{"account":0,"task":0,"value":1e-308}])",
        R"([{"account":0,"task":0,"value":4.9e-324}])",
        R"([{"account":0,"task":0,"value":1e-400}])",
        R"([{"account":0,"task":0,"value":1E+3}])",
        R"([{"account":0,"task":0,"value":5e-0}])",
        R"([{"account":0,"task":0,"value":2.2250738585072011e-308}])",
        R"([{"account":0,"task":0,"value":0.49999999999999994}])",
        R"([{"account":1e3,"task":0,"value":1}])",
        R"([{"account":1.5,"task":0,"value":1}])",
        R"([{"account":-1,"task":0,"value":1}])",
        // Malformed numbers (the generic parser owns the 400 text).
        R"([{"account":01,"task":0,"value":1}])",
        R"([{"account":0,"task":0,"value":1.}])",
        R"([{"account":0,"task":0,"value":.5}])",
        R"([{"account":0,"task":0,"value":+1}])",
        R"([{"account":0,"task":0,"value":1e}])",
        R"([{"account":0,"task":0,"value":1e+}])",
        R"([{"account":0,"task":0,"value":0x10}])",
        R"([{"account":0,"task":0,"value":Infinity}])",
        R"([{"account":0,"task":0,"value":nan}])",
        // Validation failures.
        R"([{"account":0,"task":9,"value":1}])",
        R"([{"account":0,"task":0}])",
        R"([{"task":0,"value":1}])",
        R"([{"accountX":1,"task":0,"value":2}])",
        R"([{"account":0,"task":0,"value":null}])",
        R"([{"account":0,"task":0,"value":"5"}])",
        R"([{"account":0,"task":0,"value":1,"timestamp_hours":null}])",
        R"([{"account":0,"task":0,"value":1,"timestamp_hours":"x"}])",
        "{}",
        "[{}]",
        R"([{"account":0,"task":0,"value":1},{}])",
        // Duplicate keys: JsonValue::find keeps the first occurrence.
        R"({"account":1,"account":2,"task":0,"value":3})",
        R"([{"account":1,"task":0,"task":5,"value":3}])",
        R"([{"account":1,"task":0,"value":3,"value":"x"}])",
        // Unknown keys are ignored by the generic codec.
        R"({"account":1,"task":0,"value":3,"extra":null})",
        R"([{"account":1,"task":0,"value":3,"nested":{"a":[1,2]}}])",
        // The wrapper-vs-single ambiguity: any object containing a
        // "reports" key is the wrapper shape, wherever the key sits.
        R"({"account":1,"reports":[]})",
        R"({"reports":[],"x":1})",
        R"({"reports":[{"account":1,"task":0,"value":2}],"more":1})",
        R"({"reports":{}})",
        R"({"reports":5})",
        R"({"reports":[5]})",
        R"({"reports":[{"account":1,"task":0,"value":2}]})",
        // Escapes and unicode in keys and values.  An escaped key still
        // decodes to "account", so the generic path accepts the report;
        // a surrogate-pair escape decodes to a 4-byte UTF-8 value.
        std::string("{\"") + "\\" + "u0061ccount\":1,\"task\":0,\"value\":2}",
        std::string("[{\"a\":\"") + "\\" + "ud83d" + "\\" + "ude00\"}]",
        R"([{"account":0,"task":0,"value":"😀"}])",
        R"([{"acc\tount":0,"task":0,"value":1}])",
        R"([{"acc\\ount":0,"task":0,"value":1}])",
        R"([{"a":"\ud800"}])",
        R"([{"a":"\udc00x"}])",
        R"([{"a":"\uZZZZ"}])",
        std::string("[{\"a\x01b\":1}]"),
        // Non-object elements and bare scalars.
        "[1]",
        "[null]",
        R"(["x"])",
        "[[]]",
        R"([{"account":0,"task":0,"value":1},null])",
        "5",
        R"("x")",
        "true",
        "false",
        "null",
        // Structural breakage.
        "",
        "   ",
        "[",
        "[{",
        R"([{"account")",
        R"([{"account":)",
        R"([{"account":1,)",
        R"([{"account":1,"task":0,"value":1})",
        R"([{"account":1,"task":0,"value":1},])",
        R"([{"account":1,"task":0,"value":1}] x)",
        R"([{"account":1,"task":0,"value":1}]])",
        R"({"reports":[])",
        R"({"reports":[]}})",
        R"({"account":1 "task":0})",
        R"([{"account":1;"task":0,"value":1}])",
    };
    // Nesting beyond the generic parser's depth cap.
    c.push_back(std::string(70, '[') + std::string(70, ']'));
    // A batch large enough to cross several vector iterations and arena
    // size classes.
    std::string big = "[";
    for (int i = 0; i < 200; ++i) {
      if (i > 0) big += ',';
      big += "{\"account\":" + std::to_string(i * 7) +
             ",\"task\":" + std::to_string(i % kTaskCount) +
             ",\"value\":" + std::to_string(i) + ".25,\"timestamp_hours\":" +
             std::to_string(i % 48) + "}";
    }
    big += "]";
    c.push_back(big);
    return c;
  }();
  return bodies;
}

TEST(ReportDecodeDifferential, CorpusMatchesGenericAtEveryLevel) {
  for (const std::string& body : corpus()) {
    sweep_levels(body);
  }
}

TEST(ReportDecodeDifferential, TruncationAtEveryByteBoundary) {
  const std::vector<std::string> bodies = {
      R"([{"account":1,"task":0,"value":3.5,"timestamp_hours":2}])",
      R"({"reports":[{"account":0,"task":1,"value":-2e-2}]})",
      R"({"account":12,"task":7,"value":9007199254740993})",
  };
  LevelGuard guard;
  for (const simd::Level level : simd::available_levels()) {
    simd::set_active_level(level);
    for (const std::string& body : bodies) {
      for (std::size_t cut = 0; cut < body.size(); ++cut) {
        expect_differential(body.substr(0, cut));
      }
    }
  }
}

TEST(ReportDecodeDifferential, SingleByteMutations) {
  // Flip every byte of a canonical body through a set of hostile
  // replacements; the fast path must agree with the generic verdict on
  // each mutant.
  const std::string body =
      R"([{"account":1,"task":0,"value":3.5},{"account":2,"task":1,"value":-4e2}])";
  const char replacements[] = {'{', '}', '[', ']', ':', ',', '"', '\\',
                               '0', '9', '-', '+', '.', 'e', ' ', '\x01'};
  for (std::size_t i = 0; i < body.size(); ++i) {
    for (const char r : replacements) {
      if (body[i] == r) continue;
      std::string mutant = body;
      mutant[i] = r;
      expect_differential(mutant);
    }
  }
}

// xorshift64*: deterministic cross-platform stream for the generator.
struct Rng {
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  std::uint64_t next() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545F4914F6CDD1Dull;
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
};

TEST(ReportDecodeDifferential, RandomizedBatchesMatchGeneric) {
  Rng rng;
  const char* ws_choices[] = {"", " ", "  ", "\n\t", " \r\n "};
  const auto ws = [&] { return ws_choices[rng.below(5)]; };
  const auto number = [&](std::string& out) {
    char buffer[64];
    switch (rng.below(5)) {
      case 0:
        std::snprintf(buffer, sizeof(buffer), "%" PRIu64, rng.below(1000));
        break;
      case 1:  // up to 19 digits, crossing the exact-int fast path
        std::snprintf(buffer, sizeof(buffer), "%" PRIu64, rng.next());
        break;
      case 2:
        std::snprintf(buffer, sizeof(buffer), "%.17g",
                      (rng.uniform() - 0.5) * 1e6);
        break;
      case 3:
        std::snprintf(buffer, sizeof(buffer), "%.17g",
                      rng.uniform() * 1e-300);
        break;
      default:
        std::snprintf(buffer, sizeof(buffer), "%" PRIu64 "e%+d",
                      rng.below(1000),
                      static_cast<int>(rng.below(700)) - 350);
        break;
    }
    out += buffer;
  };
  const auto report = [&](std::string& out) {
    const bool with_ts = rng.below(2) == 0;
    const char* keys[4] = {"account", "task", "value",
                           with_ts ? "timestamp_hours" : nullptr};
    // Fisher-Yates over the present keys.
    int order[4] = {0, 1, 2, 3};
    const int n = with_ts ? 4 : 3;
    for (int i = n - 1; i > 0; --i) {
      const int j = static_cast<int>(rng.below(i + 1));
      std::swap(order[i], order[j]);
    }
    out += '{';
    for (int i = 0; i < n; ++i) {
      if (i > 0) out += ',';
      out += ws();
      out += '"';
      out += keys[order[i]];
      out += "\":";
      out += ws();
      if (order[i] == 0) {
        out += std::to_string(rng.below(1 << 20));
      } else if (order[i] == 1) {
        out += std::to_string(rng.below(kTaskCount + 2));  // some invalid
      } else {
        number(out);
      }
      out += ws();
    }
    out += '}';
  };

  LevelGuard guard;
  for (int iter = 0; iter < 400; ++iter) {
    std::string body;
    const std::uint64_t shape = rng.below(3);
    const std::size_t count = rng.below(6);
    std::string array;
    array += '[';
    for (std::size_t i = 0; i < count; ++i) {
      if (i > 0) array += ',';
      array += ws();
      report(array);
    }
    array += ws();
    array += ']';
    if (shape == 0) {
      body = array;
    } else if (shape == 1) {
      body = std::string("{") + ws() + "\"reports\":" + ws() + array + ws() +
             "}";
    } else {
      report(body);
    }
    // 1 in 8: corrupt one byte to exercise mismatched-verdict agreement.
    if (rng.below(8) == 0 && !body.empty()) {
      body[rng.below(body.size())] =
          static_cast<char>(' ' + rng.below(95));
    }
    simd::set_active_level(
        simd::available_levels()[rng.below(simd::available_levels().size())]);
    expect_differential(body);
  }
}

// --- Fast-path engagement ---------------------------------------------------

TEST(ReportDecodeFastPath, EngagesOnCanonicalShapesAtEveryLevel) {
  const std::vector<std::string> fast_bodies = {
      R"([{"account":1,"task":2,"value":3.5}])",
      R"({"account":1,"task":0,"value":-2.25,"timestamp_hours":17.5})",
      R"({"reports":[{"account":0,"task":0,"value":1e3}]})",
      "[]",
      R"({"reports":[]})",
      "  [ { \"account\" : 1 , \"task\" : 0 , \"value\" : 4.125 } ]  ",
  };
  LevelGuard guard;
  for (const simd::Level level : simd::available_levels()) {
    simd::set_active_level(level);
    for (const std::string& body : fast_bodies) {
      const DecodedReports decoded =
          decode_reports(body, kCampaign, kTaskCount);
      EXPECT_TRUE(decoded.ok) << body;
      EXPECT_TRUE(decoded.fast_path)
          << "expected fast path at level " << simd::level_name(level)
          << " for: " << body;
    }
  }
}

TEST(ReportDecodeFastPath, FallsBackOnForeignShapes) {
  // Bodies the fast path must hand to the generic codec even though they
  // decode successfully.
  const std::vector<std::string> fallback_bodies = {
      R"({"account":1,"account":2,"task":0,"value":3})",  // duplicate key
      R"({"account":1,"task":0,"value":3,"extra":null})",  // unknown key
      std::string("{\"") + "\\" +
          "u0061ccount\":1,\"task\":0,\"value\":2}",       // escaped key
      R"({"reports":[],"x":1})",                           // wrapper + extras
      R"([{"account":0,"task":0,"value":1e999}])",         // strtod saturates
      R"([{"account":0,"task":0,"value":1e-400}])",        // strtod flushes
  };
  for (const std::string& body : fallback_bodies) {
    const DecodedReports decoded = decode_reports(body, kCampaign, kTaskCount);
    EXPECT_TRUE(decoded.ok) << body;
    EXPECT_FALSE(decoded.fast_path) << body;
  }
}

TEST(ReportDecodeFastPath, DecodedFieldsAreExact) {
  const DecodedReports decoded = decode_reports(
      R"([{"account":41,"task":6,"value":0.1,"timestamp_hours":-3.75}])",
      kCampaign, kTaskCount);
  ASSERT_TRUE(decoded.ok);
  ASSERT_TRUE(decoded.fast_path);
  ASSERT_EQ(decoded.reports.size(), 1u);
  const pipeline::Report& r = decoded.reports[0];
  EXPECT_EQ(r.campaign, kCampaign);
  EXPECT_EQ(r.account, 41u);
  EXPECT_EQ(r.task, 6u);
  EXPECT_EQ(bits(r.value), bits(0.1));
  EXPECT_EQ(bits(r.timestamp_hours), bits(-3.75));
  EXPECT_EQ(r.ingest_ticks, 0u);
}

// The exact-integer shortcut must agree with strtod right at its 15-digit
// hand-off and across the 2^53 as_index cutoff.
TEST(ReportDecodeFastPath, IntegerBoundariesMatchStrtod) {
  for (const char* text :
       {"999999999999999", "1000000000000000", "9007199254740992",
        "9007199254740993", "9007199254740994", "18446744073709551615",
        "99999999999999999999"}) {
    const std::string body = std::string(R"([{"account":)") + text +
                             R"(,"task":0,"value":)" + text + "}]";
    sweep_levels(body);
  }
}

}  // namespace
}  // namespace sybiltd::server
