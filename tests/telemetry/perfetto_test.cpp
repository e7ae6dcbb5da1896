#include "telemetry/perfetto.h"

#include <cctype>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "telemetry/telemetry.h"

namespace sds::telemetry {
namespace {

// Minimal recursive-descent JSON validator: enough of RFC 8259 to reject any
// malformed output the exporter could plausibly produce (unbalanced braces,
// bare NaN, trailing commas, unescaped control characters in strings).
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  bool Validate() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return p_ == end_;
  }

 private:
  void SkipWs() {
    while (p_ != end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
    }
  }
  bool Literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (static_cast<std::size_t>(end_ - p_) < n) return false;
    if (std::strncmp(p_, lit, n) != 0) return false;
    p_ += n;
    return true;
  }
  bool String() {
    if (p_ == end_ || *p_ != '"') return false;
    ++p_;
    while (p_ != end_ && *p_ != '"') {
      const unsigned char c = static_cast<unsigned char>(*p_);
      if (c < 0x20) return false;  // raw control character
      if (*p_ == '\\') {
        ++p_;
        if (p_ == end_) return false;
        switch (*p_) {
          case '"': case '\\': case '/': case 'b': case 'f':
          case 'n': case 'r': case 't':
            ++p_;
            break;
          case 'u': {
            ++p_;
            for (int i = 0; i < 4; ++i, ++p_) {
              if (p_ == end_ || !std::isxdigit(static_cast<unsigned char>(*p_)))
                return false;
            }
            break;
          }
          default:
            return false;
        }
      } else {
        ++p_;
      }
    }
    if (p_ == end_) return false;
    ++p_;  // closing quote
    return true;
  }
  bool Number() {
    const char* start = p_;
    if (p_ != end_ && *p_ == '-') ++p_;
    if (p_ == end_ || !std::isdigit(static_cast<unsigned char>(*p_)))
      return false;
    if (*p_ == '0') {
      ++p_;
    } else {
      while (p_ != end_ && std::isdigit(static_cast<unsigned char>(*p_))) ++p_;
    }
    if (p_ != end_ && *p_ == '.') {
      ++p_;
      if (p_ == end_ || !std::isdigit(static_cast<unsigned char>(*p_)))
        return false;
      while (p_ != end_ && std::isdigit(static_cast<unsigned char>(*p_))) ++p_;
    }
    if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
      ++p_;
      if (p_ != end_ && (*p_ == '+' || *p_ == '-')) ++p_;
      if (p_ == end_ || !std::isdigit(static_cast<unsigned char>(*p_)))
        return false;
      while (p_ != end_ && std::isdigit(static_cast<unsigned char>(*p_))) ++p_;
    }
    return p_ != start;
  }
  bool Object() {
    ++p_;  // '{'
    SkipWs();
    if (p_ != end_ && *p_ == '}') {
      ++p_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (p_ == end_ || *p_ != ':') return false;
      ++p_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (p_ == end_) return false;
      if (*p_ == ',') {
        ++p_;
        continue;
      }
      if (*p_ == '}') {
        ++p_;
        return true;
      }
      return false;
    }
  }
  bool Array() {
    ++p_;  // '['
    SkipWs();
    if (p_ != end_ && *p_ == ']') {
      ++p_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (p_ == end_) return false;
      if (*p_ == ',') {
        ++p_;
        continue;
      }
      if (*p_ == ']') {
        ++p_;
        return true;
      }
      return false;
    }
  }
  bool Value() {
    if (p_ == end_) return false;
    switch (*p_) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  const char* p_;
  const char* end_;
};

bool IsValidJson(const std::string& text) {
  return JsonValidator(text).Validate();
}

int CountOccurrences(const std::string& haystack, const std::string& needle) {
  int n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

// Populates a telemetry handle the way a short run would: a few tracer
// events (one per layer family), two audit records, and a profiled nested
// span pair on the deterministic clock.
void PopulateTelemetry(Telemetry& telemetry) {
  telemetry.tracer().Emit(
      MakeEvent(10, Layer::kSimBus, "lock_window_open", /*owner=*/3)
          .Num("slots", 40));
  telemetry.tracer().Emit(MakeEvent(20, Layer::kDetect, "alarm_raised")
                              .Str("detector", "SDS")
                              .Num("tick", 20));

  AuditRecord rec;
  rec.tick = 20;
  rec.detector = "SDS";
  rec.check = "boundary";
  rec.channel = "AccessNum";
  rec.value = 1234.5;
  rec.lower = 100.0;
  rec.upper = 900.0;
  rec.margin = 1.7;
  rec.violation = true;
  rec.consecutive = 3;
  rec.alarm = true;
  telemetry.audit().Append(rec);

  telemetry.profiler().Enable(ProfileClock::kTickDomain);
  const SpanId outer = telemetry.profiler().RegisterSpan("vm.tick");
  const SpanId inner = telemetry.profiler().RegisterSpan("sim.tick");
  for (int i = 0; i < 3; ++i) {
    ProfileSpan o(&telemetry.profiler(), outer);
    ProfileSpan in(&telemetry.profiler(), inner);
  }
}

TEST(JsonValidatorSelfTest, AcceptsValidRejectsInvalid) {
  EXPECT_TRUE(IsValidJson("{\"a\":[1,2.5,-3e4,null,true,\"x\\n\"]}"));
  EXPECT_TRUE(IsValidJson("{}"));
  EXPECT_FALSE(IsValidJson("{\"a\":}"));
  EXPECT_FALSE(IsValidJson("{\"a\":1,}"));
  EXPECT_FALSE(IsValidJson("{\"a\":NaN}"));
  EXPECT_FALSE(IsValidJson("{\"a\":1}garbage"));
  EXPECT_FALSE(IsValidJson("{\"a\":\"unterminated}"));
}

TEST(PerfettoExport, ProducesValidTraceEventJson) {
  Telemetry telemetry;
  PopulateTelemetry(telemetry);

  std::ostringstream os;
  WritePerfettoTrace(telemetry, os);
  const std::string trace = os.str();

  ASSERT_TRUE(IsValidJson(trace)) << trace;
  EXPECT_NE(trace.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(trace.find("\"traceEvents\":["), std::string::npos);
  // Metadata names the tracks, instants carry the events + audits, complete
  // events carry the profiler slices.
  EXPECT_GT(CountOccurrences(trace, "\"ph\":\"M\""), 0);
  EXPECT_GT(CountOccurrences(trace, "\"ph\":\"i\""), 0);
  EXPECT_EQ(CountOccurrences(trace, "\"ph\":\"X\""), 6);  // 3 iterations x 2
  EXPECT_NE(trace.find("lock_window_open"), std::string::npos);
  EXPECT_NE(trace.find("\"detector\":\"SDS\""), std::string::npos);
}

TEST(PerfettoExport, NonFiniteNumbersBecomeNull) {
  Telemetry telemetry;
  AuditRecord rec;
  rec.tick = 5;
  rec.detector = "SDS";
  rec.check = "period";
  rec.channel = "AccessNum";
  rec.value = std::numeric_limits<double>::quiet_NaN();
  rec.margin = std::numeric_limits<double>::infinity();
  telemetry.audit().Append(rec);

  std::ostringstream os;
  WritePerfettoTrace(telemetry, os);
  const std::string trace = os.str();
  ASSERT_TRUE(IsValidJson(trace)) << trace;
  EXPECT_NE(trace.find("\"value\":null"), std::string::npos);
  EXPECT_NE(trace.find("\"margin\":null"), std::string::npos);
  EXPECT_EQ(trace.find("nan"), std::string::npos);
  EXPECT_EQ(trace.find("inf"), std::string::npos);
}

TEST(PerfettoExport, EmptyTelemetryStillValid) {
  Telemetry telemetry;
  std::ostringstream os;
  WritePerfettoTrace(telemetry, os);
  ASSERT_TRUE(IsValidJson(os.str())) << os.str();
  // Track-naming metadata is always present even with nothing recorded.
  EXPECT_GT(CountOccurrences(os.str(), "\"ph\":\"M\""), 0);
}

TEST(PerfettoExport, SlicesRebaseToEarliestStart) {
  Telemetry telemetry;
  telemetry.profiler().Enable(ProfileClock::kTickDomain);
  const SpanId id = telemetry.profiler().RegisterSpan("s");
  {
    ProfileSpan a(&telemetry.profiler(), id);
  }
  {
    ProfileSpan b(&telemetry.profiler(), id);
  }
  std::ostringstream os;
  WritePerfettoTrace(telemetry, os);
  const std::string trace = os.str();
  ASSERT_TRUE(IsValidJson(trace));
  // The earliest slice lands at ts == 0 after rebasing.
  EXPECT_NE(trace.find("\"ph\":\"X\",\"ts\":0,"), std::string::npos) << trace;
}

}  // namespace
}  // namespace sds::telemetry
