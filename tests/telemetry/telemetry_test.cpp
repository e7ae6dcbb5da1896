// Unit tests for the telemetry subsystem: metrics registry semantics, event
// tracer ring-buffer overflow behavior, audit log serialization, and the
// combined JSONL stream format read by tools/inspect.
#include "telemetry/telemetry.h"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace sds::telemetry {
namespace {

TEST(MetricsTest, CounterStartsAtZeroAndAccumulates) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("sim.hits");
  EXPECT_EQ(c->value(), 0u);
  c->Add();
  c->Add(41);
  EXPECT_EQ(c->value(), 42u);
}

TEST(MetricsTest, GaugeKeepsLastValue) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("vm.runnable");
  g->Set(3.0);
  g->Set(7.5);
  EXPECT_DOUBLE_EQ(g->value(), 7.5);
}

TEST(MetricsTest, ReRegistrationReturnsSameInstrument) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x");
  Counter* b = registry.GetCounter("x");
  EXPECT_EQ(a, b);
  a->Add(5);
  EXPECT_EQ(b->value(), 5u);
  EXPECT_EQ(registry.GetGauge("g"), registry.GetGauge("g"));
}

TEST(MetricsTest, InstrumentPointersSurviveFurtherRegistration) {
  MetricsRegistry registry;
  Counter* first = registry.GetCounter("first");
  for (int i = 0; i < 1000; ++i) {
    registry.GetCounter("c" + std::to_string(i));
  }
  first->Add(7);
  EXPECT_EQ(registry.GetCounter("first")->value(), 7u);
}

TEST(MetricsTest, WriteJsonlEmitsOneLinePerInstrument) {
  MetricsRegistry registry;
  registry.GetCounter("a")->Add(3);
  registry.GetGauge("b")->Set(1.5);
  std::ostringstream os;
  registry.WriteJsonl(os);
  std::istringstream is(os.str());
  std::string line;
  int lines = 0;
  while (std::getline(is, line)) {
    ++lines;
    EXPECT_NE(line.find("\"type\":\"metric\""), std::string::npos) << line;
  }
  EXPECT_EQ(lines, 2);
  EXPECT_NE(os.str().find("\"name\":\"a\""), std::string::npos);
}

TEST(TracerTest, LayerNamesAreDotted) {
  EXPECT_STREQ(LayerName(Layer::kSimBus), "sim.bus");
  EXPECT_STREQ(LayerName(Layer::kDetect), "detect");
}

TEST(TracerTest, AllLayersEnabledByDefault) {
  EventTracer tracer(8);
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    EXPECT_TRUE(tracer.enabled(static_cast<Layer>(i)));
  }
}

TEST(TracerTest, DisabledLayerEventsAreNotRecorded) {
  EventTracer tracer(8);
  tracer.DisableLayer(Layer::kSimBus);
  EXPECT_FALSE(tracer.enabled(Layer::kSimBus));
  tracer.Emit(MakeEvent(1, Layer::kSimBus, "lock_window_open"));
  EXPECT_EQ(tracer.retained(), 0u);
  EXPECT_EQ(tracer.emitted(), 0u);
  tracer.EnableLayer(Layer::kSimBus);
  tracer.Emit(MakeEvent(2, Layer::kSimBus, "lock_window_open"));
  EXPECT_EQ(tracer.retained(), 1u);
}

TEST(TracerTest, RingOverflowDropsOldestAndCounts) {
  EventTracer tracer(4);
  for (Tick t = 0; t < 10; ++t) {
    tracer.Emit(MakeEvent(t, Layer::kVm, "e"));
  }
  EXPECT_EQ(tracer.emitted(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  ASSERT_EQ(tracer.retained(), 4u);
  // The retained window is the NEWEST four events, oldest first.
  EXPECT_EQ(tracer.event(0).tick, 6);
  EXPECT_EQ(tracer.event(3).tick, 9);
}

TEST(TracerTest, DropAccountingSurvivesFlush) {
  EventTracer tracer(4);
  for (Tick t = 0; t < 10; ++t) {
    tracer.Emit(MakeEvent(t, Layer::kVm, "e"));
  }
  std::ostringstream os;
  EXPECT_EQ(tracer.FlushJsonl(os), 4u);
  // Flushing drains the window but keeps the lifetime emitted/dropped
  // counters: the incident report's "[N older events dropped]" annotation
  // depends on this.
  EXPECT_EQ(tracer.retained(), 0u);
  EXPECT_EQ(tracer.emitted(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
}

TEST(TracerTest, EventFieldsSerializeToJson) {
  TraceEvent e = MakeEvent(17, Layer::kSimCache, "cross_owner_eviction", 3);
  e.Num("set", 12).Str("note", "x");
  std::ostringstream os;
  WriteEventJson(os, e);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"type\":\"event\""), std::string::npos);
  EXPECT_NE(json.find("\"tick\":17"), std::string::npos);
  EXPECT_NE(json.find("\"layer\":\"sim.cache\""), std::string::npos);
  EXPECT_NE(json.find("\"event\":\"cross_owner_eviction\""), std::string::npos);
  EXPECT_NE(json.find("\"owner\":3"), std::string::npos);
  EXPECT_NE(json.find("\"set\":12"), std::string::npos);
  EXPECT_NE(json.find("\"note\":\"x\""), std::string::npos);
}

TEST(TracerTest, FlushJsonlDrainsRing) {
  EventTracer tracer(8);
  tracer.Emit(MakeEvent(1, Layer::kPcm, "sample"));
  tracer.Emit(MakeEvent(2, Layer::kPcm, "sample"));
  std::ostringstream os;
  EXPECT_EQ(tracer.FlushJsonl(os), 2u);
  EXPECT_EQ(tracer.retained(), 0u);
  std::istringstream is(os.str());
  std::string line;
  int lines = 0;
  while (std::getline(is, line)) ++lines;
  EXPECT_EQ(lines, 2);
}

TEST(AuditTest, RecordsAccumulateAndSerialize) {
  AuditLog log;
  AuditRecord r;
  r.tick = 100;
  r.detector = "SDS/B";
  r.check = "boundary";
  r.channel = "AccessNum";
  r.value = 5.0;
  r.lower = 1.0;
  r.upper = 4.0;
  r.margin = 0.5;
  r.violation = true;
  r.consecutive = 2;
  r.alarm = false;
  log.Append(r);
  EXPECT_EQ(log.size(), 1u);
  std::ostringstream os;
  log.WriteJsonl(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"type\":\"audit\""), std::string::npos);
  EXPECT_NE(json.find("\"detector\":\"SDS/B\""), std::string::npos);
  EXPECT_NE(json.find("\"check\":\"boundary\""), std::string::npos);
  EXPECT_NE(json.find("\"violation\":true"), std::string::npos);
  EXPECT_NE(json.find("\"consecutive\":2"), std::string::npos);
}

TEST(TelemetryTest, WriteJsonlEmitsHeaderEventsAuditsMetrics) {
  Telemetry telemetry;
  telemetry.metrics().GetCounter("c")->Add(1);
  telemetry.tracer().Emit(MakeEvent(5, Layer::kEval, "stage_begin"));
  AuditRecord r;
  r.detector = "SDS";
  r.check = "boundary";
  telemetry.audit().Append(r);

  std::ostringstream os;
  telemetry.WriteJsonl(os);
  std::istringstream is(os.str());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(is, line)) lines.push_back(line);
  ASSERT_GE(lines.size(), 4u);
  EXPECT_NE(lines[0].find("\"type\":\"header\""), std::string::npos);
  EXPECT_NE(os.str().find("\"type\":\"event\""), std::string::npos);
  EXPECT_NE(os.str().find("\"type\":\"audit\""), std::string::npos);
  EXPECT_NE(os.str().find("\"type\":\"metric\""), std::string::npos);
}

TEST(TelemetryTest, WriteJsonlFileRoundTripsThroughFilesystem) {
  Telemetry telemetry;
  telemetry.tracer().Emit(MakeEvent(1, Layer::kVm, "vm_created", 2));
  const std::string path = ::testing::TempDir() + "/sds_telemetry_test.jsonl";
  ASSERT_TRUE(telemetry.WriteJsonlFile(path));
  std::ifstream in(path);
  ASSERT_TRUE(static_cast<bool>(in));
  std::string first;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, first)));
  EXPECT_NE(first.find("\"type\":\"header\""), std::string::npos);
}

}  // namespace
}  // namespace sds::telemetry
