#include "telemetry/profiler.h"

#include <algorithm>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace sds::telemetry {
namespace {

TEST(SpanProfiler, RegisterInternsByContent) {
  SpanProfiler p;
  const SpanId a = p.RegisterSpan("sim.tick");
  const std::string other("sim.tick");  // different pointer, same content
  const SpanId b = p.RegisterSpan(other.c_str());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, p.RegisterSpan("vm.tick"));
  EXPECT_EQ(p.registered_spans(), 2u);
  EXPECT_STREQ(p.span_name(a), "sim.tick");
}

TEST(SpanProfiler, DisabledEnterIsNoOp) {
  SpanProfiler p;
  const SpanId id = p.RegisterSpan("x");
  p.Enter(id);  // disabled: must not open anything
  EXPECT_EQ(p.open_spans(), 0u);
  EXPECT_TRUE(p.Snapshot().empty());
}

TEST(SpanProfiler, ProfileSpanOnNullProfilerIsSafe) {
  ProfileSpan span(nullptr, 3);
  // Destructor must not touch anything either.
}

TEST(SpanProfiler, TickDomainDurationsAreDeterministic) {
  // In tick-domain mode Now() advances by one per reading, so a leaf span's
  // duration is exactly 1 (exit reading minus entry reading) regardless of
  // machine load — run twice and require identical trees.
  auto run = [] {
    SpanProfiler p;
    const SpanId outer = p.RegisterSpan("outer");
    const SpanId inner = p.RegisterSpan("inner");
    p.Enable(ProfileClock::kTickDomain);
    for (int i = 0; i < 3; ++i) {
      ProfileSpan o(&p, outer);
      ProfileSpan a(&p, inner);
    }
    std::ostringstream os;
    p.WriteJsonl(os);
    return os.str();
  };
  const std::string first = run();
  EXPECT_EQ(first, run());
  EXPECT_NE(first.find("\"clock\":\"tick\""), std::string::npos);
}

TEST(SpanProfiler, TreeNestsSameNameUnderDifferentParents) {
  SpanProfiler p;
  const SpanId a = p.RegisterSpan("a");
  const SpanId b = p.RegisterSpan("b");
  const SpanId shared = p.RegisterSpan("shared");
  p.Enable(ProfileClock::kTickDomain);
  {
    ProfileSpan s1(&p, a);
    ProfileSpan s2(&p, shared);
  }
  {
    ProfileSpan s1(&p, b);
    ProfileSpan s2(&p, shared);
  }
  const auto nodes = p.Snapshot();
  ASSERT_EQ(nodes.size(), 4u);
  int shared_nodes = 0;
  for (const auto& n : nodes) {
    if (std::string(n.name) == "shared") {
      ++shared_nodes;
      ASSERT_GE(n.parent, 0);
      ASSERT_LT(static_cast<std::size_t>(n.parent), nodes.size());
      EXPECT_EQ(n.depth, 1u);
      // Parent precedes child in the pre-order snapshot.
      EXPECT_LT(static_cast<std::size_t>(n.parent),
                static_cast<std::size_t>(&n - nodes.data()));
    }
  }
  EXPECT_EQ(shared_nodes, 2);
  // AggregateByName sums over both nodes.
  EXPECT_EQ(p.AggregateByName("shared").count, 2u);
  EXPECT_EQ(p.AggregateByName("never").count, 0u);
}

TEST(SpanProfiler, SelfTimeExcludesChildren) {
  SpanProfiler p;
  const SpanId outer = p.RegisterSpan("outer");
  const SpanId inner = p.RegisterSpan("inner");
  p.Enable(ProfileClock::kTickDomain);
  {
    ProfileSpan o(&p, outer);
    ProfileSpan i1(&p, inner);
  }
  const auto outer_agg = p.AggregateByName("outer");
  const auto inner_agg = p.AggregateByName("inner");
  EXPECT_EQ(outer_agg.count, 1u);
  EXPECT_EQ(inner_agg.count, 1u);
  EXPECT_EQ(outer_agg.self, outer_agg.total - inner_agg.total);
  EXPECT_GT(outer_agg.total, inner_agg.total);
}

TEST(SpanProfiler, CountsMinMax) {
  SpanProfiler p;
  const SpanId outer = p.RegisterSpan("outer");
  const SpanId inner = p.RegisterSpan("inner");
  p.Enable(ProfileClock::kTickDomain);
  {
    ProfileSpan o(&p, outer);  // duration 1: no inner readings
  }
  {
    ProfileSpan o(&p, outer);  // longer: inner span adds readings
    ProfileSpan i(&p, inner);
  }
  const auto agg = p.AggregateByName("outer");
  EXPECT_EQ(agg.count, 2u);
  EXPECT_LT(agg.min, agg.max);
  EXPECT_EQ(agg.total, agg.min + agg.max);
}

TEST(SpanProfiler, SliceRingDropsOldestAndCounts) {
  SpanProfiler p(/*slice_capacity=*/4);
  const SpanId id = p.RegisterSpan("s");
  p.Enable(ProfileClock::kTickDomain);
  for (int i = 0; i < 10; ++i) {
    ProfileSpan s(&p, id);
  }
  EXPECT_EQ(p.slices_retained(), 4u);
  EXPECT_EQ(p.slices_dropped(), 6u);
  // Oldest dropped: retained slices are the last four, in order.
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < p.slices_retained(); ++i) {
    EXPECT_GT(p.slice(i).start, prev);
    prev = p.slice(i).start;
    EXPECT_EQ(p.slice(i).span, id);
    EXPECT_EQ(p.slice(i).depth, 0u);
  }
}

TEST(SpanProfiler, RecordSlicesOffKeepsAggregates) {
  SpanProfiler p;
  const SpanId id = p.RegisterSpan("s");
  p.set_record_slices(false);
  p.Enable(ProfileClock::kTickDomain);
  {
    ProfileSpan s(&p, id);
  }
  EXPECT_EQ(p.slices_retained(), 0u);
  EXPECT_EQ(p.AggregateByName("s").count, 1u);
}

TEST(SpanProfiler, DisableMidSpanThenExitIsSafe) {
  SpanProfiler p;
  const SpanId id = p.RegisterSpan("s");
  p.Enable(ProfileClock::kTickDomain);
  p.Enter(id);
  p.Disable();
  p.Exit();  // stack already cleared by Disable: must tolerate
  EXPECT_EQ(p.open_spans(), 0u);
}

TEST(SpanProfiler, WriteJsonlEmitsNothingWhenNeverEnabled) {
  SpanProfiler p;
  p.RegisterSpan("s");
  std::ostringstream os;
  p.WriteJsonl(os);
  EXPECT_TRUE(os.str().empty());
}

TEST(SpanProfiler, WriteJsonlShape) {
  SpanProfiler p;
  const SpanId outer = p.RegisterSpan("outer");
  const SpanId inner = p.RegisterSpan("inner");
  p.Enable(ProfileClock::kTickDomain);
  {
    ProfileSpan o(&p, outer);
    ProfileSpan i(&p, inner);
  }
  std::ostringstream os;
  p.WriteJsonl(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"type\":\"profile\""), std::string::npos);
  EXPECT_NE(out.find("\"type\":\"span\",\"name\":\"outer\""),
            std::string::npos);
  EXPECT_NE(out.find("\"type\":\"span\",\"name\":\"inner\""),
            std::string::npos);
  // Two lines per record: one profile header + two span nodes.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
}

TEST(SpanProfiler, MacroCompilesAndProfiles) {
  SpanProfiler p;
  const SpanId id = p.RegisterSpan("macro");
  p.Enable(ProfileClock::kTickDomain);
  {
    SDS_PROFILE_SPAN(&p, id);
  }
  EXPECT_EQ(p.AggregateByName("macro").count, 1u);
}

}  // namespace
}  // namespace sds::telemetry
