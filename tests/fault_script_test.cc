// Fault-script layer (fault/script.h): DSL round-tripping, validation
// against a concrete cluster, activity-window semantics, and seed-stability
// of the random generator every recovery-fuzz case is derived from.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "fault/script.h"
#include "topo/cluster.h"

namespace dapple::fault {
namespace {

TEST(FaultScriptTest, ParsesEveryEventKind) {
  const FaultScript script = ParseFaultScript(
      "# straggler then a flaky NIC then a dead card\n"
      "slowdown device=3 start=2.0 end=8.0 mult=0.5\n"
      "\n"
      "degrade server=1 start=4.0 end=9.0 bandwidth=0.25 latency=0.001\n"
      "crash device=5 at=12.0\n");
  ASSERT_EQ(script.events.size(), 3u);

  const FaultEvent& slow = script.events[0];
  EXPECT_EQ(slow.kind, FaultKind::kDeviceSlowdown);
  EXPECT_EQ(slow.device, 3);
  EXPECT_EQ(slow.server, -1);
  EXPECT_DOUBLE_EQ(slow.start, 2.0);
  EXPECT_DOUBLE_EQ(slow.end, 8.0);
  EXPECT_DOUBLE_EQ(slow.compute_multiplier, 0.5);

  const FaultEvent& link = script.events[1];
  EXPECT_EQ(link.kind, FaultKind::kLinkDegradation);
  EXPECT_EQ(link.server, 1);
  EXPECT_DOUBLE_EQ(link.bandwidth_multiplier, 0.25);
  EXPECT_DOUBLE_EQ(link.extra_latency, 0.001);

  const FaultEvent& crash = script.events[2];
  EXPECT_EQ(crash.kind, FaultKind::kDeviceCrash);
  EXPECT_EQ(crash.device, 5);
  EXPECT_DOUBLE_EQ(crash.start, 12.0);
  EXPECT_TRUE(script.HasCrash());
  EXPECT_DOUBLE_EQ(script.FirstOnset(), 2.0);
}

TEST(FaultScriptTest, OmittedEndMeansPersistent) {
  const FaultScript script =
      ParseFaultScript("slowdown server=0 start=1.0 mult=0.5\n");
  ASSERT_EQ(script.events.size(), 1u);
  EXPECT_TRUE(std::isinf(script.events[0].end));
}

TEST(FaultScriptTest, ToStringRoundTripsThroughTheParser) {
  const std::string text =
      "slowdown device=3 start=2 end=8 mult=0.5\n"
      "degrade server=1 start=4 end=9 bandwidth=0.25 latency=0.001\n"
      "crash device=5 at=12\n";
  const FaultScript script = ParseFaultScript(text);
  // ToString must emit exactly the canonical DSL, and re-parsing it must be
  // a fixed point — this is what lets reports embed scripts verbatim.
  EXPECT_EQ(script.ToString(), text);
  EXPECT_EQ(ParseFaultScript(script.ToString()).ToString(), text);
}

TEST(FaultScriptTest, MalformedInputThrowsWithTheLineNumber) {
  try {
    ParseFaultScript("slowdown device=0 start=0 end=1 mult=0.5\nexplode device=1\n");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
  EXPECT_THROW(ParseFaultScript("slowdown device start=0\n"), Error);
  EXPECT_THROW(ParseFaultScript("slowdown device=abc start=0\n"), Error);
  EXPECT_THROW(ParseFaultScript("crash device=1 at=2 flux=9\n"), Error);
  // A number is the whole value, in range and finite: anything else names
  // the line and the word, never reads a prefix or lets std::out_of_range
  // escape.
  for (const std::string word :
       {"server=1x", "start=1abc", "server=99999999999", "device=-99999999999", "start=1e309",
        "start=inf", "mult=nan", "end=-inf", "latency=1e-3s", "server="}) {
    try {
      ParseFaultScript("slowdown device=0 start=0 end=1 mult=0.5\ndegrade server=1 " + word +
                       "\n");
      ADD_FAILURE() << "expected Error for " << word;
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 2"), std::string::npos) << what;
      EXPECT_NE(what.find(word), std::string::npos) << what;
    }
  }
}

TEST(FaultScriptTest, ValidateRejectsBadScripts) {
  const topo::Cluster cluster = topo::MakeConfigB(2);  // 2 servers x 1 device
  auto expect_invalid = [&](const std::string& text) {
    EXPECT_THROW(ParseFaultScript(text).Validate(cluster), Error) << text;
  };
  expect_invalid("slowdown device=7 start=0 end=1 mult=0.5\n");   // device range
  expect_invalid("degrade server=2 start=0 end=1 bandwidth=0.5\n");  // server range
  expect_invalid("slowdown device=0 start=5 end=2 mult=0.5\n");   // inverted window
  expect_invalid("slowdown device=0 start=0 end=1 mult=1.5\n");   // not a slowdown
  expect_invalid("slowdown device=0 start=0 end=1 mult=0\n");     // zero speed
  expect_invalid("slowdown start=0 end=1 mult=0.5\n");            // no target
  expect_invalid("degrade server=0 start=0 end=1 bandwidth=1\n");  // degrades nothing
  expect_invalid("crash device=0 at=-1\n");                        // negative time

  // And the boundary cases that must pass.
  ParseFaultScript("slowdown device=1 start=0 end=1 mult=0.99\n").Validate(cluster);
  ParseFaultScript("degrade server=1 start=0 end=1 bandwidth=1 latency=1e-4\n")
      .Validate(cluster);
}

TEST(FaultScriptTest, ActiveWindowsAreHalfOpenAndCrashesArePermanent) {
  const FaultScript script = ParseFaultScript(
      "slowdown device=0 start=2 end=8 mult=0.5\n"
      "crash device=1 at=5\n");
  const FaultEvent& slow = script.events[0];
  EXPECT_FALSE(slow.ActiveAt(1.9));
  EXPECT_TRUE(slow.ActiveAt(2.0));
  EXPECT_TRUE(slow.ActiveAt(7.9));
  EXPECT_FALSE(slow.ActiveAt(8.0));
  const FaultEvent& crash = script.events[1];
  EXPECT_FALSE(crash.ActiveAt(4.9));
  EXPECT_TRUE(crash.ActiveAt(5.0));
  EXPECT_TRUE(crash.ActiveAt(1e9));
}

TEST(FaultScriptTest, RandomScriptsAreSeedDeterministic) {
  const topo::Cluster cluster = topo::MakeConfigA(2);
  RandomFaultOptions options;
  options.horizon = 20.0;
  options.max_events = 4;
  const FaultScript a = RandomFaultScript(42, cluster, options);
  const FaultScript b = RandomFaultScript(42, cluster, options);
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_NE(a.ToString(), RandomFaultScript(43, cluster, options).ToString());
}

TEST(FaultScriptTest, RandomScriptsValidateAndRespectTheOptions) {
  const topo::Cluster cluster = topo::MakeConfigA(2);
  RandomFaultOptions options;
  options.horizon = 20.0;
  options.max_events = 4;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const FaultScript script = RandomFaultScript(seed, cluster, options);
    script.Validate(cluster);  // throws on any malformed event
    ASSERT_GE(script.events.size(), 1u) << "seed " << seed;
    ASSERT_LE(script.events.size(), 4u) << "seed " << seed;
    int crashes = 0;
    for (const FaultEvent& e : script.events) {
      EXPECT_GE(e.start, 0.0) << "seed " << seed;
      EXPECT_LT(e.start, options.horizon) << "seed " << seed;
      crashes += e.kind == FaultKind::kDeviceCrash ? 1 : 0;
    }
    // At most one crash keeps every case analyzable by all three policies.
    EXPECT_LE(crashes, 1) << "seed " << seed;
  }
}

}  // namespace
}  // namespace dapple::fault
