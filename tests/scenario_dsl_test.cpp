// Scenario-DSL parsing: malformed, unknown-key, and out-of-range documents
// are rejected with errors naming the problem; well-formed documents parse
// into the expected model; every corpus file under scenarios/ loads, the
// corpus covers the required fault families, and a scenario replays
// deterministically (same seed -> byte-identical trace digest).
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "harness/scenario.hpp"

namespace plwg::harness::testing {
namespace {

/// Expect parse_scenario to throw, with `needle` somewhere in the message.
void expect_rejected(const std::string& json, const std::string& needle) {
  try {
    (void)parse_scenario(json);
    FAIL() << "accepted invalid scenario: " << json;
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "error \"" << e.what() << "\" does not mention \"" << needle
        << "\"";
  }
}

constexpr const char* kMinimal = R"({
  "name": "t",
  "events": [ { "kind": "crash", "at_ms": 1000, "node": 1 } ]
})";

TEST(ScenarioDsl, ParsesMinimalDocumentWithDefaults) {
  const Scenario s = parse_scenario(kMinimal);
  EXPECT_EQ(s.name, "t");
  EXPECT_EQ(s.processes, 6u);
  EXPECT_EQ(s.name_servers, 2u);
  EXPECT_TRUE(s.segments.empty());
  EXPECT_EQ(s.run_us, 40'000'000);
  ASSERT_EQ(s.events.size(), 1u);
  EXPECT_EQ(s.events[0].kind, ScenarioEvent::Kind::kCrash);
  EXPECT_EQ(s.events[0].at_us, 1'000'000);  // ms -> us
  EXPECT_EQ(s.events[0].node, 1u);
  EXPECT_EQ(s.events[0].down_us, 0);  // permanent by default
}

TEST(ScenarioDsl, ParsesEveryEventKind) {
  const Scenario s = parse_scenario(R"({
    "name": "all-kinds",
    "description": "one of each",
    "processes": 6,
    "net": {"drop_probability": 0.01, "jitter_ms": 2},
    "events": [
      { "kind": "partition", "at_ms": 1, "islands": [[0,1],[2,3]],
        "server_islands": [0, 1], "duration_ms": 5 },
      { "kind": "rolling_partition", "at_ms": 2, "islands": [[0,1,2],[3,4,5]],
        "steps": 3, "step_ms": 4, "rotate_by": 2 },
      { "kind": "link_down", "at_ms": 3, "from": 0, "to": 1 },
      { "kind": "link_lossy", "at_ms": 4, "from": 1, "to": 2,
        "drop_probability": 0.5, "jitter_ms": 3, "symmetric": true },
      { "kind": "flap", "at_ms": 5, "from": 2, "to": 3, "period_ms": 10,
        "count": 4 },
      { "kind": "crash", "at_ms": 6, "node": 4, "down_ms": 7 },
      { "kind": "churn_storm", "at_ms": 7, "nodes": [1,2], "cycles": 2,
        "down_ms": 8, "gap_ms": 9 }
    ]
  })");
  ASSERT_EQ(s.events.size(), 7u);
  EXPECT_DOUBLE_EQ(s.net_drop_probability, 0.01);
  EXPECT_EQ(s.net_jitter_us, 2'000);
  EXPECT_EQ(s.events[0].duration_us, 5'000);
  EXPECT_EQ(s.events[1].steps, 3u);
  EXPECT_EQ(s.events[1].rotate_by, 2u);
  EXPECT_FALSE(s.events[2].symmetric);  // one-way by default
  EXPECT_EQ(s.events[2].duration_us, 0);  // open until quiesce
  EXPECT_TRUE(s.events[3].symmetric);
  EXPECT_DOUBLE_EQ(s.events[3].drop_probability, 0.5);
  EXPECT_EQ(s.events[4].down_us, 5'000);  // default: period / 2
  EXPECT_EQ(s.events[6].gap_us, 9'000);
}

TEST(ScenarioDsl, RejectsMalformedJsonWithPosition) {
  expect_rejected(R"({"name": "x", "events": )", "malformed JSON");
  expect_rejected("{\"name\": \"x\"\n  \"events\": []}", "line 2");
  expect_rejected(R"({"name": "x", "name": "y", "events": []})",
                  "duplicate key");
}

TEST(ScenarioDsl, RejectsUnknownKeysNamingThem) {
  expect_rejected(R"({"name": "x", "wibble": 1,
                      "events": [{"kind":"crash","at_ms":1,"node":0}]})",
                  "unknown key \"wibble\"");
  expect_rejected(R"({"name": "x", "events": [
                      {"kind":"crash","at_ms":1,"node":0,"colour":"red"}]})",
                  "unknown key \"colour\"");
  expect_rejected(R"({"name": "x", "events": [
                      {"kind":"meteor","at_ms":1}]})",
                  "unknown event kind \"meteor\"");
  // Keys legal for one kind are still unknown for another.
  expect_rejected(R"({"name": "x", "events": [
                      {"kind":"link_down","at_ms":1,"from":0,"to":1,
                       "drop_probability":0.5}]})",
                  "unknown key \"drop_probability\"");
}

TEST(ScenarioDsl, RejectsMissingRequiredKeys) {
  expect_rejected(R"({"events": [{"kind":"crash","at_ms":1,"node":0}]})",
                  "missing required key \"name\"");
  expect_rejected(R"({"name": "x"})", "missing required key \"events\"");
  expect_rejected(R"({"name": "x", "events": []})", "non-empty array");
  expect_rejected(R"({"name": "x", "events": [{"kind":"crash","node":0}]})",
                  "missing required key \"at_ms\"");
  expect_rejected(R"({"name": "x", "events": [{"kind":"flap","at_ms":1,
                      "from":0,"to":1,"period_ms":10}]})",
                  "missing required key \"count\"");
}

TEST(ScenarioDsl, RejectsOutOfRangeValues) {
  expect_rejected(R"({"name": "x", "processes": 1,
                      "events": [{"kind":"crash","at_ms":1,"node":0}]})",
                  "\"processes\" must be in [2, 64]");
  expect_rejected(R"({"name": "x", "events": [
                      {"kind":"crash","at_ms":1,"node":6}]})",
                  "out of range");
  expect_rejected(R"({"name": "x", "events": [
                      {"kind":"crash","at_ms":-5,"node":0}]})",
                  "\"at_ms\"");
  expect_rejected(R"({"name": "x", "events": [
                      {"kind":"link_lossy","at_ms":1,"from":0,"to":1,
                       "drop_probability":1.5}]})",
                  "must be in [0, 1]");
  expect_rejected(R"({"name": "x", "events": [
                      {"kind":"link_down","at_ms":1,"from":2,"to":2}]})",
                  "must differ");
  expect_rejected(R"({"name": "x", "events": [
                      {"kind":"crash","at_ms":1,"node":0.5}]})",
                  "non-negative integer");
  expect_rejected(R"({"name": "x", "events": [
                      {"kind":"flap","at_ms":1,"from":0,"to":1,
                       "period_ms":10,"down_ms":10,"count":1}]})",
                  "shorter than period_ms");
}

TEST(ScenarioDsl, RejectsBadIslandsAndSegments) {
  expect_rejected(R"({"name": "x", "events": [
                      {"kind":"partition","at_ms":1,
                       "islands":[[0,1],[1,2]]}]})",
                  "more than one island");
  expect_rejected(R"({"name": "x", "events": [
                      {"kind":"partition","at_ms":1,"islands":[]}]})",
                  "non-empty");
  expect_rejected(R"({"name": "x", "events": [
                      {"kind":"partition","at_ms":1,"islands":[[0],[1]],
                       "server_islands":[5]}]})",
                  "out of range");
  expect_rejected(R"({"name": "x", "events": [
                      {"kind":"rolling_partition","at_ms":1,
                       "islands":[[0,1,2,3,4,5]],"steps":2,"step_ms":5}]})",
                  "at least two islands");
  expect_rejected(R"({"name": "x", "processes": 4, "segments": [[0,1],[2]],
                      "events": [{"kind":"crash","at_ms":1,"node":0}]})",
                  "process 3 is on no segment");
  expect_rejected(R"({"name": "x", "processes": 4,
                      "segments": [[0,1],[1,2,3]],
                      "events": [{"kind":"crash","at_ms":1,"node":0}]})",
                  "more than one segment");
  expect_rejected(R"({"name": "x", "events": [
                      {"kind":"churn_storm","at_ms":1,
                       "nodes":[0,1,2,3,4,5],"cycles":1,"down_ms":5,
                       "gap_ms":1}]})",
                  "at least one process out of the storm");
  expect_rejected(R"({"name": "x", "events": [
                      {"kind":"churn_storm","at_ms":1,"nodes":[1,1],
                       "cycles":1,"down_ms":5,"gap_ms":1}]})",
                  "must not repeat");
}

TEST(ScenarioDsl, ParsesRandomChurn) {
  const Scenario s = parse_scenario(R"({
    "name": "churn",
    "events": [
      { "kind": "random_churn", "at_ms": 500, "duration_ms": 30000,
        "mean_interval_ms": 4000, "mean_partition_ms": 3000,
        "crash_probability": 0.25, "max_crashes": 2,
        "restart_probability": 0.7, "mean_downtime_ms": 2000 }
    ]
  })");
  ASSERT_EQ(s.events.size(), 1u);
  const ScenarioEvent& ev = s.events[0];
  EXPECT_EQ(ev.kind, ScenarioEvent::Kind::kRandomChurn);
  EXPECT_EQ(ev.at_us, 500'000);  // ms -> us throughout
  EXPECT_EQ(ev.duration_us, 30'000'000);
  EXPECT_EQ(ev.mean_interval_us, 4'000'000);
  EXPECT_EQ(ev.mean_partition_us, 3'000'000);
  EXPECT_DOUBLE_EQ(ev.crash_probability, 0.25);
  EXPECT_EQ(ev.max_crashes, 2u);
  EXPECT_DOUBLE_EQ(ev.restart_probability, 0.7);
  EXPECT_EQ(ev.mean_downtime_us, 2'000'000);

  // Only the two means are required: the default is partition-only churn
  // that draws until quiesce.
  const Scenario d = parse_scenario(R"({"name": "d", "events": [
    {"kind": "random_churn", "at_ms": 0, "mean_interval_ms": 1.5,
     "mean_partition_ms": 1}]})");
  EXPECT_EQ(d.events[0].mean_interval_us, 1'500);
  EXPECT_EQ(d.events[0].duration_us, 0);
  EXPECT_EQ(d.events[0].crash_probability, 0.0);
  EXPECT_EQ(d.events[0].max_crashes, 0u);
}

TEST(ScenarioDsl, RejectsBadRandomChurn) {
  const auto churn = [](const std::string& keys) {
    return R"({"name": "x", "events": [
      {"kind": "random_churn", "at_ms": 0, )" + keys + "}]}";
  };
  const std::string means =
      R"("mean_interval_ms": 4000, "mean_partition_ms": 3000)";
  expect_rejected(churn(means + R"(, "crash_probability": 1.5)"),
                  "\"crash_probability\" in events[0] must be in [0, 1]");
  expect_rejected(churn(means + R"(, "restart_probability": -0.1)"),
                  "\"restart_probability\" in events[0] must be in [0, 1]");
  expect_rejected(churn(R"("mean_interval_ms": 0, "mean_partition_ms": 3000)"),
                  "\"mean_interval_ms\" in events[0] must be > 0 ms");
  expect_rejected(churn(R"("mean_interval_ms": 4000, "mean_partition_ms": -1)"),
                  "\"mean_partition_ms\" in events[0]");
  expect_rejected(churn(means + R"(, "mean_downtime_ms": 0)"),
                  "\"mean_downtime_ms\" in events[0] must be > 0 ms");
  expect_rejected(churn(R"("mean_interval_ms": 4000)"),
                  "missing required key \"mean_partition_ms\"");
  // max_crashes must leave one of the 6 default processes up.
  expect_rejected(churn(means + R"(, "max_crashes": 6)"),
                  "must leave at least one process up");
  expect_rejected(churn(means + R"(, "seed": 7)"), "unknown key \"seed\"");
  expect_rejected(R"({"name": "x", "events": [
      {"kind": "random_churn", "at_ms": 0, "mean_interval_ms": 4000,
       "mean_partition_ms": 3000},
      {"kind": "random_churn", "at_ms": 9000, "mean_interval_ms": 4000,
       "mean_partition_ms": 3000}]})",
                  "at most one random_churn per scenario");
}

TEST(ScenarioDsl, CorpusLoadsAndCoversTheFaultFamilies) {
  const std::vector<std::string> files = list_scenario_files();
  ASSERT_GE(files.size(), 5u) << "corpus missing under " << scenario_dir();
  std::set<std::string> names;
  std::set<ScenarioEvent::Kind> kinds;
  bool crash_during_partition = false;
  for (const std::string& path : files) {
    SCOPED_TRACE(path);
    const Scenario s = load_scenario_file(path);
    EXPECT_FALSE(s.name.empty());
    EXPECT_FALSE(s.description.empty()) << "corpus entries document intent";
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate scenario name";
    bool has_partition = false, has_crash = false;
    for (const ScenarioEvent& ev : s.events) {
      kinds.insert(ev.kind);
      has_partition |= ev.kind == ScenarioEvent::Kind::kPartition ||
                       ev.kind == ScenarioEvent::Kind::kRollingPartition;
      has_crash |= ev.kind == ScenarioEvent::Kind::kCrash ||
                   ev.kind == ScenarioEvent::Kind::kChurnStorm;
    }
    crash_during_partition |= has_partition && has_crash;
  }
  // The five families the corpus must cover (ISSUE acceptance criteria).
  EXPECT_TRUE(kinds.contains(ScenarioEvent::Kind::kLinkDown))
      << "no asymmetric-link scenario";
  EXPECT_TRUE(kinds.contains(ScenarioEvent::Kind::kFlap))
      << "no flapping scenario";
  EXPECT_TRUE(kinds.contains(ScenarioEvent::Kind::kRollingPartition))
      << "no rolling-partition scenario";
  EXPECT_TRUE(kinds.contains(ScenarioEvent::Kind::kChurnStorm))
      << "no churn-storm scenario";
  EXPECT_TRUE(crash_during_partition)
      << "no crash-during-partition scenario";
  EXPECT_TRUE(kinds.contains(ScenarioEvent::Kind::kRandomChurn))
      << "no random-churn scenario";
}

TEST(ScenarioDsl, ReplayIsDeterministic) {
  // A fast composite scenario touching every fault primitive; two runs with
  // the same seed must agree byte-for-byte on the trace digest.
  const Scenario s = parse_scenario(R"({
    "name": "replay-witness",
    "processes": 4,
    "run_ms": 6000,
    "net": { "drop_probability": 0.02, "jitter_ms": 1 },
    "events": [
      { "kind": "partition", "at_ms": 500, "islands": [[0,1],[2,3]],
        "duration_ms": 1500 },
      { "kind": "link_down", "at_ms": 1000, "from": 0, "to": 2,
        "duration_ms": 2000 },
      { "kind": "flap", "at_ms": 2500, "from": 1, "to": 3, "period_ms": 400,
        "down_ms": 150, "count": 3, "symmetric": true },
      { "kind": "crash", "at_ms": 3000, "node": 2, "down_ms": 1200 }
    ]
  })");
  const ScenarioResult a = run_scenario(s, 42);
  const ScenarioResult b = run_scenario(s, 42);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.availability_pct, b.availability_pct);
  EXPECT_EQ(a.partitions, b.partitions);
  EXPECT_EQ(a.link_faults, b.link_faults);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_TRUE(a.converged) << a.failure;
  EXPECT_TRUE(a.oracle_clean) << a.failure;
  // A different seed must explore a different trace.
  const ScenarioResult c = run_scenario(s, 43);
  EXPECT_NE(a.digest, c.digest);
}

}  // namespace
}  // namespace plwg::harness::testing
