// The sharded engine's determinism contract, end to end: the same seed must
// produce a byte-identical trace digest — deliveries, payloads, timer-event
// counts — and a clean oracle at 1, 2, and 8 worker threads, on a
// multi-segment world under chaos (partitions, crashes, restarts) with live
// application traffic.
//
// PLWG_DET_SEEDS overrides the seed count (default 50), PLWG_DET_FIRST the
// starting seed — same convention as the oracle sweep.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "harness/chaos.hpp"
#include "harness/scenario.hpp"
#include "harness/world.hpp"
#include "lwg/lwg_user.hpp"
#include "sim/shard_planner.hpp"
#include "util/codec.hpp"

namespace plwg::harness {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

struct EpisodeResult {
  std::uint64_t digest = 0;
  bool converged = false;
  bool oracle_clean = false;
  std::uint64_t replans = 0;
  std::string oracle_report;
};

/// An aggressive planner configuration: replan often, at a low imbalance
/// bar, so the witness actually exercises load-driven shard migration and
/// partition-driven retagging — not just the static initial packing.
sim::PlannerConfig aggressive_planner() {
  sim::PlannerConfig planner;
  planner.enabled = true;
  planner.replan_interval_us = 500'000;
  planner.imbalance_threshold = 1.10;
  return planner;
}

/// One deterministic chaos episode on a 4-segment / 8-process WAN world:
/// form a segment-spanning LWG, interleave chaos with application sends,
/// quiesce, converge, and read the combined trace digest.
EpisodeResult run_episode(std::uint64_t seed, std::size_t threads,
                          const sim::PlannerConfig& planner) {
  WorldConfig cfg;
  cfg.num_processes = 8;
  cfg.num_name_servers = 2;
  cfg.segments = {{0, 1}, {2, 3}, {4, 5}, {6, 7}};
  cfg.sim_threads = threads;
  cfg.planner = planner;
  cfg.net.seed = seed;
  cfg.net.digest_payloads = true;
  SimWorld world(cfg);

  std::vector<lwg::NullUser> users(cfg.num_processes);
  const LwgId id{1};
  for (std::size_t i = 0; i < cfg.num_processes; ++i) {
    world.lwg(i).join(id, users[i]);
  }
  const bool formed = world.run_until(
      [&] {
        for (std::size_t i = 0; i < cfg.num_processes; ++i) {
          const lwg::LwgView* v = world.lwg(i).view_of(id);
          if (v == nullptr || v->members.size() != cfg.num_processes) {
            return false;
          }
        }
        return true;
      },
      60'000'000);
  EXPECT_TRUE(formed) << "seed " << seed << " threads " << threads
                      << ": lwg never formed";

  ChaosMonkey chaos(world, seed ^ 0x9e3779b97f4a7c15ULL);
  chaos.load({.processes = cfg.num_processes,
              .events = {{.kind = ScenarioEvent::Kind::kRandomChurn,
                          .mean_interval_us = 1'500'000,
                          .mean_partition_us = 1'000'000,
                          .crash_probability = 0.3,
                          .max_crashes = 3,
                          .restart_probability = 0.7,
                          .mean_downtime_us = 1'000'000}}});
  // Interleave fault injection with application traffic so the digest
  // covers payload bytes crossing the backbone mid-chaos.
  for (int slice = 0; slice < 30; ++slice) {
    chaos.run_for(100'000);
    for (std::size_t i = 0; i < cfg.num_processes; ++i) {
      if (world.crashed(i)) continue;
      Encoder enc;
      enc.put_u64(seed);
      enc.put_u64(static_cast<std::uint64_t>(slice) * 100 + i);
      world.lwg(i).send(id, enc.take());
    }
  }
  chaos.quiesce();

  EpisodeResult out;
  out.converged = world.run_until(
      [&] { return world.convergence_failure().empty(); }, 200'000'000);
  out.digest = world.trace_digest();
  out.replans = world.engine().replan_count();
  if (world.oracle_enabled()) {
    out.oracle_clean = world.oracle().clean();
    if (!out.oracle_clean) out.oracle_report = world.oracle().report_json();
    world.oracle().clear();  // report via gtest, not the world's backstop
  } else {
    out.oracle_clean = true;
  }
  return out;
}

/// The legacy witness: identity placement (planner off) is the pre-planner
/// engine, and its digest must be thread-count-invariant exactly as before.
TEST(DeterminismTest, IdenticalDigestsAtOneTwoAndEightThreads) {
  const std::uint64_t first = env_u64("PLWG_DET_FIRST", 1);
  const std::uint64_t count = env_u64("PLWG_DET_SEEDS", 50);
  sim::PlannerConfig identity;
  identity.enabled = false;
  for (std::uint64_t seed = first; seed < first + count; ++seed) {
    SCOPED_TRACE("determinism seed " + std::to_string(seed));
    const EpisodeResult base = run_episode(seed, 1, identity);
    EXPECT_TRUE(base.converged);
    EXPECT_TRUE(base.oracle_clean) << base.oracle_report;
    for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      const EpisodeResult other = run_episode(seed, threads, identity);
      EXPECT_EQ(base.digest, other.digest)
          << "seed " << seed << ": digest diverged at " << threads
          << " threads";
      EXPECT_EQ(base.converged, other.converged);
      EXPECT_TRUE(other.oracle_clean)
          << "threads " << threads << ": " << other.oracle_report;
    }
    if (::testing::Test::HasFatalFailure()) break;
  }
}

/// The planner witness: with load-driven replanning and partition-driven
/// retagging active (aggressive knobs so replans actually fire mid-episode),
/// the digest must equal the identity-placement digest at 1, 2, and 8
/// threads — shard placement is pure execution grouping, invisible to the
/// simulation. Also asserts that the corpus exercised at least one replan,
/// so the witness cannot silently degrade into a static-plan test.
TEST(DeterminismTest, PlannerReplansAreDigestInvariantAcrossThreads) {
  const std::uint64_t first = env_u64("PLWG_DET_FIRST", 1);
  const std::uint64_t count = env_u64("PLWG_DET_SEEDS", 50);
  sim::PlannerConfig identity;
  identity.enabled = false;
  const sim::PlannerConfig planner = aggressive_planner();
  std::uint64_t total_replans = 0;
  for (std::uint64_t seed = first; seed < first + count; ++seed) {
    SCOPED_TRACE("planner determinism seed " + std::to_string(seed));
    const EpisodeResult base = run_episode(seed, 1, identity);
    EXPECT_TRUE(base.converged);
    for (std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      const EpisodeResult other = run_episode(seed, threads, planner);
      EXPECT_EQ(base.digest, other.digest)
          << "seed " << seed << ": planner-on digest diverged at " << threads
          << " threads";
      EXPECT_EQ(base.converged, other.converged);
      EXPECT_TRUE(other.oracle_clean)
          << "threads " << threads << ": " << other.oracle_report;
      total_replans += other.replans;
    }
    if (::testing::Test::HasFatalFailure()) break;
  }
  EXPECT_GT(total_replans, 0u)
      << "the chaos corpus never triggered a replan or retag — the planner "
         "witness is vacuous";
}

/// The adversarial corpus's fault shapes — flap trains and one-way links
/// inside each segment, lossy cross-segment overrides — must preserve the
/// contract on the sharded engine: every per-link drop/jitter draw comes
/// from the owning shard's RNG stream, so the digest cannot depend on the
/// worker-thread count or on cross-shard execution interleaving.
TEST(DeterminismTest, ScenarioFaultShapesAreThreadCountInvariant) {
  const Scenario scenario =
      load_scenario_file(scenario_dir() + "/wan_flap_asymmetric.json");
  const std::uint64_t seeds = env_u64("PLWG_DET_SCENARIO_SEEDS", 2);
  const std::uint64_t first = env_u64("PLWG_DET_FIRST", 1);
  for (std::uint64_t seed = first; seed < first + seeds; ++seed) {
    const ScenarioResult base = run_scenario(scenario, seed, /*threads=*/1);
    EXPECT_TRUE(base.formed) << "seed " << seed;
    EXPECT_TRUE(base.converged) << "seed " << seed << ": " << base.failure;
    EXPECT_TRUE(base.oracle_clean) << "seed " << seed << ": " << base.failure;
    for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      const ScenarioResult other = run_scenario(scenario, seed, threads);
      EXPECT_EQ(base.digest, other.digest)
          << "seed " << seed << ": scenario digest diverged at " << threads
          << " threads";
      EXPECT_EQ(base.converged, other.converged) << "seed " << seed;
      EXPECT_TRUE(other.oracle_clean)
          << "seed " << seed << " threads " << threads << ": "
          << other.failure;
    }
    if (::testing::Test::HasFatalFailure()) break;
  }
}

/// A single-LAN world has one shard: the engine must degenerate to the
/// classic single-threaded loop, so the digest is thread-count-invariant
/// trivially — pinned here to catch accidental sharding of single-LAN
/// worlds.
TEST(DeterminismTest, SingleLanWorldIsSingleShard) {
  WorldConfig cfg;
  cfg.num_processes = 4;
  cfg.sim_threads = 8;
  SimWorld world(cfg);
  EXPECT_EQ(world.engine().num_shards(), 1u);
  EXPECT_EQ(world.engine().threads(), 1u);
}

}  // namespace
}  // namespace plwg::harness
