// sim::Engine: conservative-window sharded event loops. These tests drive
// the engine directly (no network) to pin the synchronization contract:
// lockstep windows, boundary-time outbox injection in fixed order, exact
// clock advancement, thread-count-independent execution order, and the
// planner surface (site→shard packing, windowed load counters, island
// scheduling for single-shard reachability classes).
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace plwg::sim {
namespace {

TEST(EngineTest, SingleSiteRunsLikeASimulator) {
  Engine engine(1);
  std::vector<int> order;
  engine.site(0).schedule_at(30, [&] { order.push_back(3); });
  engine.site(0).schedule_at(10, [&] { order.push_back(1); });
  engine.site(0).schedule_at(20, [&] { order.push_back(2); });
  EXPECT_EQ(engine.run_until(25), 2u);
  EXPECT_EQ(engine.now(), 25);
  EXPECT_EQ(engine.site(0).now(), 25);
  EXPECT_EQ(engine.run_until(100), 1u);
  EXPECT_EQ((std::vector<int>{1, 2, 3}), order);
  EXPECT_EQ(engine.now(), 100);
}

TEST(EngineTest, RunForAdvancesEverySiteExactly) {
  Engine engine(3);
  engine.set_lookahead(100);
  engine.run_for(12'345);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(engine.site(s).now(), 12'345);
  }
  EXPECT_EQ(engine.now(), 12'345);
}

TEST(EngineTest, ThreadCountIsClampedToSites) {
  Engine::Config config;
  config.threads = 8;
  Engine engine(2, config);
  EXPECT_EQ(engine.threads(), 2u);
}

TEST(EngineTest, CrossSitePostArrivesAtItsTimestamp) {
  Engine engine(2);
  engine.set_lookahead(50);
  Time fired_at = -1;
  // Site 0 posts into site 1 at +120us (>= lookahead, as the network
  // guarantees by construction).
  engine.site(0).schedule_at(10, [&] {
    engine.post(1, 130, [&] { fired_at = engine.site(1).now(); });
  });
  engine.run_until(1'000);
  EXPECT_EQ(fired_at, 130);
}

TEST(EngineTest, IdlePostSchedulesDirectly) {
  Engine engine(2);
  engine.set_lookahead(50);
  bool fired = false;
  engine.post(1, 5, [&] { fired = true; });  // driver thread, idle
  engine.run_until(10);
  EXPECT_TRUE(fired);
}

TEST(EngineTest, BarrierHooksFireOncePerRun) {
  Engine engine(2);
  engine.set_lookahead(100);
  int barriers = 0;
  engine.add_barrier_hook([&] { ++barriers; });
  engine.run_until(1'000);  // 10 lockstep windows, one end-of-run drain
  EXPECT_EQ(barriers, 1);
  engine.run_until(1'500);
  EXPECT_EQ(barriers, 2);
}

/// The determinism contract at engine level: the same event program
/// produces the same observable order at 1 thread and at many threads,
/// with dynamic shard placement on or off, with or without reachability
/// classes splitting the sites into islands.
std::string run_program(std::size_t threads, bool planner_enabled,
                        bool two_classes) {
  Engine::Config config;
  config.threads = threads;
  config.planner.enabled = planner_enabled;
  Engine engine(4, config);
  engine.set_lookahead(100);
  if (two_classes) {
    // Sites {0,1} and {2,3} cannot exchange events: posts below stay inside
    // a class, so the planner may run each class as an island.
    engine.set_site_classes({0, 0, 2, 2});
  }
  std::string trace;  // appended at the end-of-run drain (single-threaded)
  std::vector<std::vector<std::pair<Time, int>>> site_events(4);
  // Each site runs a periodic local event and occasionally posts to its
  // class neighbor; every event records (time, site) into its site's log.
  for (std::size_t s = 0; s < 4; ++s) {
    for (Time t = 10 + static_cast<Time>(s); t < 2'000; t += 37) {
      engine.site(s).schedule_at(t, [&, s, t] {
        site_events[s].emplace_back(t, static_cast<int>(s));
        if (t % 5 == 0) {
          const std::size_t dst = two_classes ? (s ^ 1) : (s + 1) % 4;
          engine.post(dst, t + 150, [&, dst, t] {
            site_events[dst].emplace_back(t + 150, 100 + static_cast<int>(dst));
          });
        }
      });
    }
  }
  engine.add_barrier_hook([&] {
    for (std::size_t s = 0; s < 4; ++s) {
      for (const auto& [t, tag] : site_events[s]) {
        trace += std::to_string(t) + ":" + std::to_string(tag) + ";";
      }
      site_events[s].clear();
    }
  });
  engine.run_until(3'000);
  return trace;
}

TEST(EngineTest, TraceIsIdenticalAcrossThreadCounts) {
  const std::string seq = run_program(1, false, false);
  EXPECT_FALSE(seq.empty());
  EXPECT_EQ(seq, run_program(2, false, false));
  EXPECT_EQ(seq, run_program(4, false, false));
}

TEST(EngineTest, TraceIsIdenticalWithPlannerOnOrOff) {
  const std::string seq = run_program(1, false, false);
  EXPECT_EQ(seq, run_program(1, true, false));
  EXPECT_EQ(seq, run_program(2, true, false));
  EXPECT_EQ(seq, run_program(4, true, false));
}

TEST(EngineTest, TraceIsIdenticalWhenClassesBecomeIslands) {
  const std::string seq = run_program(1, false, true);
  EXPECT_FALSE(seq.empty());
  // Identity placement lock-steps all four sites; the planner runs the two
  // classes as independent islands. Same trace either way, at any width.
  EXPECT_EQ(seq, run_program(1, true, true));
  EXPECT_EQ(seq, run_program(2, true, true));
  EXPECT_EQ(seq, run_program(4, true, true));
}

TEST(EngineTest, EventCountAggregatesAcrossSites) {
  Engine engine(2);
  engine.set_lookahead(10);
  int fired = 0;
  engine.site(0).schedule_at(5, [&] { ++fired; });
  engine.site(1).schedule_at(7, [&] { ++fired; });
  EXPECT_EQ(engine.run_until(20), 2u);
  EXPECT_EQ(fired, 2);
}

TEST(EngineTest, PlannerBoundsShardCountByThreads) {
  Engine::Config config;
  config.threads = 2;
  config.planner.enabled = true;
  Engine engine(8, config);
  // 8 sites, one reachability class, 2 workers: the plan must collapse the
  // sites into 2 shards — not keep one shard per site.
  EXPECT_EQ(engine.num_sites(), 8u);
  EXPECT_EQ(engine.num_shards(), 2u);

  Engine::Config identity = config;
  identity.planner.enabled = false;
  Engine base(8, identity);
  EXPECT_EQ(base.num_shards(), 8u);
}

TEST(EngineTest, WindowedEventCountersResetPerWindow) {
  Engine engine(2);
  engine.set_lookahead(10);
  for (Time t = 1; t <= 100; ++t) {
    engine.site(0).schedule_at(t, [] {});
  }
  engine.run_until(100);
  EXPECT_EQ(engine.site_events_run(0), 100u);
  EXPECT_EQ(engine.site_events_in_window(0), 100u);
  engine.begin_event_window();
  EXPECT_EQ(engine.site_events_in_window(0), 0u);
  engine.site(0).schedule_at(150, [] {});
  engine.run_until(200);
  EXPECT_EQ(engine.site_events_in_window(0), 1u);
  EXPECT_EQ(engine.site_events_run(0), 101u);
}

TEST(EngineTest, LoadReplanMovesHotSiteOntoItsOwnShard) {
  Engine::Config config;
  config.threads = 2;
  config.planner.enabled = true;
  config.planner.replan_interval_us = 1'000;
  config.planner.imbalance_threshold = 1.10;
  Engine engine(4, config);
  engine.set_lookahead(100);
  // Static packing starts balanced (equal weights). Make site 3 hot.
  for (Time t = 1; t < 5'000; ++t) {
    engine.site(3).schedule_at(t, [] {});
  }
  const std::size_t before = engine.replan_count();
  engine.run_until(2'000);  // measure the imbalance...
  engine.run_until(4'000);  // ...replan fires at this entry
  EXPECT_GT(engine.replan_count(), before);
  // The hot site ends up alone on its shard; the three cold sites share.
  const std::size_t hot = engine.plan().site_shard[3];
  EXPECT_EQ(engine.plan().shard_sites[hot].size(), 1u);
}

}  // namespace
}  // namespace plwg::sim
