// fig2_closed_loop: the paper's Fig. 2 world under saturating closed-loop
// senders. 8 processes on one 10 Mbps LAN, dynamic LWG mapping, two sets of
// 4 groups of 4: set A over processes {0..3}, set B over {4..7}. Process 0
// sends 64 B probes on every set-A group and process 4 on every set-B
// group, each keeping 8 probes outstanding per group (a probe is
// outstanding until the group's watcher, process 1 or 5, delivers it).
//
// The seed picks the group join order and each group's traffic start
// offset; everything else is the paper's configuration.
#include <algorithm>

#include "probe.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace plwg::perfbench {
namespace {

constexpr std::size_t kProcesses = 8;
constexpr std::size_t kGroupSize = 4;
constexpr std::size_t kGroupsPerSet = 4;
constexpr std::size_t kBytes = 64;
constexpr std::uint64_t kWindow = 8;
constexpr Duration kTick = 2'000;

harness::WorldConfig fig2_config(const Options& o) {
  harness::WorldConfig cfg;
  cfg.oracle = o.oracle;
  cfg.num_processes = kProcesses;
  cfg.num_name_servers = 1;
  cfg.sim_threads = 1;
  cfg.net.seed = o.seed;
  cfg.net.bandwidth_bps = 10e6;        // the paper's 10 Mbps Ethernet
  cfg.net.node_process_cost_us = 300;  // per-packet protocol processing
  cfg.vsync.membership_msg_cost_us = 5'000;
  cfg.lwg.mode = lwg::MappingMode::kDynamic;
  cfg.lwg.policy_period_us = 60'000'000;
  return cfg;
}

/// A formed Fig. 2 world: construction plus every group's joins.
struct Fig2World {
  std::unique_ptr<harness::SimWorld> world;
  std::unique_ptr<Driver> driver;
  std::vector<std::unique_ptr<ProbeUser>> users;
  std::vector<LwgId> groups;
  std::vector<std::size_t> first_member;  // founder: 0 (set A) or 4 (set B)
  bool formed = true;
  double build_s = 0;
  double join_s = 0;
  double setup_s = 0;
};

Fig2World set_up(const Options& o) {
  Rng rng(o.seed);
  Fig2World f;
  const std::uint64_t setup0 = now_ns();
  {
    Span span("harness.build");
    f.world = std::make_unique<harness::SimWorld>(fig2_config(o));
  }
  f.build_s = seconds_since(setup0);
  f.driver = std::make_unique<Driver>(*f.world);
  Driver& driver = *f.driver;
  for (std::size_t i = 0; i < kProcesses; ++i) {
    f.users.push_back(std::make_unique<ProbeUser>(*f.world, i, true));
  }
  for (std::size_t g = 0; g < 2 * kGroupsPerSet; ++g) {
    const bool set_a = g < kGroupsPerSet;
    f.groups.push_back(LwgId{(set_a ? 0x0A00U : 0x0B00U) + g % kGroupsPerSet});
    f.first_member.push_back(set_a ? 0 : 4);
  }
  std::vector<std::size_t> join_order(f.groups.size());
  for (std::size_t g = 0; g < join_order.size(); ++g) join_order[g] = g;
  for (std::size_t g = join_order.size() - 1; g > 0; --g) {
    std::swap(join_order[g], join_order[rng.next_below(g + 1)]);
  }
  const std::uint64_t join0 = now_ns();
  for (const std::size_t g : join_order) {
    const LwgId id = f.groups[g];
    const std::size_t first = f.first_member[g];
    // The first member founds (and maps) the group, then the rest join.
    driver.join(first, id, *f.users[first]);
    f.formed &= driver.run_until(
        [&] { return driver.view_of(first, id) != nullptr; }, 20'000'000);
    for (std::size_t k = 1; k < kGroupSize; ++k) {
      driver.join(first + k, id, *f.users[first + k]);
    }
    f.formed &= driver.run_until(
        [&] {
          for (std::size_t k = 0; k < kGroupSize; ++k) {
            const lwg::LwgView* v = driver.view_of(first + k, id);
            if (v == nullptr || v->members.size() != kGroupSize) return false;
          }
          return true;
        },
        30'000'000);
  }
  f.join_s = seconds_since(join0);
  f.setup_s = seconds_since(setup0);
  return f;
}

}  // namespace

std::string run_fig2(const Options& o) {
  // Set-up takes about a millisecond: repeat it and keep the median.
  constexpr int kSetups = 7;
  std::vector<double> setup_s;
  std::vector<double> setup_ref_s;
  std::vector<double> build_s;
  std::vector<double> join_s;
  Fig2World f;
  for (int i = 0; i < kSetups; ++i) {
    f = set_up(o);
    setup_s.push_back(f.setup_s);
    setup_ref_s.push_back(reference_kernel_s(1));
    build_s.push_back(f.build_s);
    join_s.push_back(f.join_s);
  }
  Driver& driver = *f.driver;
  auto& users = f.users;
  const auto& groups = f.groups;
  const auto& first_member = f.first_member;
  const Time setup_sim = f.world->engine().now();
  const Counters setup_counters = driver.counters();
  // Settle naming-service traffic and heartbeats (not part of set-up).
  driver.run_for(3'000'000);

  Rng rng(o.seed + 1);
  std::vector<std::uint64_t> start_tick(groups.size());
  for (auto& t : start_tick) t = rng.next_below(25);  // within 50 ms
  std::vector<std::uint64_t> sent(groups.size(), 0);
  SendLog log;
  SteadyPlan plan;
  plan.tick_us = kTick;
  plan.window_us = 1'000'000;
  plan.warm_us = 3'000'000;
  plan.measure_us = static_cast<Duration>(o.sim_s * 1e6);
  plan.drain_us = 2'000'000;
  plan.traffic = [&](std::uint64_t t) {
    for (std::size_t g = 0; g < groups.size(); ++g) {
      if (t < start_tick[g]) continue;
      const std::size_t watcher = first_member[g] + 1;
      const auto it = users[watcher]->per_lwg.find(groups[g].value());
      const std::uint64_t done =
          it == users[watcher]->per_lwg.end() ? 0 : it->second;
      while (sent[g] < done + kWindow) {
        log.send(driver, first_member[g], groups[g], kBytes);
        ++sent[g];
      }
    }
  };
  if (o.force_loss) {
    // Process 2 dies with the first measured probes still in flight.
    plan.after_first_measured_send = [&] { driver.crash(2); };
  }

  Json out;
  out.str("workload", "fig2_closed_loop")
      .count("seed", o.seed)
      .count("formed", f.formed ? 1 : 0)
      .raw("setup_s", json_array(setup_s))
      .raw("setup_ref_s", json_array(setup_ref_s))
      .num("build_s", percentile(build_s, 0.5))
      .num("join_s", percentile(join_s, 0.5))
      .num("setup_sim_s", static_cast<double>(setup_sim) / 1e6)
      .raw("setup_counters", counters_json(setup_counters));
  run_steady(driver, users, log, plan, out);
  return out.done();
}

}  // namespace plwg::perfbench
