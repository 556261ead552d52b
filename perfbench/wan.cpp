// wan1000_sharded: a WAN of `segments` LAN segments × 3 processes plus 2
// name servers, run by the sharded engine with the planner on.
//
// Groups: one local LWG per segment, plus `regional` LWGs, each with one
// member in each of 10 consecutive segments (which member of a segment is
// drawn from the seed). Traffic runs in 10 sim-ms ticks: every process
// sends 64 B to its segment LWG once per 80 sim-ms, and every regional LWG
// gets one send per 80 sim-ms from a rotating member; the seed staggers
// the phases.
#include <algorithm>
#include <numeric>

#include "probe.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace plwg::perfbench {
namespace {

constexpr std::size_t kPerSegment = 3;
constexpr std::size_t kRegionalSpan = 10;
constexpr std::size_t kBytes = 64;
constexpr Duration kTick = 10'000;
constexpr std::uint64_t kPeriodTicks = 8;  // 80 sim-ms

}  // namespace

std::string run_wan(const Options& o) {
  Rng rng(o.seed);
  const std::size_t segments = o.segments;
  const std::size_t regional = std::min(o.regional, segments / kRegionalSpan);
  harness::WorldConfig cfg;
  cfg.oracle = o.oracle;
  cfg.num_processes = segments * kPerSegment;
  cfg.num_name_servers = 2;
  cfg.sim_threads = o.threads;
  cfg.planner.enabled = true;
  cfg.net.seed = o.seed;
  for (std::size_t s = 0; s < segments; ++s) {
    std::vector<std::size_t> seg;
    for (std::size_t i = 0; i < kPerSegment; ++i) {
      seg.push_back(s * kPerSegment + i);
    }
    cfg.segments.push_back(seg);
  }

  const std::uint64_t setup0 = now_ns();
  std::unique_ptr<harness::SimWorld> world;
  {
    Span span("harness.build");
    world = std::make_unique<harness::SimWorld>(cfg);
  }
  const double build_s = seconds_since(setup0);
  Driver driver(*world);
  std::vector<std::unique_ptr<ProbeUser>> users;
  for (std::size_t i = 0; i < cfg.num_processes; ++i) {
    users.push_back(std::make_unique<ProbeUser>(*world, i, true));
  }

  // Group g < segments is segment g's local LWG; the rest are regional.
  std::vector<LwgId> groups;
  std::vector<std::vector<std::size_t>> members;
  for (std::size_t s = 0; s < segments; ++s) {
    groups.push_back(LwgId{s + 1});
    members.push_back({s * kPerSegment, s * kPerSegment + 1,
                       s * kPerSegment + 2});
  }
  for (std::size_t r = 0; r < regional; ++r) {
    groups.push_back(LwgId{100'000 + r});
    std::vector<std::size_t> m;
    for (std::size_t k = 0; k < kRegionalSpan; ++k) {
      const std::size_t seg = r * kRegionalSpan + k;
      m.push_back(seg * kPerSegment + rng.next_below(kPerSegment));
    }
    members.push_back(m);
  }

  // Founders in one wave, then every other member. The predicates resume
  // where they stopped: a full scan of 1,100 groups every 10 sim-ms would
  // cost more than the simulation it waits for.
  const auto founded = [&](std::size_t g) {
    return driver.view_of(members[g][0], groups[g]) != nullptr;
  };
  const auto complete = [&](std::size_t g) {
    for (const std::size_t p : members[g]) {
      const lwg::LwgView* v = driver.view_of(p, groups[g]);
      if (v == nullptr || v->members.size() != members[g].size()) return false;
    }
    return true;
  };
  // Set-up runs for seconds: sample the host speed during it, once per
  // simulated second, and leave the samples' own time out of setup_s.
  std::vector<double> speed_samples;
  std::uint64_t polls = 0;
  const auto all_from = [&](std::size_t& next, const auto& ok) {
    if (polls++ % 100 == 0) {
      speed_samples.push_back(reference_kernel_s(world->engine().threads()));
    }
    while (next < groups.size() && ok(next)) ++next;
    return next == groups.size();
  };
  const std::uint64_t join0 = now_ns();
  for (std::size_t g = 0; g < groups.size(); ++g) {
    driver.join(members[g][0], groups[g], *users[members[g][0]]);
  }
  // Formation budgets, several times what set-up takes (about 25 sim-s).
  std::size_t next = 0;
  bool formed = driver.run_until([&] { return all_from(next, founded); },
                                 30'000'000);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (std::size_t k = 1; k < members[g].size(); ++k) {
      driver.join(members[g][k], groups[g], *users[members[g][k]]);
    }
  }
  next = 0;
  formed &= driver.run_until([&] { return all_from(next, complete); },
                             60'000'000);
  // A group that formed can lose its full view again without any fault
  // (seen on some seeds); the sends that this affects count as failed
  // operations, and the count of such groups is recorded.
  std::uint64_t regressed = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) regressed += !complete(g);
  const double sampling_s =
      std::accumulate(speed_samples.begin(), speed_samples.end(), 0.0);
  const double join_s = seconds_since(join0) - sampling_s;
  const double setup_s = seconds_since(setup0) - sampling_s;
  const double setup_ref_s = percentile(speed_samples, 0.5);
  const Time setup_sim = world->engine().now();
  const Counters setup_counters = driver.counters();

  // Send phase per process, then per regional LWG.
  std::vector<std::uint64_t> phase(cfg.num_processes + regional);
  for (auto& p : phase) p = rng.next_below(kPeriodTicks);
  SendLog log;
  SteadyPlan plan;
  plan.tick_us = kTick;
  plan.window_us = 200'000;
  plan.warm_us = 200'000;
  plan.measure_us = static_cast<Duration>(o.sim_s * 1e6);
  plan.drain_us = 1'000'000;
  plan.traffic = [&](std::uint64_t t) {
    for (std::size_t p = 0; p < cfg.num_processes; ++p) {
      if ((t + phase[p]) % kPeriodTicks == 0) {
        log.send(driver, p, groups[p / kPerSegment], kBytes);
      }
    }
    for (std::size_t r = 0; r < regional; ++r) {
      const std::size_t g = segments + r;
      const std::uint64_t k = t + phase[cfg.num_processes + r];
      if (k % kPeriodTicks == 0) {
        const auto& m = members[g];
        log.send(driver, m[(k / kPeriodTicks) % m.size()], groups[g], kBytes);
      }
    }
  };
  if (o.force_loss) {
    plan.after_first_measured_send = [&] { driver.crash(1); };
  }

  Json out;
  out.str("workload", "wan1000_sharded")
      .count("seed", o.seed)
      .count("segments", segments)
      .count("regional", regional)
      .count("formed", formed ? 1 : 0)
      .count("groups_not_full_after_setup", regressed)
      .raw("setup_s", json_array({setup_s}))
      .raw("setup_ref_s", json_array({setup_ref_s}))
      .num("build_s", build_s)
      .num("join_s", join_s)
      .num("setup_sim_s", static_cast<double>(setup_sim) / 1e6)
      .raw("setup_counters", counters_json(setup_counters));
  run_steady(driver, users, log, plan, out);
  return out.done();
}

}  // namespace plwg::perfbench
