// chaos_oracle_soak, one episode: 9 processes in 3 segments of 3, 3 name
// servers, 3 overlapping cross-segment LWGs, drop 0.005 and 200 µs jitter,
// the protocol oracle on. Every LWG gets one 8 B send per 10 sim-ms from a
// rotating live member. Each cycle:
//   2 s traffic; a WAN cut or a 5/4 partition; 4 s traffic; crash a
//   victim; 2 s traffic; heal and restart the victim; run until
//   convergence_failure() is empty (120 sim-s budget); verify_convergence().
// The seed picks each cycle's fault shape, partition sides and victim.
//
// One JSON line per finished cycle goes to stdout as soon as the cycle
// ends, so a parent process still learns how far an episode got if a
// library assertion aborts it.
#include <algorithm>
#include <cstdio>
#include <optional>

#include "probe.hpp"
#include "util/codec.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace plwg::perfbench {
namespace {

constexpr std::size_t kProcesses = 9;
constexpr Duration kTick = 10'000;
constexpr Duration kConvergeBudget = 120'000'000;

const std::vector<std::vector<std::size_t>> kGroups = {
    {0, 3, 6, 1}, {1, 4, 7, 2}, {2, 5, 8, 0, 3}};

std::string clip(std::string s, std::size_t n) {
  if (s.size() > n) s.resize(n);
  return s;
}

harness::WorldConfig chaos_config(const Options& o) {
  harness::WorldConfig cfg;
  cfg.oracle = o.oracle;
  cfg.num_processes = kProcesses;
  cfg.num_name_servers = 3;
  cfg.segments = {{0, 1, 2}, {3, 4, 5}, {6, 7, 8}};
  cfg.sim_threads = 1;
  cfg.net.seed = o.seed;
  cfg.net.drop_probability = 0.005;
  cfg.net.jitter_us = 200;
  return cfg;
}

/// A formed chaos world: construction plus every LWG's joins.
struct ChaosWorld {
  std::unique_ptr<harness::SimWorld> world;
  std::unique_ptr<Driver> driver;
  std::vector<std::unique_ptr<ProbeUser>> users;
  std::vector<LwgId> ids;
  bool formed = true;
  double build_s = 0;
  double join_s = 0;
  double setup_s = 0;
};

ChaosWorld set_up(const Options& o) {
  ChaosWorld w;
  const std::uint64_t setup0 = now_ns();
  {
    Span span("harness.build");
    w.world = std::make_unique<harness::SimWorld>(chaos_config(o));
  }
  w.build_s = seconds_since(setup0);
  w.driver = std::make_unique<Driver>(*w.world);
  Driver& driver = *w.driver;
  for (std::size_t i = 0; i < kProcesses; ++i) {
    w.users.push_back(std::make_unique<ProbeUser>(*w.world, i, false));
  }
  for (std::size_t g = 0; g < kGroups.size(); ++g) {
    w.ids.push_back(LwgId{g + 1});
  }
  const std::uint64_t join0 = now_ns();
  for (std::size_t g = 0; g < kGroups.size(); ++g) {
    driver.join(kGroups[g][0], w.ids[g], *w.users[kGroups[g][0]]);
  }
  w.formed = driver.run_until(
      [&] {
        for (std::size_t g = 0; g < kGroups.size(); ++g) {
          if (driver.view_of(kGroups[g][0], w.ids[g]) == nullptr) return false;
        }
        return true;
      },
      kConvergeBudget);
  for (std::size_t g = 0; g < kGroups.size(); ++g) {
    for (std::size_t k = 1; k < kGroups[g].size(); ++k) {
      driver.join(kGroups[g][k], w.ids[g], *w.users[kGroups[g][k]]);
    }
  }
  w.formed &= driver.run_until(
      [&] {
        for (std::size_t g = 0; g < kGroups.size(); ++g) {
          for (const std::size_t p : kGroups[g]) {
            const lwg::LwgView* v = driver.view_of(p, w.ids[g]);
            if (v == nullptr || v->members.size() != kGroups[g].size()) {
              return false;
            }
          }
        }
        return true;
      },
      kConvergeBudget);
  w.join_s = seconds_since(join0);
  w.setup_s = seconds_since(setup0);
  return w;
}

}  // namespace

std::string run_chaos_episode(const Options& o) {
  // Set-up takes milliseconds: repeat it and keep the median.
  constexpr int kSetups = 7;
  std::vector<double> setup_s;
  std::vector<double> setup_ref_s;
  std::vector<double> build_s;
  std::vector<double> join_s;
  ChaosWorld w;
  for (int i = 0; i < kSetups; ++i) {
    w = set_up(o);
    setup_s.push_back(w.setup_s);
    setup_ref_s.push_back(reference_kernel_s(1));
    build_s.push_back(w.build_s);
    join_s.push_back(w.join_s);
  }
  const bool formed = w.formed;
  harness::SimWorld* world = w.world.get();
  Driver& driver = *w.driver;
  const auto& users = w.users;
  const auto& ids = w.ids;
  const harness::WorldConfig cfg = chaos_config(o);
  const Time setup_sim = world->engine().now();
  Json setup;
  setup.count("formed", formed ? 1 : 0)
      .raw("setup_s", json_array(setup_s))
      .raw("setup_ref_s", json_array(setup_ref_s))
      .num("build_s", percentile(build_s, 0.5))
      .num("join_s", percentile(join_s, 0.5))
      .num("setup_sim_s", static_cast<double>(setup_sim) / 1e6);
  std::printf("{\"setup\":%s}\n", setup.done().c_str());
  std::fflush(stdout);

  Rng rng(o.seed);
  sim::Engine& engine = world->engine();
  std::uint64_t tick = 0;
  const auto traffic = [&](Duration us) {
    const Time end = engine.now() + us;
    while (engine.now() < end) {
      for (std::size_t g = 0; g < kGroups.size(); ++g) {
        const auto& m = kGroups[g];
        for (std::size_t k = 0; k < m.size(); ++k) {
          const std::size_t p = m[(tick + g + k) % m.size()];
          if (world->crashed(p) || driver.view_of(p, ids[g]) == nullptr) {
            continue;
          }
          Encoder enc;
          enc.put_i64(engine.now());
          driver.send(p, ids[g], enc.take());
          break;
        }
      }
      ++tick;
      driver.run_for(kTick);
    }
  };
  const auto deliveries = [&] {
    std::uint64_t total = 0;
    for (const auto& u : users) total += u->deliveries;
    return total;
  };

  const auto tail = [](const std::vector<double>& v, std::size_t from) {
    return std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(from),
                               v.end());
  };
  std::size_t cycles_done = 0;
  for (std::size_t c = 0; formed && c < o.cycles; ++c) {
    std::optional<Span> cycle_span;
    cycle_span.emplace("bench.cycle");
    const Counters c0 = driver.counters();
    const std::uint64_t wall0 = now_ns();
    const Time sim0 = engine.now();
    const std::uint64_t d0 = deliveries();
    const double e0 = driver.engine_s;
    const std::size_t calls0 = driver.run_call_us.size();
    const std::size_t topology0 = driver.topology_us.size();
    const std::size_t restart0 = driver.restart_ms.size();
    const std::size_t checks0 = driver.convergence_check_ms.size();

    traffic(2'000'000);
    const bool wan_cut = rng.next_below(2) == 0;
    if (wan_cut) {
      driver.cut_wan();
    } else {
      std::vector<std::size_t> perm(kProcesses);
      for (std::size_t i = 0; i < kProcesses; ++i) perm[i] = i;
      for (std::size_t i = kProcesses - 1; i > 0; --i) {
        std::swap(perm[i], perm[rng.next_below(i + 1)]);
      }
      std::vector<std::vector<std::size_t>> classes = {
          {perm.begin(), perm.begin() + 5}, {perm.begin() + 5, perm.end()}};
      std::vector<std::size_t> sides;
      for (std::size_t j = 0; j < cfg.num_name_servers; ++j) {
        sides.push_back(rng.next_below(2));
      }
      driver.partition(classes, sides);
    }
    traffic(4'000'000);
    const std::size_t victim = rng.next_below(kProcesses);
    driver.crash(victim);
    traffic(2'000'000);
    driver.heal();
    const Time heal_at = engine.now();
    driver.restart(victim);
    const bool converged = driver.run_until(
        [&] { return driver.convergence_failure().empty(); }, kConvergeBudget);
    const Time converged_at = engine.now();
    std::string reason;
    std::uint64_t violations = 0;
    if (converged) {
      driver.verify_convergence();
    } else {
      reason = "timeout: " + clip(driver.convergence_failure(), 160);
    }
    if (world->oracle_enabled() && !world->oracle().violations().empty()) {
      const auto& v = world->oracle().violations();
      violations = world->oracle().total_violations();
      if (!reason.empty()) reason += "; ";
      reason += "oracle invariant #" + std::to_string(v.front().invariant) +
                ": " + clip(v.front().description, 160);
      world->oracle().clear();  // acknowledged: recorded as this cycle's
    }

    const Counters c1 = driver.counters();
    const double wall_ms = seconds_since(wall0) * 1e3;
    cycle_span.reset();
    const Counters d = c1 - c0;
    Tracer::counters("cycle", counters_map(d));
    double ref_s = 0;
    {
      Span ref("bench.reference");
      ref_s = reference_kernel_s(1);
    }
    // Everything about the cycle goes out now: a later cycle may abort.
    Histogram latency;
    for (const auto& u : users) {
      latency.merge(u->latency);
      u->latency = Histogram{};
    }
    const std::vector<double> calls = tail(driver.run_call_us, calls0);
    double load_sum = 0;
    double load_max = 0;
    for (std::size_t s = 0; s < engine.num_sites(); ++s) {
      const auto load = static_cast<double>(engine.site_events_run(s));
      load_sum += load;
      load_max = std::max(load_max, load);
    }
    Json line;
    line.count("cycle", c)
        .count("ok", reason.empty() ? 1 : 0)
        .str("reason", reason)
        .str("fault", wan_cut ? "wan_cut" : "partition")
        .count("victim", victim)
        .count("violations", violations)
        .num("wall_ms", wall_ms)
        .num("ref_s", ref_s)
        .num("engine_s", driver.engine_s - e0)
        .num("sim_ms", static_cast<double>(engine.now() - sim0) / 1e3)
        .num("reconcile_sim_ms",
             converged ? static_cast<double>(converged_at - heal_at) / 1e3 : -1)
        .count("deliveries", deliveries() - d0)
        .count("events", d[kEngineEvents])
        .count("msgs", d[kNetMsgs])
        .count("bytes_on_wire", d[kNetBytesOnWire])
        .str("digest", hex64(driver.digest()))
        .raw("counters", counters_json(d))
        .raw("latency_us_hist", latency.json())
        .num("run_call_us_p50", percentile(calls, 0.50))
        .num("run_call_us_p99", percentile(calls, 0.99))
        .raw("topology_us", json_array(tail(driver.topology_us, topology0)))
        .raw("restart_ms", json_array(tail(driver.restart_ms, restart0)))
        .num("convergence_check_ms_p50",
             percentile(tail(driver.convergence_check_ms, checks0), 0.5))
        .count("shards", engine.num_shards())
        .count("replans", engine.replan_count())
        .num("site_load_max_over_mean",
             load_sum > 0
                 ? load_max * static_cast<double>(engine.num_sites()) / load_sum
                 : 0)
        .num("peak_rss_mb", peak_rss_mb());
    if (o.trace) line.raw("spans", span_report());  // cumulative
    std::printf("%s\n", line.done().c_str());
    std::fflush(stdout);
    ++cycles_done;
  }

  Json out;
  out.str("workload", "chaos_oracle_soak")
      .count("seed", o.seed)
      .count("oracle", world->oracle_enabled() ? 1 : 0)
      .count("cycles", cycles_done)
      .str("digest", hex64(driver.digest()));
  return out.done();
}

}  // namespace plwg::perfbench
