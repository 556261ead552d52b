// Engine-scaling benchmark for the parallel simulation engine: a WAN of
// N LAN segments x 3 processes, one LWG per segment, steady per-process
// traffic, a warmup slice + a measured slice. Emits one JSON document
// (stdout) covering five sections in a single run:
//
//   * "matrix": thread x segment sweep with the load planner on (the
//     default engine configuration) — wall clock, wall_s_per_sim_s,
//     delivery throughput, trace digest, shard count, replan count.
//   * "imbalanced": 1 hot + 15 cold segments (hot = 8x the send rate) at
//     8 threads, planner vs identity placement A/B. The self-check at the
//     bottom requires the planner's achieved parallelism to be strictly
//     above identity's — and both digests to be byte-identical — or the
//     process exits nonzero.
//   * "islands": 16 segments with the WAN cut into 16 disconnected
//     islands, 8 threads, identity vs planner. With the planner each
//     segment's reachability class gets a shard of its own that advances
//     barrier-free; identity placement keeps every site in global lockstep
//     windows. The process exits nonzero unless both digests are equal,
//     the planner run has 16 island shards and the identity run has none.
//   * "scale" and "big": 100- and 1,000-segment worlds (~300 / ~3,000
//     nodes) at 16 threads, showing that the planner bounds the shard
//     count by the worker budget (shards ~= threads, not ~= segments)
//     while identity placement would drag one shard per segment through
//     every window barrier.
//
// Two speedup figures appear per run, because measured wall-clock speedup
// is meaningless when the host has fewer cores than worker threads:
//   parallelism_bound  = sum(site events) / max(shard load): what an ideal
//                        machine could extract from this placement.
//   worker_bound       = sum(site events) / max(per-worker load) under the
//                        engine's static strided job assignment (worker w
//                        runs shards w, w+T, ...): what T real cores would
//                        extract. This is the A/B figure of merit.
// Per-site loads come from the engine's windowed event counters
// (begin_event_window / site_events_in_window) over the measured slice.
// Measured wall speedup is speedup_vs_1_thread on matrix rows and
// speedup_vs_identity on the imbalanced / islands A/B rows; the scale and
// big rows have no baseline run and carry neither.
//
// scripts/bench_shard_scaling.sh wraps this into BENCH_shard_scaling.json.
// PLWG_BENCH_BIG=0 skips the "scale" and "big" sections, so no world of
// 100 segments or more is built (the CI smoke step sets it).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/world.hpp"
#include "lwg/lwg_user.hpp"
#include "sim/shard_planner.hpp"
#include "util/codec.hpp"

namespace plwg::bench {
namespace {

class CountUser : public lwg::LwgUser {
 public:
  void on_lwg_view(LwgId, const lwg::LwgView&) override {}
  void on_lwg_data(LwgId, ProcessId, std::span<const std::uint8_t>) override {
    ++delivered;
  }
  std::uint64_t delivered = 0;
};

constexpr std::size_t kPerSegment = 3;

struct BenchCase {
  std::size_t segments = 4;
  std::size_t threads = 1;
  bool planner = true;
  /// Segment whose processes send at kHotFactor x the base rate, or SIZE_MAX
  /// for a uniform workload.
  std::size_t hot_segment = static_cast<std::size_t>(-1);
  Duration warmup_us = 1'000'000;
  Duration measure_us = 5'000'000;
  Duration send_period_us = 2'000;
  /// Cut the WAN after the groups form: every segment its own island.
  bool cut_wan = false;
};

constexpr std::uint64_t kHotFactor = 8;

struct RunResult {
  double wall_s = 0;
  std::uint64_t delivered = 0;
  std::uint64_t digest = 0;
  std::size_t shards = 0;
  std::size_t threads = 0;
  std::uint64_t replans = 0;
  std::size_t islands = 0;  // shards that are their class's only shard
  double parallelism_bound = 1.0;  // sum(site events) / max(shard load)
  double worker_bound = 1.0;       // sum(site events) / max(worker load)
};

RunResult run_one(const BenchCase& bc) {
  harness::WorldConfig cfg;
  cfg.oracle = false;  // measuring the engine, not checking the protocol
  cfg.num_processes = bc.segments * kPerSegment;
  cfg.num_name_servers = 2;
  cfg.sim_threads = bc.threads;
  cfg.planner.enabled = bc.planner;
  for (std::size_t s = 0; s < bc.segments; ++s) {
    std::vector<std::size_t> seg;
    for (std::size_t i = 0; i < kPerSegment; ++i)
      seg.push_back(s * kPerSegment + i);
    cfg.segments.push_back(seg);
  }
  harness::SimWorld world(cfg);

  std::vector<std::unique_ptr<CountUser>> users;
  for (std::size_t i = 0; i < cfg.num_processes; ++i)
    users.push_back(std::make_unique<CountUser>());

  // One LWG per segment spanning its local processes. Leaders join first in
  // one wave (group creation goes through the name service), then members —
  // O(1) convergence rounds regardless of segment count, which is what
  // keeps the 1,000-segment world's setup affordable.
  for (std::size_t s = 0; s < bc.segments; ++s) {
    world.lwg(s * kPerSegment).join(LwgId{s + 1}, *users[s * kPerSegment]);
  }
  world.run_until(
      [&] {
        for (std::size_t s = 0; s < bc.segments; ++s) {
          if (world.lwg(s * kPerSegment).view_of(LwgId{s + 1}) == nullptr)
            return false;
        }
        return true;
      },
      60'000'000);
  for (std::size_t s = 0; s < bc.segments; ++s) {
    for (std::size_t i = 1; i < kPerSegment; ++i)
      world.lwg(s * kPerSegment + i).join(LwgId{s + 1},
                                          *users[s * kPerSegment + i]);
  }
  world.run_until(
      [&] {
        for (std::size_t s = 0; s < bc.segments; ++s) {
          for (std::size_t i = 0; i < kPerSegment; ++i) {
            const lwg::LwgView* v =
                world.lwg(s * kPerSegment + i).view_of(LwgId{s + 1});
            if (v == nullptr || v->members.size() != kPerSegment) return false;
          }
        }
        return true;
      },
      120'000'000);
  // Local LWGs keep operating across the cut — the paper's partitionable
  // operation — and with the planner on each class advances on its own.
  if (bc.cut_wan) world.cut_wan();

  auto slice = [&](Duration us) {
    const Time end = world.engine().now() + us;
    std::uint64_t tick = 0;
    while (world.engine().now() < end) {
      for (std::size_t p = 0; p < cfg.num_processes; ++p) {
        // Hot-segment processes send every tick; the rest once per
        // kHotFactor ticks, staggered by process so cold load stays even.
        if (p / kPerSegment != bc.hot_segment &&
            (tick + p) % kHotFactor != 0) {
          continue;
        }
        Encoder enc;
        enc.put_i64(world.engine().now());
        enc.put_bytes(std::vector<std::uint8_t>(56, 0xAB));
        world.lwg(p).send(LwgId{p / kPerSegment + 1}, enc.take());
      }
      ++tick;
      world.run_for(bc.send_period_us);
    }
  };

  slice(bc.warmup_us);
  sim::Engine& engine = world.engine();
  engine.begin_event_window();
  std::uint64_t delivered_before = 0;
  for (const auto& u : users) delivered_before += u->delivered;

  const auto t0 = std::chrono::steady_clock::now();
  slice(bc.measure_us);
  const auto t1 = std::chrono::steady_clock::now();

  RunResult r;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  for (const auto& u : users) r.delivered += u->delivered;
  r.delivered -= delivered_before;
  r.digest = world.trace_digest();
  r.shards = engine.num_shards();
  r.threads = engine.threads();
  // Lifetime count, not a slice delta: on an imbalanced topology the
  // decisive migration happens during warmup and hysteresis then (rightly)
  // holds the plan stable through the measured window.
  r.replans = engine.replan_count();
  const sim::ShardPlan& plan = engine.plan();
  for (const int cls : plan.shard_class) {
    if (std::count(plan.shard_class.begin(), plan.shard_class.end(), cls) == 1)
      ++r.islands;
  }

  // Aggregate the measured per-site loads up to shards (for the ideal-
  // machine bound) and to workers under the strided job assignment (for
  // the T-core bound). Uses the final plan: a mid-slice replan shifts the
  // attribution slightly, never the totals.
  std::vector<std::uint64_t> shard_load(plan.num_shards(), 0);
  std::uint64_t sum = 0;
  for (std::size_t site = 0; site < engine.num_sites(); ++site) {
    const std::uint64_t delta = engine.site_events_in_window(site);
    shard_load[plan.site_shard[site]] += delta;
    sum += delta;
  }
  std::vector<std::uint64_t> worker_load(r.threads, 0);
  std::uint64_t max_shard = 0;
  for (std::size_t s = 0; s < shard_load.size(); ++s) {
    worker_load[s % r.threads] += shard_load[s];
    if (shard_load[s] > max_shard) max_shard = shard_load[s];
  }
  std::uint64_t max_worker = 0;
  for (const std::uint64_t w : worker_load)
    if (w > max_worker) max_worker = w;
  if (max_shard > 0)
    r.parallelism_bound = static_cast<double>(sum) / static_cast<double>(max_shard);
  if (max_worker > 0)
    r.worker_bound = static_cast<double>(sum) / static_cast<double>(max_worker);
  return r;
}

bool g_first_run = true;

/// `baseline` names the run `base_wall` came from ("1_thread" or
/// "identity"); rows without one carry no measured speedup.
void emit(const char* section, const BenchCase& bc, const RunResult& r,
          const char* baseline = nullptr, double base_wall = 0) {
  const double sim_s = static_cast<double>(bc.measure_us) / 1e6;
  char speedup[64] = "";
  if (baseline != nullptr) {
    std::snprintf(speedup, sizeof speedup, "\"speedup_vs_%s\": %.2f, ",
                  baseline, base_wall > 0 ? base_wall / r.wall_s : 1.0);
  }
  if (!g_first_run) std::printf(",\n");
  g_first_run = false;
  std::printf(
      "    {\"section\": \"%s\", \"segments\": %zu, \"threads\": %zu, "
      "\"planner\": %s, \"shards\": %zu, \"islands\": %zu, "
      "\"replans\": %llu, \"sim_s\": %.1f, \"wall_s\": %.3f, "
      "\"wall_s_per_sim_s\": %.4f, "
      "\"deliveries\": %llu, \"deliveries_per_wall_s\": %.0f, "
      "%s\"parallelism_bound\": %.2f, "
      "\"worker_bound\": %.2f, \"trace_digest\": \"%016llx\"}",
      section, bc.segments, bc.threads, bc.planner ? "true" : "false",
      r.shards, r.islands, static_cast<unsigned long long>(r.replans), sim_s,
      r.wall_s, r.wall_s / sim_s, static_cast<unsigned long long>(r.delivered),
      static_cast<double>(r.delivered) / r.wall_s, speedup, r.parallelism_bound,
      r.worker_bound, static_cast<unsigned long long>(r.digest));
  std::fflush(stdout);
  std::fprintf(stderr,
               "%s: segments=%zu threads=%zu planner=%d shards=%zu "
               "replans=%llu wall=%.3fs worker_bound=%.2f\n",
               section, bc.segments, bc.threads, bc.planner ? 1 : 0, r.shards,
               static_cast<unsigned long long>(r.replans), r.wall_s,
               r.worker_bound);
}

}  // namespace
}  // namespace plwg::bench

int main() {
  using namespace plwg;
  using namespace plwg::bench;
  const unsigned host_cpus = std::thread::hardware_concurrency();
  const char* big_env = std::getenv("PLWG_BENCH_BIG");
  const bool run_big = big_env == nullptr || std::string(big_env) != "0";

  std::printf("{\n");
  std::printf("  \"workload\": \"N segments x %zu processes, one LWG per "
              "segment, 64B sends, warmup + measured slice; imbalanced "
              "section drives one hot segment at %llux the cold rate; "
              "islands section cuts the WAN into one island per segment\",\n",
              kPerSegment, static_cast<unsigned long long>(kHotFactor));
  std::printf("  \"host_cpus\": %u,\n", host_cpus);
  std::printf("  \"note\": \"worker_bound = sum(site events) / max(worker "
              "load) under the strided shard->worker assignment: the "
              "speedup T real cores would achieve. Measured wall speedup "
              "approaches it only when host_cpus >= threads; trace digests "
              "are invariant to threads and to shard placement by "
              "construction.\",\n");
  std::printf("  \"runs\": [\n");

  // Section 1: thread x segment matrix, planner on (the default config).
  for (std::size_t segments : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                               std::size_t{8}, std::size_t{16}}) {
    double base_wall = 0;
    for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}, std::size_t{8}}) {
      if (threads > segments && threads != 1) continue;
      BenchCase bc;
      bc.segments = segments;
      bc.threads = threads;
      const RunResult r = run_one(bc);
      if (threads == 1) base_wall = r.wall_s;
      emit("matrix", bc, r, "1_thread", base_wall);
    }
  }

  // Section 2: the imbalanced A/B — 1 hot + 15 cold segments at 8 threads.
  // Identity placement pairs the hot site with a cold one on some worker;
  // the planner isolates it after the first measured window.
  bool ok = true;
  {
    BenchCase identity;
    identity.segments = 16;
    identity.threads = 8;
    identity.planner = false;
    identity.hot_segment = 0;
    const RunResult base = run_one(identity);
    emit("imbalanced", identity, base, "identity");

    BenchCase planned = identity;
    planned.planner = true;
    const RunResult tuned = run_one(planned);
    emit("imbalanced", planned, tuned, "identity", base.wall_s);

    ok = tuned.worker_bound > base.worker_bound &&
         tuned.digest == base.digest && tuned.replans > 0;
    if (!ok) {
      std::fprintf(stderr,
                   "SELF-CHECK FAILED: planner worker_bound %.3f vs identity "
                   "%.3f, replans %llu, digests %016llx/%016llx\n",
                   tuned.worker_bound, base.worker_bound,
                   static_cast<unsigned long long>(tuned.replans),
                   static_cast<unsigned long long>(tuned.digest),
                   static_cast<unsigned long long>(base.digest));
    }
  }

  // Section 3: the island episode — the WAN cut into 16 islands at 8
  // threads. 100 ms driver ticks against a ~2 ms lookahead: identity
  // placement crosses ~50 global barriers per tick, islands dispatch once.
  {
    BenchCase identity;
    identity.segments = 16;
    identity.threads = 8;
    identity.planner = false;
    identity.cut_wan = true;
    identity.warmup_us = 500'000;
    identity.send_period_us = 100'000;
    const RunResult base = run_one(identity);
    emit("islands", identity, base, "identity");

    BenchCase planned = identity;
    planned.planner = true;
    const RunResult tuned = run_one(planned);
    emit("islands", planned, tuned, "identity", base.wall_s);

    if (tuned.digest != base.digest || tuned.islands != planned.segments ||
        base.islands != 0) {
      std::fprintf(stderr,
                   "SELF-CHECK FAILED: island shards planner %zu / identity "
                   "%zu (want %zu / 0), digests %016llx/%016llx\n",
                   tuned.islands, base.islands, planned.segments,
                   static_cast<unsigned long long>(tuned.digest),
                   static_cast<unsigned long long>(base.digest));
      ok = false;
    }
  }

  // Sections 4-5: 100 and 1,000 segments at 16 threads. The point on a
  // small host is the plan shape (16 shards for 16 workers, not one per
  // segment) and that setup + steady state complete at all; shorter slice,
  // slower senders.
  if (run_big) {
    for (const auto& [section, segments] :
         {std::pair{"scale", std::size_t{100}},
          std::pair{"big", std::size_t{1'000}}}) {
      BenchCase bc;
      bc.segments = segments;
      bc.threads = 16;
      bc.warmup_us = 200'000;
      bc.measure_us = 1'000'000;
      bc.send_period_us = 10'000;
      const RunResult r = run_one(bc);
      emit(section, bc, r);
      if (r.shards > bc.threads) {
        std::fprintf(stderr,
                     "SELF-CHECK FAILED: %zu-segment world used %zu shards "
                     "for %zu workers\n",
                     segments, r.shards, bc.threads);
        ok = false;
      }
    }
  }

  std::printf("\n  ]\n}\n");
  return ok ? 0 : 1;
}
