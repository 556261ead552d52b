// Geographic scale: the paper motivates partitionable operation with
// "networks of large geographical scale". A group spanning two LANs joined
// by a WAN backbone is cut and healed across campus-to-continental WAN
// delays; data latency tracks the WAN delay while reconciliation stays
// dominated by the (constant) probe/sync periods. How the simulation
// engine itself scales with the number of segments is bench_shard_scaling's
// subject.
#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "harness/world.hpp"
#include "lwg/lwg_user.hpp"
#include "metrics/stats.hpp"
#include "util/codec.hpp"

namespace plwg::bench {
namespace {

class LatencyUser : public lwg::LwgUser {
 public:
  LatencyUser(harness::SimWorld& world, metrics::LatencyRecorder& rec)
      : world_(world), rec_(rec) {}
  void on_lwg_view(LwgId, const lwg::LwgView&) override {}
  void on_lwg_data(LwgId, ProcessId,
                   std::span<const std::uint8_t> data) override {
    Decoder dec(data);
    rec_.record(world_.engine().log_now() - dec.get_i64());
    ++delivered;
  }

  std::uint64_t delivered = 0;

 private:
  harness::SimWorld& world_;
  metrics::LatencyRecorder& rec_;
};

struct Result {
  double cross_lan_latency_ms = 0;
  double reconcile_ms = -1;
  double frames_per_msg = 0;  // wire frames per delivered message
};

Result run_one(Duration wan_delay_us) {
  harness::WorldConfig cfg;
  cfg.oracle = false;  // measuring the protocol, not checking it
  cfg.num_processes = 6;
  cfg.num_name_servers = 2;
  cfg.segments = {{0, 1, 2}, {3, 4, 5}};
  cfg.wan.propagation_delay_us = wan_delay_us;
  cfg.wan.bandwidth_bps = 5e6;
  harness::SimWorld world(cfg);
  metrics::LatencyRecorder latency;
  std::vector<std::unique_ptr<LatencyUser>> users;
  for (int i = 0; i < 6; ++i) {
    users.push_back(std::make_unique<LatencyUser>(world, latency));
  }
  const LwgId id{1};
  world.lwg(0).join(id, *users[0]);
  world.run_until([&] { return world.lwg(0).view_of(id) != nullptr; },
                  30'000'000);
  for (std::size_t i = 1; i < 6; ++i) world.lwg(i).join(id, *users[i]);
  world.run_until(
      [&] {
        for (std::size_t i = 0; i < 6; ++i) {
          const lwg::LwgView* v = world.lwg(i).view_of(id);
          if (v == nullptr || v->members.size() != 6) return false;
        }
        return true;
      },
      60'000'000);

  // Cross-LAN latency under light traffic.
  const std::uint64_t frames_base = world.network().stats().frames_sent;
  auto delivered_total = [&] {
    std::uint64_t total = 0;
    for (const auto& u : users) total += u->delivered;
    return total;
  };
  const std::uint64_t delivered_base = delivered_total();
  for (int m = 0; m < 50; ++m) {
    Encoder enc;
    enc.put_i64(world.engine().now());
    world.lwg(0).send(id, enc.take());
    world.run_for(100'000);
  }
  world.run_for(1'000'000);
  Result r;
  r.cross_lan_latency_ms = latency.mean_us() / 1000.0;
  // All frames on the wire during the traffic window (data + the heartbeat /
  // naming background it piggybacks on) per end-to-end delivery.
  const std::uint64_t delivered = delivered_total() - delivered_base;
  if (delivered > 0) {
    r.frames_per_msg = static_cast<double>(world.network().stats().frames_sent -
                                           frames_base) /
                       static_cast<double>(delivered);
  }

  // WAN cut + heal: full reconciliation time.
  world.cut_wan();
  world.run_until(
      [&] {
        const lwg::LwgView* a = world.lwg(0).view_of(id);
        const lwg::LwgView* b = world.lwg(3).view_of(id);
        return a != nullptr && a->members.size() == 3 && b != nullptr &&
               b->members.size() == 3;
      },
      60'000'000);
  world.heal();
  const Time heal_at = world.engine().now();
  const bool ok = world.run_until(
      [&] {
        for (std::size_t i = 0; i < 6; ++i) {
          const lwg::LwgView* v = world.lwg(i).view_of(id);
          if (v == nullptr || v->members.size() != 6) return false;
        }
        return true;
      },
      240'000'000);
  if (ok) {
    r.reconcile_ms =
        static_cast<double>(world.engine().now() - heal_at) / 1000.0;
  }
  return r;
}

}  // namespace
}  // namespace plwg::bench

int main() {
  using namespace plwg;
  using namespace plwg::bench;
  std::printf("# Geographic scale: 2 LANs x 3 processes over a WAN backbone; "
              "latency + reconciliation vs WAN delay\n");
  metrics::Table table({"wan-one-way-ms", "cross-lan-multicast-ms",
                        "heal-to-merged-ms", "frames-per-delivered-msg"});
  for (Duration wan : {1'000, 20'000, 100'000}) {
    const Result r = run_one(wan);
    table.add_row({metrics::Table::fmt(static_cast<double>(wan) / 1000.0, 0),
                   metrics::Table::fmt(r.cross_lan_latency_ms, 1),
                   r.reconcile_ms < 0
                       ? "timeout"
                       : metrics::Table::fmt(r.reconcile_ms, 0),
                   metrics::Table::fmt(r.frames_per_msg, 3)});
  }
  table.print(std::cout);
  std::printf("\nshape check: data latency scales with WAN delay; "
              "reconciliation stays dominated by the constant probe/sync "
              "periods.\n");
  return 0;
}
