// Paper Fig. 2 (middle panel): data-transfer throughput of the three
// services.
//
// Closed-loop saturation: each group's sender keeps a window of messages in
// flight (a new message is injected when the sender delivers its own copy),
// so the bottleneck resource — the shared bus, or a node CPU — sets the
// rate without unbounded queues.
//
// Expected shape: the static service funnels *all* groups through one
// sequencer and makes every process receive (and filter) both sets'
// traffic, so its aggregate throughput saturates lowest; dynamic and no-LWG
// keep the sets on separate HWGs and track the bus.
#include <cstdio>
#include <iostream>
#include <map>

#include "fig2_common.hpp"

namespace plwg::bench {
namespace {

struct Result {
  double rate = 0;             // delivered multicasts/s
  double frames_per_msg = 0;   // wire frames per delivered message
};

Result run_one(lwg::MappingMode mode, std::size_t n) {
  Fig2World f = build_fig2_world(mode, n);
  // The send window is driven by *receiver* progress at a designated member
  // of each set (member 1 / member 5): in a totally ordered group it
  // advances at the same rate as the sender's own delivery, and keeping
  // (window - in-flight) topped up gives closed-loop saturation.
  constexpr int kWindow = 8;
  constexpr std::size_t kBytes = 64;
  constexpr Duration kMeasure = 10'000'000;
  constexpr Duration kTick = 2'000;

  std::map<LwgId, std::uint64_t> sent;
  const auto delivered_at = [&](std::size_t proc) {
    return f.users[proc]->delivered;
  };

  // Warmup: fill windows.
  auto pump = [&] {
    // Receiver progress per set, normalized per group: use the aggregate
    // deliveries at one member of each set divided by group count.
    const std::uint64_t prog_a = delivered_at(1) / n;
    const std::uint64_t prog_b = delivered_at(5) / n;
    for (LwgId g : f.set_a) {
      while (sent[g] < prog_a + kWindow) {
        f.world->lwg(0).send(g, probe_payload(f.world->engine().now(),
                                              kBytes));
        sent[g]++;
      }
    }
    for (LwgId g : f.set_b) {
      while (sent[g] < prog_b + kWindow) {
        f.world->lwg(4).send(g, probe_payload(f.world->engine().now(),
                                              kBytes));
        sent[g]++;
      }
    }
  };

  const Time warm_end = f.world->engine().now() + 3'000'000;
  while (f.world->engine().now() < warm_end) {
    pump();
    f.world->run_for(kTick);
  }
  std::uint64_t base = 0;
  for (const auto& u : f.users) base += u->delivered;
  const std::uint64_t frames_base = f.world->network().stats().frames_sent;
  const Time start = f.world->engine().now();
  while (f.world->engine().now() < start + kMeasure) {
    pump();
    f.world->run_for(kTick);
  }
  std::uint64_t end_count = 0;
  for (const auto& u : f.users) end_count += u->delivered;
  const std::uint64_t frames_end = f.world->network().stats().frames_sent;
  const Time elapsed = f.world->engine().now() - start;
  Result r;
  // 4 deliveries per multicast (3 remote members + the sender's own copy):
  // normalize to end-to-end multicasts per second.
  r.rate = metrics::rate_per_sec(end_count - base, elapsed) / 4.0;
  // Wire cost per useful delivery: all frames on the bus during the window
  // (data, acks, heartbeats, naming) over end-to-end message deliveries.
  if (end_count > base) {
    r.frames_per_msg = static_cast<double>(frames_end - frames_base) /
                       static_cast<double>(end_count - base);
  }
  return r;
}

}  // namespace
}  // namespace plwg::bench

int main() {
  using namespace plwg;
  using namespace plwg::bench;
  std::printf("# Fig. 2 (throughput): delivered multicasts/s, closed-loop "
              "saturating senders, 2 x n groups of 4 on 8 processes\n");
  metrics::Table table({"n-groups-per-set", "service",
                        "delivered-msgs-per-sec", "frames-per-delivered-msg"});
  for (std::size_t n : {1, 2, 4, 8, 16}) {
    for (lwg::MappingMode mode :
         {lwg::MappingMode::kPerGroup, lwg::MappingMode::kStaticSingle,
          lwg::MappingMode::kDynamic}) {
      const Result r = run_one(mode, n);
      table.add_row({std::to_string(n), mode_name(mode),
                     metrics::Table::fmt(r.rate, 1),
                     metrics::Table::fmt(r.frames_per_msg, 3)});
    }
  }
  table.print(std::cout);
  return 0;
}
