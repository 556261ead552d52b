// Paper Fig. 2 (left panel): data-transfer latency of the three services.
//
// Two sets of n groups (4 disjoint members each) on 8 processes over a
// 10 Mbps shared bus. Each group's first member multicasts probes carrying
// the simulated send time; all other members record the one-way latency.
//
// Expected shape (paper Sect. 3.3): static LWG degrades with n because all
// 2n groups share one HWG — every process receives and filters every other
// set's traffic; dynamic LWG tracks the no-LWG service.
#include <cstdio>
#include <iostream>

#include "fig2_common.hpp"

namespace plwg::bench {
namespace {

struct Result {
  double mean_us;
  Duration p95_us;
  std::uint64_t samples;
};

Result run_one(lwg::MappingMode mode, std::size_t n) {
  Fig2World f = build_fig2_world(mode, n);
  constexpr Duration kInterval = 20'000;  // 50 msgs/s per group sender
  constexpr Duration kWarmup = 2'000'000;
  constexpr Duration kMeasure = 10'000'000;
  constexpr std::size_t kBytes = 64;

  const Time end = f.world->engine().now() + kWarmup + kMeasure;
  Time measure_from = f.world->engine().now() + kWarmup;
  bool cleared = false;
  while (f.world->engine().now() < end) {
    const Time now = f.world->engine().now();
    if (!cleared && now >= measure_from) {
      f.latency.clear();
      cleared = true;
    }
    for (LwgId g : f.set_a) {
      f.world->lwg(0).send(g, probe_payload(now, kBytes));
    }
    for (LwgId g : f.set_b) {
      f.world->lwg(4).send(g, probe_payload(now, kBytes));
    }
    f.world->run_for(kInterval);
  }
  f.world->run_for(2'000'000);  // drain
  return Result{f.latency.mean_us(), f.latency.p95_us(), f.latency.count()};
}

}  // namespace
}  // namespace plwg::bench

int main() {
  using namespace plwg;
  using namespace plwg::bench;
  std::printf("# Fig. 2 (latency): one-way LWG multicast latency, 2 x n "
              "groups of 4 on 8 processes, 10 Mbps shared bus\n");
  metrics::Table table({"n-groups-per-set", "service", "mean-latency-us",
                        "p95-latency-us", "samples"});
  for (std::size_t n : {1, 2, 4, 8, 16}) {
    for (lwg::MappingMode mode :
         {lwg::MappingMode::kPerGroup, lwg::MappingMode::kStaticSingle,
          lwg::MappingMode::kDynamic}) {
      const Result r = run_one(mode, n);
      table.add_row({std::to_string(n), mode_name(mode),
                     metrics::Table::fmt(r.mean_us, 1),
                     std::to_string(r.p95_us), std::to_string(r.samples)});
    }
  }
  table.print(std::cout);
  return 0;
}
