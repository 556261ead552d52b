// Multi-LAN topology: intra-segment traffic behaves like the single bus;
// inter-segment traffic pays the store-and-forward backbone; WAN cuts are
// partitions along segment lines and the whole group stack works across
// LANs.
#include <gtest/gtest.h>

#include "harness/world.hpp"
#include "lwg_fixture.hpp"
#include "net_testbed.hpp"

namespace plwg {
namespace {

struct TopologyTest : ::testing::Test, sim::testing::NetTestbed {};

TEST_F(TopologyTest, IntraSegmentLatencyUnchanged) {
  build(4);
  net->unicast(nodes[0], nodes[1], {1});
  sim.run();
  const Time single_bus = handlers[1]->packets.at(0).at;

  handlers[1]->packets.clear();
  net->set_segments({{nodes[0], nodes[1]}, {nodes[2], nodes[3]}},
                    sim::WanConfig{});
  net->unicast(nodes[0], nodes[1], {1});
  sim.run();
  EXPECT_EQ(handlers[1]->packets.at(0).at - single_bus, single_bus);
}

TEST_F(TopologyTest, InterSegmentPaysTheBackbone) {
  build(4);
  sim::WanConfig wan;
  wan.propagation_delay_us = 5'000;
  net->set_segments({{nodes[0], nodes[1]}, {nodes[2], nodes[3]}}, wan);
  net->unicast(nodes[0], nodes[1], {1});  // same LAN
  net->unicast(nodes[0], nodes[2], {1});  // cross LAN
  sim.run();
  const Time local = handlers[1]->packets.at(0).at;
  const Time remote = handlers[2]->packets.at(0).at;
  EXPECT_GE(remote - local, wan.propagation_delay_us);
}

TEST_F(TopologyTest, MulticastForwardsOncePerRemoteSegment) {
  build(6);
  net->set_segments({{nodes[0], nodes[1]},
                     {nodes[2], nodes[3]},
                     {nodes[4], nodes[5]}},
                    sim::WanConfig{});
  net->reset_stats();
  const std::vector<NodeId> dests{nodes[1], nodes[2], nodes[3], nodes[4],
                                  nodes[5]};
  net->multicast(nodes[0], dests, std::vector<std::uint8_t>(100, 0));
  sim.run();
  for (std::size_t i = 1; i < 6; ++i) {
    EXPECT_EQ(handlers[i]->packets.size(), 1u) << "node " << i;
  }
  // One source transmission + two remote-segment re-transmissions: three
  // LAN bus occupancies (plus the backbone, accounted separately).
  EXPECT_EQ(net->stats().frames_sent, 1u);
  // Same-segment pairs arrive together; cross-segment later.
  EXPECT_EQ(handlers[2]->packets[0].at > handlers[1]->packets[0].at, true);
}

TEST_F(TopologyTest, BackboneSerializesCrossTraffic) {
  build(4);
  sim::WanConfig wan;
  wan.bandwidth_bps = 1e6;  // slow backbone
  net->set_segments({{nodes[0], nodes[1]}, {nodes[2], nodes[3]}}, wan);
  net->unicast(nodes[0], nodes[2], std::vector<std::uint8_t>(500, 0));
  net->unicast(nodes[1], nodes[3], std::vector<std::uint8_t>(500, 0));
  sim.run();
  const Time a = handlers[2]->packets.at(0).at;
  const Time b = handlers[3]->packets.at(0).at;
  // The second crossing waits for the first on the backbone: gap at least
  // one backbone transmission time ((500+46)*8 / 1 Mbps ≈ 4.4 ms).
  EXPECT_GE(b - a, 4'000);
}

class LwgOverWanTest : public lwg::testing::LwgFixture {};

TEST_F(LwgOverWanTest, GroupSpansTwoLansAndSurvivesWanCut) {
  harness::WorldConfig cfg;
  cfg.num_processes = 4;
  cfg.num_name_servers = 2;  // one per LAN
  cfg.segments = {{0, 1}, {2, 3}};
  cfg.wan.propagation_delay_us = 3'000;
  build(cfg);
  const LwgId id{1};
  form_lwg(id, {0, 1, 2, 3});

  // WAN failure: the canonical geographic partition.
  world().cut_wan();
  ASSERT_TRUE(run_until(
      [&] {
        return lwg_converged(id, {0, 1}, members_of({0, 1})) &&
               lwg_converged(id, {2, 3}, members_of({2, 3}));
      },
      40'000'000));
  // Both LANs keep working through their local name server.
  lwg(0).send(id, payload(1));
  lwg(2).send(id, payload(2));
  ASSERT_TRUE(run_until(
      [&] {
        return user(1).total_delivered(id) >= 1 &&
               user(3).total_delivered(id) >= 1;
      },
      15'000'000));

  world().heal();
  ASSERT_TRUE(run_until(
      [&] { return lwg_converged(id, {0, 1, 2, 3}, members_of({0, 1, 2, 3})); },
      120'000'000));
}

}  // namespace
}  // namespace plwg
