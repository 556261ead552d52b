// Network::charge_cpu: protocol-processing charges serialize with packet
// reception at a node (the cost model behind the Fig. 2 recovery shapes).
#include <gtest/gtest.h>

#include "net_testbed.hpp"

namespace plwg::sim {
namespace {

struct CpuCharge : ::testing::Test, testing::NetTestbed {};

TEST_F(CpuCharge, DelaysSubsequentDeliveries) {
  config.node_process_cost_us = 100;
  config.propagation_delay_us = 50;
  build(2);
  net->unicast(nodes[0], nodes[1], {1});
  sim.run();
  const Time baseline = handlers[1]->packets.at(0).at;

  // Same send again, but with 10 ms of protocol work charged first.
  net->charge_cpu(nodes[1], 10'000);
  net->unicast(nodes[0], nodes[1], {2});
  sim.run();
  const Time delayed = handlers[1]->packets.at(1).at;
  EXPECT_GE(delayed - baseline, 10'000);
}

TEST_F(CpuCharge, ChargesAccumulate) {
  config.node_process_cost_us = 10;
  build(2);
  net->charge_cpu(nodes[1], 1'000);
  net->charge_cpu(nodes[1], 1'000);
  net->charge_cpu(nodes[1], 1'000);
  net->unicast(nodes[0], nodes[1], {1});
  sim.run();
  EXPECT_GE(handlers[1]->packets.at(0).at, 3'000);
}

TEST_F(CpuCharge, DoesNotAffectOtherNodes) {
  build(3);
  net->charge_cpu(nodes[1], 50'000);
  const std::vector<NodeId> dests{nodes[1], nodes[2]};
  net->multicast(nodes[0], dests, {1});
  sim.run();
  ASSERT_EQ(handlers[1]->packets.size(), 1u);
  ASSERT_EQ(handlers[2]->packets.size(), 1u);
  EXPECT_LT(handlers[2]->packets[0].at, handlers[1]->packets[0].at);
}

TEST_F(CpuCharge, ZeroChargeIsNoop) {
  build(2);
  net->unicast(nodes[0], nodes[1], {1});
  sim.run();
  const Time baseline = handlers[1]->packets.at(0).at;
  net->charge_cpu(nodes[1], 0);
  net->unicast(nodes[0], nodes[1], {2});
  sim.run();
  EXPECT_EQ(handlers[1]->packets.at(1).at, 2 * baseline);
}

}  // namespace
}  // namespace plwg::sim
