// Shared set-up for network-level tests: a 1-site sim::Engine, a
// sim::Network over it, and recording hosts. Tests drive the engine's one
// site directly (`sim.run()`), which is the event loop the network runs on.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "sim/engine.hpp"
#include "sim/network.hpp"

namespace plwg::sim::testing {

/// Host that records every packet it receives, with its arrival time.
struct Recorder : NetHandler {
  struct Packet {
    NodeId from;
    std::vector<std::uint8_t> data;
    Time at;
  };
  explicit Recorder(Simulator& sim) : sim_(sim) {}
  void on_packet(NodeId from, std::span<const std::uint8_t> data) override {
    packets.push_back(Packet{from, {data.begin(), data.end()}, sim_.now()});
  }
  Simulator& sim_;
  std::vector<Packet> packets;
};

struct NetTestbed {
  /// Build the network from `config` with `n` recording hosts.
  Network& build(std::size_t n) {
    net = std::make_unique<Network>(engine, config);
    for (std::size_t i = 0; i < n; ++i) {
      handlers.push_back(std::make_unique<Recorder>(sim));
      nodes.push_back(net->add_node(*handlers.back()));
    }
    return *net;
  }
  Engine engine;
  Simulator& sim = engine.site(0);
  NetworkConfig config;
  std::unique_ptr<Network> net;
  std::vector<std::unique_ptr<Recorder>> handlers;
  std::vector<NodeId> nodes;
};

}  // namespace plwg::sim::testing
