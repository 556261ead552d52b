// Per-host runtime: owns the host's network identity, demultiplexes inbound
// frames to the services running on the host (vsync stack, naming service,
// application), provides timer conveniences, and coalesces outbound traffic.
//
// Outgoing messages are not sent one frame each. They are staged per
// destination node and flushed as ONE multi-message frame per destination at
// the end of the current event-loop round (or immediately when invoked from
// outside the event loop, or after at most `max_linger_us` when lingering is
// configured). Per-frame costs — the 46B wire header, the bus occupancy, and
// above all the receiver's per-packet CPU charge — are paid once per frame
// instead of once per protocol message, which is where the LWG service's
// amortization story actually lands on the wire. Stability traffic (acks,
// heartbeats, flush votes) is tagged `MsgClass::kAck` by its senders so the
// stats can report how much of it piggybacked on frames it shared with data.
//
// Wire format of every frame:
//   [u32 incarnation][u32 checksum][u16 count]
//     then `count` entries of [u8 port][u32 len][payload...]
// `incarnation` is the sender's crash-restart incarnation: a receiver that
// has heard a newer incarnation of the same node drops the whole frame, so a
// restarted node's ghosts cannot reanimate old protocol state at its peers.
// `checksum` (FNV-1a over incarnation + everything after the checksum field)
// covers the entire batch: in-transit corruption rejects the frame whole —
// corruption degrades to loss, never to a half-poisoned batch. Because a
// batch is one sim::Network packet, it is also delivered or dropped
// atomically against crash epochs and partitions.
// Each service parses its own payload with the bounds-checked Decoder.
#pragma once

#include <array>
#include <deque>
#include <span>
#include <utility>
#include <vector>

#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/codec.hpp"
#include "util/types.hpp"

namespace plwg::transport {

/// Service multiplexing key, one per protocol stack on a host.
enum class Port : std::uint8_t {
  kFlow = 0,    // transport-internal flow-control acks (not registrable)
  kVsync = 1,   // heavy-weight group layer
  kNaming = 2,  // naming service (client<->server and server<->server)
  kApp = 3,     // example applications / test fixtures
};

inline constexpr std::size_t kPortCount = 4;

/// What a staged message is, for the amortization accounting. `kAck` marks
/// stability traffic — acks, heartbeats, flush votes, anti-entropy — whose
/// whole frame cost disappears when it shares a frame with anything else.
enum class MsgClass : std::uint8_t { kData = 0, kAck = 1 };

/// What to do with a new message when a peer's bounded send queue is full.
enum class OverflowPolicy : std::uint8_t {
  kReject = 0,      // refuse the newest message (caller's retry logic recovers)
  kDropOldest = 1,  // evict from the queue head to make room
};

/// Knobs for the coalescing layer.
struct TransportConfig {
  /// Flush a destination's batch early rather than let the frame exceed
  /// this size (a staged message larger than the cap still goes out, alone).
  std::size_t max_batch_bytes = 16 * 1024;
  /// How long a staged message may linger waiting for frame-mates. 0 means
  /// "end of the current event-loop round": the flush fires at the same
  /// simulated time it was staged, adding zero latency while still merging
  /// everything the round produced. Positive values trade latency for
  /// cross-round coalescing.
  Duration max_linger_us = 0;

  // --- per-peer flow control / backpressure -----------------------------
  // A stalled or slow receiver must degrade its senders' THROUGHPUT, not
  // their MEMORY. When inflight_cap_bytes > 0 every frame carrying data is
  // tracked per destination until the destination acks it (cumulative
  // frame-count acks on the reserved kFlow port); once a peer's unacked
  // bytes reach the cap, further messages to it are parked in a bounded
  // per-peer queue instead of being put on the wire.
  /// Unacked wire bytes allowed per peer; 0 disables flow control entirely
  /// (exact legacy behavior: nothing is tracked, no acks are sent).
  std::size_t inflight_cap_bytes = 0;
  /// Bytes of parked messages allowed per peer once the window is full;
  /// 0 = unbounded parking (flow control without a memory bound).
  std::size_t send_queue_cap_bytes = 0;
  /// What happens to a message that does not fit in the parked queue.
  OverflowPolicy overflow_policy = OverflowPolicy::kReject;
  /// Inflight frames older than this are presumed lost (receiver crashed or
  /// the frame was dropped) and released so the window cannot wedge shut.
  Duration inflight_timeout_us = 2'000'000;
};

/// Implemented by each service attached to a port.
class PortHandler {
 public:
  virtual ~PortHandler() = default;
  /// `dec` is positioned at the start of this service's payload.
  virtual void on_message(NodeId from, Decoder& dec) = 0;
};

/// Application processes map 1:1 onto nodes; these conversions document the
/// role change (network address vs. group-membership identity).
[[nodiscard]] constexpr ProcessId process_of(NodeId n) {
  return ProcessId{n.value()};
}
[[nodiscard]] constexpr NodeId node_of(ProcessId p) { return NodeId{p.value()}; }

/// Size of the frame header preceding the batched entries.
inline constexpr std::size_t kFrameHeaderBytes = 10;
/// Per-entry overhead inside a frame: [u8 port][u32 len].
inline constexpr std::size_t kEntryHeaderBytes = 5;

/// Checksum over a frame's protected bytes: the sender incarnation plus
/// everything after the checksum field (count + all entries), so damage to
/// any entry, anywhere in the batch, rejects the frame whole. FNV-1a's
/// xor-multiply step on 32-bit little-endian words, then one step per tail
/// byte, then one step over the protected byte count. Each step is a
/// bijection of the state, so any damage confined to one word (every
/// single-bit flip, every single-byte change) always changes the result,
/// and the count step catches a truncation that the word steps alone would
/// miss (trailing zero bytes).
[[nodiscard]] std::uint32_t frame_checksum(
    std::uint32_t incarnation, std::span<const std::uint8_t> protected_bytes);

class NodeRuntime : public sim::NetHandler {
 public:
  /// Counters for inbound frames the demux refused. Hostile or corrupted
  /// input must never assert or throw past this layer — it is counted and
  /// dropped.
  struct Stats {
    std::uint64_t malformed_frames = 0;          // short frame / bad checksum
    std::uint64_t stale_incarnation_drops = 0;   // ghost of a restarted peer
    std::uint64_t unbound_port_drops = 0;        // per entry
    std::uint64_t decode_errors = 0;             // service rejected payload
    // Outbound accounting (this node only; sim::NetworkStats aggregates).
    std::uint64_t frames_sent = 0;
    std::uint64_t messages_sent = 0;
    std::uint64_t piggybacked_acks = 0;
    // Flow control / backpressure (all zero when inflight_cap_bytes == 0).
    std::uint64_t flow_acks_sent = 0;
    std::uint64_t flow_acks_received = 0;
    std::uint64_t backpressure_held = 0;     // messages parked behind the window
    std::uint64_t backpressure_rejects = 0;  // messages refused (kReject / oversize)
    std::uint64_t backpressure_drops = 0;    // parked messages evicted (kDropOldest)
    std::uint64_t inflight_expired = 0;      // frames presumed lost by the sweep
    std::uint64_t peak_held_bytes = 0;       // high-water mark of parked bytes
  };

  explicit NodeRuntime(sim::Network& net, TransportConfig config = {});
  /// Rebind a rebuilt host stack to an existing (crashed) node as a fresh
  /// incarnation: the node revives with the same NodeId, and every frame it
  /// sends from now on is tagged with `incarnation`.
  NodeRuntime(sim::Network& net, NodeId reuse, std::uint32_t incarnation,
              TransportConfig config = {});
  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] std::uint32_t incarnation() const { return incarnation_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const TransportConfig& config() const { return config_; }
  [[nodiscard]] ProcessId process_id() const { return process_of(id_); }
  [[nodiscard]] sim::Network& network() { return net_; }
  /// The event loop running this node's site: node-local timers must live
  /// there so they execute (deterministically) with the node's events.
  [[nodiscard]] sim::Simulator& simulator() { return net_.simulator_for(id_); }
  [[nodiscard]] Time now() const { return net_.simulator_for(id_).now(); }

  /// Attach a service; the handler must outlive the runtime.
  void register_port(Port port, PortHandler& handler);

  /// Stage a message for `to`; it rides the destination's next frame flush.
  /// When called from outside the event loop with max_linger_us == 0 the
  /// flush is immediate (one message, one frame) — driver code that calls
  /// send() directly keeps synchronous semantics.
  void send(Port port, NodeId to, const Encoder& payload,
            MsgClass cls = MsgClass::kData);
  void multicast(Port port, std::span<const NodeId> dests,
                 const Encoder& payload, MsgClass cls = MsgClass::kData);
  void multicast(Port port, std::span<const ProcessId> dests,
                 const Encoder& payload, MsgClass cls = MsgClass::kData);

  /// Flush every staged batch now. Destinations whose staged bytes are
  /// identical (the common pure-multicast case) go out as ONE network
  /// multicast, preserving the shared bus's one-occupancy-per-multicast
  /// economics; a destination that also carries piggybacked extras gets its
  /// own frame. Safe to call with nothing staged.
  void flush_now();
  /// Messages staged and not yet flushed (tests).
  [[nodiscard]] std::size_t staged_messages() const { return staged_count_; }
  /// Bytes currently parked behind full flow-control windows (all peers).
  [[nodiscard]] std::size_t queued_bytes() const { return held_total_bytes_; }
  /// Wire bytes sent but not yet acked (all peers); 0 with flow control off.
  [[nodiscard]] std::size_t inflight_bytes() const {
    return inflight_total_bytes_;
  }

  /// Schedule a callback on this host after `delay`; no-op if the host has
  /// crashed — or crashed and restarted as a new incarnation — by the time
  /// it fires. The guard captures the network and the scheduling
  /// incarnation's crash epoch *by value*, never `this`: once the node
  /// restarts, the whole host stack (including this runtime and whatever
  /// `fn` points into) is destroyed, so the epoch check is the only thing
  /// keeping a stale timer from dereferencing freed objects. Templated
  /// (rather than taking a type-erased callable) so the wrapper and the
  /// user's capture land in the simulator slot as ONE flat closure —
  /// nesting an erased callable inside the wrapper would always spill to
  /// the heap.
  /// Every host timer passes through Network::scale_delay, so a node whose
  /// simulated clock is skewed (sim::Network::set_clock_rate) runs ALL of
  /// its protocol timers — heartbeats, suspicion checks, retries — fast or
  /// slow together, which is exactly how real clock drift reaches a
  /// protocol stack.
  template <class F>
  sim::TimerId after(Duration delay, F&& fn) {
    return simulator().schedule_after(
        net_.scale_delay(id_, delay),
        [net = &net_, id = id_, epoch = net_.crash_epoch(id_),
         fn = std::forward<F>(fn)]() mutable {
          if (net->crashed(id) || net->crash_epoch(id) != epoch) return;
          fn();
        });
  }
  void cancel(sim::TimerId timer) { simulator().cancel(timer); }

  // sim::NetHandler
  void on_packet(NodeId from, std::span<const std::uint8_t> data) override;

 private:
  /// One destination's pending frame: staged entry bytes plus accounting.
  struct Batch {
    Encoder entries;           // [port][len][payload] * count
    std::uint16_t count = 0;
    std::uint16_t acks = 0;    // entries staged as MsgClass::kAck
    std::uint16_t flow = 0;    // entries on the kFlow port (not ack-counted)
    bool active = false;       // appears in active_dests_
  };

  /// One frame on the wire toward a peer, awaiting its cumulative ack.
  struct InflightFrame {
    std::uint64_t seq = 0;   // per-peer countable-frame sequence number
    std::size_t bytes = 0;   // whole-frame wire size
    Time sent_at = 0;        // for the loss-presumption sweep
  };

  /// A message parked because the peer's flow window is full.
  struct HeldMsg {
    Port port = Port::kApp;
    MsgClass cls = MsgClass::kData;
    std::vector<std::uint8_t> payload;
  };

  /// Per-peer flow-control ledger (both directions).
  struct PeerFlow {
    // Receive side: countable frames seen from the peer, and how many of
    // them we have already acked back.
    std::uint64_t frames_seen = 0;
    std::uint64_t acked_to_peer = 0;
    // Send side: countable frames emitted toward the peer, the peer's
    // cumulative ack, and the frames between the two.
    std::uint64_t frames_to_peer = 0;
    std::uint64_t peer_acked = 0;
    std::deque<InflightFrame> inflight;
    std::size_t inflight_bytes = 0;
    std::deque<HeldMsg> held;
    std::size_t held_bytes = 0;
  };

  [[nodiscard]] Batch& batch_for(NodeId to);
  [[nodiscard]] PeerFlow& flow_for(NodeId peer);
  [[nodiscard]] bool flow_enabled() const {
    return config_.inflight_cap_bytes > 0;
  }
  void stage(Port port, NodeId to, const Encoder& payload, MsgClass cls);
  /// The staging tail shared by stage() and the held-queue drain: appends
  /// one entry to `to`'s batch with no flow-control admission check.
  void stage_bytes(Port port, NodeId to, std::span<const std::uint8_t> payload,
                   MsgClass cls);
  /// Park a message behind `peer`'s full window, applying the overflow
  /// policy against send_queue_cap_bytes.
  void hold_message(NodeId peer, Port port,
                    std::span<const std::uint8_t> payload, MsgClass cls);
  /// Re-stage parked messages while the window has room.
  void drain_held(NodeId peer);
  void on_flow_ack(NodeId from, std::span<const std::uint8_t> payload);
  void send_flow_ack(NodeId to, PeerFlow& flow);
  void release_inflight(PeerFlow& flow);
  void arm_inflight_sweep();
  void sweep_inflight();
  void schedule_flush();
  /// Emit one frame carrying `batch`'s entries to every node in `group`.
  void emit_frame(std::span<const NodeId> group, const Batch& batch);
  void clear_batch(Batch& batch);

  sim::Network& net_;
  TransportConfig config_;
  NodeId id_;
  std::uint32_t incarnation_ = 0;
  std::array<PortHandler*, kPortCount> handlers_{};
  std::vector<NodeId> dest_scratch_;   // reused by the ProcessId multicast
  std::vector<Batch> batches_;         // indexed by destination NodeId value
  std::vector<NodeId> active_dests_;   // staging order — the flush order
  std::vector<NodeId> group_scratch_;  // reused by flush_now's grouping
  std::size_t staged_count_ = 0;
  bool flush_scheduled_ = false;
  sim::TimerId flush_timer_ = 0;
  /// Highest incarnation heard per peer node (indexed by NodeId value);
  /// frames from lower incarnations are stale ghosts and are dropped.
  std::vector<std::uint32_t> peer_incarnation_;
  /// Flow-control ledgers, indexed by peer NodeId value (lazily sized).
  std::vector<PeerFlow> flow_;
  std::size_t held_total_bytes_ = 0;      // sum of PeerFlow::held_bytes
  std::size_t inflight_total_bytes_ = 0;  // sum of PeerFlow::inflight_bytes
  bool sweep_scheduled_ = false;
  Stats stats_;
};

}  // namespace plwg::transport
