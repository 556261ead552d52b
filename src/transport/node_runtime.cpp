#include "transport/node_runtime.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace plwg::transport {

namespace {

std::uint32_t load_u32_le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void put_u16_le(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32_le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint16_t get_u16_le(std::span<const std::uint8_t> in) {
  return static_cast<std::uint16_t>(in[0] |
                                    (static_cast<std::uint16_t>(in[1]) << 8));
}

std::uint32_t get_u32_le(std::span<const std::uint8_t> in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(in[static_cast<std::size_t>(i)]) << (8 * i);
  }
  return v;
}

/// Frame entries a u16 count can index.
constexpr std::size_t kMaxEntriesPerFrame = 0xFFFF;

}  // namespace

std::uint32_t frame_checksum(std::uint32_t incarnation,
                             std::span<const std::uint8_t> protected_bytes) {
  constexpr std::uint32_t kPrime = 16777619u;
  std::uint32_t h = (2166136261u ^ incarnation) * kPrime;
  const std::uint8_t* p = protected_bytes.data();
  std::size_t n = protected_bytes.size();
  for (; n >= 4; n -= 4, p += 4) h = (h ^ load_u32_le(p)) * kPrime;
  for (; n > 0; --n, ++p) h = (h ^ *p) * kPrime;
  // Without a length step, cutting zero bytes off the last word would leave
  // the checksum unchanged (word 0x00000016 and tail byte 0x16 mix alike).
  return (h ^ static_cast<std::uint32_t>(protected_bytes.size())) * kPrime;
}

NodeRuntime::NodeRuntime(sim::Network& net, TransportConfig config)
    : net_(net), config_(config), id_(net.add_node(*this)) {}

NodeRuntime::NodeRuntime(sim::Network& net, NodeId reuse,
                         std::uint32_t incarnation, TransportConfig config)
    : net_(net), config_(config), id_(reuse), incarnation_(incarnation) {
  net_.restart(reuse, *this);
}

void NodeRuntime::register_port(Port port, PortHandler& handler) {
  const auto idx = static_cast<std::size_t>(port);
  PLWG_ASSERT(idx < kPortCount);
  PLWG_ASSERT_MSG(port != Port::kFlow,
                  "port 0 is reserved for transport flow control");
  PLWG_ASSERT_MSG(handlers_[idx] == nullptr, "port already registered");
  handlers_[idx] = &handler;
}

NodeRuntime::Batch& NodeRuntime::batch_for(NodeId to) {
  if (to.value() >= batches_.size()) {
    batches_.resize(to.value() + 1);
  }
  return batches_[to.value()];
}

NodeRuntime::PeerFlow& NodeRuntime::flow_for(NodeId peer) {
  if (peer.value() >= flow_.size()) {
    flow_.resize(peer.value() + 1);
  }
  return flow_[peer.value()];
}

void NodeRuntime::stage(Port port, NodeId to, const Encoder& payload,
                        MsgClass cls) {
  PLWG_ASSERT(to.valid());
  if (flow_enabled() && port != Port::kFlow && to != id_) {
    PeerFlow& flow = flow_for(to);
    // Admission: once the peer's unacked window is full, messages park in
    // the bounded held queue instead of the wire. The `!held.empty()` arm
    // keeps FIFO order — a new message may not overtake parked ones even if
    // the window briefly has room. The current batch's staged bytes count
    // against the window too, or a single round could overshoot it
    // arbitrarily before the flush.
    if (flow.inflight_bytes + batch_for(to).entries.size() >=
            config_.inflight_cap_bytes ||
        !flow.held.empty()) {
      hold_message(to, port, payload.bytes(), cls);
      return;
    }
  }
  stage_bytes(port, to, payload.bytes(), cls);
}

void NodeRuntime::stage_bytes(Port port, NodeId to,
                              std::span<const std::uint8_t> payload,
                              MsgClass cls) {
  Batch& b = batch_for(to);
  // Flush this destination early rather than grow past the frame-size cap
  // or the u16 entry count; the overflowing message starts a fresh batch.
  if (b.active &&
      (kFrameHeaderBytes + b.entries.size() + kEntryHeaderBytes +
               payload.size() >
           config_.max_batch_bytes ||
       b.count == kMaxEntriesPerFrame)) {
    flush_now();
  }
  if (!b.active) {
    b.active = true;
    active_dests_.push_back(to);
  }
  b.entries.put_u8(static_cast<std::uint8_t>(port));
  b.entries.put_u32(static_cast<std::uint32_t>(payload.size()));
  b.entries.put_raw(payload);
  b.count++;
  if (cls == MsgClass::kAck) b.acks++;
  if (port == Port::kFlow) b.flow++;
  staged_count_++;
}

void NodeRuntime::hold_message(NodeId peer, Port port,
                               std::span<const std::uint8_t> payload,
                               MsgClass cls) {
  PeerFlow& flow = flow_for(peer);
  const std::size_t bytes = kEntryHeaderBytes + payload.size();
  if (config_.send_queue_cap_bytes > 0) {
    if (bytes > config_.send_queue_cap_bytes) {
      // Could never fit even in an empty queue.
      stats_.backpressure_rejects++;
      return;
    }
    if (config_.overflow_policy == OverflowPolicy::kReject) {
      if (flow.held_bytes + bytes > config_.send_queue_cap_bytes) {
        stats_.backpressure_rejects++;
        return;
      }
    } else {
      while (!flow.held.empty() &&
             flow.held_bytes + bytes > config_.send_queue_cap_bytes) {
        const std::size_t evicted =
            kEntryHeaderBytes + flow.held.front().payload.size();
        flow.held.pop_front();
        flow.held_bytes -= evicted;
        held_total_bytes_ -= evicted;
        stats_.backpressure_drops++;
      }
    }
  }
  HeldMsg msg;
  msg.port = port;
  msg.cls = cls;
  msg.payload.assign(payload.begin(), payload.end());
  flow.held.push_back(std::move(msg));
  flow.held_bytes += bytes;
  held_total_bytes_ += bytes;
  stats_.backpressure_held++;
  stats_.peak_held_bytes =
      std::max<std::uint64_t>(stats_.peak_held_bytes, held_total_bytes_);
  // Held messages only move when acks arrive; if the peer never acks (it
  // crashed, or every frame toward it drops), the sweep is what unwedges
  // the window and lets the queue drain.
  arm_inflight_sweep();
}

void NodeRuntime::drain_held(NodeId peer) {
  PeerFlow& flow = flow_for(peer);
  bool drained = false;
  while (!flow.held.empty() &&
         flow.inflight_bytes + batch_for(peer).entries.size() <
             config_.inflight_cap_bytes) {
    HeldMsg msg = std::move(flow.held.front());
    flow.held.pop_front();
    const std::size_t bytes = kEntryHeaderBytes + msg.payload.size();
    flow.held_bytes -= bytes;
    held_total_bytes_ -= bytes;
    stage_bytes(msg.port, peer, msg.payload, msg.cls);
    drained = true;
  }
  if (drained) schedule_flush();
}

void NodeRuntime::release_inflight(PeerFlow& flow) {
  while (!flow.inflight.empty() &&
         flow.inflight.front().seq <= flow.peer_acked) {
    flow.inflight_bytes -= flow.inflight.front().bytes;
    inflight_total_bytes_ -= flow.inflight.front().bytes;
    flow.inflight.pop_front();
  }
}

void NodeRuntime::on_flow_ack(NodeId from,
                              std::span<const std::uint8_t> payload) {
  Decoder dec(payload);
  std::uint64_t acked = 0;
  try {
    acked = dec.get_u64();
  } catch (const CodecError&) {
    stats_.decode_errors++;
    return;
  }
  stats_.flow_acks_received++;
  PeerFlow& flow = flow_for(from);
  if (acked <= flow.peer_acked) return;  // stale or duplicate cumulative ack
  flow.peer_acked = acked;
  release_inflight(flow);
  drain_held(from);
}

void NodeRuntime::send_flow_ack(NodeId to, PeerFlow& flow) {
  flow.acked_to_peer = flow.frames_seen;
  stats_.flow_acks_sent++;
  Encoder ack;
  ack.put_u64(flow.frames_seen);
  // Acks bypass the admission check (kFlow port) — a full window toward a
  // peer must never block acking what that peer sent US, or two loaded
  // peers would deadlock each other's windows.
  stage_bytes(Port::kFlow, to, ack.bytes(), MsgClass::kAck);
  schedule_flush();
}

void NodeRuntime::arm_inflight_sweep() {
  if (sweep_scheduled_ || config_.inflight_timeout_us <= 0) return;
  if (inflight_total_bytes_ == 0 && held_total_bytes_ == 0) return;
  sweep_scheduled_ = true;
  after(config_.inflight_timeout_us, [this] {
    sweep_scheduled_ = false;
    sweep_inflight();
  });
}

void NodeRuntime::sweep_inflight() {
  const Time deadline = now() - config_.inflight_timeout_us;
  for (std::size_t i = 0; i < flow_.size(); ++i) {
    PeerFlow& flow = flow_[i];
    while (!flow.inflight.empty() && flow.inflight.front().sent_at <= deadline) {
      // Presumed lost: the receiver is dead, partitioned away, or the frame
      // dropped. Releasing it keeps the window from wedging shut forever;
      // if the peer was merely slow its late ack arrives as a no-op.
      flow.inflight_bytes -= flow.inflight.front().bytes;
      inflight_total_bytes_ -= flow.inflight.front().bytes;
      flow.inflight.pop_front();
      stats_.inflight_expired++;
    }
    if (!flow.held.empty()) {
      drain_held(NodeId{static_cast<std::uint32_t>(i)});
    }
  }
  arm_inflight_sweep();
}

void NodeRuntime::schedule_flush() {
  if (flush_scheduled_) return;
  if (!simulator().in_event() && config_.max_linger_us == 0) {
    // Driver/test code calling send() directly, no lingering configured:
    // keep the old synchronous one-message-one-frame behavior.
    flush_now();
    return;
  }
  flush_scheduled_ = true;
  // With max_linger_us == 0 this fires at the *same simulated time*, after
  // every event already queued for this instant — i.e. at the end of the
  // current round, adding zero latency. The `after` guard keeps a flush
  // scheduled by a now-dead incarnation from ever touching its successor.
  flush_timer_ = after(config_.max_linger_us, [this] {
    flush_scheduled_ = false;
    flush_now();
  });
}

void NodeRuntime::clear_batch(Batch& batch) {
  batch.entries.clear();
  batch.count = 0;
  batch.acks = 0;
  batch.flow = 0;
  batch.active = false;
}

void NodeRuntime::emit_frame(std::span<const NodeId> group,
                             const Batch& batch) {
  const std::span<const std::uint8_t> entries = batch.entries.bytes();
  std::vector<std::uint8_t> frame;
  frame.reserve(kFrameHeaderBytes + entries.size());
  put_u32_le(frame, incarnation_);
  put_u32_le(frame, 0);  // checksum backfilled below
  put_u16_le(frame, batch.count);
  frame.insert(frame.end(), entries.begin(), entries.end());
  const std::uint32_t checksum = frame_checksum(
      incarnation_, std::span<const std::uint8_t>(frame).subspan(8));
  frame[4] = static_cast<std::uint8_t>(checksum);
  frame[5] = static_cast<std::uint8_t>(checksum >> 8);
  frame[6] = static_cast<std::uint8_t>(checksum >> 16);
  frame[7] = static_cast<std::uint8_t>(checksum >> 24);

  stats_.frames_sent++;
  stats_.messages_sent += batch.count;
  // An ack that shares its frame with anything else stopped costing a frame
  // of its own — that is the piggyback win the stats report.
  const std::uint64_t piggybacked = batch.count > 1 ? batch.acks : 0;
  stats_.piggybacked_acks += piggybacked;
  net_.note_frame(id_, batch.count, piggybacked);
  // Frames carrying anything beyond flow acks enter each destination's
  // unacked window. Pure-ack frames are exempt in BOTH directions (the
  // receiver does not count them either), or ack frames would need acks of
  // their own, forever.
  if (flow_enabled() && batch.count > batch.flow) {
    const std::size_t wire_bytes = frame.size();
    const Time sent_at = now();
    for (NodeId to : group) {
      if (to == id_) continue;  // loopback skips the wire and the window
      PeerFlow& flow = flow_for(to);
      flow.frames_to_peer++;
      flow.inflight.push_back({flow.frames_to_peer, wire_bytes, sent_at});
      flow.inflight_bytes += wire_bytes;
      inflight_total_bytes_ += wire_bytes;
    }
    arm_inflight_sweep();
  }
  net_.multicast(id_, group, std::move(frame));
}

void NodeRuntime::flush_now() {
  if (flush_scheduled_) {
    cancel(flush_timer_);
    flush_scheduled_ = false;
  }
  if (active_dests_.empty()) return;
  if (net_.crashed(id_)) {
    // The sender died with messages staged: they die with it, like bytes
    // sitting in a dead host's socket buffers. Don't count them as sent.
    for (NodeId to : active_dests_) clear_batch(batches_[to.value()]);
    active_dests_.clear();
    staged_count_ = 0;
    return;
  }
  // Destinations whose staged bytes are identical — the pure-multicast
  // case — share one network transmission, preserving the shared bus's
  // one-occupancy-per-multicast economics. Group greedily in staging
  // order (deterministic); a destination whose batch also carries a
  // piggybacked extra simply falls out of the group and pays its own
  // frame, which is never worse than the unbatched transport.
  for (std::size_t i = 0; i < active_dests_.size(); ++i) {
    Batch& lead = batches_[active_dests_[i].value()];
    if (!lead.active) continue;  // already emitted with an earlier group
    group_scratch_.clear();
    group_scratch_.push_back(active_dests_[i]);
    const std::span<const std::uint8_t> lead_bytes = lead.entries.bytes();
    for (std::size_t j = i + 1; j < active_dests_.size(); ++j) {
      Batch& other = batches_[active_dests_[j].value()];
      if (!other.active || other.count != lead.count ||
          other.entries.size() != lead.entries.size()) {
        continue;
      }
      const std::span<const std::uint8_t> other_bytes = other.entries.bytes();
      if (!std::equal(lead_bytes.begin(), lead_bytes.end(),
                      other_bytes.begin())) {
        continue;
      }
      group_scratch_.push_back(active_dests_[j]);
      clear_batch(other);
    }
    emit_frame(group_scratch_, lead);
    staged_count_ -= static_cast<std::size_t>(lead.count) *
                     group_scratch_.size();
    clear_batch(lead);
  }
  active_dests_.clear();
}

// The flush is scheduled only after *all* of a call's destinations staged:
// a synchronous flush fired from inside the staging loop would emit the
// first destination's frame alone and forfeit the multicast's shared bus
// transmission.
void NodeRuntime::send(Port port, NodeId to, const Encoder& payload,
                       MsgClass cls) {
  stage(port, to, payload, cls);
  schedule_flush();
}

void NodeRuntime::multicast(Port port, std::span<const NodeId> dests,
                            const Encoder& payload, MsgClass cls) {
  for (NodeId to : dests) stage(port, to, payload, cls);
  if (!dests.empty()) schedule_flush();
}

void NodeRuntime::multicast(Port port, std::span<const ProcessId> dests,
                            const Encoder& payload, MsgClass cls) {
  for (ProcessId p : dests) stage(port, node_of(p), payload, cls);
  if (!dests.empty()) schedule_flush();
}

void NodeRuntime::on_packet(NodeId from, std::span<const std::uint8_t> data) {
  if (data.size() < kFrameHeaderBytes) {
    stats_.malformed_frames++;
    PLWG_WARN("transport", "short frame (", data.size(), "B) from node ",
              from);
    return;
  }
  const std::uint32_t incarnation = get_u32_le(data.subspan(0, 4));
  const std::uint32_t checksum = get_u32_le(data.subspan(4, 4));
  if (frame_checksum(incarnation, data.subspan(8)) != checksum) {
    // Corrupted in transit: refuse the WHOLE batch before the incarnation,
    // count, or any entry can poison state. Corruption degrades to loss.
    stats_.malformed_frames++;
    PLWG_WARN("transport", "bad checksum on frame from node ", from);
    return;
  }
  if (from.value() >= peer_incarnation_.size()) {
    peer_incarnation_.resize(from.value() + 1, 0);
  }
  std::uint32_t& known = peer_incarnation_[from.value()];
  if (incarnation < known) {
    stats_.stale_incarnation_drops++;
    PLWG_DEBUG("transport", "ghost frame from node ", from, " incarnation ",
               incarnation, " (now ", known, ")");
    return;
  }
  known = incarnation;
  const std::uint16_t count = get_u16_le(data.subspan(8, 2));
  std::span<const std::uint8_t> rest = data.subspan(kFrameHeaderBytes);
  bool countable = false;  // carried anything beyond flow acks
  for (std::uint16_t n = 0; n < count; ++n) {
    // The checksum already vouched for these bytes, so a bound violation
    // here is a sender framing bug rather than wire damage — but hostile
    // input can present a valid checksum over a malformed batch, so the
    // demux still refuses instead of trusting the counts.
    if (rest.size() < kEntryHeaderBytes) {
      stats_.malformed_frames++;
      PLWG_WARN("transport", "truncated entry header in frame from ", from);
      return;
    }
    const std::uint8_t port_byte = rest[0];
    const std::uint32_t len = get_u32_le(rest.subspan(1, 4));
    rest = rest.subspan(kEntryHeaderBytes);
    if (rest.size() < len) {
      stats_.malformed_frames++;
      PLWG_WARN("transport", "truncated entry payload in frame from ", from);
      return;
    }
    const std::span<const std::uint8_t> payload = rest.subspan(0, len);
    rest = rest.subspan(len);
    if (port_byte == static_cast<std::uint8_t>(Port::kFlow)) {
      // Transport-internal cumulative ack; never reaches a PortHandler.
      on_flow_ack(from, payload);
      continue;
    }
    countable = true;
    const auto idx = static_cast<std::size_t>(port_byte);
    if (idx >= kPortCount || handlers_[idx] == nullptr) {
      stats_.unbound_port_drops++;
      PLWG_WARN("transport", "message for unbound port ", idx, " from ",
                from);
      continue;  // the rest of the batch is still good
    }
    Decoder dec(payload);
    try {
      handlers_[idx]->on_message(from, dec);
    } catch (const CodecError& e) {
      stats_.decode_errors++;
      PLWG_ERROR("transport", "malformed message from ", from, ": ",
                 e.what());
    }
  }
  if (!rest.empty()) {
    stats_.malformed_frames++;
    PLWG_WARN("transport", "trailing bytes after batch from ", from);
  }
  if (flow_enabled() && countable && from != id_) {
    PeerFlow& flow = flow_for(from);
    flow.frames_seen++;
    send_flow_ack(from, flow);
  }
}

}  // namespace plwg::transport
