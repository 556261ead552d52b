// Shared pieces of the benchmark's workloads: the options a run takes, a
// traced/timed wrapper around every call into SimWorld and LwgService, the
// per-layer counter reader, the probe LwgUser that checks deliveries, and a
// small JSON writer for the result record.
//
// Everything here drives the library through its public API only.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "harness/world.hpp"
#include "lwg/lwg_user.hpp"
#include "trace.hpp"

namespace plwg::perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measured simulated seconds (fig2, wan).
  double sim_s = 0;
  std::size_t threads = 1;
  std::size_t segments = 1000;
  std::size_t regional = 100;
  /// Planned fault cycles of one chaos episode.
  std::size_t cycles = 40;
  bool oracle = false;
  bool trace = false;
  std::string trace_out;
  /// Self-test: crash a receiver right after the first measured send, so
  /// that send must be counted as failed.
  bool force_loss = false;
};

// --- JSON --------------------------------------------------------------------

class Json {
 public:
  Json& num(const std::string& key, double v);
  Json& count(const std::string& key, std::uint64_t v);
  Json& str(const std::string& key, const std::string& v);
  Json& raw(const std::string& key, const std::string& json);
  [[nodiscard]] std::string done() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

[[nodiscard]] std::string json_quote(const std::string& s);
[[nodiscard]] std::string json_array(const std::vector<double>& v);
[[nodiscard]] std::string hex64(std::uint64_t v);

// --- latency histogram -------------------------------------------------------

/// Exact below 256 µs; above, 256 sub-buckets per power of two (< 0.4%
/// relative width). run.py merges and reads percentiles with the same
/// bucket layout.
class Histogram {
 public:
  void add(std::uint64_t v);
  void merge(const Histogram& other);
  /// Sparse {"bucket": count, ...}.
  [[nodiscard]] std::string json() const;

 private:
  std::vector<std::uint64_t> buckets_;
};

// --- per-layer counters ------------------------------------------------------

enum Ctr : int {
  kEngineEvents,
  kNetFrames,
  kNetMsgs,
  kNetBytesSent,
  kNetBytesOnWire,
  kNetDrops,
  kNetLinkBlocked,
  kNetStaleEpochDrops,
  kNetBusyUs,
  kTpFrames,
  kTpPiggybacked,
  kTpRejected,
  kTpBackpressureHeld,
  kTpBackpressureRejects,
  kTpBackpressureDrops,
  kVsViews,
  kVsDelivered,
  kVsFlushes,
  kVsMergesLed,
  kVsNacks,
  kNsRequests,
  kNsFullSyncs,
  kNsDeltaSyncs,
  kNsCallbacks,
  kLwgSent,
  kLwgDelivered,
  kLwgFiltered,
  kLwgSuperseded,
  kLwgResent,
  kLwgSwitchesStarted,
  kLwgSwitchesCompleted,
  kLwgMerges,
  kLwgConflictCallbacks,
  kCtrCount
};
using Counters = std::array<std::uint64_t, kCtrCount>;

[[nodiscard]] Counters operator-(const Counters& a, const Counters& b);
[[nodiscard]] std::string counters_json(const Counters& c);
[[nodiscard]] std::map<std::string, std::uint64_t> counters_map(
    const Counters& c);

/// Reads every layer's public stats() and sums them. Per-process objects
/// are rebuilt on restart (and vsync endpoints come and go), which resets
/// their counters; the reader keeps the last value it saw of each object,
/// so totals stay monotonic. Activity between an object's last read and its
/// teardown is not counted — Driver reads just before every restart.
class CounterReader {
 public:
  [[nodiscard]] Counters read(harness::SimWorld& world);

 private:
  using Key = std::tuple<int, std::size_t, std::uint32_t, std::uint64_t>;
  void fold(const Key& key, const Counters& now);
  std::map<Key, Counters> last_;
  Counters retired_{};
};

// --- traced calls into the library ------------------------------------------

[[nodiscard]] double percentile(std::vector<double> v, double q);

/// Every call the workloads make into SimWorld / LwgService goes through
/// here: it opens the trace span and keeps the always-on timings.
class Driver {
 public:
  explicit Driver(harness::SimWorld& world) : world_(world) {}

  [[nodiscard]] harness::SimWorld& world() { return world_; }

  void run_for(Duration us);
  bool run_until(const std::function<bool()>& pred, Duration timeout_us);
  void join(std::size_t proc, LwgId lwg, lwg::LwgUser& user);
  void send(std::size_t proc, LwgId lwg, std::vector<std::uint8_t> payload);
  [[nodiscard]] const lwg::LwgView* view_of(std::size_t proc, LwgId lwg);

  void partition(const std::vector<std::vector<std::size_t>>& classes,
                 const std::vector<std::size_t>& server_sides);
  void cut_wan();
  void heal();
  void crash(std::size_t proc);
  void restart(std::size_t proc);
  [[nodiscard]] std::string convergence_failure();
  bool verify_convergence();
  [[nodiscard]] Counters counters();
  [[nodiscard]] std::uint64_t digest();

  /// Wall seconds inside engine calls (run_for / run_until minus their
  /// predicates) and per-run_for durations, since construction.
  double engine_s = 0;
  double predicate_s = 0;
  std::vector<double> run_call_us;
  std::vector<double> topology_us;
  std::vector<double> restart_ms;
  std::vector<double> convergence_check_ms;

 private:
  harness::SimWorld& world_;
  CounterReader reader_;
};

// --- probe user --------------------------------------------------------------

/// A tracked send's payload starts with its simulated send time (i64), its
/// stream (u32) and its sequence number in the stream (u32). A stream is
/// one (sender, LWG) pair.
inline constexpr std::size_t kProbeHeaderBytes = 16;

/// The application at one process: counts deliveries, records send→upcall
/// latency of probes sent at or after `measure_from`, and, when tracking,
/// which (stream, seq) it has delivered.
class ProbeUser : public lwg::LwgUser {
 public:
  ProbeUser(harness::SimWorld& world, std::size_t proc, bool tracked)
      : world_(world), proc_(proc), tracked_(tracked) {}

  void on_lwg_view(LwgId, const lwg::LwgView&) override {}
  void on_lwg_data(LwgId lwg, ProcessId src,
                   std::span<const std::uint8_t> data) override;

  [[nodiscard]] bool delivered(std::uint32_t stream, std::uint32_t seq) const;

  Time measure_from = 0;
  std::uint64_t deliveries = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> per_lwg;  // deliveries
  Histogram latency;
  /// Per-stream delivery counts indexed by sequence number.
  std::unordered_map<std::uint32_t, std::vector<std::uint8_t>> received;
  /// Upcalls seen, for trace sampling.
  std::uint32_t upcall_counter = 0;

 private:
  harness::SimWorld& world_;
  std::size_t proc_;
  bool tracked_;
};

/// The send side of failure accounting: every tracked send, with the LWG
/// view membership it was sent in. check() then asks each member's
/// ProbeUser whether it delivered the send.
class SendLog {
 public:
  /// Send a probe of `bytes` total on `lwg` from `proc`. Returns false (and
  /// counts a failure) when `proc` has no view of `lwg`.
  bool send(Driver& driver, std::size_t proc, LwgId lwg, std::size_t bytes);

  struct Outcome {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> reasons;  // first few failures
  };
  [[nodiscard]] Outcome check(
      const std::vector<std::unique_ptr<ProbeUser>>& users,
      harness::SimWorld& world) const;

 private:
  struct Stream {
    std::size_t sender = 0;
    LwgId lwg;
    std::vector<std::uint32_t> member_set;  // per seq: index into sets_
  };
  std::map<std::pair<std::size_t, std::uint64_t>, std::uint32_t> stream_ids_;
  std::vector<Stream> streams_;
  std::map<std::vector<std::uint32_t>, std::uint32_t> set_ids_;
  std::vector<std::vector<std::uint32_t>> sets_;  // member ProcessId values
  std::uint64_t refused_ = 0;
};

// --- steady-traffic workloads (fig2, wan) --------------------------------------

struct SteadyPlan {
  Duration tick_us = 0;
  /// Measured-phase sample length; host metrics are medians over windows.
  Duration window_us = 0;
  Duration warm_us = 0;
  Duration measure_us = 0;
  /// Quiet time after traffic stops, before deliveries are checked.
  Duration drain_us = 0;
  /// Sends for tick `t` (ticks count from the start of the warm-up).
  std::function<void(std::uint64_t t)> traffic;
  /// Self-test hook run right after the first measured tick's sends.
  std::function<void()> after_first_measured_send;
};

/// Runs warm-up, measured windows and drain on a formed world, checks every
/// send, and writes the measured-phase fields into `out`.
void run_steady(Driver& driver, std::vector<std::unique_ptr<ProbeUser>>& users,
                SendLog& log, const SteadyPlan& plan, Json& out);

// --- shared output -----------------------------------------------------------

[[nodiscard]] double peak_rss_mb();
/// Wall seconds of a fixed reference kernel (hash-map inserts and lookups
/// plus random reads over 4 MB; no library code) run on `threads` threads
/// at once, as many as the engine uses. Timed between measured windows, it
/// tracks how fast the host is running at that moment.
[[nodiscard]] double reference_kernel_s(std::size_t threads);
/// Per-name self time, calls and duration percentiles from the tracer.
[[nodiscard]] std::string span_report();
[[nodiscard]] double seconds_since(std::uint64_t start_ns);

}  // namespace plwg::perfbench
