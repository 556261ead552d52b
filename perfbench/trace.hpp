// In-memory span tracer for the benchmark's calls into the library.
//
// A Span covers one call from benchmark code into a layer (engine, lwg,
// harness, ...). Spans nest per thread: a span's self time is its duration
// minus the time its child spans on the same thread cover. Self time and
// call durations are aggregated per name as spans close; the first
// kMaxStoredSpans spans are also kept whole (name, start, end, parent,
// thread) and written out as Chrome trace-event JSON at the end.
//
// Tracing is off unless Tracer::enable() was called; a disabled Span costs
// one branch.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace plwg::perfbench {

[[nodiscard]] std::uint64_t now_ns();

class Tracer {
 public:
  /// Turn tracing on. Upcall spans (Span::sample) are recorded for one
  /// call in `upcall_every`.
  static void enable(std::uint32_t upcall_every);
  [[nodiscard]] static bool on();
  [[nodiscard]] static std::uint32_t upcall_every();

  /// A counter snapshot at a phase or cycle boundary (driver thread).
  static void counters(const std::string& label,
                       const std::map<std::string, std::uint64_t>& values);

  struct NameStats {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
    std::vector<std::uint32_t> durations_ns;  // per call, capped
  };
  /// Per-name aggregates merged over every thread.
  [[nodiscard]] static std::map<std::string, NameStats> aggregate();
  /// Write stored spans and counter snapshots as Chrome trace-event JSON.
  static bool write_chrome_trace(const std::string& path);
};

class Span {
 public:
  explicit Span(const char* name) {
    if (Tracer::on()) open(name);
  }
  ~Span() {
    if (active_) close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// For upcalls: a Span that records only every Nth call of `counter`.
  static bool sample(std::uint32_t& counter) {
    return Tracer::on() && (counter++ % Tracer::upcall_every()) == 0;
  }

 private:
  void open(const char* name);
  void close();
  bool active_ = false;
};

/// A Span only when `take` is true (sampled upcalls).
class MaybeSpan {
 public:
  MaybeSpan(const char* name, bool take) {
    if (take) span_.emplace(name);
  }

 private:
  std::optional<Span> span_;
};

}  // namespace plwg::perfbench
