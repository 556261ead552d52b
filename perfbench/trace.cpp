#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace plwg::perfbench {
namespace {

constexpr std::size_t kMaxStoredSpans = 200'000;
constexpr std::size_t kMaxDurationsPerName = 2'000'000;

struct Frame {
  std::uint32_t name = 0;
  std::uint64_t start = 0;
  std::uint64_t child_ns = 0;
};

struct StoredSpan {
  std::uint32_t name = 0;
  std::uint32_t parent = 0;  // name index + 1 of the enclosing span, 0 = root
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

/// Everything one thread recorded; written only by that thread, read by
/// the driver once the engine is idle.
struct ThreadLog {
  std::uint32_t thread = 0;
  std::vector<Frame> stack;
  std::unordered_map<const char*, std::uint32_t> ids;
  std::vector<std::string> names;
  std::vector<Tracer::NameStats> stats;
  std::vector<StoredSpan> spans;
};

struct Snapshot {
  std::string label;
  std::uint64_t ts = 0;
  std::map<std::string, std::uint64_t> values;
};

std::atomic<bool> g_on{false};
std::uint32_t g_upcall_every = 1;
std::uint64_t g_epoch = 0;
std::atomic<std::size_t> g_stored{0};

std::mutex g_mu;  // guards g_logs, g_snapshots
std::vector<std::unique_ptr<ThreadLog>> g_logs;
std::vector<Snapshot> g_snapshots;

ThreadLog& local_log() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_logs.push_back(std::make_unique<ThreadLog>());
    log = g_logs.back().get();
    log->thread = static_cast<std::uint32_t>(g_logs.size());
  }
  return *log;
}

std::uint32_t intern(ThreadLog& log, const char* name) {
  auto [it, fresh] = log.ids.try_emplace(
      name, static_cast<std::uint32_t>(log.names.size()));
  if (fresh) {
    log.names.emplace_back(name);
    log.stats.emplace_back();
  }
  return it->second;
}

void put_json_string(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (const char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
  std::fputc('"', f);
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Tracer::enable(std::uint32_t upcall_every) {
  g_upcall_every = upcall_every == 0 ? 1 : upcall_every;
  g_epoch = now_ns();
  g_on.store(true, std::memory_order_relaxed);
}

bool Tracer::on() { return g_on.load(std::memory_order_relaxed); }

std::uint32_t Tracer::upcall_every() { return g_upcall_every; }

void Tracer::counters(const std::string& label,
                      const std::map<std::string, std::uint64_t>& values) {
  if (!on()) return;
  std::lock_guard<std::mutex> lock(g_mu);
  g_snapshots.push_back({label, now_ns(), values});
}

void Span::open(const char* name) {
  ThreadLog& log = local_log();
  log.stack.push_back({intern(log, name), now_ns(), 0});
  active_ = true;
}

void Span::close() {
  const std::uint64_t end = now_ns();
  ThreadLog& log = local_log();
  const Frame f = log.stack.back();
  log.stack.pop_back();
  const std::uint64_t dur = end - f.start;
  Tracer::NameStats& st = log.stats[f.name];
  ++st.calls;
  st.total_ns += dur;
  st.self_ns += dur > f.child_ns ? dur - f.child_ns : 0;
  if (st.durations_ns.size() < kMaxDurationsPerName) {
    st.durations_ns.push_back(
        static_cast<std::uint32_t>(std::min<std::uint64_t>(dur, UINT32_MAX)));
  }
  std::uint32_t parent = 0;
  if (!log.stack.empty()) {
    log.stack.back().child_ns += dur;
    parent = log.stack.back().name + 1;
  }
  if (g_stored.fetch_add(1, std::memory_order_relaxed) < kMaxStoredSpans) {
    log.spans.push_back({f.name, parent, f.start, end});
  }
}

std::map<std::string, Tracer::NameStats> Tracer::aggregate() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::map<std::string, NameStats> out;
  for (const auto& log : g_logs) {
    for (std::size_t i = 0; i < log->names.size(); ++i) {
      NameStats& dst = out[log->names[i]];
      const NameStats& src = log->stats[i];
      dst.calls += src.calls;
      dst.total_ns += src.total_ns;
      dst.self_ns += src.self_ns;
      dst.durations_ns.insert(dst.durations_ns.end(), src.durations_ns.begin(),
                              src.durations_ns.end());
    }
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(g_mu);
  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  const auto sep = [&] {
    if (!first) std::fputs(",\n", f);
    first = false;
  };
  for (const auto& log : g_logs) {
    for (const StoredSpan& s : log->spans) {
      sep();
      std::fputs("{\"name\":", f);
      put_json_string(f, log->names[s.name]);
      std::fprintf(f, ",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"parent\":",
                   log->thread, static_cast<double>(s.start - g_epoch) / 1e3,
                   static_cast<double>(s.end - s.start) / 1e3);
      put_json_string(f, s.parent == 0 ? "" : log->names[s.parent - 1]);
      std::fputs("}}", f);
    }
  }
  for (const Snapshot& snap : g_snapshots) {
    sep();
    std::fputs("{\"name\":", f);
    put_json_string(f, snap.label);
    std::fprintf(f, ",\"ph\":\"C\",\"pid\":1,\"ts\":%.3f,\"args\":{",
                 static_cast<double>(snap.ts - g_epoch) / 1e3);
    bool first_value = true;
    for (const auto& [k, v] : snap.values) {
      if (!first_value) std::fputc(',', f);
      first_value = false;
      put_json_string(f, k);
      std::fprintf(f, ":%llu", static_cast<unsigned long long>(v));
    }
    std::fputs("}}", f);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace plwg::perfbench
