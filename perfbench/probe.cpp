#include "probe.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <thread>

#include "util/codec.hpp"

namespace plwg::perfbench {

// --- JSON --------------------------------------------------------------------

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

namespace {
std::string fmt_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}
}  // namespace

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += fmt_double(v[i]);
  }
  return out + "]";
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void Json::key(const std::string& k) {
  if (!body_.empty()) body_ += ',';
  body_ += json_quote(k) + ':';
}

Json& Json::num(const std::string& k, double v) {
  key(k);
  body_ += fmt_double(v);
  return *this;
}

Json& Json::count(const std::string& k, std::uint64_t v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

Json& Json::str(const std::string& k, const std::string& v) {
  key(k);
  body_ += json_quote(v);
  return *this;
}

Json& Json::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

// --- histogram ---------------------------------------------------------------

namespace {
std::size_t bucket_of(std::uint64_t v) {
  if (v < 256) return static_cast<std::size_t>(v);
  const int e = 63 - std::countl_zero(v);  // >= 8
  const std::uint64_t sub = (v >> (e - 8)) & 255U;
  return 256 + static_cast<std::size_t>(e - 8) * 256 + sub;
}
}  // namespace

void Histogram::add(std::uint64_t v) {
  const std::size_t b = bucket_of(v);
  if (b >= buckets_.size()) buckets_.resize(b + 1, 0);
  ++buckets_[b];
}

void Histogram::merge(const Histogram& other) {
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
}

std::string Histogram::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    if (out.size() > 1) out += ',';
    out += "\"" + std::to_string(i) + "\":" + std::to_string(buckets_[i]);
  }
  return out + "}";
}

// --- counters ----------------------------------------------------------------

namespace {
constexpr std::array<const char*, kCtrCount> kCtrNames = {
    "engine.events",
    "net.frames",
    "net.msgs",
    "net.bytes_sent",
    "net.bytes_on_wire",
    "net.drops",
    "net.link_blocked",
    "net.stale_epoch_drops",
    "net.bus_busy_us",
    "transport.frames",
    "transport.piggybacked",
    "transport.rejected",
    "transport.backpressure_held",
    "transport.backpressure_rejects",
    "transport.backpressure_drops",
    "vsync.views_installed",
    "vsync.delivered",
    "vsync.flushes",
    "vsync.merges_led",
    "vsync.nacks",
    "names.requests",
    "names.full_syncs",
    "names.delta_syncs",
    "names.callbacks",
    "lwg.sent",
    "lwg.delivered",
    "lwg.filtered",
    "lwg.superseded",
    "lwg.resent",
    "lwg.switches_started",
    "lwg.switches_completed",
    "lwg.merges",
    "lwg.conflict_callbacks",
};

Counters naming_counters(const names::NamingAgent& agent) {
  const auto& s = agent.stats();
  Counters c{};
  c[kNsRequests] = s.set_requests + s.read_requests + s.testset_requests;
  c[kNsFullSyncs] = s.full_syncs_sent;
  c[kNsDeltaSyncs] = s.delta_syncs_sent;
  c[kNsCallbacks] = s.callbacks_sent;
  return c;
}
}  // namespace

Counters operator-(const Counters& a, const Counters& b) {
  Counters d{};
  for (int i = 0; i < kCtrCount; ++i) d[i] = a[i] - b[i];
  return d;
}

std::string counters_json(const Counters& c) {
  Json j;
  for (int i = 0; i < kCtrCount; ++i) j.count(kCtrNames[i], c[i]);
  return j.done();
}

std::map<std::string, std::uint64_t> counters_map(const Counters& c) {
  std::map<std::string, std::uint64_t> out;
  for (int i = 0; i < kCtrCount; ++i) out[kCtrNames[i]] = c[i];
  return out;
}

void CounterReader::fold(const Key& key, const Counters& now) {
  auto [it, fresh] = last_.try_emplace(key, now);
  if (fresh) return;
  // A counter went backwards: the object was rebuilt under the same key
  // (an endpoint left and rejoined). Bank what the old one had.
  for (int i = 0; i < kCtrCount; ++i) {
    if (now[i] < it->second[i]) {
      for (int k = 0; k < kCtrCount; ++k) retired_[k] += it->second[k];
      break;
    }
  }
  it->second = now;
}

Counters CounterReader::read(harness::SimWorld& world) {
  for (std::size_t i = 0; i < world.num_processes(); ++i) {
    const std::uint32_t inc = world.incarnation(i);
    vsync::VsyncHost& host = world.vsync(i);
    {
      const auto& s = host.node().stats();
      Counters c{};
      c[kTpFrames] = s.frames_sent;
      c[kTpPiggybacked] = s.piggybacked_acks;
      c[kTpRejected] = s.malformed_frames + s.stale_incarnation_drops +
                       s.unbound_port_drops + s.decode_errors;
      c[kTpBackpressureHeld] = s.backpressure_held;
      c[kTpBackpressureRejects] = s.backpressure_rejects;
      c[kTpBackpressureDrops] = s.backpressure_drops;
      fold({0, i, inc, 0}, c);
    }
    for (const auto& [gid, ep] : host.endpoints()) {
      const auto& s = ep->stats();
      Counters c{};
      c[kVsViews] = s.views_installed;
      c[kVsDelivered] = s.msgs_delivered;
      c[kVsFlushes] = s.flushes_started;
      c[kVsMergesLed] = s.merges_led;
      c[kVsNacks] = s.nacks_sent;
      fold({1, i, inc, gid.value()}, c);
    }
    fold({2, i, inc, 0}, naming_counters(world.naming(i)));
    {
      const auto& s = world.lwg(i).stats();
      Counters c{};
      c[kLwgSent] = s.data_sent;
      c[kLwgDelivered] = s.data_delivered;
      c[kLwgFiltered] = s.data_filtered;
      c[kLwgSuperseded] = s.data_superseded;
      c[kLwgResent] = s.data_resent;
      c[kLwgSwitchesStarted] = s.switches_started;
      c[kLwgSwitchesCompleted] = s.switches_completed;
      c[kLwgMerges] = s.lwg_merges;
      c[kLwgConflictCallbacks] = s.conflict_callbacks;
      fold({3, i, inc, 0}, c);
    }
  }
  for (std::size_t j = 0; j < world.num_servers(); ++j) {
    fold({4, j, 0, 0}, naming_counters(world.server(j)));
  }

  Counters total = retired_;
  for (const auto& [key, c] : last_) {
    for (int k = 0; k < kCtrCount; ++k) total[k] += c[k];
  }
  const sim::NetworkStats& n = world.network().stats();
  total[kNetFrames] = n.frames_sent;
  total[kNetMsgs] = n.messages_sent;
  total[kNetBytesSent] = n.bytes_sent;
  total[kNetBytesOnWire] = n.bytes_on_wire;
  total[kNetDrops] = n.drops;
  total[kNetLinkBlocked] = n.link_blocked;
  total[kNetStaleEpochDrops] = n.stale_epoch_drops;
  total[kNetBusyUs] = static_cast<std::uint64_t>(n.bus_busy_us);
  sim::Engine& engine = world.engine();
  total[kEngineEvents] = 0;
  for (std::size_t s = 0; s < engine.num_sites(); ++s) {
    total[kEngineEvents] += engine.site_events_run(s);
  }
  return total;
}

// --- driver ------------------------------------------------------------------

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

void Driver::run_for(Duration us) {
  Span span("engine.run_for");
  const std::uint64_t t0 = now_ns();
  world_.run_for(us);
  const double s = seconds_since(t0);
  engine_s += s;
  run_call_us.push_back(s * 1e6);
}

bool Driver::run_until(const std::function<bool()>& pred, Duration timeout_us) {
  Span span("engine.run_until");
  double in_pred = 0;
  const std::uint64_t t0 = now_ns();
  const bool ok = world_.run_until(
      [&] {
        Span p("bench.predicate");
        const std::uint64_t p0 = now_ns();
        const bool r = pred();
        in_pred += seconds_since(p0);
        return r;
      },
      timeout_us);
  engine_s += seconds_since(t0) - in_pred;
  predicate_s += in_pred;
  return ok;
}

void Driver::join(std::size_t proc, LwgId lwg, lwg::LwgUser& user) {
  Span span("lwg.join");
  world_.lwg(proc).join(lwg, user);
}

void Driver::send(std::size_t proc, LwgId lwg,
                  std::vector<std::uint8_t> payload) {
  Span span("lwg.send");
  world_.lwg(proc).send(lwg, std::move(payload));
}

const lwg::LwgView* Driver::view_of(std::size_t proc, LwgId lwg) {
  Span span("lwg.view_of");
  return world_.lwg(proc).view_of(lwg);
}

namespace {
/// Times one topology call into `out` (microseconds).
template <typename F>
void timed_topology(std::vector<double>& out, F&& f) {
  Span span("harness.topology");
  const std::uint64_t t0 = now_ns();
  f();
  out.push_back(seconds_since(t0) * 1e6);
}
}  // namespace

void Driver::partition(const std::vector<std::vector<std::size_t>>& classes,
                       const std::vector<std::size_t>& server_sides) {
  timed_topology(topology_us,
                 [&] { world_.partition(classes, server_sides); });
}

void Driver::cut_wan() {
  timed_topology(topology_us, [&] { world_.cut_wan(); });
}

void Driver::heal() {
  timed_topology(topology_us, [&] { world_.heal(); });
}

void Driver::crash(std::size_t proc) {
  timed_topology(topology_us, [&] { world_.crash(proc); });
}

void Driver::restart(std::size_t proc) {
  (void)counters();  // bank the dying incarnation's counters
  Span span("harness.restart");
  const std::uint64_t t0 = now_ns();
  world_.restart(proc);
  restart_ms.push_back(seconds_since(t0) * 1e3);
}

std::string Driver::convergence_failure() {
  Span span("harness.convergence_check");
  const std::uint64_t t0 = now_ns();
  std::string r = world_.convergence_failure();
  convergence_check_ms.push_back(seconds_since(t0) * 1e3);
  return r;
}

bool Driver::verify_convergence() {
  Span span("harness.convergence_check");
  const std::uint64_t t0 = now_ns();
  const bool ok = world_.verify_convergence();
  convergence_check_ms.push_back(seconds_since(t0) * 1e3);
  return ok;
}

Counters Driver::counters() {
  Span span("bench.stats");
  return reader_.read(world_);
}

std::uint64_t Driver::digest() {
  Span span("sim.trace_digest");
  return world_.trace_digest();
}

// --- probe user --------------------------------------------------------------

void ProbeUser::on_lwg_data(LwgId lwg, ProcessId,
                            std::span<const std::uint8_t> data) {
  MaybeSpan span("bench.upcall", Span::sample(upcall_counter));
  ++deliveries;
  ++per_lwg[lwg.value()];
  if (data.size() < 8) return;
  Decoder dec(data);
  const Time sent = dec.get_i64();
  if (sent >= measure_from) {
    const Time now = world_.vsync(proc_).node().now();
    latency.add(static_cast<std::uint64_t>(std::max<Time>(0, now - sent)));
  }
  if (!tracked_ || data.size() < kProbeHeaderBytes) return;
  const std::uint32_t stream = dec.get_u32();
  const std::uint32_t seq = dec.get_u32();
  std::vector<std::uint8_t>& seen = received[stream];
  if (seq >= seen.size()) seen.resize(std::max<std::size_t>(seq + 1, seen.size() * 2), 0);
  if (seen[seq] < 255) ++seen[seq];
}

bool ProbeUser::delivered(std::uint32_t stream, std::uint32_t seq) const {
  const auto it = received.find(stream);
  return it != received.end() && seq < it->second.size() &&
         it->second[seq] > 0;
}

bool SendLog::send(Driver& driver, std::size_t proc, LwgId lwg,
                   std::size_t bytes) {
  const lwg::LwgView* view = driver.view_of(proc, lwg);
  if (view == nullptr) {
    ++refused_;
    return false;
  }
  std::vector<std::uint32_t> members;
  members.reserve(view->members.size());
  for (const ProcessId p : view->members.members()) members.push_back(p.value());
  const auto [set_it, new_set] = set_ids_.try_emplace(
      members, static_cast<std::uint32_t>(sets_.size()));
  if (new_set) sets_.push_back(members);
  const auto [stream_it, new_stream] = stream_ids_.try_emplace(
      {proc, lwg.value()}, static_cast<std::uint32_t>(streams_.size()));
  if (new_stream) streams_.push_back({proc, lwg, {}});
  Stream& stream = streams_[stream_it->second];
  const auto seq = static_cast<std::uint32_t>(stream.member_set.size());
  stream.member_set.push_back(set_it->second);

  Encoder enc;
  enc.put_i64(driver.world().engine().now());
  enc.put_u32(stream_it->second);
  enc.put_u32(seq);
  std::vector<std::uint8_t> payload = enc.take();
  if (payload.size() < bytes) payload.resize(bytes, 0);
  driver.send(proc, lwg, std::move(payload));
  return true;
}

SendLog::Outcome SendLog::check(
    const std::vector<std::unique_ptr<ProbeUser>>& users,
    harness::SimWorld& world) const {
  std::unordered_map<std::uint32_t, std::size_t> proc_of;
  for (std::size_t i = 0; i < world.num_processes(); ++i) {
    proc_of[world.pid(i).value()] = i;
  }
  Outcome out;
  out.attempted = refused_;
  out.failed = refused_;
  if (refused_ > 0) {
    out.reasons.push_back(std::to_string(refused_) +
                          " send(s) refused: sender had no view");
  }
  for (std::uint32_t s = 0; s < streams_.size(); ++s) {
    const Stream& stream = streams_[s];
    for (std::uint32_t seq = 0; seq < stream.member_set.size(); ++seq) {
      ++out.attempted;
      for (const std::uint32_t member : sets_[stream.member_set[seq]]) {
        const std::size_t proc = proc_of.at(member);
        if (users[proc]->delivered(s, seq)) continue;
        ++out.failed;
        if (out.reasons.size() < 8) {
          std::size_t got = 0;
          for (std::uint32_t k = 0; k < stream.member_set.size(); ++k) {
            got += users[proc]->delivered(s, k) ? 1 : 0;
          }
          out.reasons.push_back(
              "send seq " + std::to_string(seq) + " from process " +
              std::to_string(stream.sender) + " on lwg " +
              std::to_string(stream.lwg.value()) +
              " never delivered at process " + std::to_string(proc) +
              " (it delivered " + std::to_string(got) + " of the stream's " +
              std::to_string(stream.member_set.size()) + " sends)");
        }
        break;
      }
    }
  }
  return out;
}

// --- steady-traffic workloads ------------------------------------------------

void run_steady(Driver& driver, std::vector<std::unique_ptr<ProbeUser>>& users,
                SendLog& log, const SteadyPlan& plan, Json& out) {
  harness::SimWorld& world = driver.world();
  sim::Engine& engine = world.engine();
  const auto total_deliveries = [&] {
    std::uint64_t total = 0;
    for (const auto& u : users) total += u->deliveries;
    return total;
  };
  std::uint64_t tick = 0;

  const Time warm_end = engine.now() + plan.warm_us;
  while (engine.now() < warm_end) {
    plan.traffic(tick++);
    driver.run_for(plan.tick_us);
  }

  const Time start = engine.now();
  const Time end = start + plan.measure_us;
  for (auto& u : users) u->measure_from = start;
  engine.begin_event_window();
  const Counters c0 = driver.counters();
  Tracer::counters("measure.begin", counters_map(c0));
  const std::size_t first_call = driver.run_call_us.size();
  const double engine_s0 = driver.engine_s;
  const std::uint64_t d0 = total_deliveries();
  std::vector<double> win_wall;
  std::vector<double> win_sim;
  std::vector<double> win_deliveries;
  std::vector<double> win_ref;
  {
    Span measure("bench.measure");
    bool first = true;
    while (engine.now() < end) {
      const std::uint64_t w0 = now_ns();
      const Time ws = engine.now();
      const std::uint64_t wd = total_deliveries();
      const Time we = std::min(ws + plan.window_us, end);
      while (engine.now() < we) {
        plan.traffic(tick++);
        if (first && plan.after_first_measured_send) {
          plan.after_first_measured_send();
        }
        first = false;
        driver.run_for(plan.tick_us);
      }
      win_wall.push_back(seconds_since(w0));
      {
        Span ref("bench.reference");
        win_ref.push_back(reference_kernel_s(engine.threads()));
      }
      win_sim.push_back(static_cast<double>(engine.now() - ws) / 1e6);
      win_deliveries.push_back(static_cast<double>(total_deliveries() - wd));
    }
  }
  // Measured wall time excludes the reference kernel runs between windows.
  const double measure_wall =
      std::accumulate(win_wall.begin(), win_wall.end(), 0.0);
  const double measure_engine = driver.engine_s - engine_s0;
  const std::uint64_t delivered = total_deliveries() - d0;
  const Counters c1 = driver.counters();
  Tracer::counters("measure.end", counters_map(c1));

  // Engine load balance over the measured phase.
  std::vector<double> site_load(engine.num_sites());
  std::vector<double> shard_load(engine.num_shards(), 0.0);
  double load_sum = 0;
  for (std::size_t s = 0; s < engine.num_sites(); ++s) {
    site_load[s] = static_cast<double>(engine.site_events_in_window(s));
    shard_load[engine.plan().site_shard[s]] += site_load[s];
    load_sum += site_load[s];
  }
  const double site_max = *std::max_element(site_load.begin(), site_load.end());
  const double shard_max =
      *std::max_element(shard_load.begin(), shard_load.end());
  const std::vector<double> calls(driver.run_call_us.begin() + first_call,
                                  driver.run_call_us.end());
  const std::size_t shards = engine.num_shards();
  const std::size_t replans = engine.replan_count();

  driver.run_for(plan.drain_us);
  const SendLog::Outcome outcome = log.check(users, world);

  Histogram latency;
  for (const auto& u : users) latency.merge(u->latency);
  std::string reasons = "[";
  for (std::size_t i = 0; i < outcome.reasons.size(); ++i) {
    if (i > 0) reasons += ',';
    reasons += json_quote(outcome.reasons[i]);
  }
  reasons += "]";

  Json engine_json;
  engine_json.num("run_s", measure_engine)
      .num("run_call_us_p50", percentile(calls, 0.50))
      .num("run_call_us_p99", percentile(calls, 0.99))
      .count("run_calls", calls.size())
      .count("threads", engine.threads())
      .count("sites", engine.num_sites())
      .count("shards", shards)
      .count("replans", replans)
      .num("site_load_max_over_mean",
           load_sum > 0 ? site_max * static_cast<double>(site_load.size()) /
                              load_sum
                        : 0)
      .num("worker_bound", shard_max > 0 ? load_sum / shard_max : 0);
  out.num("measure_wall_s", measure_wall)
      .num("measure_sim_s", static_cast<double>(end - start) / 1e6)
      .count("deliveries", delivered)
      .raw("window_wall_s", json_array(win_wall))
      .raw("window_sim_s", json_array(win_sim))
      .raw("window_deliveries", json_array(win_deliveries))
      .raw("window_ref_s", json_array(win_ref))
      .raw("latency_us_hist", latency.json())
      .count("attempted", outcome.attempted)
      .count("failed", outcome.failed)
      .raw("failure_reasons", reasons)
      .raw("counters", counters_json(c1 - c0))
      .raw("engine", engine_json.done())
      .num("predicate_s", driver.predicate_s)
      .str("digest", hex64(driver.digest()));
}

// --- shared output -----------------------------------------------------------

namespace {
/// One thread's share of the reference kernel over its own 4 MB table.
void reference_work(std::vector<std::uint64_t>& table) {
  constexpr int kOps = 20'000;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  const auto next = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x >> 16;
  };
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  for (int i = 0; i < kOps; ++i) {
    map[next() % 50'000] += static_cast<std::uint64_t>(i);
    table[next() % table.size()] += x;
  }
  std::uint64_t acc = 0;
  for (int i = 0; i < kOps; ++i) {
    const auto it = map.find(next() % 50'000);
    if (it != map.end()) acc += it->second;
    acc += table[next() % table.size()];
  }
  table[acc % table.size()] = acc;  // keep the reads observable
}
}  // namespace

double reference_kernel_s(std::size_t threads) {
  static std::vector<std::vector<std::uint64_t>> tables;
  if (tables.size() < threads) {
    tables.resize(threads, std::vector<std::uint64_t>(std::size_t{1} << 19));
    for (auto& t : tables) reference_work(t);  // fault the pages in
  }
  const std::uint64_t t0 = now_ns();
  if (threads <= 1) {
    reference_work(tables[0]);
  } else {
    std::vector<std::thread> workers;
    for (std::size_t i = 0; i < threads; ++i) {
      workers.emplace_back([i] { reference_work(tables[i]); });
    }
    for (auto& w : workers) w.join();
  }
  return seconds_since(t0);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string span_report() {
  Json all;
  for (const auto& [name, st] : Tracer::aggregate()) {
    std::vector<double> d(st.durations_ns.begin(), st.durations_ns.end());
    Json j;
    j.count("calls", st.calls)
        .num("total_s", static_cast<double>(st.total_ns) / 1e9)
        .num("self_s", static_cast<double>(st.self_ns) / 1e9)
        .num("p50_us", percentile(d, 0.50) / 1e3)
        .num("p99_us", percentile(d, 0.99) / 1e3);
    all.raw(name, j.done());
  }
  return all.done();
}

}  // namespace plwg::perfbench
