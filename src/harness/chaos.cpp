#include "harness/chaos.hpp"

#include <algorithm>

#include "sim/network.hpp"
#include "util/assert.hpp"

namespace plwg::harness {

namespace {

/// One rolling-partition shift: flatten the islands in order, rotate the
/// flattened membership left by `by`, re-slice into the same island sizes.
std::vector<std::vector<std::size_t>> rotated(
    const std::vector<std::vector<std::size_t>>& islands, std::size_t by) {
  std::vector<std::size_t> flat;
  for (const auto& island : islands) {
    flat.insert(flat.end(), island.begin(), island.end());
  }
  PLWG_ASSERT(!flat.empty());
  std::rotate(flat.begin(),
              flat.begin() + static_cast<std::ptrdiff_t>(by % flat.size()),
              flat.end());
  std::vector<std::vector<std::size_t>> out;
  std::size_t pos = 0;
  for (const auto& island : islands) {
    out.emplace_back(flat.begin() + static_cast<std::ptrdiff_t>(pos),
                     flat.begin() + static_cast<std::ptrdiff_t>(pos +
                                                                island.size()));
    pos += island.size();
  }
  return out;
}

/// An exponential draw with mean `mean_us`, at least `floor_us`.
Duration exponential_us(Rng& rng, Duration mean_us, Duration floor_us) {
  return std::max<Duration>(
      static_cast<Duration>(rng.next_exponential(static_cast<double>(mean_us))),
      floor_us);
}

}  // namespace

ChaosMonkey::ChaosMonkey(SimWorld& world, std::uint64_t seed)
    : world_(world), rng_(seed) {}

void ChaosMonkey::load(const Scenario& scenario) {
  PLWG_ASSERT_MSG(scenario.processes <= world_.num_processes(),
                  "scenario names more processes than the world has");
  const Time base = world_.engine().now();
  for (const ScenarioEvent& ev : scenario.events) {
    schedule(ev, base + ev.at_us);
  }
}

void ChaosMonkey::schedule(const ScenarioEvent& ev, Time at) {
  using Kind = ScenarioEvent::Kind;
  switch (ev.kind) {
    case Kind::kRollingPartition: {
      // steps+1 partitions with no fully-connected instant in between: at
      // each shift boundary one interval ends and the rotated next one
      // starts at the same timestamp, applied back-to-back while idle.
      ScenarioEvent part{.duration_us = ev.step_us, .islands = ev.islands};
      for (std::size_t k = 0; k <= ev.steps; ++k) {
        schedule(part, at + static_cast<Duration>(k) * ev.step_us);
        part.islands = rotated(part.islands, ev.rotate_by);
      }
      return;
    }
    case Kind::kFlap: {
      const ScenarioEvent down{.kind = Kind::kLinkDown,
                               .duration_us = ev.down_us,
                               .from = ev.from,
                               .to = ev.to,
                               .symmetric = ev.symmetric};
      for (std::size_t c = 0; c < ev.count; ++c) {
        schedule(down, at + static_cast<Duration>(c) * ev.period_us);
      }
      return;
    }
    case Kind::kChurnStorm: {
      ScenarioEvent crash{.kind = Kind::kCrash, .down_us = ev.down_us};
      Time t = at;
      for (std::size_t c = 0; c < ev.cycles; ++c) {
        for (const std::size_t victim : ev.nodes) {
          crash.node = victim;
          schedule(crash, t);
          t += ev.gap_us;
        }
      }
      return;
    }
    case Kind::kStall:
      if (ev.count > 1) {  // a pause train: one stall per period_us
        ScenarioEvent stall = ev;
        stall.count = 1;
        for (std::size_t c = 0; c < ev.count; ++c) {
          schedule(stall, at + static_cast<Duration>(c) * ev.period_us);
        }
        return;
      }
      break;
    default:
      break;
  }
  // A primitive (random_churn's start and end included). Crashes and stalls
  // hand their length to the world instead of scheduling an end: a crash's
  // restart is a pending restart, a stall lifts itself.
  const std::uint64_t id = next_interval_id_++;
  schedule_.emplace(at, Edge{ev, id, false});
  if (ev.duration_us > 0 && ev.kind != Kind::kStall) {
    schedule_.emplace(at + ev.duration_us, Edge{ev, id, true});
  }
}

void ChaosMonkey::run_for(Duration us) {
  const Time deadline = world_.engine().now() + us;
  while (world_.engine().now() < deadline) {
    fire_due_restarts();
    apply_due_edges();
    if (next_draw_ <= world_.engine().now()) draw_churn();
    const Time step = std::min(
        {deadline, next_draw_, earliest_pending(), next_edge_time()});
    if (step > world_.engine().now()) {
      world_.run_for(step - world_.engine().now());
    }
  }
  fire_due_restarts();
  apply_due_edges();
}

void ChaosMonkey::quiesce() {
  // Cancel not-yet-started faults first so ending the open intervals below
  // cannot race a scheduled start at the same timestamp.
  schedule_.clear();
  if (!active_partitions_.empty()) {
    active_partitions_.clear();
    world_.heal();
  }
  world_.network().clear_link_faults();
  // Lift every gray fault: active stalls end now (their CPU backlog is
  // forgiven), slow-down factors and clock rates go back to 1.
  world_.network().clear_node_faults();
  // Fire every scheduled restart now: quiescence means the world settles
  // with everyone that was going to come back already back.
  for (PendingRestart& pr : pending_restarts_) {
    pr.due = world_.engine().now();
  }
  fire_due_restarts();
  churn_.reset();
  next_draw_ = kTimeMax;
  // The convergence check that follows quiesce() must run against a healthy
  // network: nothing scheduled, nothing open, nothing pending.
  PLWG_ASSERT_MSG(schedule_.empty() && active_partitions_.empty() &&
                      pending_restarts_.empty() &&
                      world_.network().link_fault_count() == 0 &&
                      world_.network().node_fault_count() == 0,
                  "quiesce left fault state behind");
}

Time ChaosMonkey::earliest_pending() const {
  Time t = kTimeMax;
  for (const PendingRestart& pr : pending_restarts_) t = std::min(t, pr.due);
  return t;
}

Time ChaosMonkey::next_edge_time() const {
  return schedule_.empty() ? kTimeMax : schedule_.begin()->first;
}

bool ChaosMonkey::is_crashed(std::size_t index) const {
  return std::find(crashed_.begin(), crashed_.end(), index) != crashed_.end();
}

void ChaosMonkey::fire_due_restarts() {
  const Time now = world_.engine().now();
  for (std::size_t i = 0; i < pending_restarts_.size();) {
    if (pending_restarts_[i].due > now) {
      ++i;
      continue;
    }
    const PendingRestart pr = pending_restarts_[i];
    pending_restarts_.erase(pending_restarts_.begin() + i);
    world_.restart(pr.index);
    std::erase(crashed_, pr.index);
    restarts_fired_++;
    restart_log_.push_back(RestartEvent{pr.index, pr.crashed_at, now});
  }
}

void ChaosMonkey::apply_due_edges() {
  while (!schedule_.empty() &&
         schedule_.begin()->first <= world_.engine().now()) {
    const Edge edge = std::move(schedule_.begin()->second);
    schedule_.erase(schedule_.begin());
    apply(edge);
  }
}

void ChaosMonkey::apply(const Edge& edge) {
  using Kind = ScenarioEvent::Kind;
  const ScenarioEvent& ev = edge.event;
  switch (ev.kind) {
    case Kind::kPartition:
      if (!edge.end) {
        active_partitions_.emplace(edge.interval, ev);
        partitions_injected_++;
        apply_partitions();
      } else if (active_partitions_.erase(edge.interval) > 0) {
        apply_partitions();
      }
      break;
    case Kind::kLinkDown:
    case Kind::kLinkLossy: {
      sim::LinkFault fault;
      if (ev.kind == Kind::kLinkDown) {
        fault.blocked = true;
      } else {
        fault.drop_probability = ev.drop_probability;
        fault.jitter_us = ev.jitter_us;
      }
      const auto edit = [&](std::size_t from, std::size_t to) {
        if (edge.end) {
          world_.network().clear_link_fault(world_.node(from),
                                            world_.node(to));
        } else {
          world_.network().set_link_fault(world_.node(from), world_.node(to),
                                          fault);
          link_faults_injected_++;
        }
      };
      edit(ev.from, ev.to);
      if (ev.symmetric) edit(ev.to, ev.from);
      break;
    }
    case Kind::kCrash:
      crash_now(ev.node, ev.down_us);
      break;
    case Kind::kStall:
      // Stalling a crashed process is meaningless (nothing is running).
      if (!world_.crashed(ev.node)) {
        world_.network().stall_node(world_.node(ev.node), ev.duration_us);
        stalls_injected_++;
      }
      break;
    case Kind::kSlowNode:
      world_.network().set_cpu_factor(world_.node(ev.node),
                                      edge.end ? 1.0 : ev.factor);
      if (!edge.end) gray_faults_injected_++;
      break;
    case Kind::kClockDrift:
      world_.network().set_clock_rate(world_.node(ev.node),
                                      edge.end ? 1.0 : ev.rate);
      if (!edge.end) gray_faults_injected_++;
      break;
    case Kind::kRandomChurn:
      if (edge.end) {
        churn_.reset();
        next_draw_ = kTimeMax;
      } else {
        PLWG_ASSERT_MSG(!churn_, "one random_churn at a time");
        churn_ = ev;
        next_draw_ = world_.engine().now() +
                     exponential_us(rng_, ev.mean_interval_us, 0);
      }
      break;
    case Kind::kRollingPartition:
    case Kind::kFlap:
    case Kind::kChurnStorm:
      PLWG_ASSERT_MSG(false, "compound fault kind on the schedule");
      break;
  }
}

void ChaosMonkey::apply_partitions() {
  if (active_partitions_.empty()) {
    world_.heal();
    return;
  }
  const std::size_t n = world_.num_processes();
  const std::size_t ns = world_.num_servers();
  // Refinement product: each entity gets a tuple of island indexes, one per
  // open interval (in interval-creation order — the map key is the id).
  // Entities can talk iff their tuples are equal, i.e. no open interval
  // separates them.
  std::vector<std::vector<std::size_t>> proc_tuple(n), server_tuple(ns);
  for (const auto& [id, part] : active_partitions_) {
    (void)id;
    // Processes not named by the interval share the implicit "rest" island.
    std::vector<std::size_t> island_of(n, part.islands.size());
    for (std::size_t k = 0; k < part.islands.size(); ++k) {
      for (const std::size_t i : part.islands[k]) {
        if (i < n) island_of[i] = k;
      }
    }
    for (std::size_t i = 0; i < n; ++i) proc_tuple[i].push_back(island_of[i]);
    for (std::size_t j = 0; j < ns; ++j) {
      // Unlisted servers spread round-robin so each island usually keeps
      // one — the deployment the paper assumes (a server per LAN/AS).
      server_tuple[j].push_back(j < part.server_islands.size()
                                    ? part.server_islands[j]
                                    : j % part.islands.size());
    }
  }
  std::map<std::vector<std::size_t>, std::size_t> class_of;
  std::vector<std::vector<std::size_t>> classes;
  for (std::size_t i = 0; i < n; ++i) {
    const auto [it, fresh] = class_of.emplace(proc_tuple[i], classes.size());
    if (fresh) classes.emplace_back();
    classes[it->second].push_back(i);
  }
  std::vector<std::size_t> server_sides(ns, 0);
  for (std::size_t j = 0; j < ns; ++j) {
    // A tuple no process shares puts the server in a class of its own
    // (empty process list) — e.g. an island holding only a name server.
    const auto [it, fresh] = class_of.emplace(server_tuple[j], classes.size());
    if (fresh) classes.emplace_back();
    server_sides[j] = it->second;
  }
  world_.partition(classes, server_sides);
}

void ChaosMonkey::crash_now(std::size_t victim, Duration down_us) {
  // Overlapping schedules (churn storms, crash-during-partition) may aim at
  // a process that is already down; the later crash is a no-op.
  if (victim >= world_.num_processes() || world_.crashed(victim) ||
      is_crashed(victim)) {
    return;
  }
  world_.crash(victim);
  crashed_.push_back(victim);
  crashes_injected_++;
  if (down_us > 0) {
    const Time now = world_.engine().now();
    pending_restarts_.push_back(
        PendingRestart{now + std::max<Duration>(down_us, 1'000), victim, now});
  }
}

void ChaosMonkey::draw_churn() {
  const ScenarioEvent& churn = *churn_;
  const Time now = world_.engine().now();
  ScenarioEvent fault;
  if (churn.crash_probability > 0 && crashed_.size() < churn.max_crashes &&
      rng_.next_bool(churn.crash_probability)) {
    // Crash a random not-yet-crashed process — possibly mid-partition.
    std::vector<std::size_t> alive;
    for (std::size_t i = 0; i < world_.num_processes(); ++i) {
      if (!is_crashed(i)) alive.push_back(i);
    }
    if (alive.size() > 1) {
      fault.kind = ScenarioEvent::Kind::kCrash;
      fault.node = alive[rng_.next_below(alive.size())];
      if (churn.restart_probability > 0 &&
          rng_.next_bool(churn.restart_probability)) {
        fault.down_us = exponential_us(rng_, churn.mean_downtime_us, 1'000);
      }
      schedule(fault, now);
    }
  } else {
    // Random two-way split over the *alive* processes as a new interval —
    // it may overlap intervals already in force (the effective classes are
    // the refinement product). Crashed processes go right without drawing
    // from the RNG.
    std::vector<std::size_t> left, right;
    for (std::size_t i = 0; i < world_.num_processes(); ++i) {
      if (is_crashed(i)) {
        right.push_back(i);
        continue;
      }
      (rng_.next_bool(0.5) ? left : right).push_back(i);
    }
    if (!left.empty() && !right.empty()) {
      fault.islands = {std::move(left), std::move(right)};
      for (std::size_t j = 0; j < world_.num_servers(); ++j) {
        fault.server_islands.push_back(j % 2);
      }
      fault.duration_us =
          exponential_us(rng_, churn.mean_partition_us, 100'000);
      schedule(fault, now);
    }
  }
  next_draw_ = now + exponential_us(rng_, churn.mean_interval_us, 100'000);
}

}  // namespace plwg::harness
