// ChaosMonkey: fault injection against a SimWorld, driven step by step so
// tests and benches stay in control of time.
//
// A fault is a harness::ScenarioEvent, and load(Scenario) is the only way
// in. schedule() expands the compound kinds — rolling partitions, flap
// trains, churn storms, stall trains, random churn — into primitive events
// (partition intervals, directed-link faults, crashes with scheduled
// restarts, gray faults: process stalls, CPU slow-down intervals,
// clock-rate skew) and puts each one's start and, when it has a duration,
// its end on one timed schedule. random_churn expands lazily: while it
// runs, every draw from the seeded RNG becomes a primitive partition or
// crash that goes through the same schedule(). A scenario without
// random_churn never touches the RNG.
//
// Faults are *intervals*, not a single toggle: any number of partitions,
// link faults and crashes may overlap — a crash can land mid-partition, a
// second partition can open while one is still in force, and rolling
// partitions shift membership between islands with no fully-connected
// instant in between. The effective reachability classes are the refinement
// product of every open partition interval. quiesce() drains the whole
// interval set (and asserts it is empty) before any convergence check.
//
// Deterministic under a fixed seed like everything else in the simulator.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "harness/scenario.hpp"
#include "harness/world.hpp"
#include "util/rng.hpp"

namespace plwg::harness {

/// One completed crash–restart cycle, for availability / MTTR accounting.
struct RestartEvent {
  std::size_t index;   // process index
  Time crashed_at;     // when the crash was injected
  Time restarted_at;   // when the restart fired
};

class ChaosMonkey {
 public:
  /// `seed` drives random_churn draws, and nothing else.
  ChaosMonkey(SimWorld& world, std::uint64_t seed);

  /// Expand `scenario`'s fault events into the schedule, with event time 0
  /// anchored at the current sim time. May be called more than once (the
  /// schedules interleave; one random_churn runs at a time). Asserts every
  /// index fits the world.
  void load(const Scenario& scenario);

  /// Advance the world by `us`, injecting faults on the way.
  void run_for(Duration us);

  /// Drain every open fault interval — heal all partitions, clear all link
  /// faults, lift all gray faults (stalls, slow-downs, clock skew), fire
  /// every pending restart, cancel not-yet-started scheduled faults, end
  /// random churn — and stop injecting. Crashed processes without a
  /// scheduled restart stay down. Asserts the interval set is fully
  /// drained, so a convergence check after quiesce() runs against a
  /// healthy network.
  void quiesce();

  [[nodiscard]] std::size_t partitions_injected() const {
    return partitions_injected_;
  }
  [[nodiscard]] std::size_t crashes_injected() const {
    return crashes_injected_;
  }
  [[nodiscard]] std::size_t restarts_fired() const { return restarts_fired_; }
  [[nodiscard]] std::size_t link_faults_injected() const {
    return link_faults_injected_;
  }
  /// Process stalls injected (each stall in a pause train counts).
  [[nodiscard]] std::size_t stalls_injected() const {
    return stalls_injected_;
  }
  /// slow_node / clock_drift intervals opened.
  [[nodiscard]] std::size_t gray_faults_injected() const {
    return gray_faults_injected_;
  }
  /// Processes currently down.
  [[nodiscard]] const std::vector<std::size_t>& crashed() const {
    return crashed_;
  }
  /// Completed crash–restart cycles, in restart order.
  [[nodiscard]] const std::vector<RestartEvent>& restart_log() const {
    return restart_log_;
  }
  /// True while at least one partition interval is open.
  [[nodiscard]] bool partitioned() const { return !active_partitions_.empty(); }
  /// Open partition intervals right now.
  [[nodiscard]] std::size_t open_partitions() const {
    return active_partitions_.size();
  }
  /// Scheduled fault starts and ends not yet applied.
  [[nodiscard]] std::size_t pending_actions() const {
    return schedule_.size();
  }

 private:
  /// One edge of a primitive fault event on the schedule: its start, or
  /// the end of an event with a duration.
  struct Edge {
    ScenarioEvent event;
    std::uint64_t interval = 0;  // pairs a start with its end
    bool end = false;
  };

  struct PendingRestart {
    Time due;
    std::size_t index;
    Time crashed_at;
  };

  /// Expand `ev` into primitive events starting at `at` and push their
  /// edges. Same-instant edges apply in push order.
  void schedule(const ScenarioEvent& ev, Time at);
  void apply_due_edges();
  void apply(const Edge& edge);
  /// Recompute the effective reachability classes as the refinement product
  /// of every open partition interval and push them into the world.
  void apply_partitions();
  void crash_now(std::size_t victim, Duration down_us);
  /// One random_churn draw: a partition or a crash, scheduled now.
  void draw_churn();
  void fire_due_restarts();
  [[nodiscard]] Time earliest_pending() const;
  [[nodiscard]] Time next_edge_time() const;
  [[nodiscard]] bool is_crashed(std::size_t index) const;

  SimWorld& world_;
  Rng rng_;
  std::optional<ScenarioEvent> churn_;  // the running random_churn
  Time next_draw_ = kTimeMax;           // its next draw
  std::uint64_t next_interval_id_ = 1;
  std::multimap<Time, Edge> schedule_;
  std::map<std::uint64_t, ScenarioEvent> active_partitions_;
  std::size_t partitions_injected_ = 0;
  std::size_t crashes_injected_ = 0;
  std::size_t restarts_fired_ = 0;
  std::size_t link_faults_injected_ = 0;
  std::size_t stalls_injected_ = 0;
  std::size_t gray_faults_injected_ = 0;
  std::vector<std::size_t> crashed_;
  std::vector<PendingRestart> pending_restarts_;
  std::vector<RestartEvent> restart_log_;
};

}  // namespace plwg::harness
