#include "harness/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <sstream>

#include "util/json.hpp"

#ifndef PLWG_SCENARIO_DIR_DEFAULT
#define PLWG_SCENARIO_DIR_DEFAULT "scenarios"
#endif

namespace plwg::harness {
namespace {

[[noreturn]] void fail(const std::string& what) { throw ScenarioError(what); }

/// Strict-schema guard: every key present must be in `allowed`.
void check_keys(const JsonValue::Object& obj,
                std::initializer_list<const char*> allowed,
                const std::string& where) {
  for (const auto& [key, value] : obj) {
    (void)value;
    const bool known =
        std::any_of(allowed.begin(), allowed.end(),
                    [&](const char* k) { return key == k; });
    if (!known) {
      std::string hint;
      for (const char* k : allowed) {
        hint += hint.empty() ? "" : ", ";
        hint += k;
      }
      fail("unknown key \"" + key + "\" in " + where + " (allowed: " + hint +
           ")");
    }
  }
}

const JsonValue& require(const JsonValue::Object& obj, const char* key,
                         const std::string& where) {
  const auto it = obj.find(key);
  if (it == obj.end()) fail("missing required key \"" + std::string(key) +
                            "\" in " + where);
  return it->second;
}

double number_of(const JsonValue& v, const std::string& what) {
  if (!v.is_number()) {
    fail(what + " must be a number, got " +
         JsonValue::type_name(v.type()));
  }
  return v.as_number();
}

/// A non-negative integer (node index, count, ...).
std::size_t index_of(const JsonValue& v, const std::string& what) {
  const double n = number_of(v, what);
  if (n < 0 || std::floor(n) != n || n > 1e15) {
    fail(what + " must be a non-negative integer, got " + std::to_string(n));
  }
  return static_cast<std::size_t>(n);
}

/// Milliseconds -> microseconds, requiring `n >= min_ms`.
Duration ms_of(const JsonValue& v, const std::string& what,
               double min_ms = 0) {
  const double n = number_of(v, what);
  if (n < min_ms) {
    fail(what + " must be >= " + std::to_string(min_ms) + " ms, got " +
         std::to_string(n));
  }
  return static_cast<Duration>(std::llround(n * 1000.0));
}

/// A strictly positive length in milliseconds, as microseconds.
Duration positive_ms_of(const JsonValue& v, const std::string& what) {
  const Duration us = ms_of(v, what);
  if (us <= 0) fail(what + " must be > 0 ms");
  return us;
}

double probability_of(const JsonValue& v, const std::string& what) {
  const double n = number_of(v, what);
  if (n < 0.0 || n > 1.0) {
    fail(what + " must be in [0, 1], got " + std::to_string(n));
  }
  return n;
}

std::size_t node_of(const JsonValue& v, const std::string& what,
                    std::size_t processes) {
  const std::size_t i = index_of(v, what);
  if (i >= processes) {
    fail(what + " = " + std::to_string(i) + " out of range (" +
         std::to_string(processes) + " processes)");
  }
  return i;
}

std::vector<std::size_t> node_list_of(const JsonValue& v,
                                      const std::string& what,
                                      std::size_t processes) {
  if (!v.is_array()) fail(what + " must be an array of process indexes");
  std::vector<std::size_t> out;
  for (std::size_t k = 0; k < v.as_array().size(); ++k) {
    out.push_back(node_of(v.as_array()[k],
                          what + "[" + std::to_string(k) + "]", processes));
  }
  return out;
}

/// Islands: arrays of process indexes, each process in at most one island.
std::vector<std::vector<std::size_t>> islands_of(const JsonValue& v,
                                                 const std::string& where,
                                                 std::size_t processes) {
  if (!v.is_array() || v.as_array().empty()) {
    fail("\"islands\" in " + where + " must be a non-empty array of arrays");
  }
  std::vector<std::vector<std::size_t>> islands;
  std::vector<bool> seen(processes, false);
  for (std::size_t k = 0; k < v.as_array().size(); ++k) {
    const std::string what =
        "islands[" + std::to_string(k) + "] in " + where;
    auto island = node_list_of(v.as_array()[k], what, processes);
    if (island.empty()) fail(what + " must not be empty");
    for (const std::size_t i : island) {
      if (seen[i]) {
        fail("process " + std::to_string(i) +
             " appears in more than one island in " + where);
      }
      seen[i] = true;
    }
    islands.push_back(std::move(island));
  }
  return islands;
}

ScenarioEvent::Kind kind_of(const std::string& kind,
                            const std::string& where) {
  if (kind == "partition") return ScenarioEvent::Kind::kPartition;
  if (kind == "rolling_partition") {
    return ScenarioEvent::Kind::kRollingPartition;
  }
  if (kind == "link_down") return ScenarioEvent::Kind::kLinkDown;
  if (kind == "link_lossy") return ScenarioEvent::Kind::kLinkLossy;
  if (kind == "flap") return ScenarioEvent::Kind::kFlap;
  if (kind == "crash") return ScenarioEvent::Kind::kCrash;
  if (kind == "churn_storm") return ScenarioEvent::Kind::kChurnStorm;
  if (kind == "stall") return ScenarioEvent::Kind::kStall;
  if (kind == "slow_node") return ScenarioEvent::Kind::kSlowNode;
  if (kind == "clock_drift") return ScenarioEvent::Kind::kClockDrift;
  if (kind == "random_churn") return ScenarioEvent::Kind::kRandomChurn;
  fail("unknown event kind \"" + kind + "\" in " + where +
       " (expected partition, rolling_partition, link_down, link_lossy, "
       "flap, crash, churn_storm, stall, slow_node, clock_drift, or "
       "random_churn)");
}

ScenarioEvent parse_event(const JsonValue& v, std::size_t ordinal,
                          const Scenario& scenario) {
  const std::string where = "events[" + std::to_string(ordinal) + "]";
  if (!v.is_object()) fail(where + " must be an object");
  const JsonValue::Object& obj = v.as_object();

  ScenarioEvent ev;
  const JsonValue& kind = require(obj, "kind", where);
  if (!kind.is_string()) fail("\"kind\" in " + where + " must be a string");
  ev.kind = kind_of(kind.as_string(), where);
  ev.at_us = ms_of(require(obj, "at_ms", where), "\"at_ms\" in " + where);

  const std::size_t n = scenario.processes;
  switch (ev.kind) {
    case ScenarioEvent::Kind::kPartition: {
      check_keys(obj,
                 {"kind", "at_ms", "islands", "server_islands",
                  "duration_ms"},
                 where);
      ev.islands = islands_of(require(obj, "islands", where), where, n);
      if (const JsonValue* d = v.find("duration_ms")) {
        ev.duration_us = ms_of(*d, "\"duration_ms\" in " + where);
      }
      if (const JsonValue* s = v.find("server_islands")) {
        if (!s->is_array()) {
          fail("\"server_islands\" in " + where + " must be an array");
        }
        for (std::size_t k = 0; k < s->as_array().size(); ++k) {
          const std::string what = "server_islands[" + std::to_string(k) +
                                   "] in " + where;
          const std::size_t island = index_of(s->as_array()[k], what);
          // islands.size() is the implicit "rest" island.
          if (island > ev.islands.size()) {
            fail(what + " = " + std::to_string(island) +
                 " out of range (" + std::to_string(ev.islands.size()) +
                 " islands plus the implicit rest island)");
          }
          ev.server_islands.push_back(island);
        }
        if (ev.server_islands.size() > scenario.name_servers) {
          fail("\"server_islands\" in " + where + " lists " +
               std::to_string(ev.server_islands.size()) +
               " servers but the scenario has " +
               std::to_string(scenario.name_servers));
        }
      }
      break;
    }
    case ScenarioEvent::Kind::kRollingPartition: {
      check_keys(obj,
                 {"kind", "at_ms", "islands", "steps", "step_ms",
                  "rotate_by"},
                 where);
      ev.islands = islands_of(require(obj, "islands", where), where, n);
      if (ev.islands.size() < 2) {
        fail("rolling_partition in " + where +
             " needs at least two islands");
      }
      ev.steps = index_of(require(obj, "steps", where),
                          "\"steps\" in " + where);
      if (ev.steps == 0) fail("\"steps\" in " + where + " must be >= 1");
      ev.step_us = ms_of(require(obj, "step_ms", where),
                         "\"step_ms\" in " + where, 1);
      if (const JsonValue* r = v.find("rotate_by")) {
        ev.rotate_by = index_of(*r, "\"rotate_by\" in " + where);
        if (ev.rotate_by == 0) {
          fail("\"rotate_by\" in " + where + " must be >= 1");
        }
      }
      break;
    }
    case ScenarioEvent::Kind::kLinkDown:
    case ScenarioEvent::Kind::kLinkLossy: {
      if (ev.kind == ScenarioEvent::Kind::kLinkDown) {
        check_keys(obj,
                   {"kind", "at_ms", "from", "to", "duration_ms",
                    "symmetric"},
                   where);
      } else {
        check_keys(obj,
                   {"kind", "at_ms", "from", "to", "duration_ms", "symmetric",
                    "drop_probability", "jitter_ms"},
                   where);
      }
      ev.from = node_of(require(obj, "from", where), "\"from\" in " + where,
                        n);
      ev.to = node_of(require(obj, "to", where), "\"to\" in " + where, n);
      if (ev.from == ev.to) {
        fail("\"from\" and \"to\" in " + where + " must differ");
      }
      if (const JsonValue* d = v.find("duration_ms")) {
        ev.duration_us = ms_of(*d, "\"duration_ms\" in " + where);
      }
      if (const JsonValue* s = v.find("symmetric")) {
        if (!s->is_bool()) {
          fail("\"symmetric\" in " + where + " must be a bool");
        }
        ev.symmetric = s->as_bool();
      }
      if (ev.kind == ScenarioEvent::Kind::kLinkLossy) {
        if (const JsonValue* p = v.find("drop_probability")) {
          ev.drop_probability =
              probability_of(*p, "\"drop_probability\" in " + where);
        }
        if (const JsonValue* j = v.find("jitter_ms")) {
          ev.jitter_us = ms_of(*j, "\"jitter_ms\" in " + where);
        }
        if (ev.drop_probability < 0 && ev.jitter_us < 0) {
          fail("link_lossy in " + where +
               " needs \"drop_probability\" and/or \"jitter_ms\"");
        }
      }
      break;
    }
    case ScenarioEvent::Kind::kFlap: {
      check_keys(obj,
                 {"kind", "at_ms", "from", "to", "period_ms", "count",
                  "down_ms", "symmetric"},
                 where);
      ev.from = node_of(require(obj, "from", where), "\"from\" in " + where,
                        n);
      ev.to = node_of(require(obj, "to", where), "\"to\" in " + where, n);
      if (ev.from == ev.to) {
        fail("\"from\" and \"to\" in " + where + " must differ");
      }
      ev.period_us = ms_of(require(obj, "period_ms", where),
                           "\"period_ms\" in " + where, 1);
      ev.count = index_of(require(obj, "count", where),
                          "\"count\" in " + where);
      if (ev.count == 0) fail("\"count\" in " + where + " must be >= 1");
      if (const JsonValue* d = v.find("down_ms")) {
        ev.down_us = ms_of(*d, "\"down_ms\" in " + where, 1);
      } else {
        ev.down_us = ev.period_us / 2;
      }
      if (ev.down_us >= ev.period_us) {
        fail("\"down_ms\" in " + where + " must be shorter than period_ms");
      }
      if (const JsonValue* s = v.find("symmetric")) {
        if (!s->is_bool()) {
          fail("\"symmetric\" in " + where + " must be a bool");
        }
        ev.symmetric = s->as_bool();
      }
      break;
    }
    case ScenarioEvent::Kind::kCrash: {
      check_keys(obj, {"kind", "at_ms", "node", "down_ms"}, where);
      ev.node = node_of(require(obj, "node", where), "\"node\" in " + where,
                        n);
      if (const JsonValue* d = v.find("down_ms")) {
        ev.down_us = ms_of(*d, "\"down_ms\" in " + where);
      }
      break;
    }
    case ScenarioEvent::Kind::kChurnStorm: {
      check_keys(obj,
                 {"kind", "at_ms", "nodes", "cycles", "down_ms", "gap_ms"},
                 where);
      ev.nodes = node_list_of(require(obj, "nodes", where),
                              "\"nodes\" in " + where, n);
      if (ev.nodes.empty()) {
        fail("\"nodes\" in " + where + " must not be empty");
      }
      auto sorted = ev.nodes;
      std::sort(sorted.begin(), sorted.end());
      if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
        fail("\"nodes\" in " + where + " must not repeat a process");
      }
      if (ev.nodes.size() >= n) {
        fail("churn_storm in " + where +
             " must leave at least one process out of the storm");
      }
      ev.cycles = index_of(require(obj, "cycles", where),
                           "\"cycles\" in " + where);
      if (ev.cycles == 0) fail("\"cycles\" in " + where + " must be >= 1");
      ev.down_us = ms_of(require(obj, "down_ms", where),
                         "\"down_ms\" in " + where, 1);
      ev.gap_us = ms_of(require(obj, "gap_ms", where),
                        "\"gap_ms\" in " + where);
      break;
    }
    case ScenarioEvent::Kind::kStall: {
      check_keys(obj,
                 {"kind", "at_ms", "node", "duration_ms", "period_ms",
                  "count"},
                 where);
      ev.node = node_of(require(obj, "node", where), "\"node\" in " + where,
                        n);
      ev.duration_us = ms_of(require(obj, "duration_ms", where),
                             "\"duration_ms\" in " + where, 1);
      ev.count = 1;
      if (const JsonValue* c = v.find("count")) {
        ev.count = index_of(*c, "\"count\" in " + where);
        if (ev.count == 0) fail("\"count\" in " + where + " must be >= 1");
      }
      if (const JsonValue* p = v.find("period_ms")) {
        ev.period_us = ms_of(*p, "\"period_ms\" in " + where, 1);
        if (ev.period_us <= ev.duration_us) {
          fail("\"period_ms\" in " + where +
               " must be longer than duration_ms (the node must wake "
               "between stalls)");
        }
      } else if (ev.count > 1) {
        fail("stall in " + where + " with count > 1 needs \"period_ms\"");
      }
      break;
    }
    case ScenarioEvent::Kind::kSlowNode: {
      check_keys(obj, {"kind", "at_ms", "node", "factor", "duration_ms"},
                 where);
      ev.node = node_of(require(obj, "node", where), "\"node\" in " + where,
                        n);
      ev.factor = number_of(require(obj, "factor", where),
                            "\"factor\" in " + where);
      if (ev.factor < 1.0 || ev.factor > 1000.0) {
        fail("\"factor\" in " + where + " must be in [1, 1000], got " +
             std::to_string(ev.factor));
      }
      if (const JsonValue* d = v.find("duration_ms")) {
        ev.duration_us = ms_of(*d, "\"duration_ms\" in " + where);
      }
      break;
    }
    case ScenarioEvent::Kind::kClockDrift: {
      check_keys(obj, {"kind", "at_ms", "node", "rate", "duration_ms"},
                 where);
      ev.node = node_of(require(obj, "node", where), "\"node\" in " + where,
                        n);
      ev.rate = number_of(require(obj, "rate", where),
                          "\"rate\" in " + where);
      if (ev.rate < 0.25 || ev.rate > 4.0) {
        fail("\"rate\" in " + where + " must be in [0.25, 4], got " +
             std::to_string(ev.rate));
      }
      if (const JsonValue* d = v.find("duration_ms")) {
        ev.duration_us = ms_of(*d, "\"duration_ms\" in " + where);
      }
      break;
    }
    case ScenarioEvent::Kind::kRandomChurn: {
      check_keys(obj,
                 {"kind", "at_ms", "duration_ms", "mean_interval_ms",
                  "mean_partition_ms", "crash_probability", "max_crashes",
                  "restart_probability", "mean_downtime_ms"},
                 where);
      if (const JsonValue* d = v.find("duration_ms")) {
        ev.duration_us = ms_of(*d, "\"duration_ms\" in " + where);
      }
      ev.mean_interval_us =
          positive_ms_of(require(obj, "mean_interval_ms", where),
                         "\"mean_interval_ms\" in " + where);
      ev.mean_partition_us =
          positive_ms_of(require(obj, "mean_partition_ms", where),
                         "\"mean_partition_ms\" in " + where);
      if (const JsonValue* p = v.find("crash_probability")) {
        ev.crash_probability =
            probability_of(*p, "\"crash_probability\" in " + where);
      }
      if (const JsonValue* m = v.find("max_crashes")) {
        ev.max_crashes = index_of(*m, "\"max_crashes\" in " + where);
        if (ev.max_crashes >= n) {
          fail("\"max_crashes\" in " + where +
               " must leave at least one process up (< " +
               std::to_string(n) + ")");
        }
      }
      if (const JsonValue* p = v.find("restart_probability")) {
        ev.restart_probability =
            probability_of(*p, "\"restart_probability\" in " + where);
      }
      if (const JsonValue* d = v.find("mean_downtime_ms")) {
        ev.mean_downtime_us =
            positive_ms_of(*d, "\"mean_downtime_ms\" in " + where);
      }
      break;
    }
  }
  return ev;
}

}  // namespace

Scenario parse_scenario(std::string_view json_text) {
  JsonValue doc;
  try {
    doc = json_parse(json_text);
  } catch (const JsonError& e) {
    fail(std::string("malformed JSON: ") + e.what());
  }
  if (!doc.is_object()) fail("scenario document must be a JSON object");
  const JsonValue::Object& obj = doc.as_object();
  check_keys(obj,
             {"name", "description", "processes", "name_servers", "segments",
              "run_ms", "converge_timeout_ms", "net", "events"},
             "scenario");

  Scenario s;
  const JsonValue& name = require(obj, "name", "scenario");
  if (!name.is_string() || name.as_string().empty()) {
    fail("\"name\" must be a non-empty string");
  }
  s.name = name.as_string();
  if (const JsonValue* d = doc.find("description")) {
    if (!d->is_string()) fail("\"description\" must be a string");
    s.description = d->as_string();
  }
  if (const JsonValue* p = doc.find("processes")) {
    s.processes = index_of(*p, "\"processes\"");
    if (s.processes < 2 || s.processes > 64) {
      fail("\"processes\" must be in [2, 64], got " +
           std::to_string(s.processes));
    }
  }
  if (const JsonValue* p = doc.find("name_servers")) {
    s.name_servers = index_of(*p, "\"name_servers\"");
    if (s.name_servers < 1 || s.name_servers > 8) {
      fail("\"name_servers\" must be in [1, 8], got " +
           std::to_string(s.name_servers));
    }
  }
  if (const JsonValue* seg = doc.find("segments")) {
    if (!seg->is_array() || seg->as_array().size() < 2) {
      fail("\"segments\" must be an array of at least two LANs");
    }
    std::vector<bool> seen(s.processes, false);
    for (std::size_t k = 0; k < seg->as_array().size(); ++k) {
      const std::string what = "segments[" + std::to_string(k) + "]";
      auto lan = node_list_of(seg->as_array()[k], what, s.processes);
      if (lan.empty()) fail(what + " must not be empty");
      for (const std::size_t i : lan) {
        if (seen[i]) {
          fail("process " + std::to_string(i) +
               " appears on more than one segment");
        }
        seen[i] = true;
      }
      s.segments.push_back(std::move(lan));
    }
    for (std::size_t i = 0; i < s.processes; ++i) {
      if (!seen[i]) {
        fail("process " + std::to_string(i) + " is on no segment");
      }
    }
  }
  if (const JsonValue* r = doc.find("run_ms")) {
    s.run_us = ms_of(*r, "\"run_ms\"", 1);
  }
  if (const JsonValue* c = doc.find("converge_timeout_ms")) {
    s.converge_timeout_us = ms_of(*c, "\"converge_timeout_ms\"", 1);
  }
  if (const JsonValue* net = doc.find("net")) {
    if (!net->is_object()) fail("\"net\" must be an object");
    check_keys(net->as_object(), {"drop_probability", "jitter_ms"}, "net");
    if (const JsonValue* p = net->find("drop_probability")) {
      s.net_drop_probability =
          probability_of(*p, "\"drop_probability\" in net");
    }
    if (const JsonValue* j = net->find("jitter_ms")) {
      s.net_jitter_us = ms_of(*j, "\"jitter_ms\" in net");
    }
  }

  const JsonValue& events = require(obj, "events", "scenario");
  if (!events.is_array() || events.as_array().empty()) {
    fail("\"events\" must be a non-empty array");
  }
  for (std::size_t k = 0; k < events.as_array().size(); ++k) {
    s.events.push_back(parse_event(events.as_array()[k], k, s));
  }
  if (std::count_if(s.events.begin(), s.events.end(), [](const auto& ev) {
        return ev.kind == ScenarioEvent::Kind::kRandomChurn;
      }) > 1) {
    fail("at most one random_churn per scenario");
  }
  return s;
}

Scenario load_scenario_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail(path + ": cannot open scenario file");
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    return parse_scenario(buf.str());
  } catch (const ScenarioError& e) {
    fail(path + ": " + e.what());
  }
}

std::string scenario_dir() {
  if (const char* env = std::getenv("PLWG_SCENARIO_DIR");
      env != nullptr && *env != '\0') {
    return env;
  }
  return PLWG_SCENARIO_DIR_DEFAULT;
}

std::vector<std::string> list_scenario_files(const std::string& dir) {
  const std::string root = dir.empty() ? scenario_dir() : dir;
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(root, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      files.push_back(entry.path().string());
    }
  }
  if (ec) fail(root + ": cannot list scenario directory (" + ec.message() +
               ")");
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace plwg::harness
