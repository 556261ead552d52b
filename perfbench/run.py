#!/usr/bin/env python3
"""End-to-end benchmark of the simulated LWG stack.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is fig2_closed_loop, wan1000_sharded, chaos_oracle_soak, or all.
Run from the repository root. The first run builds perfbench/ (its own
CMake project over ../src) into $CARGO_TARGET_DIR (default .bench_build).

With --trace 0 the last stdout line is
    {"correct": .., "attempted": .., "failed": .., "metrics": {...}}
holding every end-to-end metric; with --trace 1 it holds every per-layer
metric, from an untraced pass plus a traced pass over the same work. The
lines before it are a readable report. The full record (every repetition,
every failure with its seed, cycle and reason) goes to .bench_out/.
perfbench/metrics.json says what each metric means. The exit code is
non-zero when an output check fails; failed operations are results, not
check failures.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig2_closed_loop", "wan1000_sharded", "chaos_oracle_soak")
CHAOS_CYCLES = 40
EPISODE_TIMEOUT_S = 40
REP_TIMEOUT_S = 120


def note(*args):
    print(*args, file=sys.stderr, flush=True)


def load_manifest():
    with open(os.path.join(HERE, "metrics.json")) as f:
        return json.load(f)


# --- build -------------------------------------------------------------------

def build_dir():
    out = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(out):
        out = os.path.join(ROOT, out)
    return os.path.join(out, "perfbench")


def build():
    """Configure and build plwg_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "harness", "world.hpp")):
        raise RuntimeError("library sources not found: expected src/ beside "
                           "perfbench/ (run from a full checkout)")
    bdir = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(bdir, "plwg_perfbench")


def sim_threads():
    return min(4, os.cpu_count() or 1)


# --- statistics --------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def pct(values, q):
    """Linear-interpolated percentile, q in [0, 1]."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def bucket_range(b):
    """Inverse of the C++ Histogram bucket layout: (low value, width)."""
    if b < 256:
        return b, 1
    k, sub = divmod(b - 256, 256)
    return (256 + sub) << k, 1 << k


def merge_hists(hists):
    out = {}
    for h in hists:
        for k, n in h.items():
            out[int(k)] = out.get(int(k), 0) + n
    return out


def hist_pct(hist, q):
    """Percentile of a bucketed histogram, interpolating inside a bucket."""
    items = sorted(hist.items())
    total = sum(n for _, n in items)
    if total == 0:
        return 0.0
    rank = q * (total - 1)
    cum = 0
    for b, n in items:
        if cum + n > rank:
            lo, width = bucket_range(b)
            return lo + width * (rank - cum + 0.5) / n
        cum += n
    lo, width = bucket_range(items[-1][0])
    return lo + width


def ratio(a, b):
    return a / b if b else 0.0


# The host this benchmark was written on (4-vCPU 2.1 GHz Xeon under KVM)
# runs in fast and slow phases that last seconds to minutes: the same
# measured window reads up to 1.5x apart. Every measured window, cycle and
# set-up is paired with a fixed reference kernel (reference_kernel_s in
# probe.cpp) timed right after it (wan: the median of samples taken during
# its set-up), and host-time metrics are reported at the speed where that
# kernel takes REFERENCE_KERNEL_S: rate x (kernel time / REFERENCE_KERNEL_S).
# The uncorrected figures are kept in the run record as "raw".
REFERENCE_KERNEL_S = 0.004


def host_speed(kernel_s):
    """How much slower the host ran than the reference, for one sample."""
    return kernel_s / REFERENCE_KERNEL_S


def growth(series):
    """Mean of the last tenth over the mean of the first tenth."""
    k = max(1, len(series) // 10)
    first = sum(series[:k]) / k
    return ratio(sum(series[-k:]) / k, first)


# --- child processes ---------------------------------------------------------

def run_child(exe, args, timeout):
    """Runs plwg_perfbench; returns (exit code, stdout lines, stderr)."""
    try:
        p = subprocess.run([exe] + args, capture_output=True, text=True,
                           timeout=timeout)
        return p.returncode, p.stdout.splitlines(), p.stderr
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        return None, out.splitlines(), "timed out after %d s" % timeout


def parse_json_lines(lines):
    out = []
    for line in lines:
        line = line.strip()
        if line.startswith("{"):
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError:
                pass
    return out


def abort_reason(stderr):
    """The library's assertion text, else the stderr tail."""
    # Source paths as the repository names them (src/...), not as built.
    lines = [re.sub(r"\S*/(src/\S+)", r"\1", l.strip())
             for l in stderr.splitlines() if l.strip()]
    for i, line in enumerate(lines):
        if line.startswith("PLWG assertion failed"):
            return " | ".join(lines[i:i + 3])
    return " | ".join(lines[-3:]) if lines else "no output"


def out_path(name):
    d = os.path.join(ROOT, ".bench_out")
    os.makedirs(d, exist_ok=True)
    return os.path.join(d, name)


# --- fig2 / wan: repetitions of one seeded run -------------------------------

STEADY_EXACT = ("deliveries", "attempted", "failed", "counters",
                "setup_counters", "latency_us_hist", "digest",
                "measure_sim_s", "setup_sim_s")


def steady_args(workload, seed, seconds):
    if workload == "fig2_closed_loop":
        return ["fig2", "--seed", str(seed), "--sim-s", str(8 * seconds)]
    return ["wan", "--seed", str(seed), "--sim-s", "%g" % (seconds / 2.0),
            "--threads", str(sim_threads())]


def run_rep(exe, args, checks, label):
    code, lines, err = run_child(exe, args, REP_TIMEOUT_S)
    recs = parse_json_lines(lines)
    results = [r for r in recs if "result" in r]
    if code != 0 or not results:
        checks.append("%s: exit %s, %s" % (label, code, abort_reason(err)))
        return None
    rep = results[-1]
    rep["build"] = next((r["build"] for r in recs if "build" in r), {})
    return rep


def setup_failures(r):
    """Set-up defects of one repetition. They are library results, not
    check failures: the sends they break are counted as failed operations."""
    out = []
    if not r["formed"]:
        out.append("set-up: some LWG never reached its full view within the "
                   "formation budget")
    if r.get("groups_not_full_after_setup"):
        out.append("set-up: %d LWG(s) lost their full view again before "
                   "set-up ended" % r["groups_not_full_after_setup"])
    return out


def steady_checks(reps, checks):
    first = reps[0]["result"]
    for i, rep in enumerate(reps):
        r = rep["result"]
        if r["deliveries"] <= 0 or r["attempted"] <= 0:
            checks.append("rep %d: no traffic measured" % i)
        if r["deliveries"] != r["counters"]["lwg.delivered"]:
            checks.append("rep %d: probe upcalls %d != lwg data_delivered %d" %
                          (i, r["deliveries"], r["counters"]["lwg.delivered"]))
        for key in STEADY_EXACT:
            if r[key] != first[key]:
                checks.append("rep %d: %s differs from rep 0 (same seed)" %
                              (i, key))


def steady_e2e(reps, raw=False):
    """End-to-end metrics of a run's repetitions. Host times are corrected
    to the reference speed unless `raw`."""
    fix = (lambda ref: 1.0) if raw else host_speed
    wall, sims, dels, refs, setups = [], [], [], [], []
    for rep in reps:
        r = rep["result"]
        wall += r["window_wall_s"]
        sims += r["window_sim_s"]
        dels += r["window_deliveries"]
        refs += r["window_ref_s"]
        setups += [s / fix(ref) for s, ref in zip(r["setup_s"], r["setup_ref_s"])]
    r0 = reps[0]["result"]
    return {
        "setup_s": median(setups),
        "sim_s_per_wall_s": median([s / w * fix(f)
                                    for s, w, f in zip(sims, wall, refs)]),
        "deliveries_per_wall_s": median([d / w * fix(f)
                                         for d, w, f in zip(dels, wall, refs)]),
        "deliveries_per_sim_s": r0["deliveries"] / r0["measure_sim_s"],
        "latency_sim_ms_p50": hist_pct(merge_hists([r0["latency_us_hist"]]), 0.50) / 1e3,
        "latency_sim_ms_p99": hist_pct(merge_hists([r0["latency_us_hist"]]), 0.99) / 1e3,
        "peak_rss_mb": median([rep["host"]["peak_rss_mb"] for rep in reps]),
    }


def counter_layers(c, deliveries, sim_s, segments, per=1.0):
    """Per-layer metrics computed from a counter delta."""
    return {
        "engine.events": c["engine.events"],
        "engine.events_per_sim_s": ratio(c["engine.events"], sim_s),
        "net.frames_per_delivery": ratio(c["net.frames"], deliveries),
        "net.msgs_per_frame": ratio(c["net.msgs"], c["net.frames"]),
        "net.bytes_on_wire_per_delivery": ratio(c["net.bytes_on_wire"], deliveries),
        "net.bus_busy_frac": ratio(c["net.bus_busy_us"] / 1e6, sim_s * segments),
        "net.bytes_per_msg": ratio(c["net.bytes_on_wire"], c["net.msgs"]),
        "net.drops": c["net.drops"],
        "net.link_blocked": c["net.link_blocked"],
        "net.stale_epoch_drops": c["net.stale_epoch_drops"],
        "transport.piggyback_per_frame": ratio(c["transport.piggybacked"],
                                               c["transport.frames"]),
        "transport.rejected": c["transport.rejected"],
        "transport.backpressure_held": c["transport.backpressure_held"],
        "transport.backpressure_rejects": c["transport.backpressure_rejects"],
        "transport.backpressure_drops": c["transport.backpressure_drops"],
        "vsync.hwg_per_lwg_delivery": ratio(c["vsync.delivered"], c["lwg.delivered"]),
        "vsync.views_installed": c["vsync.views_installed"] / per,
        "vsync.flushes": c["vsync.flushes"] / per,
        "vsync.merges_led": c["vsync.merges_led"] / per,
        "vsync.nacks": c["vsync.nacks"] / per,
        "names.requests": c["names.requests"] / per,
        "names.full_syncs": c["names.full_syncs"] / per,
        "names.delta_syncs": c["names.delta_syncs"] / per,
        "names.callbacks": c["names.callbacks"] / per,
        "lwg.filter_ratio": ratio(c["lwg.filtered"],
                                  c["lwg.delivered"] + c["lwg.filtered"]),
        "lwg.superseded": c["lwg.superseded"],
        "lwg.resent": c["lwg.resent"],
        "lwg.switch_completion": ratio(c["lwg.switches_completed"],
                                       c["lwg.switches_started"]),
        "lwg.merges": c["lwg.merges"],
        "lwg.conflict_callbacks": c["lwg.conflict_callbacks"],
    }


def span_layers(spans, upcall_every, cover_name):
    """Per-layer metrics from a traced pass's span table."""
    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)
    # The reference kernel runs inside the measured loop but is not part of
    # the measured time.
    cover_total = (spans.get(cover_name, {}).get("total_s", 0.0) -
                   spans.get("bench.reference", {}).get("total_s", 0.0))
    return {
        "lwg.send_call_us_p50": spans.get("lwg.send", {}).get("p50_us", 0.0),
        "bench.predicate_s": self_s("bench.predicate"),
        "bench.upcall_s": self_s("bench.upcall") * upcall_every,
        "trace.coverage": 1.0 - ratio(self_s(cover_name), cover_total),
    }


def rep_speed(rep):
    """Median host slowness over a repetition's measured windows."""
    return host_speed(median(rep["result"]["window_ref_s"]))


def run_steady_workload(exe, workload, seed, seconds, trace):
    checks = []
    args = steady_args(workload, seed, seconds)
    reps = []
    for i in range(3):
        rep = run_rep(exe, args, checks, "rep %d" % i)
        if rep is None:
            return None, checks
        reps.append(rep)
    steady_checks(reps, checks)
    r0 = reps[0]["result"]
    failures = [{"seed": seed, "rep": i, "reason": why}
                for i, rep in enumerate(reps)
                for why in setup_failures(rep["result"]) +
                rep["result"]["failure_reasons"]]
    out = {
        "e2e": steady_e2e(reps),
        "raw": steady_e2e(reps, raw=True),
        "attempted": sum(rep["result"]["attempted"] for rep in reps),
        "failed": sum(rep["result"]["failed"] for rep in reps),
        "failures": failures,
        "records": reps,
        "run": {"seed": seed, "repetitions": len(reps),
                "sim_threads": r0["engine"]["threads"],
                "measured_sim_s_per_repetition": r0["measure_sim_s"],
                **reps[0]["build"]},
    }
    if not trace:
        return out, checks

    segments = r0.get("segments", 1)
    layers = counter_layers(r0["counters"], r0["deliveries"],
                            r0["measure_sim_s"], segments)
    # Naming works at set-up here (group creation), not in steady traffic.
    for name in ("requests", "full_syncs", "delta_syncs", "callbacks"):
        layers["names." + name] = r0["setup_counters"]["names." + name]
    eng = [rep["result"]["engine"] for rep in reps]
    run_s = median([e["run_s"] for e in eng])
    layers.update({
        "cycle_wall_ms_p50": 0.0, "cycle_wall_ms_p90": 0.0,
        "reconcile_sim_ms_p50": 0.0, "reconcile_sim_ms_p90": 0.0,
        "fail_ratio": ratio(out["failed"], out["attempted"]),
        "harness.build_s": median([rep["result"]["build_s"] for rep in reps]),
        "harness.join_s": median([rep["result"]["join_s"] for rep in reps]),
        "harness.restart_ms_p50": 0.0,
        "harness.topology_us_p50": 0.0,
        "harness.convergence_check_ms_p50": 0.0,
        "engine.run_s": run_s,
        "engine.ns_per_event": ratio(run_s * 1e9, r0["counters"]["engine.events"]),
        "engine.run_call_us_p50": median([e["run_call_us_p50"] for e in eng]),
        "engine.run_call_us_p99": median([e["run_call_us_p99"] for e in eng]),
        "engine.shards": r0["engine"]["shards"],
        "engine.replans": r0["engine"]["replans"],
        "engine.site_load_max_over_mean": r0["engine"]["site_load_max_over_mean"],
        "engine.worker_bound": r0["engine"]["worker_bound"],
        "oracle.violations": 0, "oracle.overhead_ratio": 0.0,
        "engine.events_per_cycle_growth": 0.0, "net.bytes_per_msg_growth": 0.0,
        "cycle_wall_growth": 0.0,
    })
    # Traced pass: the same seeded run once more, with spans.
    path = out_path("%s-seed%d.trace.json" % (workload, seed))
    traced = run_rep(exe, args + ["--trace-out", path], checks, "traced rep")
    if traced is None:
        return None, checks
    t = traced["result"]
    for key in STEADY_EXACT:
        if t[key] != r0[key]:
            checks.append("traced rep: %s differs from the untraced run" % key)
    untraced_wall = median([rep["result"]["measure_wall_s"] / rep_speed(rep)
                            for rep in reps])
    traced_wall = t["measure_wall_s"] / rep_speed(traced)
    layers["trace.overhead_ratio"] = ratio(traced_wall - untraced_wall,
                                           untraced_wall)
    layers.update(span_layers(traced["host"]["spans"],
                              traced["host"]["upcall_every"], "bench.measure"))
    if layers["trace.coverage"] < 0.9:
        checks.append("traced spans cover %.3f < 0.9 of the measured phase" %
                      layers["trace.coverage"])
    if workload == "fig2_closed_loop":
        # Oracle cost on the data path: the same run with the oracle wired
        # in. It only observes, so every exact output must match.
        on = run_rep(exe, args + ["--oracle", "1"], checks, "oracle-on rep")
        if on is None:
            return None, checks
        for key in STEADY_EXACT:
            if on["result"][key] != r0[key]:
                checks.append("oracle-on rep: %s differs from the oracle-off "
                              "run" % key)
        off_s = median([rep["result"]["engine"]["run_s"] / rep_speed(rep)
                        for rep in reps])
        layers["oracle.overhead_ratio"] = ratio(
            on["result"]["engine"]["run_s"] / rep_speed(on), off_s)
    out["layers"] = layers
    out["spans"] = traced["host"]["spans"]
    out["trace_file"] = os.path.relpath(path, ROOT)
    return out, checks


# --- chaos: episodes in child processes --------------------------------------

CYCLE_EXACT = ("ok", "reason", "fault", "victim", "violations", "sim_ms",
               "reconcile_sim_ms", "deliveries", "events", "msgs",
               "bytes_on_wire", "digest", "counters")


def episode_count(seconds):
    return max(3, round(seconds / 3.5))


def episode_seed(seed, i):
    return (seed * 1_000_003 + i * 7919 + 1) % (1 << 62)


def run_episode(exe, eseed, oracle, trace_out=None):
    """One episode in its own process. Always returns a record: a child
    that dies leaves the cycles it finished plus the reason it died."""
    args = ["chaos", "--seed", str(eseed), "--cycles", str(CHAOS_CYCLES),
            "--oracle", "1" if oracle else "0"]
    if trace_out:
        args += ["--trace-out", trace_out]
    code, lines, err = run_child(exe, args, EPISODE_TIMEOUT_S)
    recs = parse_json_lines(lines)
    ep = {"seed": eseed, "build": {}, "setup": None, "cycles": [],
          "result": None, "host": None, "died": None}
    for r in recs:
        if "build" in r:
            ep["build"] = r["build"]
        elif "setup" in r:
            ep["setup"] = r["setup"]
        elif "cycle" in r:
            ep["cycles"].append(r)
        elif "result" in r:
            ep["result"], ep["host"] = r["result"], r["host"]
    if code != 0 or ep["result"] is None:
        ep["died"] = "exit %s: %s" % (code, abort_reason(err))
    return ep


def episode_failures(ep):
    """(failed cycles, failure records) of one episode."""
    fails = []
    for c in ep["cycles"]:
        if not c["ok"]:
            fails.append({"seed": ep["seed"], "cycle": c["cycle"],
                          "reason": c["reason"]})
    done = len(ep["cycles"])
    if ep["setup"] is not None and not ep["setup"]["formed"]:
        fails.append({"seed": ep["seed"], "cycle": 0,
                      "reason": "groups did not form; %d planned cycles not run"
                                % CHAOS_CYCLES})
        return CHAOS_CYCLES, fails
    if ep["died"] is not None and done < CHAOS_CYCLES:
        fails.append({"seed": ep["seed"], "cycle": done,
                      "reason": "episode died: " + ep["died"]})
        if done + 1 < CHAOS_CYCLES:
            fails.append({"seed": ep["seed"], "cycle": done + 1,
                          "reason": "cycles %d-%d not run: episode died at "
                                    "cycle %d" % (done + 1, CHAOS_CYCLES - 1,
                                                  done)})
    failed = sum(1 for c in ep["cycles"] if not c["ok"])
    failed += CHAOS_CYCLES - done if ep["died"] is not None else 0
    return failed, fails


def chaos_checks(episodes, checks):
    for ep in episodes:
        for i, c in enumerate(ep["cycles"]):
            if c["cycle"] != i:
                checks.append("episode %d: cycle lines out of order" % ep["seed"])
            if c["ok"] and c["reconcile_sim_ms"] < 0:
                checks.append("episode %d cycle %d: ok but not converged" %
                              (ep["seed"], i))
        if ep["setup"] is None and ep["died"] is None:
            checks.append("episode %d: no set-up record" % ep["seed"])


def compare_episodes(a_eps, b_eps, what, keys, checks):
    """Cycles both runs finished must agree on every key."""
    for a, b in zip(a_eps, b_eps):
        for ca, cb in zip(a["cycles"], b["cycles"]):
            for key in keys:
                if ca[key] != cb[key]:
                    checks.append("episode %d cycle %d: %s differs %s" %
                                  (a["seed"], ca["cycle"], key, what))
                    return


def run_chaos_workload(exe, seed, seconds, trace):
    checks = []
    n = episode_count(seconds)
    seeds = [episode_seed(seed, i) for i in range(n)]
    episodes = [run_episode(exe, s, True) for s in seeds]
    chaos_checks(episodes, checks)
    cycles = [c for ep in episodes for c in ep["cycles"]]
    failed, failures = 0, []
    for ep in episodes:
        f, recs = episode_failures(ep)
        failed += f
        failures += recs
    if not cycles or not any(ep["setup"] for ep in episodes):
        checks.append("no chaos cycle finished")
        return None, checks
    hist = merge_hists([c["latency_us_hist"] for c in cycles])
    sim_total = sum(c["sim_ms"] for c in cycles) / 1e3
    last = [ep["cycles"][-1] for ep in episodes if ep["cycles"]]

    def e2e(fix):
        setups = [s / fix(ref) for ep in episodes if ep["setup"]
                  for s, ref in zip(ep["setup"]["setup_s"],
                                    ep["setup"]["setup_ref_s"])]
        return {
            "setup_s": median(setups),
            "sim_s_per_wall_s": median([c["sim_ms"] / c["wall_ms"] * fix(c["ref_s"])
                                        for c in cycles]),
            "deliveries_per_wall_s": median(
                [c["deliveries"] / (c["wall_ms"] / 1e3) * fix(c["ref_s"])
                 for c in cycles]),
            "deliveries_per_sim_s": sum(c["deliveries"] for c in cycles) / sim_total,
            "latency_sim_ms_p50": hist_pct(hist, 0.50) / 1e3,
            "latency_sim_ms_p99": hist_pct(hist, 0.99) / 1e3,
            "peak_rss_mb": median([c["peak_rss_mb"] for c in last]),
        }
    out = {
        "e2e": e2e(host_speed),
        "raw": e2e(lambda ref: 1.0),
        "attempted": n * CHAOS_CYCLES,
        "failed": failed,
        "failures": failures,
        "records": episodes,
        "run": {"seed": seed, "episodes": n, "cycles_per_episode": CHAOS_CYCLES,
                "episode_seeds": seeds, "sim_threads": 1,
                **episodes[0]["build"]},
    }
    if not trace:
        return out, checks

    total = {}
    for c in cycles:
        for k, v in c["counters"].items():
            total[k] = total.get(k, 0) + v
    deliveries = sum(c["deliveries"] for c in cycles)
    layers = counter_layers(total, deliveries, sim_total, 3, per=len(cycles))
    walls = [c["wall_ms"] for c in cycles]
    recon = [c["reconcile_sim_ms"] for c in cycles if c["reconcile_sim_ms"] >= 0]
    long_eps = [ep for ep in episodes if len(ep["cycles"]) >= 10]
    run_s = median([sum(c["engine_s"] for c in ep["cycles"]) for ep in episodes])
    layers.update({
        "cycle_wall_ms_p50": pct(walls, 0.50),
        "cycle_wall_ms_p90": pct(walls, 0.90),
        "reconcile_sim_ms_p50": pct(recon, 0.50),
        "reconcile_sim_ms_p90": pct(recon, 0.90),
        "fail_ratio": ratio(failed, n * CHAOS_CYCLES),
        "harness.build_s": median([ep["setup"]["build_s"] for ep in episodes if ep["setup"]]),
        "harness.join_s": median([ep["setup"]["join_s"] for ep in episodes if ep["setup"]]),
        "harness.restart_ms_p50": pct([v for c in cycles for v in c["restart_ms"]], 0.5),
        "harness.topology_us_p50": pct([v for c in cycles for v in c["topology_us"]], 0.5),
        "harness.convergence_check_ms_p50": median(
            [c["convergence_check_ms_p50"] for c in cycles]),
        "engine.run_s": run_s,
        "engine.ns_per_event": ratio(sum(c["engine_s"] for c in cycles) * 1e9,
                                     total["engine.events"]),
        "engine.run_call_us_p50": median([c["run_call_us_p50"] for c in cycles]),
        "engine.run_call_us_p99": median([c["run_call_us_p99"] for c in cycles]),
        "engine.shards": last[0]["shards"],
        "engine.replans": last[0]["replans"],
        "engine.site_load_max_over_mean": median(
            [c["site_load_max_over_mean"] for c in last]),
        "engine.worker_bound": 1.0,  # one sim thread: nothing to overlap
        "oracle.violations": sum(c["violations"] for c in cycles),
        "engine.events_per_cycle_growth": median(
            [growth([c["events"] for c in ep["cycles"]]) for ep in long_eps]),
        "net.bytes_per_msg_growth": median(
            [growth([ratio(c["bytes_on_wire"], c["msgs"]) for c in ep["cycles"]])
             for ep in long_eps]),
        "cycle_wall_growth": median(
            [growth([c["wall_ms"] for c in ep["cycles"]]) for ep in long_eps]),
    })

    # Traced pass over the same episodes.
    traced = [run_episode(exe, s, True,
                          out_path("chaos_oracle_soak-seed%d-ep%d.trace.json"
                                     % (seed, i)))
              for i, s in enumerate(seeds)]
    compare_episodes(episodes, traced, "between the untraced and traced pass",
                     CYCLE_EXACT, checks)
    pairs = [(a, b) for ea, eb in zip(episodes, traced)
             for a, b in zip(ea["cycles"], eb["cycles"])]
    layers["trace.overhead_ratio"] = ratio(
        sum(b["wall_ms"] - a["wall_ms"] for a, b in pairs),
        sum(a["wall_ms"] for a, _ in pairs))
    spans = {}
    for ep in traced:
        table = (ep["host"] or {}).get("spans") or (
            ep["cycles"][-1]["spans"] if ep["cycles"] else {})
        for name, s in table.items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0, "p50s": []})
            acc["calls"] += s["calls"]
            acc["total_s"] += s["total_s"]
            acc["self_s"] += s["self_s"]
            acc["p50s"].append(s["p50_us"])
    for s in spans.values():
        s["p50_us"] = median(s.pop("p50s"))
    upcall_every = next((ep["host"]["upcall_every"] for ep in traced
                         if ep["host"]), 1)
    layers.update(span_layers(spans, upcall_every, "bench.cycle"))
    if spans and layers["trace.coverage"] < 0.9:
        checks.append("traced spans cover %.3f < 0.9 of the cycles" %
                      layers["trace.coverage"])

    # Oracle-off replay: the oracle only observes, so every digest and
    # count must match; its cost is the engine time it adds.
    off = [run_episode(exe, s, False) for s in seeds]
    compare_episodes(episodes, off, "with the oracle off",
                     [k for k in CYCLE_EXACT if k not in ("ok", "reason", "violations")],
                     checks)
    pairs = [(a, b) for ea, eb in zip(episodes, off)
             for a, b in zip(ea["cycles"], eb["cycles"])]
    layers["oracle.overhead_ratio"] = ratio(sum(a["engine_s"] for a, _ in pairs),
                                            sum(b["engine_s"] for _, b in pairs))
    out["layers"] = layers
    out["spans"] = spans
    out["oracle_off_digests_match"] = not any("oracle off" in c for c in checks)
    return out, checks


# --- report ------------------------------------------------------------------

def run_workload(exe, workload, seed, seconds, trace):
    if workload == "chaos_oracle_soak":
        return run_chaos_workload(exe, seed, seconds, trace)
    return run_steady_workload(exe, workload, seed, seconds, trace)


def report(workload, out, checks, trace, manifest):
    section = "per_layer" if trace else "end_to_end"
    values = out["layers"] if trace else out["e2e"]
    print("== %s (seed %d, %s) ==" % (workload, out["run"]["seed"],
                                      "traced" if trace else "untraced"))
    run = out["run"]
    print("   run: " + ", ".join("%s=%s" % (k, run[k]) for k in sorted(run)
                                 if k != "episode_seeds"))
    for name, meta in manifest[section].items():
        print("   %-34s %16.6g %-16s %s" % (name, values[name], meta["unit"],
                                            meta["kind"]))
    if trace and out.get("spans"):
        print("   span self time (traced pass):")
        for name, s in sorted(out["spans"].items(),
                              key=lambda kv: -kv[1]["self_s"]):
            print("     %-28s self %10.4f s  total %10.4f s  calls %d" %
                  (name, s["self_s"], s["total_s"], s["calls"]))
    print("   operations: attempted %d, failed %d" % (out["attempted"],
                                                       out["failed"]))
    for f in out["failures"][:20]:
        where = ("cycle %d" % f["cycle"]) if "cycle" in f else ("rep %d" % f["rep"])
        print("   FAILED seed %d %s: %s" % (f["seed"], where, f["reason"]))
    for c in checks:
        print("   CHECK FAILED: " + c)


def metrics_json(values, section, manifest, prefix=""):
    return {prefix + name: {"value": values[name], "unit": meta["unit"]}
            for name, meta in manifest[section].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    manifest = load_manifest()
    try:
        exe = build()
    except (RuntimeError, subprocess.CalledProcessError, OSError) as e:
        note("perfbench: cannot build: %s" % e)
        return 2

    section = "per_layer" if args.trace else "end_to_end"
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics, record = True, 0, 0, {}, {}
    for w in names:
        out, checks = run_workload(exe, w, args.seed, args.seconds,
                                   bool(args.trace))
        if out is None:
            for c in checks:
                print("== %s: CHECK FAILED: %s" % (w, c))
            return 1
        report(w, out, checks, bool(args.trace), manifest)
        correct = correct and not checks
        attempted += out["attempted"]
        failed += out["failed"]
        values = out["layers"] if args.trace else out["e2e"]
        metrics.update(metrics_json(values, section, manifest,
                                    w + "." if len(names) > 1 else ""))
        record[w] = dict(out, checks=checks)
    path = out_path("%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                                  args.trace))
    with open(path, "w") as f:
        json.dump(record, f)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
