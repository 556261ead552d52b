#!/usr/bin/env python3
"""Self-checks of the benchmark (not of the library). From the repository
root:

    python3 perfbench/selftest.py

1. A reduced wan1000_sharded world gives identical digests and exact
   metrics at 1 sim thread and at min(4, nproc) threads (at least 2).
2. Two runs of every workload at one seed agree on every exact metric:
   sim-time metrics, counts, digests and failure counts.
3. A send forced to lose a delivery (a receiver crashes right after the
   first measured send) is counted as failed, on fig2 and on wan.
4. BENCHMARK.json and perfbench/metrics.json agree on every metric's
   name, unit and direction, and name the same workloads.
5. run.py exits non-zero without printing a result in a directory that
   holds only BENCHMARK.json and perfbench/.

Exits non-zero if any check fails.
"""
import json
import os
import shutil
import subprocess
import sys

import run

FAILED = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        FAILED.append(what)


def exact(rep):
    return {k: rep["result"][k] for k in run.STEADY_EXACT}


def rep(exe, args, label):
    checks = []
    out = run.run_rep(exe, args, checks, label)
    for c in checks:
        check(False, c)
    return out


def check_threads(exe):
    small = ["wan", "--seed", "7", "--sim-s", "1", "--segments", "60",
             "--regional", "6"]
    many = max(2, run.sim_threads())
    one = rep(exe, small + ["--threads", "1"], "wan 1 thread")
    multi = rep(exe, small + ["--threads", str(many)], "wan %d threads" % many)
    if one and multi:
        check(one["result"]["engine"]["threads"] == 1 and
              multi["result"]["engine"]["threads"] == many,
              "reduced wan ran at 1 and %d sim threads" % many)
        diff = [k for k in run.STEADY_EXACT
                if one["result"][k] != multi["result"][k]]
        check(not diff, "reduced wan: exact metrics equal at 1 and %d threads%s"
              % (many, " (differ: %s)" % diff if diff else ""))
    return one


def check_repeatable(exe, wan_first):
    fig2 = ["fig2", "--seed", "3", "--sim-s", "5"]
    a, b = rep(exe, fig2, "fig2 run 1"), rep(exe, fig2, "fig2 run 2")
    if a and b:
        check(exact(a) == exact(b), "fig2: two runs agree on exact metrics")
    small = ["wan", "--seed", "7", "--sim-s", "1", "--segments", "60",
             "--regional", "6", "--threads", "1"]
    again = rep(exe, small, "wan run 2")
    if wan_first and again:
        check(exact(wan_first) == exact(again),
              "wan: two runs agree on exact metrics")
    # Chaos: one short episode twice, plus its oracle-off replay.
    saved = run.CHAOS_CYCLES
    run.CHAOS_CYCLES = 4
    try:
        e1 = run.run_episode(exe, 11, True)
        e2 = run.run_episode(exe, 11, True)
        off = run.run_episode(exe, 11, False)
    finally:
        run.CHAOS_CYCLES = saved
    check(len(e1["cycles"]) == len(e2["cycles"]) > 0,
          "chaos: both episodes ran cycles")
    checks = []
    run.compare_episodes([e1], [e2], "between two runs", run.CYCLE_EXACT,
                         checks)
    check(not checks, "chaos: two runs agree on every cycle's exact fields")
    checks = []
    run.compare_episodes([e1], [off], "with the oracle off",
                         ["digest", "sim_ms", "events", "deliveries"], checks)
    check(not checks, "chaos: oracle on and off give identical digests")


def check_forced_loss(exe):
    for args, label in (
            (["fig2", "--seed", "5", "--sim-s", "2", "--force-loss"], "fig2"),
            (["wan", "--seed", "5", "--sim-s", "0.5", "--segments", "20",
              "--regional", "2", "--threads", "1", "--force-loss"], "wan")):
        r = rep(exe, args, label + " forced loss")
        if r:
            res = r["result"]
            check(res["failed"] >= 1 and res["failure_reasons"],
                  "%s: a forced lost delivery is counted (failed %d of %d)" %
                  (label, res["failed"], res["attempted"]))


def check_manifest():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    manifest = run.load_manifest()
    for section in ("end_to_end", "per_layer"):
        listed = {m["name"]: m for m in bench[section]}
        documented = manifest[section]
        check(list(listed) == list(documented),
              "%s: BENCHMARK.json and metrics.json list the same metrics"
              % section)
        bad = [n for n, m in listed.items() if n in documented and
               (m["unit"], m["better"]) != (documented[n]["unit"],
                                            documented[n]["better"])]
        check(not bad, "%s: units and directions agree%s" %
              (section, " (differ: %s)" % bad if bad else ""))
    names = [w["name"] for w in bench["workloads"]]
    check(all(n in manifest["workloads"] for n in names),
          "every BENCHMARK.json workload is documented in metrics.json")


def check_bare_directory():
    bare = os.path.join(run.build_dir(), "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "fig2_closed_loop", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare, env=env,
                       capture_output=True, text=True, timeout=180)
    printed = any('"correct"' in l for l in p.stdout.splitlines())
    check(p.returncode != 0 and not printed,
          "run.py fails without a result outside a full checkout (exit %d)"
          % p.returncode)
    shutil.rmtree(bare, ignore_errors=True)


def main():
    exe = run.build()
    wan_first = check_threads(exe)
    check_repeatable(exe, wan_first)
    check_forced_loss(exe)
    check_manifest()
    check_bare_directory()
    print("%d check(s) failed" % len(FAILED) if FAILED else "all checks passed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
