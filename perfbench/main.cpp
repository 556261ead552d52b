// plwg_perfbench: runs one repetition of a benchmark workload against the
// public SimWorld API and prints its result record as the last line of
// stdout. run.py drives it (repetitions, episodes, the traced pass) and
// turns the records into metrics.
//
//   plwg_perfbench fig2 --seed N --sim-s S [--oracle 0|1] [--trace-out FILE]
//                       [--force-loss]
//   plwg_perfbench wan  --seed N --sim-s S --threads T [--segments K]
//                       [--regional R] [--trace-out FILE] [--force-loss]
//   plwg_perfbench chaos --seed N --cycles C --oracle 0|1 [--trace-out FILE]
//
// The first stdout line describes the build; chaos then prints a set-up
// line and one line per finished cycle.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "plwg_perfbench: %s\n", why);
  std::exit(2);
}

plwg::perfbench::Options parse(int argc, char** argv) {
  if (argc < 2) usage("missing workload (fig2 | wan | chaos)");
  plwg::perfbench::Options o;
  o.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--force-loss") {
      o.force_loss = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--seed") {
      o.seed = std::stoull(v);
    } else if (flag == "--sim-s") {
      o.sim_s = std::stod(v);
    } else if (flag == "--threads") {
      o.threads = std::stoul(v);
    } else if (flag == "--segments") {
      o.segments = std::stoul(v);
    } else if (flag == "--regional") {
      o.regional = std::stoul(v);
    } else if (flag == "--cycles") {
      o.cycles = std::stoul(v);
    } else if (flag == "--oracle") {
      o.oracle = v == "1";
    } else if (flag == "--trace-out") {
      o.trace = true;
      o.trace_out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace plwg::perfbench;
  const Options o = parse(argc, argv);
  // One upcall span in 64: upcalls are the hottest call site, and the
  // sampled self time is scaled back up by run.py.
  constexpr std::uint32_t kUpcallEvery = 64;
  if (o.trace) Tracer::enable(kUpcallEvery);

  Json build;
  build.count("host_cpus", std::thread::hardware_concurrency())
      .str("build_type", PLWG_BENCH_BUILD_TYPE)
#ifdef PLWG_ORACLE_DISABLED
      .count("oracle_compiled", 0);
#else
      .count("oracle_compiled", 1);
#endif
  std::printf("{\"build\":%s}\n", build.done().c_str());
  std::fflush(stdout);

  std::string result;
  if (o.workload == "fig2") {
    result = run_fig2(o);
  } else if (o.workload == "wan") {
    result = run_wan(o);
  } else if (o.workload == "chaos") {
    result = run_chaos_episode(o);
  } else {
    usage(("unknown workload " + o.workload).c_str());
  }

  Json host;
  host.num("peak_rss_mb", peak_rss_mb())
      .count("upcall_every", kUpcallEvery);
  if (o.trace) {
    host.raw("spans", span_report());
    if (!Tracer::write_chrome_trace(o.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", o.trace_out.c_str());
      return 1;
    }
  }
  std::printf("{\"result\":%s,\"host\":%s}\n", result.c_str(),
              host.done().c_str());
  return 0;
}
