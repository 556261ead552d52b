// The benchmark's workloads. Each runs one repetition (fig2, wan) or one
// episode (chaos) and returns its result record as JSON; chaos also
// streams one JSON line per finished cycle to stdout.
#pragma once

#include <string>

#include "probe.hpp"

namespace plwg::perfbench {

std::string run_fig2(const Options& o);
std::string run_wan(const Options& o);
std::string run_chaos_episode(const Options& o);

}  // namespace plwg::perfbench
