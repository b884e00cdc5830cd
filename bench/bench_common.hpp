#pragma once
// Shared harness for the bench_* binaries: the --seeds/--out/--jobs
// command line every bench accepts, the wall timer feeding the perf
// sidecar, the rts × tcp grid-point lookup, and the scorecard finish
// step (write BENCH_<name>.json, print where it went).
//
// Usage pattern:
//
//   int main(int argc, char** argv) {
//     const auto opt = adhoc::bench::parse_bench_options(argc, argv);
//     adhoc::bench::WallTimer timer;
//     adhoc::report::Scorecard card{"fig2"};
//     ... run, card.add_cell(...) ...
//     return adhoc::bench::finish_bench(card, opt, timer);
//   }
//
// Exit-code contract (shared with tools/bench_check.py): 0 success,
// 1 runtime failure (e.g. unwritable --out), 2 usage error.

#include <chrono>  // NOLINT-ADHOC(wall-clock) bench wall timing feeds the perf sidecar only
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/aggregate.hpp"
#include "campaign/engine.hpp"
#include "cli_args.hpp"
#include "report/scorecard.hpp"

namespace adhoc::bench {

struct BenchOptions {
  std::vector<std::uint64_t> seeds{1, 2, 3};
  std::string out_dir = ".";  ///< where BENCH_<name>.json lands
  unsigned jobs = 0;          ///< campaign workers; 0 = hardware default
};

/// "1,2,3" -> {1, 2, 3}. Throws std::invalid_argument on anything that
/// is not a comma-separated list of non-negative integers.
inline std::vector<std::uint64_t> parse_seed_list(const std::string& text) {
  std::vector<std::uint64_t> seeds;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    const std::string part = text.substr(pos, comma - pos);
    std::size_t consumed = 0;
    std::uint64_t seed = 0;
    try {
      seed = std::stoull(part, &consumed);
    } catch (const std::exception&) {
      consumed = 0;
    }
    if (consumed != part.size() || part.empty()) {
      throw std::invalid_argument("--seeds expects a comma-separated integer list, got '" +
                                  text + "'");
    }
    seeds.push_back(seed);
    pos = comma + 1;
  }
  if (seeds.empty()) throw std::invalid_argument("--seeds list is empty");
  return seeds;
}

/// Parse the shared bench command line. Prints usage and exits 2 on a
/// bad flag, so benches can call it unconditionally first thing.
inline BenchOptions parse_bench_options(int argc, char** argv,
                                        std::vector<std::uint64_t> default_seeds = {1, 2, 3}) {
  BenchOptions opt;
  opt.seeds = std::move(default_seeds);
  try {
    const tools::CliArgs args{argc, argv};
    if (args.has("help")) {
      std::cout << "usage: " << argv[0]
                << " [--seeds 1,2,3] [--out DIR] [--jobs N]\n"
                   "  --seeds  comma-separated replication seeds\n"
                   "  --out    directory for BENCH_<name>.json (default: .)\n"
                   "  --jobs   campaign worker threads (default: all cores)\n";
      std::exit(0);
    }
    if (args.has("seeds")) opt.seeds = parse_seed_list(args.str("seeds", ""));
    opt.out_dir = args.str("out", opt.out_dir);
    if (args.has("jobs")) opt.jobs = static_cast<unsigned>(args.positive_integer("jobs", 1));
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\nsee " << argv[0] << " --help\n";
    std::exit(2);
  }
  return opt;
}

/// Campaign-engine config honouring --jobs.
inline campaign::EngineConfig engine_config(const BenchOptions& opt) {
  campaign::EngineConfig cfg;
  cfg.jobs = opt.jobs;
  return cfg;
}

/// Wall clock for the perf sidecar. Never feeds the fidelity file.
class WallTimer {
 public:
  [[nodiscard]] double elapsed_ms() const {
    const auto now = std::chrono::steady_clock::now();  // NOLINT-ADHOC(wall-clock)
    return std::chrono::duration<double, std::milli>(now - start_).count();
  }

 private:
  // NOLINT-ADHOC-NEXTLINE(wall-clock) sanctioned perf-sidecar timing
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();  // NOLINT-ADHOC(wall-clock)
};

/// Record seeds + wall time, write BENCH_<name>.json (and the perf
/// sidecar) under --out, print the path. Returns the bench's exit code.
inline int finish_bench(report::Scorecard& card, const BenchOptions& opt,
                        const WallTimer& timer) {
  card.set_seeds(opt.seeds);
  const double wall_ms = timer.elapsed_ms();
  card.set_perf("wall_ms", wall_ms);
  const auto events = card.counters().find("events");
  if (events != card.counters().end() && wall_ms > 0.0) {
    card.set_perf("events_per_sec", static_cast<double>(events->second) / (wall_ms / 1e3));
  }
  try {
    const std::string path = card.write(opt.out_dir);
    std::cout << "(scorecard written to " << path << ")\n";
  } catch (const std::runtime_error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}

/// The aggregate for the (rts, tcp) grid point, or nullptr.
inline const campaign::PointAggregate* find_point(
    const std::vector<campaign::PointAggregate>& points, bool rts, bool tcp) {
  for (const auto& p : points) {
    bool match = true;
    for (const auto& [name, value] : p.params) {
      // Flag axes carry exactly 0.0 / 1.0 (campaign::RunSpec::flag).
      if (name == "rts" && (value != 0.0) != rts) match = false;  // NOLINT-ADHOC(fp-compare)
      if (name == "tcp" && (value != 0.0) != tcp) match = false;  // NOLINT-ADHOC(fp-compare)
    }
    if (match) return &p;
  }
  return nullptr;
}

}  // namespace adhoc::bench
