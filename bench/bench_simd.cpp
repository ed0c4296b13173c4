// E18 — SIMD round-kernel speedup: the same single-trial broadcast, scalar
// kernels vs the best vector set this build + machine can run, in one
// process (docs/PERFORMANCE.md documents the methodology and the committed
// trajectory point lives in bench/results/BENCH_simd.json).
//
// Not a paper claim: times the substrate. The two timed runs execute the
// SAME (seed, trial) workload and produce bit-identical outcomes — the
// FLIP_SIMD exactness contract (tests/simd_differential_test.cpp) is what
// makes this an apples-to-apples A/B rather than a tradeoff curve. The
// `isa` column records which vector set was measured and `cores` what the
// machine could deliver; in a FLIP_SIMD=OFF build (or on a CPU without any
// compiled vector ISA) the rows degenerate to isa=scalar, speedup=1, which
// tools/check_engine_perf.py --simd treats as "nothing to gate".

#include <chrono>
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cli/bench_report.hpp"
#include "simd/simd.hpp"
#include "util/table.hpp"
#include "workload/scenarios.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Per-trial wall-clock of `reps` identical broadcast trials under the
/// currently forced kernel set.
double time_trials(const flip::BroadcastScenario& scenario, std::uint64_t seed,
                   std::size_t reps) {
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t t = 0; t < reps; ++t) {
    (void)flip::run_broadcast(scenario, seed, t);
  }
  return seconds_since(start) / static_cast<double>(reps);
}

}  // namespace

int main(int argc, char** argv) {
  std::string n_list = "16384,100000";
  std::optional<std::size_t> trials;
  std::optional<std::uint64_t> seed;

  flip::cli::ArgParser parser(
      "bench_simd",
      "E18: single-trial broadcast wall-clock, scalar vs SIMD round "
      "kernels.\nBoth rows run the SAME (seed, trial) workload; outcomes "
      "are bit-identical\n(the FLIP_SIMD exactness contract), only the "
      "kernel dispatch differs.");
  parser.add_option("--n", "list", "comma-separated population sizes",
                    &n_list);
  parser.add_count("--trials", "trials per cell (default 2)", &trials);
  parser.add_uint64("--seed", "master seed (default 0x5eed)", &seed);
  const auto options = flip::cli::parse_bench_args(parser, argc, argv);

  std::string error;
  const auto ns = flip::cli::parse_size_list(n_list, error);
  if (!ns || ns->empty()) {
    std::cerr << "error: --n: " << (error.empty() ? "empty list" : error)
              << "\n";
    return 2;
  }

  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const flip::simd::Isa best = flip::simd::best_isa();
  flip::cli::bench_banner(
      options, "E18 bench_simd",
      "Engineering claim (docs/PERFORMANCE.md): the counter-keyed RNG makes "
      "the route/flip phases pure lane arithmetic, so the vector kernels "
      "replay the scalar draws exactly — same science, less wall-clock.");

  flip::TextTable table({"n", "trials", "cores", "isa", "scalar s/trial",
                         "simd s/trial", "speedup"});
  for (const std::size_t n : *ns) {
    flip::BroadcastScenario scenario;
    scenario.n = n;
    scenario.eps = 0.2;
    scenario.engine = flip::EngineMode::kBatch;

    const std::size_t reps = trials.value_or(2);
    if (!flip::simd::force_isa(flip::simd::Isa::kScalar)) return 1;
    const double scalar_s = time_trials(scenario, seed.value_or(0x5eedULL),
                                        reps);
    double simd_s = scalar_s;
    if (best != flip::simd::Isa::kScalar) {
      if (!flip::simd::force_isa(best)) return 1;
      simd_s = time_trials(scenario, seed.value_or(0x5eedULL), reps);
    }
    flip::simd::reset_isa();

    table.row()
        .cell(n)
        .cell(reps)
        .cell(cores)
        .cell(flip::simd::isa_name(best))
        .cell(scalar_s, 3)
        .cell(simd_s, 3)
        .cell(scalar_s / simd_s, 2);
  }
  flip::cli::bench_emit(
      options, table,
      "speedup = scalar s/trial / simd s/trial, measured in this process on "
      "this machine; outcomes are bit-identical between the two runs. "
      "isa=scalar means this build/machine has no vector kernels (speedup "
      "is definitionally 1).");
  return 0;
}
