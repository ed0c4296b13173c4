#pragma once
// Monte-Carlo harness: runs many independent, deterministically seeded
// executions of a scenario (in parallel) and aggregates the "w.h.p."
// statements of the paper into success-rate estimates with Wilson intervals.

#include <cstdint>
#include <functional>
#include <limits>

#include "sim/metrics.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace flip {

/// The outcome of one simulated execution.
struct TrialOutcome {
  bool success = false;            ///< all agents ended with the correct opinion
  double rounds = 0.0;             ///< rounds the execution took
  double messages = 0.0;           ///< total messages (= bits) sent
  double correct_fraction = 0.0;   ///< fraction of agents correct at the end
  /// First probe round of stable >= 99% activation (NaN when the run keeps
  /// no probe series or never converges). Aggregated into
  /// TrialSummary::convergence_rounds over the converged trials only.
  double convergence_round = std::numeric_limits<double>::quiet_NaN();
  /// The engine's Metrics counters, verbatim. Exposed here so the
  /// shard-invariance tests (and reports) can check the exact-merge
  /// contract on COUNTERS, not just on the outcome doubles above. Zero for
  /// baselines that bypass the engine (the pull/AAE dynamics).
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t erased = 0;
  std::uint64_t flipped = 0;
};

/// The outcome of one engine execution: rounds, messages and the counters
/// straight from `metrics`, the verdicts from the caller. The one
/// Metrics -> TrialOutcome mapping every engine-backed TrialFn uses.
[[nodiscard]] TrialOutcome engine_outcome(
    const Metrics& metrics, bool success, double correct_fraction,
    double convergence_round = std::numeric_limits<double>::quiet_NaN());

/// A scenario: given (seed, trial index), run one execution. Must be safe to
/// call concurrently for distinct indices (each call builds its own engine
/// and rng stream from the seed).
using TrialFn = std::function<TrialOutcome(std::uint64_t seed,
                                           std::size_t trial_index)>;

/// Aggregated results of a batch of trials.
struct TrialSummary {
  std::size_t trials = 0;
  std::size_t successes = 0;
  ProportionCI success;        ///< Wilson interval on the success probability
  RunningStats rounds;         ///< over all trials
  RunningStats messages;       ///< over all trials
  RunningStats correct_fraction;
  /// Over the trials whose convergence_round is finite only; `converged`
  /// counts them. With zero converged trials the stats hold no samples —
  /// report a non-finite mean, not 0.
  std::size_t converged = 0;
  RunningStats convergence_rounds;
  /// Wall-clock of the whole batch, including scheduling overhead. Unlike
  /// everything above this is *not* deterministic — report it, never gate
  /// correctness on it.
  double wall_seconds = 0.0;
  RunningStats trial_seconds;  ///< per-execution wall-clock
};

struct TrialOptions {
  std::size_t trials = 32;
  std::uint64_t master_seed = 0x5eedULL;
  /// Pool to run on; nullptr = ThreadPool::shared().
  ThreadPool* pool = nullptr;
};

/// Runs `options.trials` executions of `fn`; trial i receives the derived
/// seed for stream i of the master seed, so results are reproducible and
/// independent of thread scheduling.
TrialSummary run_trials(const TrialFn& fn, const TrialOptions& options);

}  // namespace flip
