#include "sim/trial.hpp"

#include <chrono>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace flip {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

TrialOutcome engine_outcome(const Metrics& metrics, bool success,
                            double correct_fraction,
                            double convergence_round) {
  TrialOutcome outcome;
  outcome.success = success;
  outcome.rounds = static_cast<double>(metrics.rounds);
  outcome.messages = static_cast<double>(metrics.messages_sent);
  outcome.correct_fraction = correct_fraction;
  outcome.convergence_round = convergence_round;
  outcome.delivered = metrics.delivered;
  outcome.dropped = metrics.dropped;
  outcome.erased = metrics.erased;
  outcome.flipped = metrics.flipped;
  return outcome;
}

TrialSummary run_trials(const TrialFn& fn, const TrialOptions& options) {
  if (options.trials == 0) {
    throw std::invalid_argument("run_trials: trials == 0");
  }
  ThreadPool& pool = options.pool ? *options.pool : ThreadPool::shared();

  const auto batch_start = std::chrono::steady_clock::now();
  std::vector<TrialOutcome> outcomes(options.trials);
  std::vector<double> elapsed(options.trials);
  pool.parallel_for(options.trials, [&](std::size_t i) {
    // Stream i of the master seed: replayable regardless of which worker
    // thread picked up the trial.
    const auto start = std::chrono::steady_clock::now();
    outcomes[i] = fn(options.master_seed, i);
    elapsed[i] = seconds_since(start);
  });

  TrialSummary summary;
  summary.trials = options.trials;
  for (std::size_t i = 0; i < options.trials; ++i) {
    const TrialOutcome& o = outcomes[i];
    if (o.success) ++summary.successes;
    summary.rounds.add(o.rounds);
    summary.messages.add(o.messages);
    summary.correct_fraction.add(o.correct_fraction);
    if (std::isfinite(o.convergence_round)) {
      ++summary.converged;
      summary.convergence_rounds.add(o.convergence_round);
    }
    summary.trial_seconds.add(elapsed[i]);
  }
  summary.success = wilson_interval(summary.successes, summary.trials);
  summary.wall_seconds = seconds_since(batch_start);
  return summary;
}

}  // namespace flip
