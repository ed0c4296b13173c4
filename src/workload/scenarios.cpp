#include "workload/scenarios.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "net/channel.hpp"
#include "sim/batch_engine.hpp"
#include "sim/engine.hpp"
#include "sim/series.hpp"
#include "sim/surrogate_engine.hpp"
#include "sim/trial_arena.hpp"

namespace flip {

namespace {

// Engine-level and BreatheProtocol randomness derives from the trial's
// counter-stream root key (purposes keep the lanes apart; see
// util/rng.hpp). The sequential Xoshiro streams below remain for the
// desync protocol's internal draws and for scenario setup (wake offsets):
// they are consumed in a fixed order that both substrates share. Keyed by
// trial index so trials are independent and replayable.
constexpr std::uint64_t kStreamsPerTrial = 4;

Xoshiro256 protocol_rng(std::uint64_t seed, std::size_t trial) {
  return make_stream(seed, kStreamsPerTrial * trial + 1);
}
Xoshiro256 setup_rng(std::uint64_t seed, std::size_t trial) {
  return make_stream(seed, kStreamsPerTrial * trial + 2);
}

/// Per-agent setup stream (RngPurpose::kSetup): scenario initialization
/// draws that are logically per-agent — like desync wake offsets — come
/// from here, so setup is order-independent like the engine draws.
CounterRng agent_setup_rng(const StreamKey& key, AgentId agent) {
  return CounterRng(round_stream_key(key, RngPurpose::kSetup, 0), agent);
}

// --- the breathe families: broadcast / majority / boost -------------------
// One two-stage protocol run from different initial sets. Each family's
// scenario struct becomes one BreatheCell (cell_of), which one runner
// executes on either substrate (run_cell); the surrogate engine takes a
// SurrogateSpec instead (surrogate_spec). Both builders share the
// family's validation, so a bad scenario is rejected with the same
// message on every engine.

/// The environment one breathe execution runs in: at most one of
/// heterogeneous / schedule / adversarial selects the channel; churn and
/// the interaction graph are orthogonal.
struct BreatheEnvironment {
  bool heterogeneous = false;
  EnvironmentSchedule schedule{};
  ChurnSpec churn{};
  TopologySpec topology{};
  std::uint64_t adversarial_budget = 0;
};

/// Broadcast's environment, with the channel exclusivity rules checked
/// (the other families cannot select more than one channel).
BreatheEnvironment broadcast_environment(const BroadcastScenario& scenario) {
  if (scenario.heterogeneous_noise && scenario.schedule.enabled()) {
    throw std::invalid_argument(
        "breathe scenario: heterogeneous noise and an eps schedule are "
        "mutually exclusive");
  }
  if (scenario.adversarial_budget != 0 &&
      (scenario.heterogeneous_noise || scenario.schedule.enabled())) {
    throw std::invalid_argument(
        "breathe scenario: the adversarial channel excludes heterogeneous "
        "noise and eps schedules");
  }
  return {.heterogeneous = scenario.heterogeneous_noise,
          .schedule = scenario.schedule,
          .churn = scenario.churn,
          .topology = scenario.topology,
          .adversarial_budget = scenario.adversarial_budget};
}

/// The correct-opinion count of an initial set of `set` agents with the
/// given bias in (0, 1/2]: bias = (A_B - A_notB) / (2|A|), so
/// A_B = |A| (1/2 + bias). `what` names the field in the error.
std::size_t biased_count(double bias, std::size_t set, const char* what) {
  if (!(bias > 0.0) || bias > 0.5) {
    throw std::invalid_argument(std::string(what) + " not in (0, 0.5]");
  }
  return static_cast<std::size_t>(
      std::llround((0.5 + bias) * static_cast<double>(set)));
}

/// Everything one scenario cell's executions share, derived once: the
/// schedule, the protocol config (whose initial seed list is O(n) for
/// boost), the environment and the substrate knobs. The trial-fn adapter
/// shares one cell read-only across the harness's worker threads.
struct BreatheCell {
  Params params;
  BreatheConfig config;
  double eps = 0.0;
  BreatheEnvironment env;
  EngineMode engine = EngineMode::kBatch;
  std::size_t shards = 1;
  /// Run Stage I only; success then means "every agent activated".
  bool stage1_only = false;
  Round probe_every = 0;
};

// cell_of keeps the scenarios' exception order: the bias checks run
// before Params::calibrated, broadcast's channel rules after it.

BreatheCell cell_of(const BroadcastScenario& scenario) {
  Params params = Params::calibrated(scenario.n, scenario.eps,
                                     scenario.tuning);
  BreatheEnvironment env = broadcast_environment(scenario);
  BreatheConfig config = broadcast_config(scenario.correct);
  config.stage1_pick = scenario.stage1_pick;
  config.stage2_subset = scenario.stage2_subset;
  return {.params = std::move(params),
          .config = std::move(config),
          .eps = scenario.eps,
          .env = std::move(env),
          .engine = scenario.engine,
          .shards = scenario.shards,
          .stage1_only = scenario.stage1_only,
          .probe_every = scenario.probe_every};
}

BreatheCell cell_of(const MajorityScenario& scenario) {
  const std::size_t correct_count =
      biased_count(scenario.majority_bias, scenario.initial_set,
                   "run_majority: majority_bias");
  Params params = Params::calibrated(scenario.n, scenario.eps,
                                     scenario.tuning);
  BreatheConfig config = majority_config(params, scenario.initial_set,
                                         correct_count, scenario.correct);
  return {.params = std::move(params),
          .config = std::move(config),
          .eps = scenario.eps,
          .env = {.schedule = scenario.schedule,
                  .churn = scenario.churn,
                  .topology = scenario.topology},
          .engine = scenario.engine,
          .shards = scenario.shards,
          .probe_every = scenario.probe_every};
}

BreatheCell cell_of(const BoostScenario& scenario) {
  const std::size_t correct_count = biased_count(
      scenario.initial_bias, scenario.n, "run_boost: initial_bias");
  Params params = Params::calibrated(scenario.n, scenario.eps,
                                     scenario.tuning);
  BreatheConfig config =
      majority_config(params, scenario.n, correct_count, scenario.correct);
  config.skip_stage1 = true;
  return {.params = std::move(params),
          .config = std::move(config),
          .eps = scenario.eps,
          .env = {.topology = scenario.topology},
          .engine = scenario.engine,
          .shards = scenario.shards};
}

// surrogate_spec: the scenario -> SurrogateSpec derivations for
// EngineMode::kSurrogate. These deliberately bypass cell_of:
// majority_config materializes an O(n) seed vector, which at the
// surrogate's n = 1e9 would cost more memory than the whole analysis —
// the spec carries counts only.

/// The mean-field rate equations assume every sender reaches every
/// recipient with probability 1/(n-1): a sparse interaction graph has no
/// homogeneous per-round rate, so the surrogate refuses it rather than
/// silently integrating the wrong dynamics.
void reject_sparse_topology(const TopologySpec& topology, const char* what) {
  if (!topology.complete()) {
    throw std::invalid_argument(
        std::string(what) + ": the mean-field surrogate engine models the "
        "complete interaction graph only, not topology '" +
        topology.describe() + "'; use --engine batch or --engine classic");
  }
}

SurrogateSpec surrogate_spec(const BroadcastScenario& scenario) {
  // The channel rules come first, with the message cell_of gives.
  (void)broadcast_environment(scenario);
  if (scenario.adversarial_budget != 0) {
    throw std::invalid_argument(
        "broadcast: the adversarial channel is stateful and order-"
        "dependent — no per-round rate exists for the surrogate engine; "
        "use --engine batch or --engine classic");
  }
  reject_sparse_topology(scenario.topology, "broadcast");
  SurrogateSpec spec;
  spec.n = scenario.n;
  spec.eps = scenario.eps;
  spec.tuning = scenario.tuning;
  spec.initial_set = 1;
  spec.initial_correct = 1;
  spec.stage1_only = scenario.stage1_only;
  spec.heterogeneous = scenario.heterogeneous_noise;
  spec.schedule = scenario.schedule;
  spec.churn = scenario.churn;
  spec.probe_every = scenario.probe_every;
  // stage1_pick / stage2_subset need no mapping: uniform-vs-first message
  // and uniform-vs-prefix subset have identical per-agent marginals, so
  // the mean-field state evolution is the same for all four combinations.
  return spec;
}

SurrogateSpec surrogate_spec(const MajorityScenario& scenario) {
  SurrogateSpec spec;
  spec.initial_correct =
      biased_count(scenario.majority_bias, scenario.initial_set,
                   "run_majority: majority_bias");
  reject_sparse_topology(scenario.topology, "majority");
  spec.n = scenario.n;
  spec.eps = scenario.eps;
  spec.tuning = scenario.tuning;
  spec.initial_set = scenario.initial_set;
  spec.auto_join_phase = true;
  spec.schedule = scenario.schedule;
  spec.churn = scenario.churn;
  spec.probe_every = scenario.probe_every;
  return spec;
}

SurrogateSpec surrogate_spec(const BoostScenario& scenario) {
  SurrogateSpec spec;
  spec.initial_correct = biased_count(scenario.initial_bias, scenario.n,
                                      "run_boost: initial_bias");
  reject_sparse_topology(scenario.topology, "boost");
  spec.n = scenario.n;
  spec.eps = scenario.eps;
  spec.tuning = scenario.tuning;
  spec.initial_set = scenario.n;
  spec.skip_stage1 = true;
  return spec;
}

/// Whether the batch substrate's packed SoA path runs this cell. The
/// adversarial ablation always runs on the reference Engine: the channel
/// spends its budget in delivery order, so only the sequential substrate
/// gives it a defined meaning (and batch == classic trivially).
bool runs_fast_path(const BreatheCell& cell) {
  return cell.engine == EngineMode::kBatch &&
         breathe_fast_supported(cell.params) &&
         cell.env.adversarial_budget == 0;
}

/// The one channel selection of a breathe execution: builds the channel
/// the environment names and hands it to `run` as its concrete type, so
/// the batch engine binds its flip functor statically (no virtual call in
/// its loop) and the reference Engine takes it as a NoiseChannel&.
/// `budget` anchors open-ended schedule segments ("ramp over the whole
/// run") to the rounds this execution will actually run.
template <typename Run>
void with_channel(const BreatheCell& cell, Round budget, Run&& run) {
  const BreatheEnvironment& env = cell.env;
  if (env.adversarial_budget != 0) {
    AdversarialChannel channel(env.adversarial_budget);
    run(channel);
  } else if (env.schedule.enabled()) {
    CorrelatedBurstChannel channel(env.schedule.resolved(cell.eps, budget));
    run(channel);
  } else if (env.heterogeneous) {
    HeterogeneousChannel channel(cell.eps);
    run(channel);
  } else {
    BinarySymmetricChannel channel(cell.eps);
    run(channel);
  }
}

/// The reference substrate: the virtual Engine + BreatheProtocol on the
/// same keys, its introspection copied into `result` in run_breathe's
/// shape.
void run_reference(const BreatheCell& cell, NoiseChannel& channel,
                   const StreamKey& key, const EngineOptions& options,
                   Round budget, BreatheFastResult& result) {
  Engine engine(cell.params.n(), channel, key, options);
  BreatheProtocol protocol(cell.params, cell.config, key);
  result.reset();
  result.protocol_rounds = budget;
  result.metrics = engine.run(protocol, budget);
  const Population& population = protocol.population();
  result.success = protocol.succeeded();
  result.opinionated = population.opinionated();
  result.correct_fraction = population.correct_fraction(cell.config.correct);
  result.final_bias = population.bias(cell.config.correct);
  result.stage1 = protocol.stage1_stats();
  result.stage2 = protocol.stage2_stats();
}

/// Runs one execution of `cell` for (seed, trial) into the calling
/// thread's pooled TrialArena and returns `reduce(result)`, read before
/// the lease hands the arena back. On the batch fast path with a static
/// channel nothing here allocates once the arena is warm, so a reduce
/// that only reads scalars keeps the Monte-Carlo trial allocation-free
/// (tests/trial_arena_test.cpp holds this with a counting allocator).
template <typename Reduce>
auto run_cell(const BreatheCell& cell, std::uint64_t seed,
              std::size_t trial, Reduce reduce) {
  const StreamKey key = trial_stream_key(seed, trial);
  const Round budget =
      BatchEngine::breathe_schedule(cell.params, cell.config,
                                    cell.stage1_only)
          .budget;
  EngineOptions options;
  options.probe_every = cell.probe_every;
  options.churn = cell.env.churn;
  options.topology = cell.env.topology;

  TrialArenaLease arena;
  with_channel(cell, budget, [&](auto& channel) {
    if constexpr (BreatheChannel<std::remove_cvref_t<decltype(channel)>>) {
      if (runs_fast_path(cell)) {
        BreatheRunOptions run_options;
        run_options.engine = options;
        run_options.shards = cell.shards;
        // Sharded phases run on the process-wide pool, whose workers
        // persist, so their scratch recycles across trials.
        run_options.pool =
            cell.shards > 1 ? &ThreadPool::shared() : nullptr;
        arena->engine.run_breathe(cell.params, cell.config, channel, key,
                                  cell.stage1_only, run_options,
                                  arena->result);
        return;
      }
    }
    run_reference(cell, channel, key, options, budget, arena->result);
  });
  return reduce(arena->result);
}

/// Stage-I-only success = every agent activated, read from the stage1
/// stats' total (identical on both substrates); otherwise the protocol's
/// own verdict.
bool cell_success(const BreatheCell& cell, const BreatheFastResult& result) {
  if (!cell.stage1_only) return result.success;
  const std::uint64_t activated =
      result.stage1.empty() ? 0 : result.stage1.back().total_activated;
  return activated == cell.params.n();
}

/// The convergence-round probe statistic: first stable crossing of 99%
/// activation in the recorded series. NaN when no probes were recorded or
/// the crossing never happens — reporting maps non-finite to null/"-".
double activation_convergence(const Metrics& metrics, std::size_t n) {
  const std::optional<Round> round =
      stable_crossing(metrics.activated_series,
                      0.99 * static_cast<double>(n));
  return round ? static_cast<double>(*round) : kNoConvergence;
}

/// The RunDetail of one breathe execution: the public run_* result.
template <typename Scenario>
RunDetail run_breathe_detail(const Scenario& scenario, std::uint64_t seed,
                             std::size_t trial) {
  if (scenario.engine == EngineMode::kSurrogate) {
    // The surrogate yields analytic moments, not one execution's samples:
    // there is no RunDetail to return. Validate exactly as the surrogate
    // trial fn would, so a bad scenario reports its own fault first.
    (void)surrogate_spec(scenario);
    throw std::invalid_argument(
        "breathe scenario: the surrogate engine has no per-execution "
        "RunDetail; use the trial-fn adapters");
  }
  const BreatheCell cell = cell_of(scenario);
  return run_cell(cell, seed, trial, [&](const BreatheFastResult& result) {
    RunDetail detail;
    detail.metrics = result.metrics;
    detail.success = cell_success(cell, result);
    detail.correct_fraction = result.correct_fraction;
    detail.final_bias = result.final_bias;
    detail.protocol_rounds = result.protocol_rounds;
    detail.stage1 = result.stage1;
    detail.stage2 = result.stage2;
    detail.convergence_round =
        activation_convergence(result.metrics, cell.params.n());
    return detail;
  });
}

/// The Monte-Carlo adapter of every breathe family: the cell is built once
/// and shared read-only by the harness's workers; each trial reduces the
/// arena's result straight to the TrialOutcome scalars.
template <typename Scenario>
TrialFn breathe_trial_fn(const Scenario& scenario) {
  if (scenario.engine == EngineMode::kSurrogate) {
    return surrogate_trial_fn(surrogate_spec(scenario));
  }
  return [cell = cell_of(scenario)](std::uint64_t seed, std::size_t trial) {
    return run_cell(cell, seed, trial, [&](const BreatheFastResult& result) {
      return engine_outcome(
          result.metrics, cell_success(cell, result),
          result.correct_fraction,
          activation_convergence(result.metrics, cell.params.n()));
    });
  };
}

void reject_surrogate(const DesyncScenario& scenario) {
  if (scenario.engine == EngineMode::kSurrogate) {
    throw std::invalid_argument(
        "desync: per-agent clock offsets break the homogeneous-population "
        "assumption of the surrogate engine; use --engine batch or "
        "--engine classic");
  }
}

}  // namespace

TrialOutcome to_outcome(const RunDetail& detail) {
  return engine_outcome(detail.metrics, detail.success,
                        detail.correct_fraction, detail.convergence_round);
}

RunDetail run_broadcast(const BroadcastScenario& scenario, std::uint64_t seed,
                        std::size_t trial) {
  return run_breathe_detail(scenario, seed, trial);
}

RunDetail run_majority(const MajorityScenario& scenario, std::uint64_t seed,
                       std::size_t trial) {
  return run_breathe_detail(scenario, seed, trial);
}

RunDetail run_boost(const BoostScenario& scenario, std::uint64_t seed,
                    std::size_t trial) {
  return run_breathe_detail(scenario, seed, trial);
}

RunDetail run_desync(const DesyncScenario& scenario, std::uint64_t seed,
                     std::size_t trial) {
  reject_surrogate(scenario);
  const Params params = Params::calibrated(scenario.n, scenario.eps,
                                           scenario.tuning);
  const StreamKey key = trial_stream_key(seed, trial);
  auto pro_rng = protocol_rng(seed, trial);

  RunDetail detail;
  DesyncConfig config;
  config.base = broadcast_config(scenario.correct);
  config.attribution = scenario.attribution;

  if (scenario.use_clock_sync) {
    // Section 3.2: run the activation pre-phase; its clock resets bound the
    // skew by ~2 log n w.h.p. The pre-phase is a sequential mini-simulation
    // of its own, so it keeps a sequential setup stream.
    auto set_rng = setup_rng(seed, trial);
    const ClockSyncResult sync =
        run_clock_sync(scenario.n, /*source=*/0, set_rng);
    detail.clock_sync_rounds = sync.duration;
    detail.clock_sync_messages = sync.messages;
    detail.measured_skew = sync.skew;
    config.wake = sync.wake;
    config.max_skew = sync.skew;  // the realized bound
  } else {
    config.max_skew = scenario.max_skew;
    const Round spread = scenario.actual_skew != 0 ? scenario.actual_skew
                                                   : scenario.max_skew;
    config.allow_excess_skew = spread > scenario.max_skew;
    config.wake.resize(scenario.n, 0);
    if (spread > 0) {
      for (AgentId a = 0; a < scenario.n; ++a) {
        CounterRng rng = agent_setup_rng(key, a);
        config.wake[a] = uniform_index(rng, spread + 1);
      }
      detail.measured_skew = spread;
    }
  }

  DesyncBreatheProtocol protocol(params, std::move(config), pro_rng);

  detail.protocol_rounds = protocol.total_rounds();
  detail.desync_overhead = protocol.desync_overhead();
  const auto run_on_channel = [&](auto& channel) {
    return run_protocol(scenario.engine, scenario.n, protocol, channel, key,
                        protocol.total_rounds());
  };
  if (scenario.schedule.enabled()) {
    CorrelatedBurstChannel channel(
        scenario.schedule.resolved(scenario.eps, protocol.total_rounds()));
    detail.metrics = run_on_channel(channel);
  } else {
    BinarySymmetricChannel channel(scenario.eps);
    detail.metrics = run_on_channel(channel);
  }
  detail.metrics.rounds += detail.clock_sync_rounds;
  detail.metrics.messages_sent += detail.clock_sync_messages;
  detail.success = protocol.succeeded();
  detail.correct_fraction =
      protocol.population().correct_fraction(scenario.correct);
  detail.final_bias = protocol.population().bias(scenario.correct);
  return detail;
}

TrialFn broadcast_trial_fn(BroadcastScenario scenario) {
  return breathe_trial_fn(scenario);
}

TrialFn majority_trial_fn(MajorityScenario scenario) {
  return breathe_trial_fn(scenario);
}

TrialFn boost_trial_fn(BoostScenario scenario) {
  return breathe_trial_fn(scenario);
}

TrialFn desync_trial_fn(DesyncScenario scenario) {
  reject_surrogate(scenario);
  return [scenario](std::uint64_t seed, std::size_t trial) {
    return to_outcome(run_desync(scenario, seed, trial));
  };
}

}  // namespace flip
