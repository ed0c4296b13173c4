#include "workload/scenarios.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace flip {
namespace {

/// The std::invalid_argument message `call` throws ("" when it throws
/// nothing).
template <typename Call>
std::string rejection(Call call) {
  try {
    call();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

/// Bad input must be rejected alike everywhere: by the RunDetail runner
/// and by the TrialFn adapter (building it, or else running a trial), on
/// the batch, classic and surrogate engines, with `expected` every time.
template <typename Scenario, typename Run, typename MakeFn>
void expect_rejected_on_every_path(Scenario scenario, Run run,
                                   MakeFn make_fn,
                                   const std::string& expected) {
  for (const EngineMode engine :
       {EngineMode::kBatch, EngineMode::kClassic, EngineMode::kSurrogate}) {
    scenario.engine = engine;
    EXPECT_EQ(rejection([&] { (void)run(scenario, 1, 0); }), expected)
        << "run_*, engine " << engine_mode_name(engine);
    EXPECT_EQ(rejection([&] { (void)make_fn(scenario)(1, 0); }), expected)
        << "*_trial_fn, engine " << engine_mode_name(engine);
  }
}

TEST(ScenariosTest, BroadcastRunIsDeterministic) {
  BroadcastScenario scenario;
  scenario.n = 256;
  scenario.eps = 0.3;
  const RunDetail a = run_broadcast(scenario, 1234, 0);
  const RunDetail b = run_broadcast(scenario, 1234, 0);
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.metrics.messages_sent, b.metrics.messages_sent);
  EXPECT_EQ(a.metrics.flipped, b.metrics.flipped);
  EXPECT_DOUBLE_EQ(a.correct_fraction, b.correct_fraction);
}

TEST(ScenariosTest, DifferentTrialsDiffer) {
  BroadcastScenario scenario;
  scenario.n = 256;
  scenario.eps = 0.3;
  const RunDetail a = run_broadcast(scenario, 1234, 0);
  const RunDetail b = run_broadcast(scenario, 1234, 1);
  EXPECT_NE(a.metrics.flipped, b.metrics.flipped);
}

TEST(ScenariosTest, BroadcastRoundsMatchSchedule) {
  BroadcastScenario scenario;
  scenario.n = 512;
  scenario.eps = 0.3;
  const RunDetail detail = run_broadcast(scenario, 7, 0);
  const Params p = Params::calibrated(scenario.n, scenario.eps);
  EXPECT_EQ(detail.metrics.rounds, p.total_rounds());
  EXPECT_EQ(detail.protocol_rounds, p.total_rounds());
}

TEST(ScenariosTest, ProbeSeriesWhenRequested) {
  BroadcastScenario scenario;
  scenario.n = 256;
  scenario.eps = 0.3;
  scenario.probe_every = 50;
  const RunDetail detail = run_broadcast(scenario, 8, 0);
  EXPECT_FALSE(detail.metrics.bias_series.empty());
  EXPECT_FALSE(detail.metrics.activated_series.empty());
}

TEST(ScenariosTest, MajorityValidatesBias) {
  for (const double bias : {0.0, -0.1, 0.6}) {
    MajorityScenario scenario;
    scenario.majority_bias = bias;
    expect_rejected_on_every_path(
        scenario, run_majority, majority_trial_fn,
        "run_majority: majority_bias not in (0, 0.5]");
  }
}

TEST(ScenariosTest, BoostValidatesBias) {
  for (const double bias : {0.0, -0.1, 0.6}) {
    BoostScenario scenario;
    scenario.initial_bias = bias;
    expect_rejected_on_every_path(scenario, run_boost, boost_trial_fn,
                                  "run_boost: initial_bias not in (0, 0.5]");
  }
}

TEST(ScenariosTest, BroadcastValidatesChannelExclusivity) {
  EnvironmentSchedule ramp;
  ramp.segments.push_back(EpsSegment{0, 0, 0.35, 0.1});

  BroadcastScenario heterogeneous;
  heterogeneous.heterogeneous_noise = true;
  heterogeneous.schedule = ramp;
  expect_rejected_on_every_path(
      heterogeneous, run_broadcast, broadcast_trial_fn,
      "breathe scenario: heterogeneous noise and an eps schedule are "
      "mutually exclusive");

  BroadcastScenario adversarial;
  adversarial.adversarial_budget = 64;
  adversarial.schedule = ramp;
  expect_rejected_on_every_path(
      adversarial, run_broadcast, broadcast_trial_fn,
      "breathe scenario: the adversarial channel excludes heterogeneous "
      "noise and eps schedules");
}

TEST(ScenariosTest, MajorityScenarioSucceedsAboveThresholds) {
  MajorityScenario scenario;
  scenario.n = 1024;
  scenario.eps = 0.3;
  scenario.initial_set = 256;
  scenario.majority_bias = 0.4;
  const RunDetail detail = run_majority(scenario, 9, 0);
  EXPECT_TRUE(detail.success);
}

TEST(ScenariosTest, DesyncZeroSkewBehavesLikeBroadcast) {
  DesyncScenario scenario;
  scenario.n = 512;
  scenario.eps = 0.3;
  scenario.max_skew = 0;
  const RunDetail detail = run_desync(scenario, 10, 0);
  EXPECT_TRUE(detail.success);
  EXPECT_EQ(detail.desync_overhead, 0u);
  const Params p = Params::calibrated(scenario.n, scenario.eps);
  EXPECT_EQ(detail.metrics.rounds, p.total_rounds());
}

TEST(ScenariosTest, DesyncWithSkewAddsOverheadOnly) {
  DesyncScenario scenario;
  scenario.n = 512;
  scenario.eps = 0.3;
  scenario.max_skew = 10;
  const RunDetail detail = run_desync(scenario, 11, 0);
  EXPECT_TRUE(detail.success);
  EXPECT_GT(detail.desync_overhead, 0u);
  const Params p = Params::calibrated(scenario.n, scenario.eps);
  EXPECT_EQ(detail.metrics.rounds,
            p.total_rounds() + detail.desync_overhead);
}

TEST(ScenariosTest, DesyncClockSyncPipeline) {
  DesyncScenario scenario;
  scenario.n = 512;
  scenario.eps = 0.3;
  scenario.use_clock_sync = true;
  const RunDetail detail = run_desync(scenario, 12, 0);
  EXPECT_TRUE(detail.success);
  EXPECT_GT(detail.clock_sync_rounds, 0u);
  EXPECT_GT(detail.clock_sync_messages, 0u);
  EXPECT_GT(detail.measured_skew, 0u);
}

TEST(ScenariosTest, TrialFnAdapterMatchesDirectRun) {
  BroadcastScenario scenario;
  scenario.n = 256;
  scenario.eps = 0.3;
  const TrialFn fn = broadcast_trial_fn(scenario);
  const TrialOutcome via_fn = fn(99, 3);
  const TrialOutcome direct = to_outcome(run_broadcast(scenario, 99, 3));
  EXPECT_EQ(via_fn.success, direct.success);
  EXPECT_DOUBLE_EQ(via_fn.messages, direct.messages);
}

TEST(ScenariosTest, TrialHarnessIntegration) {
  BroadcastScenario scenario;
  scenario.n = 256;
  scenario.eps = 0.3;
  TrialOptions options;
  options.trials = 8;
  const TrialSummary summary =
      run_trials(broadcast_trial_fn(scenario), options);
  EXPECT_EQ(summary.trials, 8u);
  EXPECT_GE(summary.successes, 6u);  // near-certain at these parameters
  EXPECT_GT(summary.messages.mean(), 0.0);
}

}  // namespace
}  // namespace flip
