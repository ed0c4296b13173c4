// The TrialArena pooling contract (sim/trial_arena.hpp): once a worker
// thread's arena is warm, running another trial through the pooled
// BatchEngine path performs ZERO heap allocations — proven here with a
// counting global operator new, not argued from reading the code — both
// for the engine's pooled run_breathe overload and for the scenario
// TrialFns the Monte-Carlo harness actually calls. The lease-stack
// semantics (same arena back on re-acquire, distinct arenas under
// nesting) are pinned too, because the helping-wait reentrancy in the
// thread pool depends on them.
//
// This TU replaces the global operator new/delete for the whole test
// binary with a counting passthrough. That is safe binary-wide (every
// other test just pays one relaxed atomic increment per allocation), and
// ctest runs each test in its own process, so the counter observed here is
// driven only by this file's tests.

#include "sim/trial_arena.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/breathe.hpp"
#include "core/environment.hpp"
#include "core/params.hpp"
#include "net/channel.hpp"
#include "sim/batch_engine.hpp"
#include "util/rng.hpp"
#include "workload/scenarios.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align),
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace flip {
namespace {

/// One warm engine-level trial: lease the thread's arena, build the
/// per-trial channel, fill the pooled result in place. Drives run_breathe
/// directly so the sharded cases can run their phases inline (the
/// scenario TrialFns put shards > 1 on the shared pool).
void run_pooled_trial(const Params& params, const BreatheConfig& config,
                      const BreatheRunOptions& options, std::uint64_t seed,
                      std::size_t trial) {
  TrialArenaLease arena;
  BinarySymmetricChannel channel(0.3);
  arena->engine.run_breathe(params, config, channel,
                            trial_stream_key(seed, trial),
                            /*stage1_only=*/false, options, arena->result);
}

void expect_zero_alloc_warm_trials(std::size_t shards, bool churn) {
  const Params params = Params::calibrated(256, 0.3);
  ASSERT_TRUE(breathe_fast_supported(params));
  const BreatheConfig config = broadcast_config();
  BreatheRunOptions options;
  options.shards = shards;  // pool == nullptr: shard phases run inline
  options.engine.probe_every = 16;  // the probe series must pool too
  if (churn) {
    options.engine.churn.sleep_prob = 0.01;
    options.engine.churn.wake_prob = 0.2;
  }

  // Warm-up: the first trial on a cold arena may grow every pooled vector.
  run_pooled_trial(params, config, options, 0x5eed, 0);

  const std::uint64_t before = allocation_count();
  for (std::size_t trial = 1; trial <= 4; ++trial) {
    run_pooled_trial(params, config, options, 0x5eed, trial);
  }
  EXPECT_EQ(allocation_count(), before)
      << "warm pooled trials must not touch the heap (shards=" << shards
      << ", churn=" << churn << ")";
}

TEST(TrialArenaTest, WarmTrialMakesNoHeapAllocationsUnsharded) {
  expect_zero_alloc_warm_trials(/*shards=*/1, /*churn=*/false);
}

TEST(TrialArenaTest, WarmTrialMakesNoHeapAllocationsSharded) {
  expect_zero_alloc_warm_trials(/*shards=*/8, /*churn=*/false);
}

TEST(TrialArenaTest, WarmTrialMakesNoHeapAllocationsUnderChurn) {
  expect_zero_alloc_warm_trials(/*shards=*/1, /*churn=*/true);
  expect_zero_alloc_warm_trials(/*shards=*/8, /*churn=*/true);
}

/// Heap allocations made by four trials of `fn` after one warm-up trial.
std::uint64_t warm_trial_allocations(const TrialFn& fn) {
  (void)fn(0x5eed, 0);
  const std::uint64_t before = allocation_count();
  for (std::size_t trial = 1; trial <= 4; ++trial) (void)fn(0x5eed, trial);
  return allocation_count() - before;
}

// The production Monte-Carlo path: the scenario adapters' per-trial
// closure (arena lease, channel, run_breathe, reduction to TrialOutcome)
// on the batch engine, unsharded, with probes recorded.
TEST(TrialArenaTest, WarmScenarioTrialFnsMakeNoHeapAllocations) {
  for (const bool churn : {false, true}) {
    ChurnSpec churn_spec;
    if (churn) {
      churn_spec.sleep_prob = 0.01;
      churn_spec.wake_prob = 0.2;
    }
    BroadcastScenario broadcast;
    broadcast.n = 256;
    broadcast.eps = 0.3;
    broadcast.probe_every = 16;
    broadcast.churn = churn_spec;
    EXPECT_EQ(warm_trial_allocations(broadcast_trial_fn(broadcast)), 0u)
        << "broadcast_trial_fn, churn=" << churn;

    MajorityScenario majority;
    majority.n = 256;
    majority.eps = 0.3;
    majority.initial_set = 32;
    majority.probe_every = 16;
    majority.churn = churn_spec;
    EXPECT_EQ(warm_trial_allocations(majority_trial_fn(majority)), 0u)
        << "majority_trial_fn, churn=" << churn;
  }
}

TEST(TrialArenaTest, LeaseReturnsTheSameArenaAfterRelease) {
  TrialArena* first = nullptr;
  {
    TrialArenaLease lease;
    first = &*lease;
  }
  TrialArenaLease again;
  EXPECT_EQ(&*again, first)
      << "re-acquiring at the same depth must reuse the warm arena";
}

TEST(TrialArenaTest, NestedLeasesGetDistinctArenas) {
  TrialArenaLease outer;
  TrialArenaLease inner;
  EXPECT_NE(&*outer, &*inner)
      << "helping-wait reentrancy: a nested lease may not alias the arena "
         "of the trial it interrupted";
}

TEST(TrialArenaTest, PooledResultKeepsVectorStorageAcrossTrials) {
  const Params params = Params::calibrated(256, 0.3);
  const BreatheConfig config = broadcast_config();
  BreatheRunOptions options;
  options.engine.probe_every = 16;

  TrialArenaLease arena;
  BinarySymmetricChannel channel(0.3);
  arena->engine.run_breathe(params, config, channel, trial_stream_key(7, 0),
                            false, options, arena->result);
  ASSERT_FALSE(arena->result.stage1.empty());
  const auto* stage1_data = arena->result.stage1.data();
  const auto* bias_data = arena->result.metrics.bias_series.data();

  arena->engine.run_breathe(params, config, channel, trial_stream_key(7, 1),
                            false, options, arena->result);
  EXPECT_EQ(arena->result.stage1.data(), stage1_data)
      << "reset() must keep capacity, not reallocate";
  EXPECT_EQ(arena->result.metrics.bias_series.data(), bias_data);
}

}  // namespace
}  // namespace flip
