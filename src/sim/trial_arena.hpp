#pragma once
// Per-thread pooled trial scratch — the "no cold-start per request" core
// of the sweep service. A TrialArena generalizes the engine-level
// Mailbox::reuse / Population::reuse modes one level up: it owns the
// thread's persistent BatchEngine (per-shard sender lists, touched /
// activation scratch, scatter buckets, packed counter arrays — all
// recycled by prepare_breathe) AND the trial-level result object whose
// vectors (metrics probe series, stage stats) are reset keep-capacity
// between executions. After one warm-up trial of a cell shape, every
// further trial through the arena performs zero heap allocations on the
// batch fast path with a static channel (tests/trial_arena_test.cpp holds
// this with a counting global allocator).
//
// Arenas are leased, not referenced: ThreadPool's helping wait can make a
// thread pick up ANOTHER trial while its own arena is mid-run (sharded
// trials nested in parallel sweeps), so the thread keeps a stack of
// arenas and a lease hands out the first idle one. TrialArenaLease is the
// one way to reach a thread's BatchEngine: the breathe scenarios run
// every execution through it, and run_protocol below leases it for the
// generic protocols.

#include "sim/batch_engine.hpp"

namespace flip {

/// Everything one warm Monte-Carlo trial needs, pooled per worker thread.
struct TrialArena {
  BatchEngine engine;
  /// Reused run_breathe output: vectors reset keep-capacity per trial.
  BreatheFastResult result;
};

namespace detail {
/// The calling thread's arena stack (thread_local). acquire pushes a
/// lease — growing the stack only the first time a depth is reached —
/// and release pops it. Strict LIFO: leases are scoped objects.
[[nodiscard]] TrialArena* acquire_arena();
void release_arena() noexcept;
}  // namespace detail

/// RAII lease on the calling thread's persistent TrialArena. Worker
/// threads of the sized/shared ThreadPools live for the whole process, so
/// every sweep cell of every request recycles the same per-worker scratch.
class TrialArenaLease {
 public:
  TrialArenaLease() : arena_(detail::acquire_arena()) {}
  ~TrialArenaLease() { detail::release_arena(); }
  TrialArenaLease(const TrialArenaLease&) = delete;
  TrialArenaLease& operator=(const TrialArenaLease&) = delete;

  [[nodiscard]] TrialArena& operator*() const noexcept { return *arena_; }
  [[nodiscard]] TrialArena* operator->() const noexcept { return arena_; }

 private:
  TrialArena* arena_;
};

/// Runs an Engine-style protocol on the substrate `mode` names: the
/// calling thread's leased BatchEngine with `protocol`/`channel` as
/// concrete types (every per-message call devirtualized), or the classic
/// virtual-dispatch Engine. Both run the same round loop on the per-agent
/// streams of `key`, so the metrics are the same.
template <FlipProtocolT P, typename C>
Metrics run_protocol(EngineMode mode, std::size_t n, P& protocol,
                     C& channel, const StreamKey& key, Round max_rounds) {
  if (mode == EngineMode::kBatch) {
    TrialArenaLease arena;
    return arena->engine.run(n, protocol, channel, key, max_rounds);
  }
  Engine engine(n, channel, key);
  return engine.run(protocol, max_rounds);
}

}  // namespace flip
