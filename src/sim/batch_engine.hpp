#pragma once
// Batched fast-path simulation engine, with optional intra-trial sharding.
//
// The classic Engine (sim/engine.hpp) pays, per accepted message, a virtual
// channel call, a virtual protocol deliver, and — per trial — a fresh
// Mailbox/Population/protocol allocation. BatchEngine removes all of that,
// and on top partitions one trial's agents into S shards that execute each
// round's route and deliver phases in parallel:
//
//  * run(): Engine::run's round loop (run_rounds, sim/engine.hpp) with the
//    protocol and channel as concrete template types (FlipProtocolT / the
//    concrete channel classes are `final`), so every per-message call
//    devirtualizes and inlines, and the Mailbox + send buffer persist
//    across trials in allocation-free reuse mode.
//  * run_breathe(): a hand-packed structure-of-arrays implementation of
//    Engine + BreatheProtocol for the paper's two-stage protocol — the hot
//    workload behind broadcast / majority / boost. Each round runs two
//    shard-parallel phases over the persistent ThreadPool workers:
//      route   — every shard walks its own materialized sender list, draws
//                each sender's recipient + acceptance priority from the
//                sender's counter stream (through the block kernels of
//                src/simd/), and scatters the message into the
//                destination shard's inbox bucket;
//      deliver — every shard min-combines the arrivals for its agent range
//                (smallest (priority, sender) pair wins — a commutative
//                reduction, so any arrival order gives the same winner),
//                then applies the recipient-keyed channel flip and bumps
//                the packed per-agent counters.
//    Phase ends merge shard partials in shard order (integer sums, so the
//    merge is exact) and run the per-agent Stage II subset draws
//    shard-parallel from per-agent streams.
//
// Exactness contract: every random draw comes from the counter-based
// per-agent stream named by (trial key, round, agent, purpose) — see
// util/rng.hpp — never from a shared sequential stream. A draw is a pure
// function of its key, so for the same (seed, trial) the classic Engine,
// this engine with 1 shard, and this engine with any other shard count
// produce bit-identical Metrics, opinions, and phase stats, on any thread
// count. tests/batch_engine_test.cpp enforces classic == batch for every
// registry entry and shard-count invariance for the breathe scenarios;
// treat any divergence as a bug in this file.
//
// One BatchEngine lives per worker thread, inside the thread's TrialArena
// (sim/trial_arena.hpp), and runs every trial that thread executes back to
// back; every buffer is sized once and recycled, so trials after the first
// are allocation-free.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/breathe.hpp"
#include "core/params.hpp"
#include "core/topology.hpp"
#include "net/channel.hpp"
#include "net/message.hpp"
#include "sim/engine.hpp"
#include "sim/mailbox.hpp"
#include "sim/metrics.hpp"
#include "sim/population.hpp"
#include "simd/simd.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace flip {

/// Everything one run_breathe() execution yields. Mirrors what the classic
/// path exposes through Metrics + BreatheProtocol introspection.
struct BreatheFastResult {
  Metrics metrics;
  Round protocol_rounds = 0;  ///< scheduled budget this run executed under
  bool success = false;  ///< every agent ended holding the correct opinion
  std::size_t opinionated = 0;
  double correct_fraction = 0.0;
  double final_bias = 0.0;
  std::vector<StageOnePhaseStats> stage1;
  std::vector<StageTwoPhaseStats> stage2;

  /// Reinitializes for the next execution, keeping every vector's capacity
  /// — the TrialArena pooling contract (sim/trial_arena.hpp): a result
  /// object that cycles through reset()/run_breathe() settles into a
  /// steady state with zero heap allocations per trial.
  void reset() noexcept {
    metrics.clear();
    protocol_rounds = 0;
    success = false;
    opinionated = 0;
    correct_fraction = 0.0;
    final_bias = 0.0;
    stage1.clear();
    stage2.clear();
  }
};

/// Execution knobs for run_breathe(). Agent churn rides in
/// engine.churn: the sharded path advances each shard's agent block from
/// the per-(round, agent) kChurn streams and merges the liveness deltas
/// exactly, so results match the classic Engine bit for bit.
struct BreatheRunOptions {
  EngineOptions engine;
  /// Agent partitions per round phase. Results are bit-identical for every
  /// value (the determinism contract); >1 buys wall-clock on multi-core.
  std::size_t shards = 1;
  /// Workers the shard phases run on; nullptr (or shards <= 1) runs them
  /// inline on the calling thread.
  ThreadPool* pool = nullptr;
};

/// True iff run_breathe() can pack this schedule's counters (Stage II phase
/// lengths must fit the 21-bit packed fields, agent ids 31 bits). Callers
/// fall back to the classic Engine when this is false.
[[nodiscard]] bool breathe_fast_supported(const Params& params);

namespace detail {

/// The integer flip threshold of a BSC with advantage eps: with
/// k = rng() >> 11, u = k * 2^-53 < p iff k < ceil(p * 2^53) (p * 2^53 is
/// an exact power-of-two scaling, so no rounding is involved anywhere).
[[nodiscard]] inline std::uint64_t bsc_flip_threshold(double eps) noexcept {
  return static_cast<std::uint64_t>(std::ceil((0.5 - eps) * 0x1.0p53));
}

/// Per-message flip draw for the packed fast path, producing exactly the
/// decision the channel's transmit() makes from the same stream. BscFlip
/// turns `uniform_unit(rng) < p` into an integer compare (see
/// bsc_flip_threshold). One draw, no int-to-double conversion.
/// Every flip functor exposes begin_round(): a no-op for the static
/// channels, the schedule evaluation for the round-scoped one.
/// Flip functors additionally expose kIntegerThreshold: true when the
/// per-message decision is exactly `(rng() >> 11) < threshold` for a
/// round-constant `threshold` member — the shape the flip block kernel
/// implements. HeterogeneousFlip draws a data-dependent probability per
/// message, so it opts out: deliver() fills its flip lanes with a plain
/// per-recipient loop instead (route draws are channel-independent, so
/// its route phase runs the kernel like every other channel's).
struct BscFlip {
  static constexpr bool kIntegerThreshold = true;
  std::uint64_t threshold;
  explicit BscFlip(const BinarySymmetricChannel& channel)
      : threshold(bsc_flip_threshold(channel.eps())) {}
  void begin_round(const StreamKey&, Round) noexcept {}
  template <typename Rng>
  bool operator()(Rng& rng) const noexcept {
    return (rng() >> 11) < threshold;
  }
};

/// HeterogeneousChannel::transmit, minus the optional: same draws from the
/// same per-recipient stream.
struct HeterogeneousFlip {
  static constexpr bool kIntegerThreshold = false;
  double eps;
  explicit HeterogeneousFlip(const HeterogeneousChannel& channel)
      : eps(channel.eps()) {}
  void begin_round(const StreamKey&, Round) noexcept {}
  template <typename Rng>
  bool operator()(Rng& rng) const noexcept {
    const double flip_prob = uniform_unit(rng) * (0.5 - eps);
    return bernoulli(rng, flip_prob);
  }
};

/// CorrelatedBurstChannel::transmit as an integer-threshold compare: the
/// round's eps comes from the same schedule evaluation (same kEnvironment
/// draw) the channel's begin_round performs, re-pinned here once per round,
/// so the per-message loop stays one draw + one compare like BscFlip.
struct ScheduledFlip {
  static constexpr bool kIntegerThreshold = true;
  const EnvironmentSchedule* schedule;
  std::uint64_t threshold = 0;
  explicit ScheduledFlip(const CorrelatedBurstChannel& channel)
      : schedule(&channel.schedule()) {}
  void begin_round(const StreamKey& trial_key, Round r) noexcept {
    threshold = bsc_flip_threshold(schedule->eps_at(trial_key, r));
  }
  template <typename Rng>
  bool operator()(Rng& rng) const noexcept {
    return (rng() >> 11) < threshold;
  }
};

inline BscFlip make_flip(const BinarySymmetricChannel& channel) {
  return BscFlip(channel);
}
inline HeterogeneousFlip make_flip(const HeterogeneousChannel& channel) {
  return HeterogeneousFlip(channel);
}
inline ScheduledFlip make_flip(const CorrelatedBurstChannel& channel) {
  return ScheduledFlip(channel);
}

// Packed-layout constants. Send-list entries carry the opinion in bit 31
// next to a 31-bit agent id; the per-agent acceptance slot holds one
// acceptance_word (sim/mailbox.hpp): priority | opinion bit | sender.
inline constexpr std::uint32_t kSendBit = 0x8000'0000u;
inline constexpr std::uint32_t kAgentMask = ~kSendBit;
/// Slot sentinel for "no arrival yet": the maximum word, which no real
/// acceptance_word equals (its sender field would be 2^31 - 1 >= n).
inline constexpr std::uint64_t kEmptySlot = ~std::uint64_t{0};

// Per-agent counter layouts. Stage I accumulator: recv count in bits
// 0..62, kept bit in bit 63. Stage II accumulator: recv | ones |
// prefix-ones as three 21-bit fields (phase lengths are bounded by
// breathe_fast_supported).
inline constexpr int kKeptShift = 63;
inline constexpr std::uint64_t kS1RecvMask =
    (std::uint64_t{1} << kKeptShift) - 1;
inline constexpr int kOnesShift = 21;
inline constexpr int kPrefixShift = 42;
inline constexpr std::uint64_t kFieldMask = (std::uint64_t{1} << 21) - 1;

/// One routed message in flight between a source and a destination shard.
struct RoutedMsg {
  std::uint64_t word;  ///< acceptance_word: priority | opinion bit | sender
  std::uint32_t to;    ///< recipient
};

// The per-message loops live in their own deliberately-not-inlined
// functions: inside the (large) templated round loop they would compete
// for registers with all the surrounding phase state, and a spill inside a
// 100M-iteration loop costs more than a call per round.
//
// Each loop is split at the kernel dispatch seam (src/simd/simd.hpp):
// pass A replays the pure-arithmetic RNG draws of a block of messages
// (recipient draw + acceptance priority, or the channel flip) through the
// active block kernel into small stack buffers — the scalar set is just
// another ISA there — and pass B is the memory-irregular remainder
// (neighbor remap, scatter, min-combine, counter packing), consuming one
// precomputed lane per message. Every draw is a pure function of
// (key, agent), never of which other draws happened, so precomputing a
// draw that pass B then discards (an asleep recipient) changes nothing.

/// The min-combine acceptance step: keeps the smallest acceptance_word.
/// Commutative + associative, hence identical for any arrival order and
/// any shard partition. Returns the new touched count (branchless append:
/// store always, bump on first arrival — the sentinel is the max word, so
/// the min-compare alone also decides first-touch wins).
inline std::size_t combine(std::uint32_t to, std::uint64_t word,
                           std::uint64_t* __restrict__ slot,
                           AgentId* __restrict__ tdata, std::size_t tsize) {
  const std::uint64_t cur = slot[to];
  tdata[tsize] = to;
  tsize += cur == kEmptySlot;
  if (word < cur) slot[to] = word;
  return tsize;
}

/// Messages per kernel block: big enough to amortize the dispatch call and
/// keep the vector pipeline fed, small enough that the three stack buffers
/// (~4 KiB) stay cache-resident under the pass-B scatter traffic.
inline constexpr std::size_t kBlock = 256;

/// Filters a block of send-list entries to awake senders: an asleep sender
/// neither sends nor draws. Returns the live count.
inline std::size_t filter_awake(const std::uint32_t* __restrict__ block,
                                std::size_t count,
                                const std::uint8_t* __restrict__ awake,
                                std::uint32_t* __restrict__ live) {
  std::size_t live_count = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t e = block[i];
    live[live_count] = e;
    live_count += awake[e & kAgentMask] != 0;
  }
  return live_count;
}

/// Counts one shard's deliver pass produces: messages whose bit flipped and
/// accepted messages lost to an asleep recipient.
struct DeliverPartial {
  std::uint64_t flipped = 0;
  std::uint64_t asleep_drops = 0;
};

/// Route pass B of the single-shard path: min-combines every message into
/// its recipient's slot in place (no bucket materialization).
struct CombineSink {
  std::uint64_t* slot;
  AgentId* touched;
  std::size_t touched_count = 0;
  std::uint64_t sent = 0;
  void push(std::uint32_t to, std::uint64_t word) {
    touched_count = combine(to, word, slot, touched, touched_count);
  }
};

/// Route pass B of the multi-shard path: scatters every message into its
/// destination shard's bucket (`shard_mul` is the fastdiv reciprocal of
/// the shard block size).
struct ScatterSink {
  std::vector<RoutedMsg>* out;
  std::uint64_t shard_mul;
  std::uint64_t sent = 0;
  void push(std::uint32_t to, std::uint64_t word) const {
    const auto dst = static_cast<std::size_t>(
        (static_cast<unsigned __int128>(to) * shard_mul) >> 64);
    out[dst].push_back(RoutedMsg{word, to});
  }
};

/// Routes one shard's senders into `sink` and returns it, with `sent` the
/// number of messages sent (the sender-list size unless churn put senders
/// to sleep). kChurn filters asleep senders through `awake` (unused when
/// false — the template keeps the static-population loop branch-free).
///
/// The kernel draws over the topology's draw bound (n - 1 on the complete
/// graph, the out-degree on sparse ones) and self-skips: it maps the drawn
/// index j in [0, bound) to j + (j >= sender), a bijection onto
/// [0, bound] \ {sender}. On the complete graph that IS the recipient; on
/// a sparse graph to - (to > sender) recovers j exactly, and the neighbor
/// map turns it into the recipient ResolvedTopology::recipient() draws.
template <bool kChurn, typename Sink>
[[gnu::noinline]] inline Sink route(const simd::Kernels& kernels,
                                    const std::uint32_t* __restrict__ send,
                                    std::size_t nsend, const StreamKey rkey,
                                    const ResolvedTopology& topo,
                                    const StreamKey topo_key,
                                    const std::uint8_t* __restrict__ awake,
                                    Sink sink) {
  std::uint32_t live[kBlock];
  std::uint32_t to_buf[kBlock];
  std::uint64_t word_buf[kBlock];
  for (std::size_t base = 0; base < nsend; base += kBlock) {
    const std::size_t take = std::min(kBlock, nsend - base);
    const std::uint32_t* block = send + base;
    std::size_t count = take;
    if constexpr (kChurn) {
      count = filter_awake(block, take, awake, live);
      block = live;
    }
    kernels.route_block(rkey.hi, rkey.lo, block, count, topo.draw_bound(),
                        to_buf, word_buf);
    if (!topo.complete()) {
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint32_t sender = block[i] & kAgentMask;
        const std::uint32_t to = to_buf[i];
        to_buf[i] = topo.neighbor(topo_key, sender, to - (to > sender));
      }
    }
    for (std::size_t i = 0; i < count; ++i) sink.push(to_buf[i], word_buf[i]);
    sink.sent += count;
  }
  return sink;
}

/// Min-combines one inbound bucket into a destination shard's slots.
/// Returns the updated touched count.
[[gnu::noinline]] inline std::size_t combine_bucket(
    const RoutedMsg* __restrict__ msgs, std::size_t count,
    std::uint64_t* __restrict__ slot, AgentId* __restrict__ tdata,
    std::size_t tsize) {
  for (std::size_t i = 0; i < count; ++i) {
    tsize = combine(msgs[i].to, msgs[i].word, slot, tdata, tsize);
  }
  return tsize;
}

/// Deliver pass B of a Stage I round: the protocol's activation
/// bookkeeping and (under the uniform pick rule) the keyed reservoir
/// decision — the same decision BreatheProtocol::deliver makes from the
/// same (round, agent, kProtocol) stream. Opinionated agents ignore
/// Stage I arrivals.
struct Stage1Update {
  StreamKey pkey;
  bool uniform_pick;
  const std::uint8_t* has_opinion;
  std::vector<AgentId>* activation;
  void operator()(std::uint64_t* __restrict__ acc, AgentId to,
                  bool seen_one) const {
    if (has_opinion[to]) return;
    const std::uint64_t v = acc[to];
    const std::uint64_t recv = (v & kS1RecvMask) + 1;
    if (recv == 1) activation->push_back(to);
    std::uint64_t kept;
    if (uniform_pick) {
      CounterRng prng(pkey, to);
      kept = (recv == 1 || uniform_index(prng, recv) == 0)
                 ? static_cast<std::uint64_t>(seen_one)
                 : (v >> kKeptShift);
    } else {
      kept = recv == 1 ? static_cast<std::uint64_t>(seen_one)
                       : (v >> kKeptShift);
    }
    acc[to] = recv | (kept << kKeptShift);
  }
};

/// Deliver pass B of a Stage II round: bumps the packed recv / ones /
/// prefix-ones counters (`threshold` is the phase's prefix half-length).
struct Stage2Update {
  std::uint64_t threshold;
  void operator()(std::uint64_t* __restrict__ acc, AgentId to,
                  bool seen_one) const {
    std::uint64_t w = acc[to] + 1;  // ++recv
    if (seen_one) {
      w += (std::uint64_t{1} << kOnesShift) +
           ((w & kFieldMask) <= threshold ? (std::uint64_t{1} << kPrefixShift)
                                          : 0);
    }
    acc[to] = w;
  }
};

/// Delivers one round for one shard's touched recipients: clears each
/// meta slot, applies the recipient-keyed channel flip, and hands the
/// observed bit to the stage's `update`. Under kChurn an asleep
/// recipient's accepted message is discarded (its flip lane is never read,
/// no counter bump) and counted as an asleep drop.
///
/// Pass A fills the flip lanes: the flip kernel for the integer-threshold
/// functors, a plain per-recipient loop for HeterogeneousFlip, whose flip
/// probability is data-dependent.
template <bool kChurn, typename FlipFn, typename Update>
[[gnu::noinline]] inline DeliverPartial deliver(
    const simd::Kernels& kernels, const FlipFn flips, const StreamKey ckey,
    const AgentId* __restrict__ tdata, std::size_t tsize,
    const std::uint8_t* __restrict__ awake, std::uint64_t* __restrict__ slot,
    std::uint64_t* __restrict__ acc, const Update update) {
  DeliverPartial partial;
  std::uint8_t flip_buf[kBlock];
  for (std::size_t base = 0; base < tsize; base += kBlock) {
    const std::size_t take = std::min(kBlock, tsize - base);
    if constexpr (FlipFn::kIntegerThreshold) {
      kernels.flip_block(ckey.hi, ckey.lo, tdata + base, take,
                         flips.threshold, flip_buf);
    } else {
      for (std::size_t j = 0; j < take; ++j) {
        CounterRng rng(ckey, tdata[base + j]);
        flip_buf[j] = flips(rng) ? 1 : 0;
      }
    }
    for (std::size_t j = 0; j < take; ++j) {
      const std::size_t i = base + j;
      if (i + 16 < tsize) {
        __builtin_prefetch(&slot[tdata[i + 16]], 1);
        __builtin_prefetch(&acc[tdata[i + 16]], 1);
      }
      const AgentId to = tdata[i];
      const std::uint64_t m = slot[to];
      slot[to] = kEmptySlot;
      if constexpr (kChurn) {
        if (awake[to] == 0) {
          ++partial.asleep_drops;
          continue;
        }
      }
      const bool flip = flip_buf[j] != 0;
      partial.flipped += flip;
      update(acc, to, ((m & kSendBit) != 0) != flip);
    }
  }
  return partial;
}

}  // namespace detail

/// The channels run_breathe() packs a flip functor for: the stateless,
/// recipient-keyed ones (BSC, heterogeneous, burst schedule). The
/// stateful AdversarialChannel is not one — it runs on the reference
/// Engine only.
template <typename Channel>
concept BreatheChannel = requires(const Channel& channel) {
  detail::make_flip(channel);
};

class BatchEngine {
 public:
  BatchEngine() = default;

  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  /// The round layout both substrates run under — one copy of the
  /// skip_stage1/start_phase arithmetic that BreatheProtocol's constructor
  /// also performs, so the two cannot drift from each other. Public so the
  /// scenario layer can size round-anchored environment schedules without
  /// constructing a protocol first.
  struct BreatheSchedule {
    Round stage1_offset = 0;
    Round stage1_rounds = 0;
    Round total_rounds = 0;
    Round budget = 0;  ///< rounds this run executes (stage1_only truncates)
  };
  static BreatheSchedule breathe_schedule(const Params& params,
                                          const BreatheConfig& config,
                                          bool stage1_only);

  /// Engine::run for population n — the same round loop (run_rounds),
  /// hence the same counter-keyed draws and identical Metrics — with
  /// `protocol` and `channel` as concrete types every per-message call
  /// inlines, and the mailbox/send/liveness buffers reused across calls.
  template <FlipProtocolT P, typename C>
  Metrics run(std::size_t n, P& protocol, C& channel, const StreamKey& key,
              Round max_rounds, EngineOptions options = {}) {
    generic_.mailbox.reuse(n);
    return run_rounds(generic_, protocol, channel, key, options, max_rounds);
  }

  /// The sharded SoA fast path for the two-stage breathe protocol: runs
  /// one execution into `result` (reset() keeps every vector's capacity,
  /// so a per-thread TrialArena recycles the stage stats and probe series
  /// across trials instead of reallocating them). Call in a loop for a
  /// block of trials; all buffers recycle. `stage1_only` truncates the
  /// budget to Stage I, like run_broadcast's stage1_only switch.
  /// Precondition: breathe_fast_supported(params). Results are identical
  /// for every options.shards / pool combination.
  template <BreatheChannel Channel>
  void run_breathe(const Params& params, const BreatheConfig& config,
                   Channel& channel, const StreamKey& trial_key,
                   bool stage1_only, const BreatheRunOptions& options,
                   BreatheFastResult& result) {
    const StageOneSchedule& s1 = params.stage1();
    const StageTwoSchedule& s2 = params.stage2();
    trial_key_ = trial_key;
    prepare_breathe(params, config, options);
    const auto [stage1_offset, stage1_rounds, total_rounds, budget] =
        breathe_schedule(params, config, stage1_only);

    result.reset();
    result.protocol_rounds = budget;
    Metrics& metrics = result.metrics;

    const std::size_t n = params.n();
    const ResolvedTopology& topo = topo_;
    const bool uniform_pick =
        config.stage1_pick == Stage1Pick::kUniformMessage;
    auto flips = detail::make_flip(channel);
    // The block kernels every phase draws through (src/simd/simd.hpp):
    // the best vector set this build and machine run, or the scalar set.
    // Results are bit-identical for every set.
    const simd::Kernels& kernels = simd::active();
    const std::size_t shards = shards_;
    const ChurnSpec& churn = options.engine.churn;
    const bool churn_on = churn.enabled();
    const std::uint8_t* const awake = pop_.awake_data();

    std::uint64_t* const __restrict__ acc = acc_.data();
    std::uint64_t* const __restrict__ slot = slot_.data();

    // flip-lint: noalloc — the warm-trial round loop. Everything here must
    // run out of the scratch prepare_breathe() sized: tests/
    // trial_arena_test.cpp proves warm trials allocation-free at shards
    // 1/8, churn on/off with a counting global allocator, and the lint
    // region keeps explicit allocations from creeping in on the paths that
    // test doesn't execute. push_back into capacity-kept vectors is the
    // sanctioned idiom (capacity survives across trials via reset()).
    for (Round r = 0; r < budget; ++r) {
      const bool in_s1 = r < stage1_rounds;
      const StreamKey route_key =
          round_stream_key(trial_key_, RngPurpose::kRoute, r);
      const StreamKey topo_key =
          topo.keyed() ? topo.round_key(trial_key_, r) : StreamKey{};
      const StreamKey channel_key =
          round_stream_key(trial_key_, RngPurpose::kChannel, r);
      const StreamKey protocol_key =
          round_stream_key(trial_key_, RngPurpose::kProtocol, r);
      const std::uint64_t threshold =
          in_s1 ? 0 : s2.half_length(s2.phase_of_round(r - stage1_rounds));

      // --- round-scoped environment events. The flip functor pins this
      // round's noise level (the burst lottery is one kEnvironment draw);
      // the churn phase advances every agent's liveness from its own
      // (round, agent, kChurn) stream, shard-parallel over the agent
      // blocks, and merges the per-shard liveness deltas exactly — the
      // same merge discipline as the Stage II opinion deltas.
      flips.begin_round(trial_key_, r);
      if (churn_on) {
        const StreamKey churn_key =
            round_stream_key(trial_key_, RngPurpose::kChurn, r);
        for_each_shard([&](std::size_t d) {
          ShardScratch& sh = shard_[d];
          sh.delta = {};
          const auto lo = static_cast<AgentId>(d * shard_block_);
          const auto hi = static_cast<AgentId>(
              std::min(n, (d + 1) * shard_block_));
          for (AgentId a = lo; a < hi; ++a) {
            const bool was = pop_.awake(a);
            const bool now = churn_step(churn, churn_key, a, was);
            if (now != was) pop_.set_awake_counted(a, now, sh.delta);
          }
        });
        for (const ShardScratch& sh : shard_) pop_.apply(sh.delta);
      }

      // --- route phase: every shard walks its own sender list. The sender
      // list is kept materialized across a phase (opinions only change at
      // phase boundaries), so the classic collect_sends pass disappears;
      // asleep senders are filtered per round against the liveness bytes.
      // Single shard min-combines in place (no bucket materialization);
      // multiple shards scatter into per-destination buckets.
      for_each_shard([&](std::size_t s) {
        ShardScratch& sh = shard_[s];
        // The bool_constant picks the churn-filtered or branch-free loop.
        const auto route = [&](auto churn_c) {
          constexpr bool kChurn = decltype(churn_c)::value;
          if (shards == 1) {
            const detail::CombineSink done = detail::route<kChurn>(
                kernels, sh.send.data(), sh.send.size(), route_key, topo,
                topo_key, awake,
                detail::CombineSink{slot, sh.touched.data()});
            sh.touched_count = done.touched_count;
            sh.sent = done.sent;
          } else {
            sh.sent = detail::route<kChurn>(
                          kernels, sh.send.data(), sh.send.size(), route_key,
                          topo, topo_key, awake,
                          detail::ScatterSink{sh.out.data(), shard_mul_})
                          .sent;
          }
        };
        if (churn_on) {
          route(std::true_type{});
        } else {
          route(std::false_type{});
        }
      });

      // --- deliver phase: each shard owns a contiguous agent range. It
      // min-combines the arrivals destined for that range (scanning the
      // source buckets; order cannot matter), then flips + counts.
      for_each_shard([&](std::size_t d) {
        ShardScratch& sh = shard_[d];
        if (shards > 1) {
          std::size_t tsize = 0;
          for (ShardScratch& src : shard_) {
            std::vector<detail::RoutedMsg>& bucket = src.out[d];
            tsize = detail::combine_bucket(bucket.data(), bucket.size(),
                                           slot, sh.touched.data(), tsize);
            bucket.clear();
          }
          sh.touched_count = tsize;
        }

        const auto deliver = [&](auto churn_c) -> detail::DeliverPartial {
          constexpr bool kChurn = decltype(churn_c)::value;
          if (in_s1) {
            return detail::deliver<kChurn>(
                kernels, flips, channel_key, sh.touched.data(),
                sh.touched_count, awake, slot, acc,
                detail::Stage1Update{protocol_key, uniform_pick,
                                     pop_.has_opinion_data(),
                                     &sh.activation});
          }
          return detail::deliver<kChurn>(
              kernels, flips, channel_key, sh.touched.data(),
              sh.touched_count, awake, slot, acc,
              detail::Stage2Update{threshold});
        };
        const detail::DeliverPartial partial = churn_on
                                                   ? deliver(std::true_type{})
                                                   : deliver(std::false_type{});
        sh.flipped = partial.flipped;
        sh.asleep_drops = partial.asleep_drops;
      });

      // --- merge the round's shard partials (integer sums: exact in any
      // order; summed in shard order anyway). delivered excludes accepted
      // messages lost to asleep recipients; every sent message is either
      // delivered or dropped (run_breathe channels never erase).
      std::uint64_t sent = 0;
      std::uint64_t accepted = 0;
      std::uint64_t asleep_drops = 0;
      for (ShardScratch& sh : shard_) {
        sent += sh.sent;
        accepted += sh.touched_count;
        asleep_drops += sh.asleep_drops;
        metrics.flipped += sh.flipped;
        sh.touched_count = 0;
        sh.sent = 0;
        sh.asleep_drops = 0;
      }
      metrics.messages_sent += sent;
      metrics.delivered += accepted - asleep_drops;
      metrics.dropped += sent - (accepted - asleep_drops);

      // --- end of round: phase boundaries, probes, termination.
      if (in_s1) {
        const Round sr = r + stage1_offset;
        const std::uint64_t phase = s1.phase_of_round(sr);
        if (sr + 1 == s1.phase_end(phase)) {
          finalize_stage1(phase, config.correct, result.stage1);
        }
      } else {
        const Round sr = r - stage1_rounds;
        const std::uint64_t phase = s2.phase_of_round(sr);
        if (sr + 1 == s2.phase_start(phase) + s2.phase_length(phase)) {
          finalize_stage2(phase, config, s2, result.stage2);
        }
      }
      metrics.rounds = r + 1;

      if (options.engine.probe_every != 0 &&
          r % options.engine.probe_every == 0) {
        metrics.bias_series.push_back({r, pop_.bias(config.correct)});
        metrics.activated_series.push_back(
            {r, static_cast<double>(pop_.opinionated())});
      }

      if (r + 1 >= total_rounds) break;
    }
    // flip-lint: end-noalloc

    finish_breathe(result, config.correct);
  }

 private:
  /// Per-shard scratch: the shard's materialized sender list, its touched /
  /// activation / opinionated lists (agents in the shard's range), its
  /// outgoing per-destination buckets, and its round/phase partials.
  struct ShardScratch {
    std::vector<std::uint32_t> send;  ///< sender id | opinion bit (bit 31)
    /// Recipients touched this round, sized to the shard's block up front
    /// and indexed directly (branchless append in the combine loops).
    std::vector<AgentId> touched;
    std::size_t touched_count = 0;
    std::vector<AgentId> activation;
    std::vector<AgentId> opinionated;
    std::vector<std::vector<detail::RoutedMsg>> out;
    Population::Delta delta;        ///< stage II finalize / churn partial
    std::uint64_t successful = 0;   ///< stage II finalize partial
    std::uint64_t flipped = 0;      ///< per-round partial
    std::uint64_t sent = 0;         ///< per-round partial (route phase)
    std::uint64_t asleep_drops = 0; ///< per-round partial (deliver phase)
  };

  // The Stage I fields of an agent (detail:: layout constants) are zeroed
  // when it activates, and every agent that ever received in Stage I
  // activates at its phase end, so Stage II starts from all-zero counters
  // without a stage-boundary wipe.

  [[nodiscard]] std::size_t shard_of(std::uint32_t agent) const noexcept {
    // Exact division by the invariant block size via one multiply
    // (Lemire's fastdiv: exact for all 32-bit dividends).
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(agent) * shard_mul_) >> 64);
  }

  /// Runs body(s) for every shard — on the pool when one was given and
  /// there is more than one shard, inline otherwise. The parallel_for
  /// return is the phase barrier.
  template <typename Body>
  void for_each_shard(Body&& body) {
    if (pool_ != nullptr && shards_ > 1) {
      pool_->parallel_for(shards_, body);
    } else {
      for (std::size_t s = 0; s < shards_; ++s) body(s);
    }
  }

  /// Validates the config (same rules as BreatheProtocol's constructor),
  /// resets all per-trial state, sizes the shard scratch, and seeds the
  /// initial set.
  void prepare_breathe(const Params& params, const BreatheConfig& config,
                       const BreatheRunOptions& options);

  /// Fills the end-of-run population summary fields of `result`.
  void finish_breathe(BreatheFastResult& result, Opinion correct) const;

  void finalize_stage1(std::uint64_t phase, Opinion correct,
                       std::vector<StageOnePhaseStats>& out);
  void finalize_stage2(std::uint64_t phase, const BreatheConfig& config,
                       const StageTwoSchedule& s2,
                       std::vector<StageTwoPhaseStats>& out);

  RoundScratch generic_;  ///< run()'s mailbox, send buffer and liveness

  // Breathe fast-path scratch (structure-of-arrays, persistent).
  Population pop_{2};
  std::vector<std::uint64_t> acc_;   ///< packed sample counters per agent
  std::vector<std::uint64_t> slot_;  ///< best acceptance_word, or kEmptySlot
  std::vector<ShardScratch> shard_;
  /// The trial's resolved interaction graph (prepare_breathe). Complete by
  /// default — the identity route path.
  ResolvedTopology topo_{};
  StreamKey trial_key_{};
  std::size_t shards_ = 1;
  std::size_t shard_block_ = 0;  ///< agents per shard, ceil(n / shards)
  std::uint64_t shard_mul_ = 0;  ///< ceil(2^64 / shard_block_)
  ThreadPool* pool_ = nullptr;
};

}  // namespace flip
