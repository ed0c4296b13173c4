// Block-kernel exactness (src/simd/): every runnable kernel set must produce
// bytes identical to an independently-written CounterRng reference — not to
// kernel_ref.hpp, so a bug in the shared per-lane helper cannot vouch for
// itself. One layer up, the engine's blocked route phase (kernel + sparse
// remap + min-combine / bucket scatter) is held to a reference built from
// the same primitives the classic Engine uses. Also pins the dispatch
// machinery: force_isa round-trips, the scalar set is always runnable, and
// the packed-layout constants the simd layer mirrors stay equal to the
// sim-layer originals.

#include "simd/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/topology.hpp"
#include "sim/batch_engine.hpp"
#include "sim/mailbox.hpp"
#include "support/proptest.hpp"
#include "support/topology_gen.hpp"
#include "util/rng.hpp"

namespace flip {
namespace {

/// Restores the best-ISA dispatch no matter how a test exits.
struct IsaGuard {
  ~IsaGuard() { simd::reset_isa(); }
};

/// Every kernel set force_isa() accepts on this build + machine. Always
/// contains the scalar set; contains vector sets only in FLIP_SIMD builds
/// on capable hardware.
std::vector<simd::Isa> runnable_isas() {
  std::vector<simd::Isa> isas;
  for (const simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2,
                              simd::Isa::kAvx512, simd::Isa::kNeon}) {
    if (simd::force_isa(isa)) isas.push_back(isa);
  }
  simd::reset_isa();
  return isas;
}

/// The reference the kernels must match, written directly against the
/// public RNG/mailbox primitives: Lemire recipient draw, self-skip,
/// acceptance_word composition.
void route_reference(const StreamKey& rkey, std::uint32_t entry,
                     std::uint64_t n_minus_1, std::uint32_t* to_out,
                     std::uint64_t* word_out) {
  const std::uint32_t sender = entry & detail::kAgentMask;
  CounterRng rng(rkey, sender);
  auto to = static_cast<std::uint32_t>(uniform_index(rng, n_minus_1));
  to += (to >= sender);
  *to_out = to;
  *word_out = acceptance_word(rng(), entry);
}

std::uint8_t flip_reference(const StreamKey& ckey, std::uint32_t to,
                            std::uint64_t threshold) {
  CounterRng rng(ckey, to);
  return (rng() >> 11) < threshold ? 1 : 0;
}

TEST(SimdKernelsTest, MirroredLayoutConstantsMatchSimLayer) {
  EXPECT_EQ(simd::kEntryAgentMask, detail::kAgentMask);
  EXPECT_EQ(simd::kPriorityMask | detail::kSendBit | detail::kAgentMask,
            ~std::uint64_t{0});
  // The word composition the kernels perform IS acceptance_word.
  const std::uint64_t draw = 0x0123'4567'89ab'cdefULL;
  const std::uint32_t entry = detail::kSendBit | 42u;
  EXPECT_EQ((draw & simd::kPriorityMask) | entry,
            acceptance_word(draw, entry));
}

TEST(SimdKernelsTest, ScalarSetIsAlwaysRunnable) {
  EXPECT_EQ(simd::scalar_kernels().isa, simd::Isa::kScalar);
  EXPECT_TRUE(simd::force_isa(simd::Isa::kScalar));
  EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);
  simd::reset_isa();
  EXPECT_EQ(simd::active_isa(), simd::best_isa());
#if !FLIP_SIMD_ENABLED
  EXPECT_EQ(simd::best_isa(), simd::Isa::kScalar);
#endif
}

TEST(SimdKernelsTest, IsaNamesAreStable) {
  EXPECT_STREQ(simd::isa_name(simd::Isa::kScalar), "scalar");
  EXPECT_STREQ(simd::isa_name(simd::Isa::kAvx2), "avx2");
  EXPECT_STREQ(simd::isa_name(simd::Isa::kAvx512), "avx512");
  EXPECT_STREQ(simd::isa_name(simd::Isa::kNeon), "neon");
}

TEST(SimdKernelsTest, ForceIsaRoundTripsThroughEveryRunnableSet) {
  IsaGuard guard;
  for (const simd::Isa isa : runnable_isas()) {
    ASSERT_TRUE(simd::force_isa(isa));
    EXPECT_EQ(simd::active_isa(), isa);
    EXPECT_EQ(simd::active().isa, isa);
  }
  simd::reset_isa();
  EXPECT_EQ(simd::active_isa(), simd::best_isa());
}

// Every runnable kernel set, against the independent reference, over random
// keys / entry blocks / population sizes — block sizes sweep the vector
// width boundaries (0, 1, lane-1, lane, lane+1, ..., several full blocks)
// so the tail paths are exercised on every iteration. A quarter of the
// senders lie anywhere in the 31-bit id space, mostly above n_minus_1: the
// sparse-graph route passes the out-degree as the bound, far below most
// sender ids, so the self-skip must never fire for them.
TEST(SimdKernelsTest, RouteBlockMatchesCounterRngReference) {
  IsaGuard guard;
  const std::vector<simd::Isa> isas = runnable_isas();
  proptest::check(
      "route_block", 120, 0x51b7, [&](proptest::Gen gen, int) {
        const StreamKey rkey{gen.u64(), gen.u64()};
        const std::uint64_t n_minus_1 =
            gen.chance(0.5) ? gen.range(1, 2048)
                            : gen.range(1, 0xffff'fffeULL);
        const auto count = static_cast<std::size_t>(gen.pick(
            {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{3},
             std::uint64_t{7}, std::uint64_t{8}, std::uint64_t{9},
             std::uint64_t{31}, gen.range(2, 700)}));
        std::vector<std::uint32_t> entries(count);
        for (auto& e : entries) {
          const auto sender =
              gen.chance(0.25)
                  ? static_cast<std::uint32_t>(gen.u64()) & detail::kAgentMask
                  : static_cast<std::uint32_t>(gen.index(n_minus_1 + 1));
          e = (gen.chance(0.5) ? detail::kSendBit : 0u) | sender;
        }
        std::vector<std::uint32_t> to(count), to_ref(count);
        std::vector<std::uint64_t> word(count), word_ref(count);
        for (std::size_t i = 0; i < count; ++i) {
          route_reference(rkey, entries[i], n_minus_1, &to_ref[i],
                          &word_ref[i]);
        }
        for (const simd::Isa isa : isas) {
          ASSERT_TRUE(simd::force_isa(isa));
          simd::active().route_block(rkey.hi, rkey.lo, entries.data(), count,
                                     n_minus_1, to.data(), word.data());
          for (std::size_t i = 0; i < count; ++i) {
            ASSERT_EQ(to[i], to_ref[i])
                << simd::isa_name(isa) << " recipient lane " << i;
            ASSERT_EQ(word[i], word_ref[i])
                << simd::isa_name(isa) << " word lane " << i;
          }
        }
      });
}

TEST(SimdKernelsTest, FlipBlockMatchesCounterRngReference) {
  IsaGuard guard;
  const std::vector<simd::Isa> isas = runnable_isas();
  proptest::check(
      "flip_block", 120, 0xf11b, [&](proptest::Gen gen, int) {
        const StreamKey ckey{gen.u64(), gen.u64()};
        // Thresholds span the whole valid eps range (0 at eps = 0.5 up to
        // 2^52 at eps -> 0) plus the endpoints.
        const std::uint64_t threshold = gen.pick(
            {std::uint64_t{0}, std::uint64_t{1},
             std::uint64_t{1} << 52, gen.index(std::uint64_t{1} << 53)});
        const auto count = static_cast<std::size_t>(gen.range(0, 700));
        std::vector<std::uint32_t> recipients(count);
        for (auto& a : recipients) {
          a = static_cast<std::uint32_t>(gen.u64()) & detail::kAgentMask;
        }
        std::vector<std::uint8_t> flips(count), flips_ref(count);
        for (std::size_t i = 0; i < count; ++i) {
          flips_ref[i] = flip_reference(ckey, recipients[i], threshold);
        }
        for (const simd::Isa isa : isas) {
          ASSERT_TRUE(simd::force_isa(isa));
          simd::active().flip_block(ckey.hi, ckey.lo, recipients.data(),
                                    count, threshold, flips.data());
          for (std::size_t i = 0; i < count; ++i) {
            ASSERT_EQ(flips[i], flips_ref[i])
                << simd::isa_name(isa) << " flip lane " << i;
          }
        }
      });
}

// The engine's blocked route phase (detail::route: awake filter, route
// kernel, sparse neighbor remap, then the single-shard in-place
// min-combine or the multi-shard bucket scatter), on every runnable kernel
// set, against a reference built from the classic Engine's primitives:
// CounterRng + ResolvedTopology::recipient + acceptance_word, then a plain
// min-combine or per-shard append. Send lists run past several kernel
// blocks, and a third of the senders lie at or below the out-degree, where
// the kernel's self-skip shifts the drawn index and the remap must undo it.
TEST(SimdKernelsTest, BlockedRouteMatchesPrimitiveReference) {
  IsaGuard guard;
  const std::vector<simd::Isa> isas = runnable_isas();
  proptest::check(
      "blocked_route", 150, 0xc0b1, [&](proptest::Gen gen, int) {
        const TopologySpec spec = proptest::random_topology(gen);
        const std::size_t n = spec.kind == TopologyKind::kGrid
                                  ? proptest::grid_friendly_n(gen)
                                  : static_cast<std::size_t>(
                                        gen.range(64, 3000));
        const ResolvedTopology topo = ResolvedTopology::resolve(spec, n);
        const StreamKey trial_key{gen.u64(), gen.u64()};
        const Round r = gen.range(0, 50);
        const StreamKey rkey =
            round_stream_key(trial_key, RngPurpose::kRoute, r);
        const StreamKey topo_key = topo.round_key(trial_key, r);
        const bool churn = gen.chance(0.5);
        // At most n / 2 shards, as the engine clamps them: every block
        // holds >= 2 agents, where the fastdiv reciprocal is exact.
        const std::size_t shards = std::min<std::size_t>(
            static_cast<std::size_t>(gen.pick(
                {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
                 std::uint64_t{8}})),
            std::max<std::size_t>(1, n / 2));
        const std::uint64_t low_ids =
            std::min<std::uint64_t>(n, topo.degree() + 1);
        std::vector<std::uint32_t> send(
            static_cast<std::size_t>(gen.range(0, 900)));
        for (auto& e : send) {
          const std::uint64_t sender =
              gen.chance(0.35) ? gen.index(low_ids) : gen.index(n);
          e = (gen.chance(0.5) ? detail::kSendBit : 0u) |
              static_cast<std::uint32_t>(sender);
        }
        std::vector<std::uint8_t> awake(n, 1);
        if (churn) {
          for (auto& a : awake) a = gen.chance(0.8) ? 1 : 0;
        }

        // Reference: per-message draws, then combine or scatter.
        const std::size_t block = (n + shards - 1) / shards;
        std::vector<std::uint64_t> slot_ref(n, detail::kEmptySlot);
        std::vector<AgentId> touched_ref;
        std::vector<std::vector<detail::RoutedMsg>> buckets_ref(shards);
        std::uint64_t sent_ref = 0;
        for (const std::uint32_t e : send) {
          const AgentId sender = e & detail::kAgentMask;
          if (awake[sender] == 0) continue;
          ++sent_ref;
          CounterRng rng(rkey, sender);
          const AgentId to = topo.recipient(rng, topo_key, sender);
          const std::uint64_t word = acceptance_word(rng(), e);
          if (shards == 1) {
            if (slot_ref[to] == detail::kEmptySlot) touched_ref.push_back(to);
            slot_ref[to] = std::min(slot_ref[to], word);
          } else {
            buckets_ref[to / block].push_back(detail::RoutedMsg{word, to});
          }
        }

        const auto route = [&]<typename Sink>(Sink sink) {
          return churn ? detail::route<true>(simd::active(), send.data(),
                                             send.size(), rkey, topo,
                                             topo_key, awake.data(), sink)
                       : detail::route<false>(simd::active(), send.data(),
                                              send.size(), rkey, topo,
                                              topo_key, awake.data(), sink);
        };
        for (const simd::Isa isa : isas) {
          ASSERT_TRUE(simd::force_isa(isa));
          const char* name = simd::isa_name(isa);
          if (shards == 1) {
            std::vector<std::uint64_t> slot(n, detail::kEmptySlot);
            std::vector<AgentId> touched(n + 1);
            const detail::CombineSink done =
                route(detail::CombineSink{slot.data(), touched.data()});
            ASSERT_EQ(done.sent, sent_ref) << name;
            ASSERT_EQ(done.touched_count, touched_ref.size()) << name;
            for (std::size_t i = 0; i < touched_ref.size(); ++i) {
              ASSERT_EQ(touched[i], touched_ref[i])
                  << name << " touched @" << i;
            }
            EXPECT_EQ(slot, slot_ref) << name;
          } else {
            std::vector<std::vector<detail::RoutedMsg>> buckets(shards);
            const std::uint64_t shard_mul = ~std::uint64_t{0} / block + 1;
            const detail::ScatterSink done =
                route(detail::ScatterSink{buckets.data(), shard_mul});
            ASSERT_EQ(done.sent, sent_ref) << name;
            for (std::size_t d = 0; d < shards; ++d) {
              ASSERT_EQ(buckets[d].size(), buckets_ref[d].size())
                  << name << " bucket " << d;
              for (std::size_t i = 0; i < buckets[d].size(); ++i) {
                ASSERT_EQ(buckets[d][i].to, buckets_ref[d][i].to)
                    << name << " bucket " << d << " @" << i;
                ASSERT_EQ(buckets[d][i].word, buckets_ref[d][i].word)
                    << name << " bucket " << d << " @" << i;
              }
            }
          }
        }
      });
}

}  // namespace
}  // namespace flip
