#pragma once
// Per-lane scalar reference for the block kernels — the exactness anchor
// every vector path defers to. kernels_scalar.cpp (the set the engine runs
// when no vector set is available) loops over these; the AVX2/AVX-512/NEON
// kernels call them for block tails and for the rare Lemire rejection
// lanes (see route_one_ref). Kept in one header so the scalar kernel and
// the vector fallback lanes replay the very same CounterRng sequence as
// the classic Engine's route and channel draws.

#include <cstdint>

#include "simd/simd.hpp"
#include "util/rng.hpp"

namespace flip::simd {

/// One sender's route draws, exactly as ResolvedTopology::recipient and
/// acceptance_word perform them on the complete graph: recipient index via
/// Lemire's unbiased uniform_index (draw 1, with rejection redraws),
/// self-skip shift, then the acceptance priority (next draw) composed over
/// the packed entry.
inline void route_one_ref(const StreamKey& rkey, std::uint32_t entry,
                          std::uint64_t n_minus_1, std::uint32_t* to_out,
                          std::uint64_t* word_out) {
  const std::uint32_t sender = entry & kEntryAgentMask;
  CounterRng rng(rkey, sender);
  auto to = static_cast<std::uint32_t>(uniform_index(rng, n_minus_1));
  to += (to >= sender);
  *to_out = to;
  *word_out = (rng() & kPriorityMask) | entry;
}

/// One recipient's channel flip, exactly as BscFlip / ScheduledFlip decide
/// it (sim/batch_engine.hpp): first word of the (ckey, agent) stream
/// against the integer threshold.
[[nodiscard]] inline std::uint8_t flip_one_ref(const StreamKey& ckey,
                                               std::uint32_t to,
                                               std::uint64_t threshold) {
  CounterRng rng(ckey, to);
  return (rng() >> 11) < threshold ? std::uint8_t{1} : std::uint8_t{0};
}

}  // namespace flip::simd
