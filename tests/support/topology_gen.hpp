#pragma once
// Random interaction graphs for the property/differential tests: one
// generator, so every suite that draws topologies covers the same families
// with the same parameter ranges.

#include <cstddef>
#include <cstdint>

#include "core/topology.hpp"
#include "support/proptest.hpp"

namespace flip::proptest {

/// A random valid topology spec across every family, sized so it resolves
/// against any n >= 64 (ring/rewired degrees stay <= 16; grid radius <= 2
/// paired with grid_friendly_n below).
inline TopologySpec random_topology(Gen& gen) {
  TopologySpec spec;
  switch (gen.range(0, 4)) {
    case 0:
      break;  // complete: the identity path must stay in the mix
    case 1:
      spec.kind = TopologyKind::kRing;
      spec.k = 2 * static_cast<std::size_t>(gen.range(1, 8));
      break;
    case 2:
      spec.kind = TopologyKind::kGrid;
      spec.radius = static_cast<std::size_t>(gen.range(1, 2));
      break;
    case 3:
      spec.kind = TopologyKind::kSmallWorld;
      spec.k = 2 * static_cast<std::size_t>(gen.range(1, 8));
      spec.rewire_prob = gen.real(0.0, 0.5);
      break;
    default:
      spec.kind = TopologyKind::kDynamic;
      spec.k = 2 * static_cast<std::size_t>(gen.range(1, 8));
      spec.rewire_prob = gen.real(0.05, 0.5);
      break;
  }
  spec.validate();
  return spec;
}

/// A population a radius <= 2 torus resolves against: a torus needs n with
/// two divisors of at least 2*radius + 1 each, which a prime n lacks.
inline std::size_t grid_friendly_n(Gen& gen) {
  return static_cast<std::size_t>(gen.pick(
      {std::uint64_t{64}, std::uint64_t{100}, std::uint64_t{128},
       std::uint64_t{144}, std::uint64_t{196}, std::uint64_t{256}}));
}

}  // namespace flip::proptest
