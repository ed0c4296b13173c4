// Kernel-set selection: configure-time (which files CMake compiled, via the
// FLIP_SIMD_HAVE_* macros it defines alongside them) x runtime (CPUID —
// a FLIP_SIMD=ON binary on a pre-AVX2 machine dispatches scalar instead of
// faulting). The active set is one atomic pointer; force_isa()/reset_isa()
// exist for the exactness tests and bench_simd's in-process A/B.

#include "simd/simd.hpp"

#include <atomic>

namespace flip::simd {

const char* isa_name(Isa isa) noexcept {
  switch (isa) {
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
    case Isa::kNeon:
      return "neon";
    case Isa::kScalar:
      break;
  }
  return "scalar";
}

#if FLIP_SIMD_ENABLED

namespace {

/// The kernel set for `isa` iff this build compiled it AND this CPU can run
/// it; nullptr otherwise.
const Kernels* runnable(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return &scalar_kernels();
#if defined(FLIP_SIMD_HAVE_AVX2)
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2") ? &avx2_kernels() : nullptr;
#endif
#if defined(FLIP_SIMD_HAVE_AVX512)
    case Isa::kAvx512:
      return (__builtin_cpu_supports("avx512f") &&
              __builtin_cpu_supports("avx512dq"))
                 ? &avx512_kernels()
                 : nullptr;
#endif
#if defined(FLIP_SIMD_HAVE_NEON)
    case Isa::kNeon:
      return &neon_kernels();
#endif
    default:
      return nullptr;
  }
}

const Kernels& best_kernels() noexcept {
  for (const Isa isa : {Isa::kAvx512, Isa::kAvx2, Isa::kNeon}) {
    if (const Kernels* k = runnable(isa)) return *k;
  }
  return scalar_kernels();
}

std::atomic<const Kernels*> g_active{nullptr};

}  // namespace

Isa best_isa() noexcept { return best_kernels().isa; }

const Kernels& active() noexcept {
  const Kernels* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) {
    k = &best_kernels();
    g_active.store(k, std::memory_order_release);
  }
  return *k;
}

Isa active_isa() noexcept { return active().isa; }

bool force_isa(Isa isa) noexcept {
  const Kernels* target = runnable(isa);
  if (target == nullptr) return false;
  g_active.store(target, std::memory_order_release);
  return true;
}

void reset_isa() noexcept {
  g_active.store(&best_kernels(), std::memory_order_release);
}

#else  // !FLIP_SIMD_ENABLED

Isa best_isa() noexcept { return Isa::kScalar; }
const Kernels& active() noexcept { return scalar_kernels(); }
Isa active_isa() noexcept { return Isa::kScalar; }
bool force_isa(Isa isa) noexcept { return isa == Isa::kScalar; }
void reset_isa() noexcept {}

#endif  // FLIP_SIMD_ENABLED

}  // namespace flip::simd
