#include "simd/dispatch.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "common/logging.h"
#include "hwcount/kernel_id.h"
#include "simd/kernels_internal.h"

namespace lotus::simd {

namespace {

constexpr int kNumTiers = 3;

struct Resolved
{
    Tier tier = Tier::Scalar;
    KernelTable table{};
    detail::KernelNames names{};
};

/** Per-tier tables, built lazily under g_mutex; entries are immutable
 *  once built so the active pointer can be swapped lock-free. */
Resolved g_tiers[kNumTiers];
bool g_tier_built[kNumTiers] = {false, false, false};
std::mutex g_mutex;

std::atomic<const Resolved *> g_active{nullptr};

const Resolved &
buildTierLocked(Tier tier)
{
    const auto idx = static_cast<std::size_t>(tier);
    if (!g_tier_built[idx]) {
        Resolved &r = g_tiers[idx];
        r.tier = tier;
        detail::fillScalar(r.table, r.names);
#if LOTUS_SIMD_HAVE_SSE4
        if (tier >= Tier::Sse4)
            detail::fillSse4(r.table, r.names);
#endif
#if LOTUS_SIMD_HAVE_AVX2
        if (tier >= Tier::Avx2)
            detail::fillAvx2(r.table, r.names);
#endif
        g_tier_built[idx] = true;
    }
    return g_tiers[idx];
}

/** Tell hwcount which specialization each KernelId now resolves to,
 *  so LotusMap / CSV exports report the symbol that actually runs. */
void
registerSymbols(const detail::KernelNames &names)
{
    using hwcount::KernelId;
    using hwcount::setKernelSymbol;
    setKernelSymbol(KernelId::YccToRgb, names.ycc_rgb_row);
    setKernelSymbol(KernelId::ChromaUpsample, names.upsample_h2v2_row);
    setKernelSymbol(KernelId::IdctBlock, names.idct_store_block);
    setKernelSymbol(KernelId::ResampleHorizontal, names.resample_h_rgb_row);
    setKernelSymbol(KernelId::ResampleVertical, names.resample_v_row);
    setKernelSymbol(KernelId::CastU8ToF32, names.cast_u8_f32);
    setKernelSymbol(KernelId::UnpackRgb, names.unpack_rgb_f32);
    setKernelSymbol(KernelId::NormalizeChannels, names.normalize_f32);
    setKernelSymbol(KernelId::CollateCopy, names.copy_bytes);
}

void
activate(Tier tier)
{
    std::lock_guard lock(g_mutex);
    const Resolved &resolved = buildTierLocked(tier);
    registerSymbols(resolved.names);
    g_active.store(&resolved, std::memory_order_release);
}

Tier
bestSupported()
{
    if (tierSupported(Tier::Avx2))
        return Tier::Avx2;
    if (tierSupported(Tier::Sse4))
        return Tier::Sse4;
    return Tier::Scalar;
}

const Resolved &
resolveOnce()
{
    static std::once_flag once;
    std::call_once(once, [] {
        Tier chosen = bestSupported();
        if (const char *env = std::getenv("LOTUS_SIMD");
            env != nullptr && *env != '\0') {
            Tier requested;
            if (!tierFromName(env, requested)) {
                LOTUS_WARN("LOTUS_SIMD=%s not recognised; using %s", env,
                           tierName(chosen));
            } else if (!tierSupported(requested)) {
                LOTUS_WARN("LOTUS_SIMD=%s unsupported on this host; "
                           "using %s",
                           env, tierName(chosen));
            } else {
                chosen = requested;
            }
        }
        activate(chosen);
    });
    return *g_active.load(std::memory_order_acquire);
}

} // namespace

const char *
tierName(Tier tier)
{
    switch (tier) {
      case Tier::Scalar: return "scalar";
      case Tier::Sse4: return "sse4";
      case Tier::Avx2: return "avx2";
    }
    return "unknown";
}

bool
tierSupported(Tier tier)
{
    switch (tier) {
      case Tier::Scalar:
        return true;
      case Tier::Sse4:
#if LOTUS_SIMD_HAVE_SSE4
        return __builtin_cpu_supports("sse4.2") != 0;
#else
        return false;
#endif
      case Tier::Avx2:
#if LOTUS_SIMD_HAVE_AVX2
        return __builtin_cpu_supports("avx2") != 0;
#else
        return false;
#endif
    }
    return false;
}

bool
tierFromName(const char *name, Tier &tier)
{
    if (name == nullptr)
        return false;
    if (std::strcmp(name, "scalar") == 0) {
        tier = Tier::Scalar;
        return true;
    }
    if (std::strcmp(name, "sse4") == 0) {
        tier = Tier::Sse4;
        return true;
    }
    if (std::strcmp(name, "avx2") == 0) {
        tier = Tier::Avx2;
        return true;
    }
    return false;
}

Tier
activeTier()
{
    return resolveOnce().tier;
}

const KernelTable &
kernels()
{
    return resolveOnce().table;
}

void
setTierForTesting(Tier tier)
{
    LOTUS_ASSERT(tierSupported(tier), "tier %s not supported here",
                 tierName(tier));
    resolveOnce(); // ensure the env/CPU default resolves first
    activate(tier);
}

} // namespace lotus::simd
