/**
 * @file
 * Internal glue between the dispatch resolver and the per-tier kernel
 * translation units. Not installed; include only from src/simd.
 */

#ifndef LOTUS_SIMD_KERNELS_INTERNAL_H
#define LOTUS_SIMD_KERNELS_INTERNAL_H

#include <algorithm>
#include <array>
#include <cstdint>

#include "simd/dispatch.h"

namespace lotus::simd::detail {

/** Symbol names matching the KernelTable slot-for-slot; tier fills
 *  override a name exactly when they override the kernel, so hwcount
 *  attribution always reports the implementation that actually ran.
 *  All names are string literals (stable storage). */
struct KernelNames
{
    const char *ycc_rgb_row;
    const char *upsample_h2v2_row;
    const char *idct_store_block;
    const char *resample_h_rgb_row;
    const char *resample_v_row;
    const char *cast_u8_f32;
    const char *unpack_rgb_f32;
    const char *normalize_f32;
    const char *copy_bytes;
};

/** 16.16 YCC->RGB tables at half-level resolution, shared by every
 *  tier (the AVX2 tier gathers from the same arrays the scalar tier
 *  indexes, so outputs are bit-identical by construction). */
struct YccTables
{
    alignas(64) std::array<std::int32_t, kYccTableSize> cr_r;
    alignas(64) std::array<std::int32_t, kYccTableSize> cb_b;
    alignas(64) std::array<std::int32_t, kYccTableSize> cr_g;
    alignas(64) std::array<std::int32_t, kYccTableSize> cb_g;
};

const YccTables &yccTables();

/** PlaneI16 sample (1/16th-level steps) -> half-step table index. */
inline int
halfStepIndex(std::int16_t sample)
{
    return (sample + 4) >> 3;
}

/** 16.16 fixed-point value -> clamped u8 (truncating). */
inline std::uint8_t
clampFixedToU8(std::int32_t fixed)
{
    constexpr std::int32_t kMax = 255 << kYccFixBits;
    return static_cast<std::uint8_t>(std::clamp(fixed, 0, kMax) >>
                                     kYccFixBits);
}

/** Round and clamp a kResampleWeightBits accumulator (rounding
 *  constant already folded in) to u8. */
inline std::uint8_t
clampResampleAcc(std::int32_t acc)
{
    return static_cast<std::uint8_t>(
        std::clamp(acc >> kResampleWeightBits, 0, 255));
}

constexpr std::int32_t kResampleAccRound = 1
                                           << (kResampleWeightBits - 1);

/** Populate every slot of @p table / @p names with the scalar tier. */
void fillScalar(KernelTable &table, KernelNames &names);

#if LOTUS_SIMD_HAVE_SSE4
/** Override the kernels the SSE4.2 tier specializes. */
void fillSse4(KernelTable &table, KernelNames &names);
#endif

#if LOTUS_SIMD_HAVE_AVX2
/** Override the kernels the AVX2 tier specializes. */
void fillAvx2(KernelTable &table, KernelNames &names);
#endif

} // namespace lotus::simd::detail

#endif // LOTUS_SIMD_KERNELS_INTERNAL_H
