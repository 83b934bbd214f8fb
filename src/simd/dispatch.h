/**
 * @file
 * Runtime-dispatched SIMD kernel layer for the preprocessing hot
 * path.
 *
 * The paper's leaf functions (`ycc_rgb_convert`, `jpeg_idct_islow`,
 * `ImagingResampleHorizontal_8bpc`, ...) are exactly the loops real
 * frameworks ship as per-ISA specializations. This layer reproduces
 * that structure: the host CPU is probed once at startup, one of
 * three tiers (scalar / SSE4.2 / AVX2) is selected, and every hot
 * kernel is reached through a function-pointer table resolved to that
 * tier. `LOTUS_SIMD=scalar|sse4|avx2` overrides the choice (ignored
 * when the host lacks the tier); ScopedTier switches in-process for
 * differential tests.
 *
 * Correctness contract (enforced by tests/test_simd_dispatch.cc):
 * every tier produces *bit-identical* output to the scalar tier for
 * every kernel in the table. Integer kernels are exact by
 * construction; float kernels (cast / unpack / normalize / IDCT store)
 * use the same IEEE operation order in every tier and the SIMD
 * translation units are compiled without FMA so no contraction can
 * change results. The scalar tier itself is the PR-1 fixed-point fast
 * path, which stays within |diff| <= 1 of the retained float reference.
 *
 * Tiers may OVER-READ up to kMaxReadSlack bytes past the logical end
 * of kernel inputs (never write). All pooled buffers (Image / Plane /
 * Tensor storage) carry at least that much readable padding — see
 * memory/buffer_pool.h.
 *
 * Each resolved kernel registers its tier-suffixed symbol name with
 * hwcount (hwcount::setKernelSymbol), so LotusMap attribution and CSV
 * exports show e.g. "ycc_rgb_convert_avx2", exactly as a hardware
 * profiler would report the dispatched specialization.
 */

#ifndef LOTUS_SIMD_DISPATCH_H
#define LOTUS_SIMD_DISPATCH_H

#include <cstddef>
#include <cstdint>

namespace lotus::simd {

/** Instruction-set tiers, ordered weakest to strongest. */
enum class Tier : int
{
    Scalar = 0,
    Sse4 = 1,
    Avx2 = 2,
};

/** "scalar" / "sse4" / "avx2". */
const char *tierName(Tier tier);

/** True when this build and the host CPU can run @p tier. */
bool tierSupported(Tier tier);

/** Parse a LOTUS_SIMD-style name; returns false on unknown names. */
bool tierFromName(const char *name, Tier &tier);

/** The tier the kernel table is currently resolved to. */
Tier activeTier();

/** Bytes a kernel may read (never write) past a buffer's logical
 *  end; pooled buffers guarantee this much padding. */
constexpr std::size_t kMaxReadSlack = 32;

/** Fractional bits of the codec's integer plane samples; must match
 *  image::codec::kSampleFracBits. */
constexpr int kYccFracBits = 4;
/** Largest integer plane sample (255 in 1/16th steps). */
constexpr int kYccSampleMax = 255 << kYccFracBits;
/** Fixed-point bits of the YCC->RGB tables. */
constexpr int kYccFixBits = 16;
/** Half-level YCC table entries (index = round(2 * level)). */
constexpr int kYccTableSize = 511;

/** Fractional bits of resample filter weights; must match
 *  image::detail::kWeightBits. */
constexpr int kResampleWeightBits = 15;

/**
 * The dispatched hot kernels. All pointers are always valid: tier
 * tables start from the scalar implementations and override only the
 * kernels the tier actually specializes (e.g. SSE4.2 keeps the
 * scalar YCC conversion, which needs AVX2 gathers to win).
 */
struct KernelTable
{
    /** One row of integer YCC->RGB (12.4 planes -> interleaved u8). */
    void (*ycc_rgb_row)(const std::int16_t *y, const std::int16_t *cb,
                        const std::int16_t *cr, std::uint8_t *dst,
                        int width);

    /**
     * One output row of the h2v2 fancy chroma upsample: vertical 3:1
     * blend of @p near_row / @p far_row (weight_near in {3, 4}) into
     * @p scratch (quarter-unit samples; caller provides
     * half_width + 16 elements), then the horizontal {3,1}/4 pass
     * into @p dst (out_width samples).
     */
    void (*upsample_h2v2_row)(const std::int16_t *near_row,
                              const std::int16_t *far_row, int weight_near,
                              int half_width, int out_width,
                              std::int16_t *scratch, std::int16_t *dst);

    /** Store one interior 8x8 IDCT block (centered floats) into a
     *  12.4 integer plane at @p dst with row @p stride. */
    void (*idct_store_block)(const float *block, std::int16_t *dst,
                             int stride);

    /**
     * One row of the horizontal resample pass over interleaved RGB.
     * Flattened windows: output pixel x uses count[x] taps of
     * weights[offset[x]..] starting at source pixel first[x].
     */
    void (*resample_h_rgb_row)(const std::uint8_t *src, std::uint8_t *dst,
                               int out_width, const std::int32_t *first,
                               const std::int32_t *offset,
                               const std::int32_t *count,
                               const std::int32_t *weights);

    /** One output row of the vertical resample pass: @p taps source
     *  rows starting at @p src (consecutive via @p src_stride), one
     *  weight per row, over @p row_bytes interleaved bytes. */
    void (*resample_v_row)(const std::uint8_t *src,
                           std::ptrdiff_t src_stride, int taps,
                           const std::int32_t *weights, std::uint8_t *dst,
                           int row_bytes);

    /** dst[i] = float(src[i]) * scale. */
    void (*cast_u8_f32)(const std::uint8_t *src, float *dst,
                        std::int64_t n, float scale);

    /**
     * Deinterleave @p pixels RGB pixels into three f32 planes:
     * r[i] = float(src[3i]) * scale, g[i] = float(src[3i + 1]) * scale,
     * b[i] = float(src[3i + 2]) * scale (exact u8->f32, one multiply).
     * May read up to kMaxReadSlack bytes past the source; writes
     * exactly @p pixels floats to each plane.
     */
    void (*unpack_rgb_f32)(const std::uint8_t *src, float *r, float *g,
                           float *b, std::int64_t pixels, float scale);

    /** data[i] = (data[i] - mean) * inv_std. */
    void (*normalize_f32)(float *data, std::int64_t n, float mean,
                          float inv_std);

    /** memcpy semantics; large copies may stream past the cache. */
    void (*copy_bytes)(const std::uint8_t *src, std::uint8_t *dst,
                       std::size_t n);
};

/**
 * The active kernel table. First call probes the CPU (honouring
 * LOTUS_SIMD) and registers the resolved kernel symbols with
 * hwcount; callers on hot paths should hoist the reference out of
 * their loops.
 */
const KernelTable &kernels();

/** Force a tier (must be supported); used by ScopedTier and the
 *  per-tier bench entries. Re-registers hwcount symbols. */
void setTierForTesting(Tier tier);

/** RAII tier override for differential tests and benches. */
class ScopedTier
{
  public:
    explicit ScopedTier(Tier tier) : previous_(activeTier())
    {
        setTierForTesting(tier);
    }
    ~ScopedTier() { setTierForTesting(previous_); }

    ScopedTier(const ScopedTier &) = delete;
    ScopedTier &operator=(const ScopedTier &) = delete;

  private:
    Tier previous_;
};

} // namespace lotus::simd

#endif // LOTUS_SIMD_DISPATCH_H
