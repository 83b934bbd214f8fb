/**
 * @file
 * Differential tests for the SIMD dispatch layer (src/simd/).
 *
 * The correctness contract is strict: every tier must produce output
 * *bit-identical* to the scalar tier for every kernel in the table
 * (the scalar tier is in turn held within |diff| <= 1 of a float
 * reference, checked here too). The full suite loops over every tier
 * the host supports; unsupported tiers are skipped, so the tests are
 * meaningful on any machine.
 */

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "hwcount/kernel_id.h"
#include "image/codec/codec.h"
#include "image/image.h"
#include "image/resample.h"
#include "image/synth.h"
#include "memory/buffer_pool.h"
#include "simd/dispatch.h"

namespace lotus::simd {
namespace {

std::vector<Tier>
supportedTiers()
{
    std::vector<Tier> tiers;
    for (const Tier tier : {Tier::Scalar, Tier::Sse4, Tier::Avx2}) {
        if (tierSupported(tier))
            tiers.push_back(tier);
    }
    return tiers;
}

/** Run @p fn(dst) under @p tier and return dst's bytes. */
template <typename Fn>
std::vector<std::uint8_t>
runUnderTier(Tier tier, std::size_t out_bytes, Fn &&fn)
{
    ScopedTier scoped(tier);
    memory::PooledArray<std::uint8_t> out(out_bytes, /*zero=*/true);
    fn(out.data());
    return std::vector<std::uint8_t>(out.begin(), out.end());
}

/** Compare every supported tier's output against the scalar tier's,
 *  byte for byte. */
template <typename Fn>
void
expectTiersBitIdentical(std::size_t out_bytes, Fn &&fn, const char *what)
{
    const auto reference = runUnderTier(Tier::Scalar, out_bytes, fn);
    for (const Tier tier : supportedTiers()) {
        if (tier == Tier::Scalar)
            continue;
        const auto output = runUnderTier(tier, out_bytes, fn);
        ASSERT_EQ(output.size(), reference.size());
        for (std::size_t i = 0; i < output.size(); ++i) {
            ASSERT_EQ(output[i], reference[i])
                << what << " diverges from scalar at byte " << i
                << " under tier " << tierName(tier);
        }
    }
}

TEST(SimdDispatchTest, TierIntrospection)
{
    EXPECT_TRUE(tierSupported(Tier::Scalar));
    EXPECT_TRUE(tierSupported(activeTier()));
    EXPECT_STREQ(tierName(Tier::Scalar), "scalar");
    EXPECT_STREQ(tierName(Tier::Sse4), "sse4");
    EXPECT_STREQ(tierName(Tier::Avx2), "avx2");

    Tier parsed = Tier::Scalar;
    EXPECT_TRUE(tierFromName("avx2", parsed));
    EXPECT_EQ(parsed, Tier::Avx2);
    EXPECT_TRUE(tierFromName("sse4", parsed));
    EXPECT_EQ(parsed, Tier::Sse4);
    EXPECT_FALSE(tierFromName("avx512", parsed));
    EXPECT_FALSE(tierFromName("", parsed));
}

TEST(SimdDispatchTest, ScopedTierSwitchesAndRestores)
{
    const Tier before = activeTier();
    {
        ScopedTier scoped(Tier::Scalar);
        EXPECT_EQ(activeTier(), Tier::Scalar);
    }
    EXPECT_EQ(activeTier(), before);
}

TEST(SimdDispatchTest, TierSuffixedSymbolsResolveToBaseKernels)
{
    using hwcount::KernelId;
    EXPECT_EQ(hwcount::kernelByName("ycc_rgb_convert"), KernelId::YccToRgb);
    EXPECT_EQ(hwcount::kernelByName("ycc_rgb_convert_avx2"),
              KernelId::YccToRgb);
    EXPECT_EQ(hwcount::kernelByName("ImagingResampleVertical_8bpc_sse4"),
              KernelId::ResampleVertical);
    EXPECT_EQ(hwcount::kernelByName("jpeg_idct_islow_avx2"),
              KernelId::IdctBlock);
    EXPECT_EQ(hwcount::kernelByName("no_such_kernel_avx2"),
              KernelId::Invalid);
}

TEST(SimdDispatchTest, YccRgbRowMatchesScalarBitExact)
{
    Rng rng(11);
    for (const int width : {1, 7, 8, 16, 37, 500}) {
        memory::PooledArray<std::int16_t> y(static_cast<std::size_t>(width));
        memory::PooledArray<std::int16_t> cb(
            static_cast<std::size_t>(width));
        memory::PooledArray<std::int16_t> cr(
            static_cast<std::size_t>(width));
        for (int i = 0; i < width; ++i) {
            y[static_cast<std::size_t>(i)] = static_cast<std::int16_t>(
                rng.uniformInt(0, kYccSampleMax));
            cb[static_cast<std::size_t>(i)] = static_cast<std::int16_t>(
                rng.uniformInt(0, kYccSampleMax));
            cr[static_cast<std::size_t>(i)] = static_cast<std::int16_t>(
                rng.uniformInt(0, kYccSampleMax));
        }
        expectTiersBitIdentical(
            static_cast<std::size_t>(width) * 3,
            [&](std::uint8_t *dst) {
                kernels().ycc_rgb_row(y.data(), cb.data(), cr.data(), dst,
                                      width);
            },
            "ycc_rgb_row");

        // Scalar itself stays within 1 of the float conversion.
        ScopedTier scoped(Tier::Scalar);
        memory::PooledArray<std::uint8_t> out(
            static_cast<std::size_t>(width) * 3, /*zero=*/true);
        kernels().ycc_rgb_row(y.data(), cb.data(), cr.data(), out.data(),
                              width);
        for (int i = 0; i < width; ++i) {
            const double fy = y[static_cast<std::size_t>(i)] / 16.0;
            const double fcb = cb[static_cast<std::size_t>(i)] / 16.0 - 128;
            const double fcr = cr[static_cast<std::size_t>(i)] / 16.0 - 128;
            const double ref[3] = {
                fy + 1.402 * fcr,
                fy - 0.344136 * fcb - 0.714136 * fcr,
                fy + 1.772 * fcb,
            };
            for (int c = 0; c < 3; ++c) {
                const double clamped =
                    std::min(255.0, std::max(0.0, std::round(ref[c])));
                EXPECT_NEAR(out[static_cast<std::size_t>(i * 3 + c)],
                            clamped, 1.0)
                    << "pixel " << i << " channel " << c;
            }
        }
    }
}

TEST(SimdDispatchTest, UpsampleRowMatchesScalarBitExact)
{
    Rng rng(12);
    for (const int half_width : {1, 2, 9, 16, 33, 250}) {
        for (const int weight_near : {3, 4}) {
            for (const int trim : {0, 1}) {
                const int out_width = 2 * half_width - trim;
                if (out_width <= 0)
                    continue;
                memory::PooledArray<std::int16_t> near_row(
                    static_cast<std::size_t>(half_width));
                memory::PooledArray<std::int16_t> far_row(
                    static_cast<std::size_t>(half_width));
                for (int i = 0; i < half_width; ++i) {
                    near_row[static_cast<std::size_t>(i)] =
                        static_cast<std::int16_t>(
                            rng.uniformInt(0, kYccSampleMax));
                    far_row[static_cast<std::size_t>(i)] =
                        static_cast<std::int16_t>(
                            rng.uniformInt(0, kYccSampleMax));
                }
                expectTiersBitIdentical(
                    static_cast<std::size_t>(out_width) * sizeof(std::int16_t),
                    [&](std::uint8_t *raw) {
                        memory::PooledArray<std::int16_t> scratch(
                            static_cast<std::size_t>(half_width) + 16,
                            /*zero=*/false);
                        kernels().upsample_h2v2_row(
                            near_row.data(), far_row.data(), weight_near,
                            half_width, out_width, scratch.data(),
                            reinterpret_cast<std::int16_t *>(raw));
                    },
                    "upsample_h2v2_row");
            }
        }
    }
}

TEST(SimdDispatchTest, IdctStoreBlockMatchesScalarBitExact)
{
    Rng rng(13);
    for (const int stride : {8, 11, 64}) {
        float block[64];
        for (auto &v : block)
            v = static_cast<float>(rng.uniform(-300.0, 300.0));
        // Include values that clamp on both ends.
        block[0] = -500.0f;
        block[63] = 900.0f;
        expectTiersBitIdentical(
            static_cast<std::size_t>(8 * stride) * sizeof(std::int16_t),
            [&](std::uint8_t *raw) {
                kernels().idct_store_block(
                    block, reinterpret_cast<std::int16_t *>(raw), stride);
            },
            "idct_store_block");
    }
}

TEST(SimdDispatchTest, ResampleHorizontalRowMatchesScalarAndReference)
{
    Rng rng(14);
    const int in_width = 61;
    memory::PooledArray<std::uint8_t> src(
        static_cast<std::size_t>(in_width) * 3, /*zero=*/false);
    for (auto &byte : src)
        byte = static_cast<std::uint8_t>(rng.nextBelow(256));

    for (const int out_width : {1, 3, 8, 24, 57}) {
        // Synthesize flattened windows with varying tap counts whose
        // fixed weights sum exactly to 1 << kResampleWeightBits.
        std::vector<std::int32_t> first, offset, count, weights;
        for (int x = 0; x < out_width; ++x) {
            const int taps =
                static_cast<int>(rng.uniformInt(1, 5));
            const int start = static_cast<int>(
                rng.uniformInt(0, in_width - taps));
            first.push_back(start);
            offset.push_back(static_cast<std::int32_t>(weights.size()));
            count.push_back(taps);
            std::int32_t remaining = 1 << kResampleWeightBits;
            for (int k = 0; k < taps; ++k) {
                const std::int32_t w =
                    k + 1 == taps
                        ? remaining
                        : static_cast<std::int32_t>(
                              rng.uniformInt(0, remaining));
                weights.push_back(w);
                remaining -= w;
            }
        }
        expectTiersBitIdentical(
            static_cast<std::size_t>(out_width) * 3,
            [&](std::uint8_t *dst) {
                kernels().resample_h_rgb_row(src.data(), dst, out_width,
                                             first.data(), offset.data(),
                                             count.data(), weights.data());
            },
            "resample_h_rgb_row");

        // Scalar vs float accumulation of the same weights.
        ScopedTier scoped(Tier::Scalar);
        memory::PooledArray<std::uint8_t> out(
            static_cast<std::size_t>(out_width) * 3, /*zero=*/true);
        kernels().resample_h_rgb_row(src.data(), out.data(), out_width,
                                     first.data(), offset.data(),
                                     count.data(), weights.data());
        for (int x = 0; x < out_width; ++x) {
            for (int c = 0; c < 3; ++c) {
                double acc = 0.0;
                for (int k = 0; k < count[static_cast<std::size_t>(x)];
                     ++k) {
                    const auto w =
                        weights[static_cast<std::size_t>(
                            offset[static_cast<std::size_t>(x)] + k)];
                    const auto s =
                        src[static_cast<std::size_t>(
                            (first[static_cast<std::size_t>(x)] + k) * 3 +
                            c)];
                    acc += static_cast<double>(w) /
                           (1 << kResampleWeightBits) * s;
                }
                const double clamped =
                    std::min(255.0, std::max(0.0, std::round(acc)));
                EXPECT_NEAR(out[static_cast<std::size_t>(x * 3 + c)],
                            clamped, 1.0)
                    << "pixel " << x << " channel " << c;
            }
        }
    }
}

TEST(SimdDispatchTest, ResampleVerticalRowMatchesScalarBitExact)
{
    Rng rng(15);
    for (const int row_bytes : {1, 16, 31, 32, 100, 673}) {
        for (const int taps : {1, 2, 4, 7}) {
            const auto stride =
                static_cast<std::ptrdiff_t>(row_bytes) + 13;
            memory::PooledArray<std::uint8_t> src(
                static_cast<std::size_t>(stride) *
                    static_cast<std::size_t>(taps),
                /*zero=*/false);
            for (auto &byte : src)
                byte = static_cast<std::uint8_t>(rng.nextBelow(256));
            std::vector<std::int32_t> weights;
            std::int32_t remaining = 1 << kResampleWeightBits;
            for (int k = 0; k < taps; ++k) {
                const std::int32_t w =
                    k + 1 == taps ? remaining
                                  : static_cast<std::int32_t>(
                                        rng.uniformInt(0, remaining));
                weights.push_back(w);
                remaining -= w;
            }
            expectTiersBitIdentical(
                static_cast<std::size_t>(row_bytes),
                [&](std::uint8_t *dst) {
                    kernels().resample_v_row(src.data(), stride, taps,
                                             weights.data(), dst,
                                             row_bytes);
                },
                "resample_v_row");
        }
    }
}

TEST(SimdDispatchTest, CastAndNormalizeMatchScalarBitExact)
{
    Rng rng(16);
    for (const std::int64_t n : {1, 7, 8, 15, 64, 1003}) {
        memory::PooledArray<std::uint8_t> src(static_cast<std::size_t>(n),
                                              /*zero=*/false);
        for (auto &byte : src)
            byte = static_cast<std::uint8_t>(rng.nextBelow(256));
        expectTiersBitIdentical(
            static_cast<std::size_t>(n) * sizeof(float),
            [&](std::uint8_t *raw) {
                kernels().cast_u8_f32(src.data(),
                                      reinterpret_cast<float *>(raw), n,
                                      1.0f / 255.0f);
            },
            "cast_u8_f32");

        memory::PooledArray<float> base(static_cast<std::size_t>(n),
                                        /*zero=*/false);
        for (std::int64_t i = 0; i < n; ++i)
            base[static_cast<std::size_t>(i)] =
                static_cast<float>(rng.uniform(-2.0, 2.0));
        expectTiersBitIdentical(
            static_cast<std::size_t>(n) * sizeof(float),
            [&](std::uint8_t *raw) {
                auto *data = reinterpret_cast<float *>(raw);
                std::memcpy(data, base.data(),
                            static_cast<std::size_t>(n) * sizeof(float));
                kernels().normalize_f32(data, n, 0.485f, 1.0f / 0.229f);
            },
            "normalize_f32");
    }
}

TEST(SimdDispatchTest, UnpackRgbMatchesScalarWithExactWrites)
{
    // Each plane sits between guard floats in a buffer of exactly
    // offset + pixels + guard floats, so a vector tail that stores
    // past `pixels` clobbers a guard and fails the test.
    constexpr std::size_t kGuard = 16;
    constexpr float kGuardValue = -7.0f; // outside every output's [0, 1]
    constexpr float kScale = 1.0f / 255.0f;

    std::vector<std::int64_t> counts;
    for (std::int64_t n = 0; n <= 67; ++n)
        counts.push_back(n);
    counts.push_back(224 * 224);

    Rng rng(19);
    for (const std::int64_t pixels : counts) {
        const auto n = static_cast<std::size_t>(pixels);
        for (const std::size_t src_off : {0, 1, 5}) {
            memory::PooledArray<std::uint8_t> src(src_off + 3 * n,
                                                  /*zero=*/false);
            for (auto &byte : src)
                byte = static_cast<std::uint8_t>(rng.nextBelow(256));
            const std::uint8_t *rgb = src.data() + src_off;

            // The scalar tier is the definition: float(u8) * scale.
            std::vector<float> expected(3 * n);
            for (std::size_t i = 0; i < n; ++i)
                for (std::size_t c = 0; c < 3; ++c)
                    expected[c * n + i] =
                        static_cast<float>(rgb[3 * i + c]) * kScale;

            for (const std::size_t dst_off : {0, 1, 3}) {
                for (const Tier tier : supportedTiers()) {
                    ScopedTier scoped(tier);
                    std::vector<float> planes[3];
                    for (auto &plane : planes)
                        plane.assign(dst_off + n + kGuard, kGuardValue);
                    kernels().unpack_rgb_f32(
                        rgb, planes[0].data() + dst_off,
                        planes[1].data() + dst_off,
                        planes[2].data() + dst_off, pixels, kScale);
                    for (std::size_t c = 0; c < 3; ++c) {
                        const auto &plane = planes[c];
                        for (std::size_t i = 0; i < dst_off; ++i)
                            ASSERT_EQ(plane[i], kGuardValue)
                                << "head guard " << i << " plane " << c;
                        ASSERT_TRUE(n == 0 ||
                                    std::memcmp(plane.data() + dst_off,
                                                expected.data() + c * n,
                                                n * sizeof(float)) == 0)
                            << "unpack_rgb_f32 diverges from scalar under "
                            << tierName(tier) << ": pixels " << pixels
                            << " plane " << c << " src_off " << src_off
                            << " dst_off " << dst_off;
                        for (std::size_t i = dst_off + n; i < plane.size();
                             ++i)
                            ASSERT_EQ(plane[i], kGuardValue)
                                << "tail over-write under " << tierName(tier)
                                << ": pixels " << pixels << " plane " << c
                                << " float " << i - dst_off - n;
                    }
                }
            }
        }
    }
}

TEST(SimdDispatchTest, CopyBytesMatchesScalarIncludingStreaming)
{
    Rng rng(17);
    // 3 MiB exercises the AVX2 non-temporal streaming path; the odd
    // small sizes exercise heads and tails.
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, std::size_t{31}, std::size_t{33},
          std::size_t{4096}, std::size_t{3} << 20}) {
        memory::PooledArray<std::uint8_t> src(n + 7, /*zero=*/false);
        for (auto &byte : src)
            byte = static_cast<std::uint8_t>(rng.nextBelow(256));
        expectTiersBitIdentical(
            n + 7,
            [&](std::uint8_t *dst) {
                // Deliberately unaligned source and destination.
                kernels().copy_bytes(src.data() + 7, dst + 7,
                                     n > 0 ? n - 1 : 0);
            },
            "copy_bytes");
    }
}

TEST(SimdDispatchTest, DecodeAndResizeBitIdenticalAcrossTiers)
{
    // End-to-end: the full JPEG decode and both resample passes go
    // through the dispatch table; every tier must reproduce the
    // scalar pipeline bit for bit.
    Rng rng(18);
    const image::Image source = image::synthesize(rng, 163, 117);
    const std::string blob = image::codec::encode(source);

    std::vector<std::uint8_t> reference;
    for (const Tier tier : supportedTiers()) {
        ScopedTier scoped(tier);
        const image::Image decoded = image::codec::decode(blob);
        const image::Image resized = image::resize(decoded, 96, 64);
        std::vector<std::uint8_t> bytes(decoded.raw(),
                                        decoded.raw() + decoded.byteSize());
        bytes.insert(bytes.end(), resized.raw(),
                     resized.raw() + resized.byteSize());
        if (tier == Tier::Scalar) {
            reference = std::move(bytes);
            continue;
        }
        ASSERT_FALSE(reference.empty());
        ASSERT_EQ(bytes.size(), reference.size());
        EXPECT_EQ(bytes, reference)
            << "tier " << tierName(tier)
            << " diverges from scalar on decode+resize";
    }
}

} // namespace
} // namespace lotus::simd
