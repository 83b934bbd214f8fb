/**
 * Scalar tier: the PR-1 fixed-point loops, lifted verbatim from
 * image/codec/color.cc, image/codec/codec.cc, image/resample.cc and
 * tensor/ops.cc so every stronger tier has a bit-exact baseline to
 * test against on any host.
 */

#include <cmath>
#include <cstring>

#include "simd/kernels_internal.h"

namespace lotus::simd::detail {

const YccTables &
yccTables()
{
    static const YccTables tables = [] {
        YccTables t{};
        for (int i = 0; i < kYccTableSize; ++i) {
            const double v = 0.5 * i - 128.0;
            const double scale = static_cast<double>(1 << kYccFixBits);
            t.cr_r[static_cast<std::size_t>(i)] =
                static_cast<std::int32_t>(std::lround(1.402 * v * scale));
            t.cb_b[static_cast<std::size_t>(i)] =
                static_cast<std::int32_t>(std::lround(1.772 * v * scale));
            t.cr_g[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(
                std::lround(-0.714136 * v * scale));
            t.cb_g[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(
                std::lround(-0.344136 * v * scale));
        }
        return t;
    }();
    return tables;
}

namespace {

void
yccRgbRowScalar(const std::int16_t *yp, const std::int16_t *cbp,
                const std::int16_t *crp, std::uint8_t *dst, int width)
{
    const YccTables &t = yccTables();
    for (int x = 0; x < width; ++x) {
        // Luma feeds the 16.16 accumulator exactly: a 1/16th-step
        // sample times 2^12 is the sample value in 16.16.
        const std::int32_t ybase = static_cast<std::int32_t>(yp[x])
                                   << (kYccFixBits - kYccFracBits);
        const auto icb = static_cast<std::size_t>(halfStepIndex(cbp[x]));
        const auto icr = static_cast<std::size_t>(halfStepIndex(crp[x]));
        dst[x * 3 + 0] = clampFixedToU8(ybase + t.cr_r[icr]);
        dst[x * 3 + 1] = clampFixedToU8(ybase + t.cb_g[icb] + t.cr_g[icr]);
        dst[x * 3 + 2] = clampFixedToU8(ybase + t.cb_b[icb]);
    }
}

void
upsampleH2v2RowScalar(const std::int16_t *near_row,
                      const std::int16_t *far_row, int weight_near,
                      int half_width, int out_width, std::int16_t *scratch,
                      std::int16_t *dst)
{
    // Quarter-unit vertical blend; max 4 * kYccSampleMax = 65280 so
    // the sums live in u16 exactly (SIMD tiers rely on this too).
    const int wf = 4 - weight_near;
    auto *v = reinterpret_cast<std::uint16_t *>(scratch);
    for (int j = 0; j < half_width; ++j)
        v[j] = static_cast<std::uint16_t>(weight_near * near_row[j] +
                                          wf * far_row[j]);
    dst[0] = static_cast<std::int16_t>(
        (v[0] + 2) >> 2); // full horizontal weight on column 0
    for (int j = 0; j + 1 < half_width; ++j) {
        const std::int32_t s0 = v[j];
        const std::int32_t s1 = v[j + 1];
        dst[2 * j + 1] = static_cast<std::int16_t>((3 * s0 + s1 + 8) >> 4);
        dst[2 * j + 2] = static_cast<std::int16_t>((s0 + 3 * s1 + 8) >> 4);
    }
    if (out_width == 2 * half_width)
        dst[out_width - 1] =
            static_cast<std::int16_t>((v[half_width - 1] + 2) >> 2);
}

void
idctStoreBlockScalar(const float *block, std::int16_t *dst, int stride)
{
    for (int y = 0; y < 8; ++y) {
        const float *src = block + y * 8;
        std::int16_t *row = dst + y * stride;
        for (int x = 0; x < 8; ++x) {
            // Clamp in the float domain: corrupt streams can yield
            // samples outside int range, and that float->int cast is
            // UB.
            const float s = std::clamp(
                (src[x] + 128.0f) * (1 << kYccFracBits) + 0.5f, 0.0f,
                static_cast<float>(kYccSampleMax));
            row[x] = static_cast<std::int16_t>(s);
        }
    }
}

void
resampleHRgbRowScalar(const std::uint8_t *src, std::uint8_t *dst,
                      int out_width, const std::int32_t *first,
                      const std::int32_t *offset, const std::int32_t *count,
                      const std::int32_t *weights)
{
    for (int x = 0; x < out_width; ++x) {
        const std::int32_t *wf = weights + offset[x];
        const int taps = count[x];
        const std::uint8_t *sp = src + static_cast<std::size_t>(first[x]) * 3;
        std::int32_t acc0 = kResampleAccRound;
        std::int32_t acc1 = kResampleAccRound;
        std::int32_t acc2 = kResampleAccRound;
        for (int k = 0; k < taps; ++k) {
            const std::int32_t w = wf[k];
            acc0 += w * sp[0];
            acc1 += w * sp[1];
            acc2 += w * sp[2];
            sp += 3;
        }
        dst[x * 3 + 0] = clampResampleAcc(acc0);
        dst[x * 3 + 1] = clampResampleAcc(acc1);
        dst[x * 3 + 2] = clampResampleAcc(acc2);
    }
}

void
resampleVRowScalar(const std::uint8_t *src, std::ptrdiff_t src_stride,
                   int taps, const std::int32_t *weights, std::uint8_t *dst,
                   int row_bytes)
{
    // Cache-blocked strips so the accumulators and the active parts
    // of the source rows stay resident in L1 across taps.
    constexpr int kStripBytes = 1024;
    std::int32_t acc[kStripBytes];
    for (int b0 = 0; b0 < row_bytes; b0 += kStripBytes) {
        const int strip = std::min(kStripBytes, row_bytes - b0);
        std::fill(acc, acc + strip, kResampleAccRound);
        for (int k = 0; k < taps; ++k) {
            const std::int32_t w = weights[k];
            const std::uint8_t *s = src + k * src_stride + b0;
            for (int b = 0; b < strip; ++b)
                acc[b] += w * s[b];
        }
        for (int b = 0; b < strip; ++b)
            dst[b0 + b] = clampResampleAcc(acc[b]);
    }
}

void
castU8F32Scalar(const std::uint8_t *src, float *dst, std::int64_t n,
                float scale)
{
    for (std::int64_t i = 0; i < n; ++i)
        dst[i] = static_cast<float>(src[i]) * scale;
}

void
unpackRgbF32Scalar(const std::uint8_t *src, float *r, float *g, float *b,
                   std::int64_t pixels, float scale)
{
    for (std::int64_t i = 0; i < pixels; ++i) {
        r[i] = static_cast<float>(src[3 * i + 0]) * scale;
        g[i] = static_cast<float>(src[3 * i + 1]) * scale;
        b[i] = static_cast<float>(src[3 * i + 2]) * scale;
    }
}

void
normalizeF32Scalar(float *data, std::int64_t n, float mean, float inv_std)
{
    for (std::int64_t i = 0; i < n; ++i)
        data[i] = (data[i] - mean) * inv_std;
}

void
copyBytesScalar(const std::uint8_t *src, std::uint8_t *dst, std::size_t n)
{
    std::memcpy(dst, src, n);
}

} // namespace

void
fillScalar(KernelTable &table, KernelNames &names)
{
    table.ycc_rgb_row = yccRgbRowScalar;
    table.upsample_h2v2_row = upsampleH2v2RowScalar;
    table.idct_store_block = idctStoreBlockScalar;
    table.resample_h_rgb_row = resampleHRgbRowScalar;
    table.resample_v_row = resampleVRowScalar;
    table.cast_u8_f32 = castU8F32Scalar;
    table.unpack_rgb_f32 = unpackRgbF32Scalar;
    table.normalize_f32 = normalizeF32Scalar;
    table.copy_bytes = copyBytesScalar;
    // Scalar keeps the historical base names, so single-tier hosts
    // (and LOTUS_SIMD=scalar runs) report exactly the paper symbols.
    names.ycc_rgb_row = "ycc_rgb_convert";
    names.upsample_h2v2_row = "sep_upsample";
    names.idct_store_block = "jpeg_idct_islow";
    names.resample_h_rgb_row = "ImagingResampleHorizontal_8bpc";
    names.resample_v_row = "ImagingResampleVertical_8bpc";
    names.cast_u8_f32 = "cast_u8_to_f32";
    names.unpack_rgb_f32 = "ImagingUnpackRGB";
    names.normalize_f32 = "normalize_channels";
    names.copy_bytes = "collate_copy";
}

} // namespace lotus::simd::detail
