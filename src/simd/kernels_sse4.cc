/**
 * SSE4.2 tier. Specializes the upsample, IDCT store, both resample
 * passes and the tensor cast/unpack/normalize kernels with 128-bit
 * vectors; YCC->RGB stays scalar (it needs AVX2 gathers to beat the
 * table loads) and copy_bytes stays memcpy.
 *
 * Compiled with -msse4.2 only (no FMA): float kernels keep the exact
 * IEEE operation order of the scalar tier, so outputs here are
 * bit-identical to scalar by construction.
 */

#if LOTUS_SIMD_HAVE_SSE4

#include <cstring>
#include <smmintrin.h>

#include "simd/kernels_internal.h"

namespace lotus::simd::detail {

namespace {

void
upsampleH2v2RowSse4(const std::int16_t *near_row,
                    const std::int16_t *far_row, int weight_near,
                    int half_width, int out_width, std::int16_t *scratch,
                    std::int16_t *dst)
{
    const int wf = 4 - weight_near;
    auto *v = reinterpret_cast<std::uint16_t *>(scratch);

    // Vertical blend: sums fit u16 exactly (max 4 * 4080), so 16-bit
    // low multiplies are exact. The trailing full vector may read up
    // to 14 bytes past the source rows (pool read slack) and write
    // into the scratch pad (caller provides half_width + 16).
    const __m128i vwn = _mm_set1_epi16(static_cast<short>(weight_near));
    const __m128i vwf = _mm_set1_epi16(static_cast<short>(wf));
    for (int j = 0; j < half_width; j += 8) {
        const __m128i a = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(near_row + j));
        const __m128i b = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(far_row + j));
        const __m128i blend = _mm_add_epi16(_mm_mullo_epi16(a, vwn),
                                            _mm_mullo_epi16(b, vwf));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(v + j), blend);
    }

    dst[0] = static_cast<std::int16_t>((v[0] + 2) >> 2);

    // Horizontal pass: (3*s0 + s1 + 8) >> 4 stays below 2^16, so the
    // arithmetic is exact in u16 with a logical shift.
    const __m128i three = _mm_set1_epi16(3);
    const __m128i eight = _mm_set1_epi16(8);
    int j = 0;
    for (; j + 8 <= half_width - 1; j += 8) {
        const __m128i s0 =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(v + j));
        const __m128i s1 =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(v + j + 1));
        const __m128i o0 = _mm_srli_epi16(
            _mm_add_epi16(
                _mm_add_epi16(_mm_mullo_epi16(s0, three), s1), eight),
            4);
        const __m128i o1 = _mm_srli_epi16(
            _mm_add_epi16(
                _mm_add_epi16(s0, _mm_mullo_epi16(s1, three)), eight),
            4);
        // Interleave (o0[k], o1[k]) pairs -> 16 outputs at 2j+1.
        _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + 2 * j + 1),
                         _mm_unpacklo_epi16(o0, o1));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + 2 * j + 9),
                         _mm_unpackhi_epi16(o0, o1));
    }
    for (; j + 1 < half_width; ++j) {
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
idctStoreBlockSse4(const float *block, std::int16_t *dst, int stride)
{
    const __m128 bias = _mm_set1_ps(128.0f);
    const __m128 gain = _mm_set1_ps(static_cast<float>(1 << kYccFracBits));
    const __m128 half = _mm_set1_ps(0.5f);
    const __m128i vmax = _mm_set1_epi16(kYccSampleMax);
    const __m128i vzero = _mm_setzero_si128();
    for (int y = 0; y < 8; ++y) {
        const float *src = block + y * 8;
        // Same IEEE order as scalar: (x + 128) * 16 + 0.5, truncate.
        const __m128 lo = _mm_add_ps(
            _mm_mul_ps(_mm_add_ps(_mm_loadu_ps(src), bias), gain), half);
        const __m128 hi = _mm_add_ps(
            _mm_mul_ps(_mm_add_ps(_mm_loadu_ps(src + 4), bias), gain),
            half);
        __m128i packed =
            _mm_packs_epi32(_mm_cvttps_epi32(lo), _mm_cvttps_epi32(hi));
        packed = _mm_max_epi16(_mm_min_epi16(packed, vmax), vzero);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + y * stride),
                         packed);
    }
}

void
resampleHRgbRowSse4(const std::uint8_t *src, std::uint8_t *dst,
                    int out_width, const std::int32_t *first,
                    const std::int32_t *offset, const std::int32_t *count,
                    const std::int32_t *weights)
{
    for (int x = 0; x < out_width; ++x) {
        const std::int32_t *wf = weights + offset[x];
        const int taps = count[x];
        const std::uint8_t *sp = src + static_cast<std::size_t>(first[x]) * 3;
        // Lanes hold [R, G, B, junk]; the 4-byte tap load reads one
        // byte past the last pixel (pool read slack).
        __m128i acc = _mm_setr_epi32(kResampleAccRound, kResampleAccRound,
                                     kResampleAccRound, 0);
        for (int k = 0; k < taps; ++k) {
            std::uint32_t raw;
            std::memcpy(&raw, sp, 4);
            const __m128i px = _mm_cvtepu8_epi32(
                _mm_cvtsi32_si128(static_cast<int>(raw)));
            acc = _mm_add_epi32(
                acc, _mm_mullo_epi32(px, _mm_set1_epi32(wf[k])));
            sp += 3;
        }
        const __m128i shifted = _mm_srai_epi32(acc, kResampleWeightBits);
        const __m128i bytes = _mm_packus_epi16(
            _mm_packs_epi32(shifted, shifted), _mm_setzero_si128());
        const std::uint32_t out =
            static_cast<std::uint32_t>(_mm_cvtsi128_si32(bytes));
        // 4-byte store overwrites the next pixel's R (rewritten on the
        // next iteration); the final pixel stores 3 bytes exactly.
        std::memcpy(dst + x * 3, &out, x + 1 < out_width ? 4 : 3);
    }
}

void
resampleVRowSse4(const std::uint8_t *src, std::ptrdiff_t src_stride,
                 int taps, const std::int32_t *weights, std::uint8_t *dst,
                 int row_bytes)
{
    int b = 0;
    for (; b + 8 <= row_bytes; b += 8) {
        __m128i acc0 = _mm_set1_epi32(kResampleAccRound);
        __m128i acc1 = _mm_set1_epi32(kResampleAccRound);
        for (int k = 0; k < taps; ++k) {
            const std::uint8_t *s = src + k * src_stride + b;
            const __m128i v8 = _mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(s));
            const __m128i w = _mm_set1_epi32(weights[k]);
            acc0 = _mm_add_epi32(
                acc0, _mm_mullo_epi32(_mm_cvtepu8_epi32(v8), w));
            acc1 = _mm_add_epi32(
                acc1, _mm_mullo_epi32(
                          _mm_cvtepu8_epi32(_mm_srli_si128(v8, 4)), w));
        }
        const __m128i p16 =
            _mm_packs_epi32(_mm_srai_epi32(acc0, kResampleWeightBits),
                            _mm_srai_epi32(acc1, kResampleWeightBits));
        _mm_storel_epi64(reinterpret_cast<__m128i *>(dst + b),
                         _mm_packus_epi16(p16, _mm_setzero_si128()));
    }
    for (; b < row_bytes; ++b) {
        std::int32_t acc = kResampleAccRound;
        for (int k = 0; k < taps; ++k)
            acc += weights[k] * src[k * src_stride + b];
        dst[b] = clampResampleAcc(acc);
    }
}

void
castU8F32Sse4(const std::uint8_t *src, float *dst, std::int64_t n,
              float scale)
{
    const __m128 vscale = _mm_set1_ps(scale);
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m128i v8 = _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(src + i));
        const __m128 lo = _mm_cvtepi32_ps(_mm_cvtepu8_epi32(v8));
        const __m128 hi = _mm_cvtepi32_ps(
            _mm_cvtepu8_epi32(_mm_srli_si128(v8, 4)));
        _mm_storeu_ps(dst + i, _mm_mul_ps(lo, vscale));
        _mm_storeu_ps(dst + i + 4, _mm_mul_ps(hi, vscale));
    }
    for (; i < n; ++i)
        dst[i] = static_cast<float>(src[i]) * scale;
}

void
unpackRgbF32Sse4(const std::uint8_t *src, float *r, float *g, float *b,
                 std::int64_t pixels, float scale)
{
    // Each 16-byte load holds four whole pixels (the last 4 bytes are
    // the next pixels, or read slack on the final step); one shuffle
    // per channel zero-extends its four bytes to i32 lanes, which
    // convert to f32 exactly.
    const __m128i mask_r =
        _mm_setr_epi8(0, -1, -1, -1, 3, -1, -1, -1, 6, -1, -1, -1, 9, -1,
                      -1, -1);
    const __m128i mask_g =
        _mm_setr_epi8(1, -1, -1, -1, 4, -1, -1, -1, 7, -1, -1, -1, 10, -1,
                      -1, -1);
    const __m128i mask_b =
        _mm_setr_epi8(2, -1, -1, -1, 5, -1, -1, -1, 8, -1, -1, -1, 11, -1,
                      -1, -1);
    const __m128 vscale = _mm_set1_ps(scale);
    const auto channel = [vscale](__m128i px, __m128i mask) {
        return _mm_mul_ps(_mm_cvtepi32_ps(_mm_shuffle_epi8(px, mask)),
                          vscale);
    };
    std::int64_t i = 0;
    for (; i + 4 <= pixels; i += 4) {
        const __m128i px = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(src + 3 * i));
        _mm_storeu_ps(r + i, channel(px, mask_r));
        _mm_storeu_ps(g + i, channel(px, mask_g));
        _mm_storeu_ps(b + i, channel(px, mask_b));
    }
    for (; i < pixels; ++i) {
        r[i] = static_cast<float>(src[3 * i + 0]) * scale;
        g[i] = static_cast<float>(src[3 * i + 1]) * scale;
        b[i] = static_cast<float>(src[3 * i + 2]) * scale;
    }
}

void
normalizeF32Sse4(float *data, std::int64_t n, float mean, float inv_std)
{
    const __m128 vmean = _mm_set1_ps(mean);
    const __m128 vinv = _mm_set1_ps(inv_std);
    std::int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m128 v = _mm_loadu_ps(data + i);
        _mm_storeu_ps(data + i, _mm_mul_ps(_mm_sub_ps(v, vmean), vinv));
    }
    for (; i < n; ++i)
        data[i] = (data[i] - mean) * inv_std;
}

} // namespace

void
fillSse4(KernelTable &table, KernelNames &names)
{
    table.upsample_h2v2_row = upsampleH2v2RowSse4;
    names.upsample_h2v2_row = "sep_upsample_sse4";
    table.idct_store_block = idctStoreBlockSse4;
    names.idct_store_block = "jpeg_idct_islow_sse4";
    table.resample_h_rgb_row = resampleHRgbRowSse4;
    names.resample_h_rgb_row = "ImagingResampleHorizontal_8bpc_sse4";
    table.resample_v_row = resampleVRowSse4;
    names.resample_v_row = "ImagingResampleVertical_8bpc_sse4";
    table.cast_u8_f32 = castU8F32Sse4;
    names.cast_u8_f32 = "cast_u8_to_f32_sse4";
    table.unpack_rgb_f32 = unpackRgbF32Sse4;
    names.unpack_rgb_f32 = "ImagingUnpackRGB_sse4";
    table.normalize_f32 = normalizeF32Sse4;
    names.normalize_f32 = "normalize_channels_sse4";
}

} // namespace lotus::simd::detail

#endif // LOTUS_SIMD_HAVE_SSE4
