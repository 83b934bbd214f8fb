/**
 * AVX2 tier. Specializes every kernel in the table; YCC->RGB becomes
 * profitable here because the 16.16 tables can be gathered eight
 * pixels at a time.
 *
 * Compiled with -mavx2 only (no FMA): float kernels keep the exact
 * IEEE operation order of the scalar tier, so outputs here are
 * bit-identical to scalar by construction.
 */

#if LOTUS_SIMD_HAVE_AVX2

#include <cstring>
#include <immintrin.h>

#include "simd/kernels_internal.h"

namespace lotus::simd::detail {

namespace {

void
yccRgbRowAvx2(const std::int16_t *yp, const std::int16_t *cbp,
              const std::int16_t *crp, std::uint8_t *dst, int width)
{
    const YccTables &t = yccTables();
    const auto *cr_r = reinterpret_cast<const int *>(t.cr_r.data());
    const auto *cb_b = reinterpret_cast<const int *>(t.cb_b.data());
    const auto *cr_g = reinterpret_cast<const int *>(t.cr_g.data());
    const auto *cb_g = reinterpret_cast<const int *>(t.cb_g.data());
    const __m256i four = _mm256_set1_epi32(4);

    // Byte-interleave masks: r/g/b vectors each hold 8 channel bytes
    // in their low half; out bytes follow the R,G,B,R,G,B,... walk
    // (high-bit shuffle index selects zero).
    const __m128i mask_r0 = _mm_setr_epi8(0, -1, -1, 1, -1, -1, 2, -1, -1,
                                          3, -1, -1, 4, -1, -1, 5);
    const __m128i mask_g0 = _mm_setr_epi8(-1, 0, -1, -1, 1, -1, -1, 2, -1,
                                          -1, 3, -1, -1, 4, -1, -1);
    const __m128i mask_b0 = _mm_setr_epi8(-1, -1, 0, -1, -1, 1, -1, -1, 2,
                                          -1, -1, 3, -1, -1, 4, -1);
    const __m128i mask_r1 = _mm_setr_epi8(-1, -1, 6, -1, -1, 7, -1, -1, -1,
                                          -1, -1, -1, -1, -1, -1, -1);
    const __m128i mask_g1 = _mm_setr_epi8(5, -1, -1, 6, -1, -1, 7, -1, -1,
                                          -1, -1, -1, -1, -1, -1, -1);
    const __m128i mask_b1 = _mm_setr_epi8(-1, 5, -1, -1, 6, -1, -1, 7, -1,
                                          -1, -1, -1, -1, -1, -1, -1);

    int x = 0;
    for (; x + 8 <= width; x += 8) {
        const __m256i y32 = _mm256_cvtepi16_epi32(_mm_loadu_si128(
            reinterpret_cast<const __m128i *>(yp + x)));
        const __m256i cb32 = _mm256_cvtepi16_epi32(_mm_loadu_si128(
            reinterpret_cast<const __m128i *>(cbp + x)));
        const __m256i cr32 = _mm256_cvtepi16_epi32(_mm_loadu_si128(
            reinterpret_cast<const __m128i *>(crp + x)));

        const __m256i ybase =
            _mm256_slli_epi32(y32, kYccFixBits - kYccFracBits);
        const __m256i icb =
            _mm256_srai_epi32(_mm256_add_epi32(cb32, four), 3);
        const __m256i icr =
            _mm256_srai_epi32(_mm256_add_epi32(cr32, four), 3);

        const __m256i r32 = _mm256_add_epi32(
            ybase, _mm256_i32gather_epi32(cr_r, icr, 4));
        const __m256i g32 = _mm256_add_epi32(
            ybase,
            _mm256_add_epi32(_mm256_i32gather_epi32(cb_g, icb, 4),
                             _mm256_i32gather_epi32(cr_g, icr, 4)));
        const __m256i b32 = _mm256_add_epi32(
            ybase, _mm256_i32gather_epi32(cb_b, icb, 4));

        // >>16 then saturate: values >>16 fit i16 (inputs are bounded
        // by ybase + table extremes), so packs/packus reproduce the
        // scalar clamp-to-[0,255] exactly.
        const __m256i r16v = _mm256_srai_epi32(r32, kYccFixBits);
        const __m256i g16v = _mm256_srai_epi32(g32, kYccFixBits);
        const __m256i b16v = _mm256_srai_epi32(b32, kYccFixBits);
        const __m128i r16 =
            _mm_packs_epi32(_mm256_castsi256_si128(r16v),
                            _mm256_extracti128_si256(r16v, 1));
        const __m128i g16 =
            _mm_packs_epi32(_mm256_castsi256_si128(g16v),
                            _mm256_extracti128_si256(g16v, 1));
        const __m128i b16 =
            _mm_packs_epi32(_mm256_castsi256_si128(b16v),
                            _mm256_extracti128_si256(b16v, 1));
        const __m128i r8 = _mm_packus_epi16(r16, r16);
        const __m128i g8 = _mm_packus_epi16(g16, g16);
        const __m128i b8 = _mm_packus_epi16(b16, b16);

        const __m128i out0 = _mm_or_si128(
            _mm_or_si128(_mm_shuffle_epi8(r8, mask_r0),
                         _mm_shuffle_epi8(g8, mask_g0)),
            _mm_shuffle_epi8(b8, mask_b0));
        const __m128i out1 = _mm_or_si128(
            _mm_or_si128(_mm_shuffle_epi8(r8, mask_r1),
                         _mm_shuffle_epi8(g8, mask_g1)),
            _mm_shuffle_epi8(b8, mask_b1));
        std::uint8_t *d = dst + x * 3;
        _mm_storeu_si128(reinterpret_cast<__m128i *>(d), out0);
        _mm_storel_epi64(reinterpret_cast<__m128i *>(d + 16), out1);
    }
    for (; x < width; ++x) {
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
upsampleH2v2RowAvx2(const std::int16_t *near_row,
                    const std::int16_t *far_row, int weight_near,
                    int half_width, int out_width, std::int16_t *scratch,
                    std::int16_t *dst)
{
    const int wf = 4 - weight_near;
    auto *v = reinterpret_cast<std::uint16_t *>(scratch);

    // Vertical blend: sums fit u16 exactly (max 4 * 4080). The final
    // vector may read up to 30 bytes past the source rows (pool read
    // slack) and write into the scratch pad (half_width + 16).
    const __m256i vwn = _mm256_set1_epi16(static_cast<short>(weight_near));
    const __m256i vwf = _mm256_set1_epi16(static_cast<short>(wf));
    for (int j = 0; j < half_width; j += 16) {
        const __m256i a = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(near_row + j));
        const __m256i b = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(far_row + j));
        const __m256i blend = _mm256_add_epi16(_mm256_mullo_epi16(a, vwn),
                                               _mm256_mullo_epi16(b, vwf));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(v + j), blend);
    }

    dst[0] = static_cast<std::int16_t>((v[0] + 2) >> 2);

    // Horizontal pass: (3*s0 + s1 + 8) >> 4 stays below 2^16 -> exact
    // in u16 with a logical shift.
    const __m256i three = _mm256_set1_epi16(3);
    const __m256i eight = _mm256_set1_epi16(8);
    int j = 0;
    for (; j + 16 <= half_width - 1; j += 16) {
        const __m256i s0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(v + j));
        const __m256i s1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(v + j + 1));
        const __m256i o0 = _mm256_srli_epi16(
            _mm256_add_epi16(
                _mm256_add_epi16(_mm256_mullo_epi16(s0, three), s1),
                eight),
            4);
        const __m256i o1 = _mm256_srli_epi16(
            _mm256_add_epi16(
                _mm256_add_epi16(s0, _mm256_mullo_epi16(s1, three)),
                eight),
            4);
        // unpack interleaves within 128-bit lanes; permute2x128
        // stitches the lanes back into sequential order.
        const __m256i lo = _mm256_unpacklo_epi16(o0, o1);
        const __m256i hi = _mm256_unpackhi_epi16(o0, o1);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(dst + 2 * j + 1),
            _mm256_permute2x128_si256(lo, hi, 0x20));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(dst + 2 * j + 17),
            _mm256_permute2x128_si256(lo, hi, 0x31));
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
idctStoreBlockAvx2(const float *block, std::int16_t *dst, int stride)
{
    const __m256 bias = _mm256_set1_ps(128.0f);
    const __m256 gain =
        _mm256_set1_ps(static_cast<float>(1 << kYccFracBits));
    const __m256 half = _mm256_set1_ps(0.5f);
    const __m128i vmax = _mm_set1_epi16(kYccSampleMax);
    const __m128i vzero = _mm_setzero_si128();
    for (int y = 0; y < 8; ++y) {
        // Same IEEE order as scalar: (x + 128) * 16 + 0.5, truncate.
        const __m256 scaled = _mm256_add_ps(
            _mm256_mul_ps(
                _mm256_add_ps(_mm256_loadu_ps(block + y * 8), bias), gain),
            half);
        const __m256i i32 = _mm256_cvttps_epi32(scaled);
        __m128i packed = _mm_packs_epi32(_mm256_castsi256_si128(i32),
                                         _mm256_extracti128_si256(i32, 1));
        packed = _mm_max_epi16(_mm_min_epi16(packed, vmax), vzero);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + y * stride),
                         packed);
    }
}

void
resampleHRgbRowAvx2(const std::uint8_t *src, std::uint8_t *dst,
                    int out_width, const std::int32_t *first,
                    const std::int32_t *offset, const std::int32_t *count,
                    const std::int32_t *weights)
{
    // Weight-pair broadcast [w0,w0,w0,w1,w1,w1,w0,w0]; lanes 6-7 are
    // junk and never read back.
    const __m256i widx = _mm256_setr_epi32(0, 0, 0, 1, 1, 1, 0, 0);
    // Rotate-by-3 so lanes 0-2 of acc+rot hold the pair sums.
    const __m256i rotidx = _mm256_setr_epi32(3, 4, 5, 6, 7, 0, 1, 2);
    for (int x = 0; x < out_width; ++x) {
        const std::int32_t *wf = weights + offset[x];
        const int taps = count[x];
        const std::uint8_t *sp = src + static_cast<std::size_t>(first[x]) * 3;
        // Rounding bias only in the low pixel's lanes; the pair
        // combine folds it in exactly once per channel.
        __m256i acc = _mm256_setr_epi32(kResampleAccRound,
                                        kResampleAccRound,
                                        kResampleAccRound, 0, 0, 0, 0, 0);
        int k = 0;
        for (; k + 1 < taps; k += 2) {
            // 8-byte load spans two RGB pixels (reads 2 bytes past the
            // second pixel: pool read slack).
            const __m256i px = _mm256_cvtepu8_epi32(_mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(sp)));
            const __m256i wpair = _mm256_permutevar8x32_epi32(
                _mm256_castsi128_si256(_mm_loadl_epi64(
                    reinterpret_cast<const __m128i *>(wf + k))),
                widx);
            acc = _mm256_add_epi32(acc, _mm256_mullo_epi32(px, wpair));
            sp += 6;
        }
        if (k < taps) {
            std::uint32_t raw;
            std::memcpy(&raw, sp, 4);
            const __m256i px = _mm256_zextsi128_si256(_mm_cvtepu8_epi32(
                _mm_cvtsi32_si128(static_cast<int>(raw))));
            const std::int32_t w = wf[k];
            const __m256i wlast =
                _mm256_setr_epi32(w, w, w, 0, 0, 0, 0, 0);
            acc = _mm256_add_epi32(acc, _mm256_mullo_epi32(px, wlast));
        }
        const __m256i sum = _mm256_add_epi32(
            acc, _mm256_permutevar8x32_epi32(acc, rotidx));
        const __m128i shifted = _mm_srai_epi32(
            _mm256_castsi256_si128(sum), kResampleWeightBits);
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
resampleVRowAvx2(const std::uint8_t *src, std::ptrdiff_t src_stride,
                 int taps, const std::int32_t *weights, std::uint8_t *dst,
                 int row_bytes)
{
    int b = 0;
    for (; b + 16 <= row_bytes; b += 16) {
        __m256i acc0 = _mm256_set1_epi32(kResampleAccRound);
        __m256i acc1 = _mm256_set1_epi32(kResampleAccRound);
        for (int k = 0; k < taps; ++k) {
            const std::uint8_t *s = src + k * src_stride + b;
            const __m128i v16 = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(s));
            const __m256i w = _mm256_set1_epi32(weights[k]);
            acc0 = _mm256_add_epi32(
                acc0, _mm256_mullo_epi32(_mm256_cvtepu8_epi32(v16), w));
            acc1 = _mm256_add_epi32(
                acc1, _mm256_mullo_epi32(
                          _mm256_cvtepu8_epi32(_mm_srli_si128(v16, 8)),
                          w));
        }
        // packs interleaves 64-bit chunks across lanes; permute4x64
        // restores sequential order before the byte pack.
        __m256i p16 = _mm256_packs_epi32(
            _mm256_srai_epi32(acc0, kResampleWeightBits),
            _mm256_srai_epi32(acc1, kResampleWeightBits));
        p16 = _mm256_permute4x64_epi64(p16, _MM_SHUFFLE(3, 1, 2, 0));
        const __m256i p8 = _mm256_packus_epi16(p16, p16);
        _mm_storel_epi64(reinterpret_cast<__m128i *>(dst + b),
                         _mm256_castsi256_si128(p8));
        _mm_storel_epi64(reinterpret_cast<__m128i *>(dst + b + 8),
                         _mm256_extracti128_si256(p8, 1));
    }
    for (; b < row_bytes; ++b) {
        std::int32_t acc = kResampleAccRound;
        for (int k = 0; k < taps; ++k)
            acc += weights[k] * src[k * src_stride + b];
        dst[b] = clampResampleAcc(acc);
    }
}

void
castU8F32Avx2(const std::uint8_t *src, float *dst, std::int64_t n,
              float scale)
{
    const __m256 vscale = _mm256_set1_ps(scale);
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i v32 = _mm256_cvtepu8_epi32(_mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(src + i)));
        _mm256_storeu_ps(
            dst + i, _mm256_mul_ps(_mm256_cvtepi32_ps(v32), vscale));
    }
    for (; i < n; ++i)
        dst[i] = static_cast<float>(src[i]) * scale;
}

void
unpackRgbF32Avx2(const std::uint8_t *src, float *r, float *g, float *b,
                 std::int64_t pixels, float scale)
{
    // Lane 0 loads pixels 0..3 and lane 1 pixels 4..7 of the step (the
    // upper 4 bytes of each load are the next pixels, or read slack on
    // the final step); the in-lane shuffle zero-extends one channel's
    // eight bytes to i32, which convert to f32 exactly.
    const __m256i mask_r = _mm256_broadcastsi128_si256(
        _mm_setr_epi8(0, -1, -1, -1, 3, -1, -1, -1, 6, -1, -1, -1, 9, -1,
                      -1, -1));
    const __m256i mask_g = _mm256_broadcastsi128_si256(
        _mm_setr_epi8(1, -1, -1, -1, 4, -1, -1, -1, 7, -1, -1, -1, 10, -1,
                      -1, -1));
    const __m256i mask_b = _mm256_broadcastsi128_si256(
        _mm_setr_epi8(2, -1, -1, -1, 5, -1, -1, -1, 8, -1, -1, -1, 11, -1,
                      -1, -1));
    const __m256 vscale = _mm256_set1_ps(scale);
    const auto channel = [vscale](__m256i px, __m256i mask) {
        return _mm256_mul_ps(
            _mm256_cvtepi32_ps(_mm256_shuffle_epi8(px, mask)), vscale);
    };
    std::int64_t i = 0;
    for (; i + 8 <= pixels; i += 8) {
        const std::uint8_t *s = src + 3 * i;
        const __m256i px = _mm256_inserti128_si256(
            _mm256_castsi128_si256(
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(s))),
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(s + 12)), 1);
        _mm256_storeu_ps(r + i, channel(px, mask_r));
        _mm256_storeu_ps(g + i, channel(px, mask_g));
        _mm256_storeu_ps(b + i, channel(px, mask_b));
    }
    for (; i < pixels; ++i) {
        r[i] = static_cast<float>(src[3 * i + 0]) * scale;
        g[i] = static_cast<float>(src[3 * i + 1]) * scale;
        b[i] = static_cast<float>(src[3 * i + 2]) * scale;
    }
}

void
normalizeF32Avx2(float *data, std::int64_t n, float mean, float inv_std)
{
    const __m256 vmean = _mm256_set1_ps(mean);
    const __m256 vinv = _mm256_set1_ps(inv_std);
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 v = _mm256_loadu_ps(data + i);
        _mm256_storeu_ps(data + i,
                         _mm256_mul_ps(_mm256_sub_ps(v, vmean), vinv));
    }
    for (; i < n; ++i)
        data[i] = (data[i] - mean) * inv_std;
}

void
copyBytesAvx2(const std::uint8_t *src, std::uint8_t *dst, std::size_t n)
{
    // Collate copies of large batches would evict the worker's entire
    // L2; stream them past the cache instead. Small copies stay on
    // the (already vectorized) memcpy path.
    constexpr std::size_t kStreamThreshold = std::size_t{2} << 20;
    if (n < kStreamThreshold) {
        std::memcpy(dst, src, n);
        return;
    }
    const std::size_t head =
        (32 - (reinterpret_cast<std::uintptr_t>(dst) & 31)) & 31;
    std::memcpy(dst, src, head);
    src += head;
    dst += head;
    n -= head;
    const std::size_t vec = n & ~std::size_t{127};
    for (std::size_t i = 0; i < vec; i += 128) {
        const __m256i a = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i));
        const __m256i b = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i + 32));
        const __m256i c = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i + 64));
        const __m256i d = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i + 96));
        _mm256_stream_si256(reinterpret_cast<__m256i *>(dst + i), a);
        _mm256_stream_si256(reinterpret_cast<__m256i *>(dst + i + 32), b);
        _mm256_stream_si256(reinterpret_cast<__m256i *>(dst + i + 64), c);
        _mm256_stream_si256(reinterpret_cast<__m256i *>(dst + i + 96), d);
    }
    _mm_sfence();
    std::memcpy(dst + vec, src + vec, n - vec);
}

} // namespace

void
fillAvx2(KernelTable &table, KernelNames &names)
{
    table.ycc_rgb_row = yccRgbRowAvx2;
    names.ycc_rgb_row = "ycc_rgb_convert_avx2";
    table.upsample_h2v2_row = upsampleH2v2RowAvx2;
    names.upsample_h2v2_row = "sep_upsample_avx2";
    table.idct_store_block = idctStoreBlockAvx2;
    names.idct_store_block = "jpeg_idct_islow_avx2";
    table.resample_h_rgb_row = resampleHRgbRowAvx2;
    names.resample_h_rgb_row = "ImagingResampleHorizontal_8bpc_avx2";
    table.resample_v_row = resampleVRowAvx2;
    names.resample_v_row = "ImagingResampleVertical_8bpc_avx2";
    table.cast_u8_f32 = castU8F32Avx2;
    names.cast_u8_f32 = "cast_u8_to_f32_avx2";
    table.unpack_rgb_f32 = unpackRgbF32Avx2;
    names.unpack_rgb_f32 = "ImagingUnpackRGB_avx2";
    table.normalize_f32 = normalizeF32Avx2;
    names.normalize_f32 = "normalize_channels_avx2";
    table.copy_bytes = copyBytesAvx2;
    names.copy_bytes = "collate_copy_avx2";
}

} // namespace lotus::simd::detail

#endif // LOTUS_SIMD_HAVE_AVX2
