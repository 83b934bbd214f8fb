#include "image/codec/color.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "hwcount/registry.h"
#include "memory/buffer_pool.h"
#include "simd/dispatch.h"

namespace lotus::image::codec {

static_assert(kSampleFracBits == simd::kYccFracBits,
              "simd tier constants out of sync with the codec");
static_assert(kSampleMax == simd::kYccSampleMax,
              "simd tier constants out of sync with the codec");

using hwcount::KernelId;
using hwcount::KernelScope;

namespace {

// The decode-side 16.16 YCC->RGB half-step tables now live in the
// SIMD dispatch layer (simd::detail::yccTables) so every tier indexes
// (or gathers) the same values; the conversion itself is reached
// through simd::kernels().ycc_rgb_row.
constexpr int kFixBits = 16;

// RGB->YCC tables: inputs are true u8, so 256-entry tables apply
// exactly; the per-pixel work becomes table adds plus one int->float
// store per plane.
struct RgbYccTables
{
    std::array<std::int32_t, 256> r_y, g_y, b_y;
    std::array<std::int32_t, 256> r_cb, g_cb, b_cb;
    std::array<std::int32_t, 256> r_cr, g_cr, b_cr;
};

const RgbYccTables &
rgbYccTables()
{
    static const RgbYccTables tables = [] {
        RgbYccTables t{};
        const double scale = static_cast<double>(1 << kFixBits);
        const std::int32_t offset =
            static_cast<std::int32_t>(128.0 * scale);
        for (int i = 0; i < 256; ++i) {
            const auto s = static_cast<std::size_t>(i);
            t.r_y[s] = static_cast<std::int32_t>(
                std::lround(0.299 * i * scale));
            t.g_y[s] = static_cast<std::int32_t>(
                std::lround(0.587 * i * scale));
            t.b_y[s] = static_cast<std::int32_t>(
                std::lround(0.114 * i * scale));
            t.r_cb[s] = static_cast<std::int32_t>(
                std::lround(-0.168736 * i * scale));
            t.g_cb[s] = static_cast<std::int32_t>(
                std::lround(-0.331264 * i * scale));
            t.b_cb[s] = static_cast<std::int32_t>(
                std::lround(0.5 * i * scale)) + offset;
            t.r_cr[s] = static_cast<std::int32_t>(
                std::lround(0.5 * i * scale));
            t.g_cr[s] = static_cast<std::int32_t>(
                std::lround(-0.418688 * i * scale));
            t.b_cr[s] = static_cast<std::int32_t>(
                std::lround(-0.081312 * i * scale)) + offset;
        }
        return t;
    }();
    return tables;
}

} // namespace

void
rgbToYcc(const Image &rgb, Plane &y, Plane &cb, Plane &cr)
{
    KernelScope scope(KernelId::RgbToYcc);
    const auto &t = rgbYccTables();
    constexpr float kInvScale = 1.0f / static_cast<float>(1 << kFixBits);
    const int w = rgb.width();
    const int h = rgb.height();
    y = Plane(w, h);
    cb = Plane(w, h);
    cr = Plane(w, h);
    for (int row = 0; row < h; ++row) {
        const std::uint8_t *src = rgb.row(row);
        float *yp = y.row(row);
        float *cbp = cb.row(row);
        float *crp = cr.row(row);
        for (int x = 0; x < w; ++x) {
            const std::uint8_t r = src[x * 3 + 0];
            const std::uint8_t g = src[x * 3 + 1];
            const std::uint8_t b = src[x * 3 + 2];
            yp[x] = static_cast<float>(t.r_y[r] + t.g_y[g] + t.b_y[b]) *
                    kInvScale;
            cbp[x] = static_cast<float>(t.r_cb[r] + t.g_cb[g] + t.b_cb[b]) *
                     kInvScale;
            crp[x] = static_cast<float>(t.r_cr[r] + t.g_cr[g] + t.b_cr[b]) *
                     kInvScale;
        }
    }
    const auto pixels = static_cast<std::uint64_t>(rgb.pixelCount());
    scope.stats().bytes_read += pixels * 3;
    scope.stats().bytes_written += pixels * 12;
    scope.stats().arith_ops += pixels * 9;
    scope.stats().items += pixels;
}

Plane
downsample2x2(const Plane &full)
{
    const int hw = (full.width + 1) / 2;
    const int hh = (full.height + 1) / 2;
    Plane half(hw, hh);
    for (int y = 0; y < hh; ++y) {
        for (int x = 0; x < hw; ++x) {
            const int x0 = 2 * x;
            const int y0 = 2 * y;
            const int x1 = std::min(x0 + 1, full.width - 1);
            const int y1 = std::min(y0 + 1, full.height - 1);
            half.row(y)[x] = 0.25f * (full.row(y0)[x0] + full.row(y0)[x1] +
                                      full.row(y1)[x0] + full.row(y1)[x1]);
        }
    }
    return half;
}

PlaneI16
quantizePlane(const Plane &plane)
{
    PlaneI16 out(plane.width, plane.height);
    const std::size_t n = plane.samples.size();
    for (std::size_t i = 0; i < n; ++i) {
        const int s = static_cast<int>(
            plane.samples[i] * (1 << kSampleFracBits) + 0.5f);
        out.samples[i] = static_cast<std::int16_t>(
            std::clamp(s, 0, static_cast<int>(kSampleMax)));
    }
    return out;
}

Plane
upsample2x(const Plane &half, int width, int height)
{
    KernelScope scope(KernelId::ChromaUpsample);
    Plane full(width, height);
    const auto pixels =
        static_cast<std::uint64_t>(width) * static_cast<std::uint64_t>(height);
    // Retained scalar reference: per-pixel source index math.
    for (int y = 0; y < height; ++y) {
        // Sample the half-res plane at (x/2, y/2) bilinearly.
        const float fy = (static_cast<float>(y) - 0.5f) / 2.0f;
        const int y0 = std::clamp(static_cast<int>(std::floor(fy)), 0,
                                  half.height - 1);
        const int y1 = std::min(y0 + 1, half.height - 1);
        const float wy =
            std::clamp(fy - static_cast<float>(y0), 0.0f, 1.0f);
        for (int x = 0; x < width; ++x) {
            const float fx = (static_cast<float>(x) - 0.5f) / 2.0f;
            const int x0 = std::clamp(static_cast<int>(std::floor(fx)),
                                      0, half.width - 1);
            const int x1 = std::min(x0 + 1, half.width - 1);
            const float wx =
                std::clamp(fx - static_cast<float>(x0), 0.0f, 1.0f);
            const float top = half.row(y0)[x0] * (1.0f - wx) +
                              half.row(y0)[x1] * wx;
            const float bottom = half.row(y1)[x0] * (1.0f - wx) +
                                 half.row(y1)[x1] * wx;
            full.row(y)[x] = top * (1.0f - wy) + bottom * wy;
        }
    }
    scope.stats().bytes_read += pixels * 4;
    scope.stats().bytes_written += pixels * 4;
    scope.stats().arith_ops += pixels * 10;
    scope.stats().items += pixels;
    return full;
}

Rect
chromaSupport(const Rect &window, int width, int height)
{
    // Output column x blends half columns (x - 1) / 2 and the one
    // after it, clamped to the plane (column 0 reads column 0 alone);
    // rows follow the same rule. So a window needs one half sample of
    // margin before and after its own footprint.
    const auto first = [](int pos) { return pos == 0 ? 0 : (pos - 1) / 2; };
    const auto last = [](int pos, int extent) {
        return std::min((extent + 1) / 2 - 1, (pos + 1) / 2);
    };
    const int x0 = first(window.x);
    const int y0 = first(window.y);
    return Rect{x0, y0, last(window.x + window.width - 1, width) - x0 + 1,
                last(window.y + window.height - 1, height) - y0 + 1};
}

PlaneI16
upsample2x(const PlaneI16 &half, int width, int height)
{
    return upsample2x(half, width, height, Rect{0, 0, width, height});
}

PlaneI16
upsample2x(const PlaneI16 &half, int width, int height, const Rect &window)
{
    KernelScope scope(KernelId::ChromaUpsample);
    const int hh = (height + 1) / 2;
    const Rect support = chromaSupport(window, width, height);
    LOTUS_ASSERT(half.x0 <= support.x && half.y0 <= support.y &&
                     support.x + support.width <= half.x0 + half.width &&
                     support.y + support.height <= half.y0 + half.height &&
                     half.x0 + half.width <= (width + 1) / 2 &&
                     half.y0 + half.height <= hh,
                 "upsample2x window (%d,%d %dx%d) of %dx%d is not covered "
                 "by half plane (%d,%d %dx%d)",
                 window.x, window.y, window.width, window.height, width,
                 height, half.x0, half.y0, half.width, half.height);
    // Output column 2 * support.x + i is sample i of every row; the
    // right frame edge of an even width takes the kernel's extra
    // last column.
    const int out_width = window.x + window.width == width
                              ? width - 2 * support.x
                              : 2 * support.width - 1;
    PlaneI16 full = PlaneI16::uninitialized(out_width, window.height);
    full.x0 = 2 * support.x;
    full.y0 = window.y;
    const auto pixels = static_cast<std::uint64_t>(out_width) *
                        static_cast<std::uint64_t>(window.height);
    // Fast path (h2v2_fancy_upsample style): after edge clamping, the
    // 2x bilinear weights of the reference geometry (source position
    // (x - 0.5) / 2) collapse to the fixed quarter-unit pattern
    // {3, 1} around each source gap, so there are no per-pixel index
    // or weight lookups at all: one vertical blend into a quarter-
    // unit row buffer, then a sequential pass emitting two outputs
    // per source gap. Identical sums (and rounding) to the direct
    // per-pixel fixed-point evaluation; the row kernel is dispatched
    // per SIMD tier (scratch is pooled, sized for vector overhang).
    // Every output sample depends only on its own frame position, so
    // a window's samples equal the full frame's.
    const auto &kernel = simd::kernels();
    memory::PooledArray<std::int16_t> scratch(
        static_cast<std::size_t>(support.width) + 16, /*zero=*/false);
    const int column = support.x - half.x0;
    for (int y = window.y; y < window.y + window.height; ++y) {
        // Vertical sources: output row 0 reads source row 0 alone;
        // odd rows 2i+1 blend rows (i, i+1) as 3:1, even rows 2i
        // blend (i, i-1) as 3:1.
        int near = 0;
        int far = 0;
        int wn = 4;
        if (y > 0) {
            const int i = y >> 1;
            near = i;
            far = (y & 1) != 0 ? std::min(i + 1, hh - 1) : i - 1;
            wn = 3;
        }
        kernel.upsample_h2v2_row(half.row(near - half.y0) + column,
                                 half.row(far - half.y0) + column, wn,
                                 support.width, out_width, scratch.data(),
                                 full.row(y - window.y));
    }
    scope.stats().bytes_read += pixels * 2;
    scope.stats().bytes_written += pixels * 2;
    scope.stats().arith_ops += pixels * 4;
    scope.stats().items += pixels;
    return full;
}

Image
yccToRgb(const Plane &y, const Plane &cb, const Plane &cr)
{
    KernelScope outer(KernelId::DecompressOnepass);
    const int w = y.width;
    const int h = y.height;
    Image out(w, h);
    for (int row = 0; row < h; ++row) {
        KernelScope inner(KernelId::YccToRgb);
        const float *yp = y.row(row);
        const float *cbp = cb.row(row);
        const float *crp = cr.row(row);
        std::uint8_t *dst = out.row(row);
        // Retained scalar reference: per-pixel float matrix.
        for (int x = 0; x < w; ++x) {
            const float yy = yp[x];
            const float cbv = cbp[x] - 128.0f;
            const float crv = crp[x] - 128.0f;
            const float r = yy + 1.402f * crv;
            const float g = yy - 0.344136f * cbv - 0.714136f * crv;
            const float b = yy + 1.772f * cbv;
            dst[x * 3 + 0] = static_cast<std::uint8_t>(
                std::clamp(r, 0.0f, 255.0f));
            dst[x * 3 + 1] = static_cast<std::uint8_t>(
                std::clamp(g, 0.0f, 255.0f));
            dst[x * 3 + 2] = static_cast<std::uint8_t>(
                std::clamp(b, 0.0f, 255.0f));
        }
        const auto row_pixels = static_cast<std::uint64_t>(w);
        inner.stats().bytes_read += row_pixels * 12;
        inner.stats().bytes_written += row_pixels * 3;
        inner.stats().arith_ops += row_pixels * 12;
        inner.stats().items += row_pixels;
    }
    outer.stats().items += static_cast<std::uint64_t>(h);
    return out;
}

Image
yccToRgb(const PlaneI16 &y, const PlaneI16 &cb, const PlaneI16 &cr)
{
    return yccToRgb(y, cb, cr, Rect{0, 0, y.width, y.height});
}

Image
yccToRgb(const PlaneI16 &y, const PlaneI16 &cb, const PlaneI16 &cr,
         const Rect &window)
{
    for (const PlaneI16 *plane : {&y, &cb, &cr})
        LOTUS_ASSERT(plane->x0 <= window.x && plane->y0 <= window.y &&
                         window.x + window.width <=
                             plane->x0 + plane->width &&
                         window.y + window.height <=
                             plane->y0 + plane->height,
                     "yccToRgb window (%d,%d %dx%d) outside a plane",
                     window.x, window.y, window.width, window.height);
    KernelScope outer(KernelId::DecompressOnepass);
    const int w = window.width;
    const int h = window.height;
    Image out = Image::uninitialized(w, h);
    const auto &kernel = simd::kernels();
    const auto at = [&window](const PlaneI16 &plane, int row) {
        return plane.row(window.y + row - plane.y0) + window.x - plane.x0;
    };
    for (int row = 0; row < h; ++row) {
        KernelScope inner(KernelId::YccToRgb);
        // Luma feeds the 16.16 accumulator exactly (a 1/16th-step
        // sample times 2^12 is the value in 16.16); chroma indexes
        // the shared half-step tables. Dispatched per SIMD tier.
        kernel.ycc_rgb_row(at(y, row), at(cb, row), at(cr, row),
                           out.row(row), w);
        const auto row_pixels = static_cast<std::uint64_t>(w);
        inner.stats().bytes_read += row_pixels * 6;
        inner.stats().bytes_written += row_pixels * 3;
        inner.stats().arith_ops += row_pixels * 9;
        inner.stats().items += row_pixels;
    }
    outer.stats().items += static_cast<std::uint64_t>(h);
    return out;
}

} // namespace lotus::image::codec
