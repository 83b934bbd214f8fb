/**
 * @file
 * RGB <-> YCbCr conversion and plane containers for the LJPG codec.
 */

#ifndef LOTUS_IMAGE_CODEC_COLOR_H
#define LOTUS_IMAGE_CODEC_COLOR_H

#include <cstdint>

#include "image/geometry.h"
#include "image/image.h"
#include "memory/buffer_pool.h"

namespace lotus::image::codec {

/** A single-channel float plane (pooled storage; reads up to
 *  memory::kSlackBytes past the last sample are in bounds). */
struct Plane
{
    int width = 0;
    int height = 0;
    memory::PooledArray<float> samples;

    Plane() = default;
    Plane(int w, int h)
        : width(w), height(h),
          samples(static_cast<std::size_t>(w) * static_cast<std::size_t>(h),
                  /*zero=*/true)
    {
    }

    /** Plane with indeterminate contents (every sample written by
     *  the decode path). */
    static Plane
    uninitialized(int w, int h)
    {
        Plane p;
        p.width = w;
        p.height = h;
        p.samples = memory::PooledArray<float>(
            static_cast<std::size_t>(w) * static_cast<std::size_t>(h),
            /*zero=*/false);
        return p;
    }

    float *row(int y) { return samples.data() + static_cast<std::size_t>(y) * width; }
    const float *
    row(int y) const
    {
        return samples.data() + static_cast<std::size_t>(y) * width;
    }
};

/** Fractional bits of the fast decode path's integer plane samples:
 *  a PlaneI16 sample counts 1/16ths of a level, so [0, 255] maps to
 *  [0, 4080]. */
constexpr int kSampleFracBits = 4;
/** Largest PlaneI16 sample (255 in 1/16th steps). */
constexpr std::int16_t kSampleMax = 255 << kSampleFracBits;

/**
 * A single-channel integer plane used by the fast decode path:
 * samples are 12.4 fixed point (1/16th-level steps), clamped to
 * [0, kSampleMax] at the block store, so the chroma upsample and the
 * YCC->RGB conversion downstream run in pure integer arithmetic with
 * no per-pixel float<->int conversions.
 */
struct PlaneI16
{
    int width = 0;
    int height = 0;
    /** Frame position of sample (0, 0). A plane decoded for a crop
     *  window holds only the part of its frame the window needs. */
    int x0 = 0;
    int y0 = 0;
    memory::PooledArray<std::int16_t> samples;

    PlaneI16() = default;
    PlaneI16(int w, int h)
        : width(w), height(h),
          samples(static_cast<std::size_t>(w) * static_cast<std::size_t>(h),
                  /*zero=*/true)
    {
    }

    /** Plane with indeterminate contents (every sample written by
     *  the decode path). */
    static PlaneI16
    uninitialized(int w, int h)
    {
        PlaneI16 p;
        p.width = w;
        p.height = h;
        p.samples = memory::PooledArray<std::int16_t>(
            static_cast<std::size_t>(w) * static_cast<std::size_t>(h),
            /*zero=*/false);
        return p;
    }

    std::int16_t *
    row(int y)
    {
        return samples.data() + static_cast<std::size_t>(y) * width;
    }
    const std::int16_t *
    row(int y) const
    {
        return samples.data() + static_cast<std::size_t>(y) * width;
    }
};

/** Quantize a float plane (samples in [0, 255]) to the fast path's
 *  1/16th-step integer representation (round to nearest). */
PlaneI16 quantizePlane(const Plane &plane);

/** Split an RGB image into full-resolution Y, Cb, Cr planes using
 *  precomputed 16-bit fixed-point tables (libjpeg rgb_ycc_convert
 *  style; error < 2^-15 vs the float matrix).
 *  Annotated as rgb_ycc_convert. */
void rgbToYcc(const Image &rgb, Plane &y, Plane &cb, Plane &cr);

/** 2x2 box downsample of a plane (chroma subsampling on encode). */
Plane downsample2x2(const Plane &full);

/** Bilinear 2x upsample back to (w, h): the retained scalar float
 *  reference (per-pixel source index math). Annotated as
 *  sep_upsample. */
Plane upsample2x(const Plane &half, int width, int height);

/** Fast-path bilinear 2x upsample: the source indices and quarter-
 *  unit integer weights are hoisted per column, and the pixel loop is
 *  pure integer (weights {0, 1, 3}/4 are exact, so the result matches
 *  the float reference to within the 1/32-level rounding of the
 *  output grid). Annotated as sep_upsample. */
PlaneI16 upsample2x(const PlaneI16 &half, int width, int height);

/**
 * The fast upsample over @p window of the (width, height) frame only.
 * @p half may hold just the chroma samples the window reads (the
 * window's footprint plus one sample of margin, see chromaSupport).
 * The result's samples inside the window equal those of the
 * full-frame upsample; its origin marks where it sits in the frame.
 */
PlaneI16 upsample2x(const PlaneI16 &half, int width, int height,
                    const Rect &window);

/** The half-resolution chroma samples the h2v2 upsample reads to
 *  produce @p window of a (width, height) frame. */
Rect chromaSupport(const Rect &window, int width, int height);

/**
 * Recombine Y/Cb/Cr planes (all full resolution) into an RGB image:
 * the retained per-pixel float matrix reference. The row-assembly
 * loop is annotated as decompress_onepass and the per-row color math
 * as ycc_rgb_convert, mirroring libjpeg's split.
 */
Image yccToRgb(const Plane &y, const Plane &cb, const Plane &cr);

/**
 * Fast-path YCC->RGB over integer planes: luma feeds the 16.16
 * accumulator directly (shift, exact) and chroma indexes precomputed
 * fixed-point Cr->R / Cb->B / cross-term tables at half-level
 * resolution, keeping every channel within one count of the float
 * reference. Same kernel annotations as the reference overload.
 */
Image yccToRgb(const PlaneI16 &y, const PlaneI16 &cb, const PlaneI16 &cr);

/** The fast YCC->RGB over @p window only (frame coordinates); each
 *  plane may hold any part of the frame that covers the window. */
Image yccToRgb(const PlaneI16 &y, const PlaneI16 &cb, const PlaneI16 &cr,
               const Rect &window);

} // namespace lotus::image::codec

#endif // LOTUS_IMAGE_CODEC_COLOR_H
