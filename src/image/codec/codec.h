/**
 * @file
 * The LJPG image codec (libjpeg analogue).
 *
 * A real lossy block-transform codec: RGB -> YCbCr with optional
 * 4:2:0 chroma subsampling, 8x8 orthonormal DCT, JPEG-style quality-
 * scaled quantization, zigzag scan, and zero-run/Exp-Golomb entropy
 * coding with per-plane DC prediction. Encoded size is content
 * dependent, decode cost scales with pixels and coded symbols, and
 * the decode path exposes the leaf kernels the paper's Table I lists
 * for Image.convert (decode_mcu, jpeg_idct_islow, ycc_rgb_convert,
 * sep_upsample, decompress_onepass, jpeg_fill_bit_buffer, ...).
 */

#ifndef LOTUS_IMAGE_CODEC_CODEC_H
#define LOTUS_IMAGE_CODEC_CODEC_H

#include <string>

#include "common/result.h"
#include "image/geometry.h"
#include "image/image.h"

namespace lotus::image::codec {

struct EncodeOptions
{
    /** JPEG-style quality in [1, 100]. */
    int quality = 85;
    /** 4:2:0 chroma subsampling. */
    bool subsample_chroma = true;
};

/** Encode an image into an LJPG byte string. */
std::string encode(const Image &input, const EncodeOptions &options = {});

/** Metadata readable without decoding (the format header). */
struct LjpgHeader
{
    int width = 0;
    int height = 0;
    int quality = 0;
    bool subsampled = false;
};

/**
 * Parse just the header. Returns an error on malformed magic,
 * truncation, or out-of-range fields — LJPG bytes are untrusted
 * input, so corruption must never abort the process.
 */
Result<LjpgHeader> tryPeekHeader(const std::string &bytes);

/** Fatal wrapper over tryPeekHeader for trusted (self-encoded)
 *  fixtures where corruption would be a harness bug. */
LjpgHeader peekHeader(const std::string &bytes);

struct DecodeOptions
{
    /**
     * Run the retained scalar reference tail (bulk payload copy,
     * dense dequantize + IDCT, float color conversion and chroma
     * upsampling) instead of the optimized fast path. Both modes share
     * the one table-driven entropy decoder (decode_mcu), so they agree
     * on every accept/reject verdict; their pixels agree within
     * max-abs-diff <= 1 per channel. The reference exists for
     * differential testing and as the baseline in perf trajectory
     * benches. Both paths emit the same KernelIds.
     */
    bool reference = false;
    /**
     * Upper bound on header.width * header.height before any plane
     * is allocated. A flipped header byte can claim a 65535x65535
     * image from a 2 KB blob; the cap turns that into a decode error
     * instead of a multi-GiB allocation. The default (64 Mpixel,
     * 8192x8192) is far above every workload in this repo.
     */
    std::int64_t max_pixels = std::int64_t(1) << 26;
};

/**
 * Decode an LJPG byte string back to an RGB image. All malformed
 * input — bad magic, corrupt header, truncated or bit-flipped
 * entropy payload — comes back as an Error, never a crash; the fault
 * injection suite sweeps every single-byte truncation and seeded
 * random flips over this entry point.
 */
Result<Image> tryDecode(const std::string &bytes,
                        const DecodeOptions &options = {});

/**
 * Decode only @p window (frame coordinates) of an LJPG stream, e.g. a
 * crop window drawn from tryPeekHeader's dimensions. The result is
 * bit-identical to crop(tryDecode(bytes), window), and every stream
 * gets the same verdict and ErrorCode as tryDecode: the entropy decode
 * still walks every block of every plane (DC prediction chains across
 * the plane), but the fast path dequantizes, transforms, upsamples
 * and color-converts only the blocks and pixels the window needs. The
 * reference mode decodes the whole frame and crops. A window outside
 * a header that passes every check is a caller bug (fatal).
 */
Result<Image> tryDecodeWindow(const std::string &bytes, const Rect &window,
                              const DecodeOptions &options = {});

/** Fatal wrapper over tryDecode for trusted fixtures (benches,
 *  differential tests) where corruption would be a harness bug. */
Image decode(const std::string &bytes, const DecodeOptions &options = {});

} // namespace lotus::image::codec

#endif // LOTUS_IMAGE_CODEC_CODEC_H
