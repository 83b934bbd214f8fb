#include "image/codec/codec.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <type_traits>

#include "common/logging.h"
#include "hwcount/registry.h"
#include "image/codec/bitio.h"
#include "image/codec/color.h"
#include "image/codec/dct.h"
#include "metrics/metrics.h"
#include "simd/dispatch.h"

namespace lotus::image::codec {

using hwcount::KernelId;
using hwcount::KernelScope;

namespace {

constexpr char kMagic[4] = {'L', 'J', '0', '1'};
constexpr std::uint32_t kEobRun = 63;

int
blocksAcross(int extent)
{
    return (extent + kBlockDim - 1) / kBlockDim;
}

/** True when block (bx, by) lies fully inside the plane, so loads
 *  and stores need no per-pixel bounds handling. */
template <typename PlaneT>
bool
blockInterior(const PlaneT &plane, int bx, int by)
{
    return (bx + 1) * kBlockDim <= plane.width &&
           (by + 1) * kBlockDim <= plane.height;
}

/** Load an 8x8 block from a plane with edge replication, centered
 *  around zero (sample - 128). */
void
loadBlock(const Plane &plane, int bx, int by, Block &out)
{
    if (blockInterior(plane, bx, by)) {
        // Interior fast path: straight row reads, no clamping.
        for (int y = 0; y < kBlockDim; ++y) {
            const float *row = plane.row(by * kBlockDim + y) +
                               bx * kBlockDim;
            float *dst = &out[static_cast<std::size_t>(y * kBlockDim)];
            for (int x = 0; x < kBlockDim; ++x)
                dst[x] = row[x] - 128.0f;
        }
        return;
    }
    for (int y = 0; y < kBlockDim; ++y) {
        const int sy = std::min(by * kBlockDim + y, plane.height - 1);
        const float *row = plane.row(sy);
        for (int x = 0; x < kBlockDim; ++x) {
            const int sx = std::min(bx * kBlockDim + x, plane.width - 1);
            out[static_cast<std::size_t>(y * kBlockDim + x)] =
                row[sx] - 128.0f;
        }
    }
}

/** Store an 8x8 block into a plane, clipping to plane bounds. */
void
storeBlock(Plane &plane, int bx, int by, const Block &in)
{
    if (blockInterior(plane, bx, by)) {
        // Interior fast path: straight row writes, bounds known good.
        for (int y = 0; y < kBlockDim; ++y) {
            float *row = plane.row(by * kBlockDim + y) + bx * kBlockDim;
            const float *src = &in[static_cast<std::size_t>(y * kBlockDim)];
            for (int x = 0; x < kBlockDim; ++x)
                row[x] = std::clamp(src[x] + 128.0f, 0.0f, 255.0f);
        }
        return;
    }
    for (int y = 0; y < kBlockDim; ++y) {
        const int sy = by * kBlockDim + y;
        if (sy >= plane.height)
            break;
        float *row = plane.row(sy);
        for (int x = 0; x < kBlockDim; ++x) {
            const int sx = bx * kBlockDim + x;
            if (sx >= plane.width)
                break;
            row[sx] = std::clamp(
                in[static_cast<std::size_t>(y * kBlockDim + x)] + 128.0f,
                0.0f, 255.0f);
        }
    }
}

/** Centered IDCT sample -> clamped 1/16th-step integer sample
 *  (round to nearest); the clamp mirrors the float store's
 *  [0, 255] range. */
inline std::int16_t
sampleToI16(float centered)
{
    // Clamp in the float domain: corrupt streams can yield IDCT
    // samples far outside int range, and an out-of-range float->int
    // cast is UB.
    const float s = std::clamp(
        (centered + 128.0f) * (1 << kSampleFracBits) + 0.5f, 0.0f,
        static_cast<float>(kSampleMax));
    return static_cast<std::int16_t>(s);
}

/** Store an 8x8 block into the fast path's integer plane: the single
 *  float->int conversion of the decode tail happens here, so the
 *  chroma upsample and color conversion downstream stay integer. */
void
storeBlock(PlaneI16 &plane, int bx, int by, const Block &in)
{
    if (blockInterior(plane, bx, by)) {
        // Interior blocks go through the dispatched store/clamp
        // kernel (same rounding/clamp as sampleToI16 in every tier).
        simd::kernels().idct_store_block(
            in.data(), plane.row(by * kBlockDim) + bx * kBlockDim,
            plane.width);
        return;
    }
    for (int y = 0; y < kBlockDim; ++y) {
        const int sy = by * kBlockDim + y;
        if (sy >= plane.height)
            break;
        std::int16_t *row = plane.row(sy);
        for (int x = 0; x < kBlockDim; ++x) {
            const int sx = bx * kBlockDim + x;
            if (sx >= plane.width)
                break;
            row[sx] =
                sampleToI16(in[static_cast<std::size_t>(y * kBlockDim + x)]);
        }
    }
}

/** Entropy-code one quantized block (DC delta + AC runs). */
void
writeBlock(BitWriter &writer, const QuantBlock &q, std::int32_t &dc_pred,
           std::uint64_t &symbols)
{
    const auto &zz = zigzagOrder();
    const std::int32_t dc = q[static_cast<std::size_t>(zz[0])];
    writer.putSe(dc - dc_pred);
    dc_pred = dc;
    ++symbols;

    int run = 0;
    for (int k = 1; k < kBlockSize; ++k) {
        const std::int32_t level = q[static_cast<std::size_t>(zz[k])];
        if (level == 0) {
            ++run;
            continue;
        }
        writer.putUe(static_cast<std::uint32_t>(run));
        writer.putSe(level);
        symbols += 2;
        run = 0;
    }
    writer.putUe(kEobRun);
    ++symbols;
}

/** Decode one quantized block. Returns false on stream corruption.
 *  @p extent summarizes the coded coefficients (count and last zigzag
 *  index) so the inverse transform can take sparse fast paths.
 *
 *  AC pairs whose codes fit kAcPairBits decode whole from one table
 *  lookup, several lookups to one peek; the DC delta, the
 *  end-of-block code and longer or invalid pairs take the countl_zero
 *  path. Reads never stop at the end of the payload (past-the-end
 *  bits peek as zeros), so the past-the-end check runs once, when the
 *  block is complete. */
bool
readBlock(BitReader &reader, QuantBlock &q, std::int32_t &dc_pred,
          std::uint64_t &symbols, CoeffExtent &extent)
{
    // Coefficient magnitude bound: valid quantized levels never leave
    // the low thousands (samples are 8-bit, the DCT is orthonormal),
    // but a corrupt stream can code near-INT32_MAX levels whose
    // accumulation and downstream dequant math would overflow. Reject
    // anything far outside the legitimate range as corruption.
    constexpr std::int64_t kMaxCoeffMagnitude = std::int64_t(1) << 20;

    const auto &zz = zigzagOrder();
    q.fill(0);
    std::uint32_t code = 0;
    if (!reader.readUe(code))
        return false;
    const std::int64_t dc =
        static_cast<std::int64_t>(dc_pred) + ueToSigned(code);
    if (dc < -kMaxCoeffMagnitude || dc > kMaxCoeffMagnitude)
        return false;
    dc_pred = static_cast<std::int32_t>(dc);
    q[static_cast<std::size_t>(zz[0])] = dc_pred;
    ++symbols;
    extent.nonzero = dc_pred != 0 ? 1 : 0;
    extent.last_zz = 0;

    int k = 1;
    std::uint64_t window = 0;
    int window_bits = 0;
    while (k < kBlockSize) {
        if (window_bits < kAcPairBits) {
            window = reader.peek();
            window_bits = kPeekBits;
        }
        const AcPair pair = kAcPairTable[window >> (64 - kAcPairBits)];
        int run = pair.run;
        std::int32_t level = pair.level;
        if (pair.bits != 0) {
            reader.skip(pair.bits);
            window <<= pair.bits;
            window_bits -= pair.bits;
        } else {
            window_bits = 0;
            if (!reader.readUe(code))
                return false;
            if (code == kEobRun) {
                ++symbols;
                return !reader.overrun();
            }
            // A corrupt stream can code an arbitrary run; reject it
            // before the int cast below can wrap negative.
            if (code > static_cast<std::uint32_t>(kBlockSize))
                return false;
            run = static_cast<int>(code);
            if (!reader.readUe(code))
                return false;
            level = ueToSigned(code);
            if (level == 0 || level < -kMaxCoeffMagnitude ||
                level > kMaxCoeffMagnitude)
                return false;
        }
        k += run;
        if (k >= kBlockSize)
            return false;
        q[static_cast<std::size_t>(zz[k])] = level;
        symbols += 2;
        ++extent.nonzero;
        extent.last_zz = static_cast<std::int16_t>(k);
        ++k;
    }
    // A full block of 63 coded ACs still carries its EOB marker.
    if (!reader.readUe(code) || code != kEobRun)
        return false;
    ++symbols;
    return !reader.overrun();
}

void
encodePlane(const Plane &plane, const std::array<std::uint16_t, 64> &table,
            BitWriter &writer)
{
    const int bw = blocksAcross(plane.width);
    const int bh = blocksAcross(plane.height);
    std::int32_t dc_pred = 0;
    std::vector<QuantBlock> row_blocks(static_cast<std::size_t>(bw));
    for (int by = 0; by < bh; ++by) {
        {
            KernelScope fdct_scope(KernelId::ForwardDct);
            KernelScope quant_scope(KernelId::QuantizeBlock);
            // Interleaved per-block fdct+quant; attribute the DCT math
            // to forward_dct and the division pass to quantize_block
            // by splitting work stats (time lands on the inner scope's
            // self time, which is the quantize pass here).
            for (int bx = 0; bx < bw; ++bx) {
                Block spatial, freq;
                loadBlock(plane, bx, by, spatial);
                forwardDct(spatial, freq);
                quantize(freq, table, row_blocks[static_cast<std::size_t>(bx)]);
            }
            fdct_scope.stats().arith_ops +=
                static_cast<std::uint64_t>(bw) * 64 * 16;
            fdct_scope.stats().bytes_read +=
                static_cast<std::uint64_t>(bw) * 64 * 4;
            fdct_scope.stats().items += static_cast<std::uint64_t>(bw);
            quant_scope.stats().arith_ops +=
                static_cast<std::uint64_t>(bw) * 64 * 2;
            quant_scope.stats().bytes_written +=
                static_cast<std::uint64_t>(bw) * 64 * 4;
            quant_scope.stats().items += static_cast<std::uint64_t>(bw);
        }
        {
            KernelScope entropy_scope(KernelId::EncodeMcu);
            std::uint64_t symbols = 0;
            const std::size_t bits_before = writer.bitCount();
            for (int bx = 0; bx < bw; ++bx)
                writeBlock(writer, row_blocks[static_cast<std::size_t>(bx)],
                           dc_pred, symbols);
            entropy_scope.stats().branches += symbols * 3;
            entropy_scope.stats().arith_ops += symbols * 4;
            entropy_scope.stats().bytes_written +=
                (writer.bitCount() - bits_before) / 8;
            entropy_scope.stats().items += symbols;
        }
    }
}

/** The blocks of one plane, columns [bx0, bx1) and rows [by0, by1),
 *  that a decode keeps. */
struct BlockRange
{
    int bx0 = 0;
    int bx1 = 0;
    int by0 = 0;
    int by1 = 0;
};

/** The blocks of a (width, height) plane that meet @p region. */
BlockRange
blocksMeeting(const Rect &region, int width, int height)
{
    return BlockRange{region.x / kBlockDim,
                      std::min(blocksAcross(region.x + region.width),
                               blocksAcross(width)),
                      region.y / kBlockDim,
                      std::min(blocksAcross(region.y + region.height),
                               blocksAcross(height))};
}

/** Uninitialized storage for the kept blocks of a (width, height)
 *  plane: edge blocks are clipped to the plane, as in a full decode. */
template <typename PlaneT>
PlaneT
planeFor(const BlockRange &keep, int width, int height)
{
    const int x0 = keep.bx0 * kBlockDim;
    const int y0 = keep.by0 * kBlockDim;
    PlaneT plane = PlaneT::uninitialized(
        std::min(width, keep.bx1 * kBlockDim) - x0,
        std::min(height, keep.by1 * kBlockDim) - y0);
    if constexpr (std::is_same_v<PlaneT, PlaneI16>) {
        plane.x0 = x0;
        plane.y0 = y0;
    }
    return plane;
}

/** Decode one (width, height) plane. Every block is entropy-decoded
 *  (DC prediction chains across the whole plane, and every stream
 *  must get the same verdict), but only the blocks in @p keep are
 *  dequantized, transformed and stored, into @p plane (planeFor).
 *  The plane type selects the implementation: the float Plane runs
 *  the retained dense reference (dequantize + dense IDCT), the
 *  integer PlaneI16 runs the fast path (fused sparse dequant + IDCT,
 *  integer block store). Both attribute work to the same decode_mcu
 *  / dequantize_block / jpeg_idct_islow kernels. */
template <typename PlaneT>
bool
decodePlane(PlaneT &plane, int width, int height, const BlockRange &keep,
            const std::array<std::uint16_t, 64> &table, BitReader &reader)
{
    constexpr bool reference = std::is_same_v<PlaneT, Plane>;
    const int bw = blocksAcross(width);
    const int bh = blocksAcross(height);
    const auto kept = static_cast<std::uint64_t>(keep.bx1 - keep.bx0);
    std::int32_t dc_pred = 0;
    std::vector<QuantBlock> row_blocks(static_cast<std::size_t>(bw));
    std::vector<CoeffExtent> row_extents(static_cast<std::size_t>(bw));
    for (int by = 0; by < bh; ++by) {
        {
            KernelScope entropy_scope(KernelId::DecodeMcu);
            std::uint64_t symbols = 0;
            const std::size_t bits_before = reader.bitPosition();
            for (int bx = 0; bx < bw; ++bx) {
                if (!readBlock(reader,
                               row_blocks[static_cast<std::size_t>(bx)],
                               dc_pred, symbols,
                               row_extents[static_cast<std::size_t>(bx)]))
                    return false;
            }
            entropy_scope.stats().branches += symbols * 3;
            entropy_scope.stats().arith_ops += symbols * 4;
            entropy_scope.stats().bytes_read +=
                (reader.bitPosition() - bits_before) / 8;
            entropy_scope.stats().items += symbols;
        }
        if (by < keep.by0 || by >= keep.by1)
            continue;
        const int row = by - keep.by0;
        if constexpr (reference) {
            KernelScope dequant_scope(KernelId::DequantizeBlock);
            KernelScope idct_scope(KernelId::IdctBlock);
            for (int bx = keep.bx0; bx < keep.bx1; ++bx) {
                Block freq, spatial;
                dequantize(row_blocks[static_cast<std::size_t>(bx)], table,
                           freq);
                inverseDct(freq, spatial);
                storeBlock(plane, bx - keep.bx0, row, spatial);
            }
            dequant_scope.stats().arith_ops += kept * 64;
            dequant_scope.stats().bytes_read += kept * 64 * 4;
            dequant_scope.stats().items += kept;
            idct_scope.stats().arith_ops += kept * 64 * 16;
            idct_scope.stats().bytes_written += kept * 64 * 4;
            idct_scope.stats().items += kept;
        } else {
            // Fused sparse dequant + IDCT. Work stats record the work
            // *actually done*: the dequantize pass multiplies only the
            // nonzero coefficients and scans only the coded prefix of
            // the zigzag order; the IDCT reports the sparse op count.
            KernelScope dequant_scope(KernelId::DequantizeBlock);
            KernelScope idct_scope(KernelId::IdctBlock);
            std::uint64_t dequant_mults = 0;
            std::uint64_t coeffs_scanned = 0;
            std::uint64_t idct_ops = 0;
            for (int bx = keep.bx0; bx < keep.bx1; ++bx) {
                const auto &extent =
                    row_extents[static_cast<std::size_t>(bx)];
                Block spatial;
                idct_ops += dequantIdctSparse(
                    row_blocks[static_cast<std::size_t>(bx)], table, extent,
                    spatial);
                storeBlock(plane, bx - keep.bx0, row, spatial);
                if (extent.nonzero >= kIdctDenseCutoff) {
                    // Dense fallback dequantizes the whole block.
                    dequant_mults += 64;
                    coeffs_scanned += 64;
                } else {
                    dequant_mults +=
                        static_cast<std::uint64_t>(extent.nonzero);
                    coeffs_scanned +=
                        static_cast<std::uint64_t>(extent.last_zz) + 1;
                }
            }
            dequant_scope.stats().arith_ops += dequant_mults;
            dequant_scope.stats().bytes_read += coeffs_scanned * 4;
            dequant_scope.stats().items += kept;
            idct_scope.stats().arith_ops += idct_ops;
            idct_scope.stats().bytes_written += kept * 64 * 4;
            idct_scope.stats().items += kept;
        }
    }
    return true;
}

/** Plane decode + upsample + color-convert tail over @p window,
 *  shared between the fast (PlaneI16) and reference (Plane)
 *  pipelines. The fast tail transforms, upsamples and converts only
 *  what the window needs; the reference decodes the whole frame and
 *  crops. */
template <typename PlaneT>
Result<Image>
decodeTail(const LjpgHeader &header, const Rect &window, BitReader &reader)
{
    constexpr bool reference = std::is_same_v<PlaneT, Plane>;
    const Rect frame{0, 0, header.width, header.height};
    const Rect luma_region = reference ? frame : window;
    const int cw = header.subsampled ? (header.width + 1) / 2 : header.width;
    const int ch =
        header.subsampled ? (header.height + 1) / 2 : header.height;
    // Subsampled chroma keeps one half sample of margin around the
    // window for the upsample's bilinear taps.
    const Rect chroma_region =
        reference || !header.subsampled
            ? luma_region
            : chromaSupport(window, header.width, header.height);
    const BlockRange luma_keep =
        blocksMeeting(luma_region, header.width, header.height);
    const BlockRange chroma_keep = blocksMeeting(chroma_region, cw, ch);
    // Every kept sample is written by the block store below, so the
    // planes can skip the zero fill (one less memset per sample).
    PlaneT y = planeFor<PlaneT>(luma_keep, header.width, header.height);
    PlaneT cb = planeFor<PlaneT>(chroma_keep, cw, ch);
    PlaneT cr = planeFor<PlaneT>(chroma_keep, cw, ch);

    const auto luma_table = quantTable(header.quality, /*chroma=*/false);
    const auto chroma_table = quantTable(header.quality, /*chroma=*/true);
    if (!decodePlane(y, header.width, header.height, luma_keep, luma_table,
                     reader))
        return LOTUS_ERROR(ErrorCode::kCorruptData,
                           "corrupt LJPG luma plane (bit %zu)",
                           reader.bitPosition());
    reader.alignByte();
    if (!decodePlane(cb, cw, ch, chroma_keep, chroma_table, reader))
        return LOTUS_ERROR(ErrorCode::kCorruptData,
                           "corrupt LJPG Cb plane (bit %zu)",
                           reader.bitPosition());
    reader.alignByte();
    if (!decodePlane(cr, cw, ch, chroma_keep, chroma_table, reader))
        return LOTUS_ERROR(ErrorCode::kCorruptData,
                           "corrupt LJPG Cr plane (bit %zu)",
                           reader.bitPosition());

    if constexpr (reference) {
        if (header.subsampled) {
            cb = upsample2x(cb, header.width, header.height);
            cr = upsample2x(cr, header.width, header.height);
        }
        Image image = yccToRgb(y, cb, cr);
        if (window.width == header.width && window.height == header.height)
            return image;
        return crop(image, window);
    } else {
        if (header.subsampled) {
            cb = upsample2x(cb, header.width, header.height, window);
            cr = upsample2x(cr, header.width, header.height, window);
        }
        return yccToRgb(y, cb, cr, window);
    }
}

} // namespace

std::string
encode(const Image &input, const EncodeOptions &options)
{
    LOTUS_ASSERT(input.width() > 0 && input.height() > 0,
                 "cannot encode an empty image");
    LOTUS_ASSERT(input.width() <= 0xFFFF && input.height() <= 0xFFFF,
                 "image too large for LJPG header");

    Plane y, cb, cr;
    rgbToYcc(input, y, cb, cr);
    if (options.subsample_chroma) {
        cb = downsample2x2(cb);
        cr = downsample2x2(cr);
    }

    BitWriter writer;
    const auto luma_table = quantTable(options.quality, /*chroma=*/false);
    const auto chroma_table = quantTable(options.quality, /*chroma=*/true);
    encodePlane(y, luma_table, writer);
    writer.alignByte();
    encodePlane(cb, chroma_table, writer);
    writer.alignByte();
    encodePlane(cr, chroma_table, writer);

    std::string payload = writer.take();
    std::string out;
    out.reserve(payload.size() + 10);
    out.append(kMagic, sizeof(kMagic));
    const auto w = static_cast<std::uint16_t>(input.width());
    const auto h = static_cast<std::uint16_t>(input.height());
    out.push_back(static_cast<char>(w & 0xFF));
    out.push_back(static_cast<char>(w >> 8));
    out.push_back(static_cast<char>(h & 0xFF));
    out.push_back(static_cast<char>(h >> 8));
    out.push_back(static_cast<char>(options.quality));
    out.push_back(static_cast<char>(options.subsample_chroma ? 1 : 0));
    out += payload;
    return out;
}

Result<LjpgHeader>
tryPeekHeader(const std::string &bytes)
{
    if (bytes.size() < 10)
        return LOTUS_ERROR(ErrorCode::kTruncated,
                           "not an LJPG stream (%zu bytes, header needs 10)",
                           bytes.size());
    if (std::memcmp(bytes.data(), kMagic, 4) != 0)
        return LOTUS_ERROR(ErrorCode::kCorruptData,
                           "not an LJPG stream (bad magic)");
    LjpgHeader header;
    const auto *u = reinterpret_cast<const std::uint8_t *>(bytes.data());
    header.width = u[4] | (u[5] << 8);
    header.height = u[6] | (u[7] << 8);
    header.quality = u[8];
    header.subsampled = u[9] != 0;
    if (header.width <= 0 || header.height <= 0 || header.quality < 1 ||
        header.quality > 100)
        return LOTUS_ERROR(ErrorCode::kCorruptData,
                           "corrupt LJPG header (%dx%d q%d)", header.width,
                           header.height, header.quality);
    return header;
}

LjpgHeader
peekHeader(const std::string &bytes)
{
    Result<LjpgHeader> header = tryPeekHeader(bytes);
    if (!header.ok())
        LOTUS_FATAL("%s", header.error().describe().c_str());
    return header.take();
}

namespace {

/** Decode telemetry: latency histogram plus fast/reference-path hit
 *  counters. Handles resolve once; recording is branch-gated. */
struct DecodeMetrics
{
    metrics::Histogram *decode_ns;
    metrics::Counter *fast_total;
    metrics::Counter *reference_total;

    static const DecodeMetrics &
    instance()
    {
        static const DecodeMetrics m = [] {
            auto &registry = metrics::MetricsRegistry::instance();
            return DecodeMetrics{
                registry.histogram("lotus_codec_decode_ns"),
                registry.counter("lotus_codec_decode_fast_total"),
                registry.counter("lotus_codec_decode_reference_total"),
            };
        }();
        return m;
    }
};

/** tryDecode and tryDecodeWindow: @p window (nullopt = the whole
 *  frame) is checked against the header after every header check. */
Result<Image>
decodeImpl(const std::string &bytes, const std::optional<Rect> &window,
           const DecodeOptions &options)
{
    const DecodeMetrics &decode_metrics = DecodeMetrics::instance();
    metrics::ScopedTimer decode_timer(decode_metrics.decode_ns);
    if (options.reference)
        decode_metrics.reference_total->add(1);
    else
        decode_metrics.fast_total->add(1);

    Result<LjpgHeader> parsed = tryPeekHeader(bytes);
    if (!parsed.ok())
        return parsed.takeError();
    const LjpgHeader header = parsed.take();
    if (static_cast<std::int64_t>(header.width) * header.height >
        options.max_pixels)
        return LOTUS_ERROR(ErrorCode::kCorruptData,
                           "LJPG header claims %dx%d, above the %lld-pixel "
                           "decode cap",
                           header.width, header.height,
                           static_cast<long long>(options.max_pixels));
    const Rect region = window.value_or(Rect{0, 0, header.width,
                                             header.height});
    LOTUS_ASSERT(region.x >= 0 && region.y >= 0 && region.width > 0 &&
                     region.height > 0 &&
                     region.x + region.width <= header.width &&
                     region.y + region.height <= header.height,
                 "decode window (%d,%d %dx%d) outside %dx%d frame",
                 region.x, region.y, region.width, region.height,
                 header.width, header.height);
    const auto *payload =
        reinterpret_cast<const std::uint8_t *>(bytes.data()) + 10;
    const std::size_t payload_size = bytes.size() - 10;

    // Reference mode keeps the source-manager style bulk copy of the
    // compressed payload; the fast path consumes the caller's buffer
    // in place (zero-copy) and only scans it.
    std::vector<std::uint8_t> buffered;
    {
        KernelScope fill_scope(KernelId::FillBitBuffer);
        if (options.reference) {
            buffered.assign(bytes.begin() + 10, bytes.end());
            fill_scope.stats().bytes_written += payload_size;
        }
        fill_scope.stats().bytes_read += payload_size;
        fill_scope.stats().items += payload_size;
    }
    BitReader reader(options.reference ? buffered.data() : payload,
                     payload_size);
    if (options.reference)
        return decodeTail<Plane>(header, region, reader);
    return decodeTail<PlaneI16>(header, region, reader);
}

} // namespace

Result<Image>
tryDecode(const std::string &bytes, const DecodeOptions &options)
{
    return decodeImpl(bytes, std::nullopt, options);
}

Result<Image>
tryDecodeWindow(const std::string &bytes, const Rect &window,
                const DecodeOptions &options)
{
    return decodeImpl(bytes, window, options);
}

Image
decode(const std::string &bytes, const DecodeOptions &options)
{
    Result<Image> image = tryDecode(bytes, options);
    if (!image.ok())
        LOTUS_FATAL("%s", image.error().describe().c_str());
    return image.take();
}

} // namespace lotus::image::codec
