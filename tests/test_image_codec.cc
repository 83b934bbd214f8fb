/**
 * @file
 * Unit and property tests for the LJPG codec: bit I/O, DCT,
 * quantization, zigzag, and full encode/decode round trips.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>

#include "common/rng.h"
#include "hwcount/registry.h"
#include "image/codec/bitio.h"
#include "image/codec/codec.h"
#include "image/codec/color.h"
#include "image/codec/dct.h"
#include "image/geometry.h"
#include "image/synth.h"

namespace lotus::image::codec {
namespace {

TEST(BitIo, BitsRoundTrip)
{
    BitWriter writer;
    writer.putBits(0b101, 3);
    writer.putBits(0xFFFF, 16);
    writer.putBits(0, 1);
    const std::string bytes = writer.take();
    BitReader reader(reinterpret_cast<const std::uint8_t *>(bytes.data()),
                     bytes.size());
    EXPECT_EQ(reader.getBits(3), 0b101u);
    EXPECT_EQ(reader.getBits(16), 0xFFFFu);
    EXPECT_EQ(reader.getBits(1), 0u);
    EXPECT_FALSE(reader.overrun());
}

TEST(BitIo, ExpGolombUnsignedRoundTrip)
{
    BitWriter writer;
    const std::uint32_t values[] = {0, 1, 2, 3, 62, 63, 64, 255, 100000};
    for (const auto v : values)
        writer.putUe(v);
    const std::string bytes = writer.take();
    BitReader reader(reinterpret_cast<const std::uint8_t *>(bytes.data()),
                     bytes.size());
    for (const auto v : values)
        EXPECT_EQ(reader.getUe(), v);
}

TEST(BitIo, ExpGolombSignedRoundTrip)
{
    BitWriter writer;
    const std::int32_t values[] = {0, 1, -1, 2, -2, 1000, -1000, 32767};
    for (const auto v : values)
        writer.putSe(v);
    const std::string bytes = writer.take();
    BitReader reader(reinterpret_cast<const std::uint8_t *>(bytes.data()),
                     bytes.size());
    for (const auto v : values)
        EXPECT_EQ(reader.getSe(), v);
}

TEST(BitIo, RandomizedGolombRoundTrip)
{
    Rng rng(99);
    std::vector<std::int32_t> values;
    BitWriter writer;
    for (int i = 0; i < 5000; ++i) {
        const auto v =
            static_cast<std::int32_t>(rng.uniformInt(-100000, 100000));
        values.push_back(v);
        writer.putSe(v);
    }
    const std::string bytes = writer.take();
    BitReader reader(reinterpret_cast<const std::uint8_t *>(bytes.data()),
                     bytes.size());
    for (const auto v : values)
        EXPECT_EQ(reader.getSe(), v);
    EXPECT_FALSE(reader.overrun());
}

TEST(BitIo, OverrunDetected)
{
    const std::uint8_t byte = 0xAB;
    BitReader reader(&byte, 1);
    reader.getBits(8);
    EXPECT_FALSE(reader.overrun());
    reader.getBits(1);
    EXPECT_TRUE(reader.overrun());
}

TEST(BitIo, OutOfRangeCountSetsOverrun)
{
    // Corrupt Exp-Golomb prefixes can ask for absurd bit counts; the
    // reader must flag overrun instead of asserting (bitstream
    // contents are untrusted input).
    const std::uint8_t bytes[4] = {1, 2, 3, 4};
    BitReader wide(bytes, sizeof(bytes));
    EXPECT_EQ(wide.getBits(40), 0u);
    EXPECT_TRUE(wide.overrun());
    BitReader negative(bytes, sizeof(bytes));
    EXPECT_EQ(negative.getBits(-1), 0u);
    EXPECT_TRUE(negative.overrun());
}

TEST(BitIo, AlignByte)
{
    BitWriter writer;
    writer.putBits(1, 1);
    writer.alignByte();
    writer.putBits(0xAA, 8);
    const std::string bytes = writer.take();
    ASSERT_EQ(bytes.size(), 2u);
    BitReader reader(reinterpret_cast<const std::uint8_t *>(bytes.data()),
                     bytes.size());
    reader.getBits(1);
    reader.alignByte();
    EXPECT_EQ(reader.getBits(8), 0xAAu);
}

/** @p zeros leading zero bits, a 1, then enough payload for the
 *  code's tail and the reader's 8-byte peek. */
std::vector<std::uint8_t>
zeroPrefixedCode(int zeros)
{
    BitWriter writer;
    writer.putBits(0, zeros / 2);
    writer.putBits(0, zeros - zeros / 2);
    writer.putBits(1, 1);
    writer.putBits(0x5A5A5A5Au, 32);
    writer.putBits(0x5A5A5A5Au, 32);
    const std::string bytes = writer.take();
    return {bytes.begin(), bytes.end()};
}

TEST(BitIo, OverlongExpGolombPrefixIsRejected)
{
    // 28 zeros is the longest prefix the reader accepts; 31..33 used
    // to reach the bit-at-a-time loop, and 32 evaluated 1u << 32.
    const auto ok = zeroPrefixedCode(kMaxUeZeros);
    BitReader accepted(ok.data(), ok.size());
    std::uint32_t value = 0;
    ASSERT_TRUE(accepted.readUe(value));
    EXPECT_EQ(value, ((1u << 28) | (0x5A5A5A5Au >> 4)) - 1);
    EXPECT_EQ(accepted.bitPosition(), 57u);
    EXPECT_FALSE(accepted.overrun());

    for (const int zeros : {29, 31, 32, 33}) {
        const auto bytes = zeroPrefixedCode(zeros);
        BitReader reader(bytes.data(), bytes.size());
        EXPECT_FALSE(reader.readUe(value)) << zeros << " zeros";
        EXPECT_TRUE(reader.overrun()) << zeros << " zeros";
        BitReader again(bytes.data(), bytes.size());
        EXPECT_EQ(again.getUe(), 0u);
        EXPECT_TRUE(again.overrun());
    }
}

TEST(BitIo, CodesStraddlingTheFinalPeekBoundary)
{
    // Payloads of 1..17 bytes filled exactly (no padding) with codes of
    // mixed length, at every bit phase: the codes cross the boundary
    // where peeks switch from the 8-byte load to the zero-padded tail.
    Rng rng(17);
    for (std::size_t size = 1; size <= 17; ++size) {
        for (int trial = 0; trial < 40; ++trial) {
            BitWriter writer;
            std::vector<std::uint32_t> values;
            const std::size_t total_bits = size * 8;
            for (;;) {
                const auto value = static_cast<std::uint32_t>(
                    rng.nextBelow(std::uint64_t(1) << rng.nextBelow(14)));
                if (writer.bitCount() + static_cast<std::size_t>(
                                            ueCodeBits(value)) >
                    total_bits)
                    break;
                writer.putUe(value);
                values.push_back(value);
            }
            while (writer.bitCount() < total_bits) {
                writer.putUe(0); // one '1' bit
                values.push_back(0);
            }
            const std::string bytes = writer.take();
            ASSERT_EQ(bytes.size(), size);
            BitReader reader(reinterpret_cast<const std::uint8_t *>(
                                 bytes.data()),
                             bytes.size());
            for (const auto expected : values) {
                std::uint32_t value = 0;
                ASSERT_TRUE(reader.readUe(value));
                ASSERT_EQ(value, expected) << "payload " << size;
            }
            EXPECT_EQ(reader.bitPosition(), total_bits);
            EXPECT_FALSE(reader.overrun());
            // Nothing is left but the zero padding past the end.
            std::uint32_t value = 0;
            EXPECT_FALSE(reader.readUe(value));
            EXPECT_TRUE(reader.overrun());
        }
    }
}

TEST(BitIo, ZeroPaddedTailNeverDecodesAsAValidCode)
{
    for (std::size_t size = 1; size <= 17; ++size) {
        // A payload of only zero bits holds no code at any offset.
        const std::vector<std::uint8_t> zeros(size, 0);
        for (std::size_t skip = 0; skip < size * 8; ++skip) {
            BitReader reader(zeros.data(), zeros.size());
            reader.skip(static_cast<int>(skip));
            std::uint32_t value = 0;
            EXPECT_FALSE(reader.readUe(value) && !reader.overrun());
        }
        // A prefix whose marker bit is the last payload bit needs its
        // tail from the padding: decoded, but overrun.
        std::vector<std::uint8_t> last_bit(size, 0);
        last_bit.back() = 1;
        BitReader reader(last_bit.data(), last_bit.size());
        std::uint32_t value = 0;
        if (reader.readUe(value)) {
            EXPECT_TRUE(reader.overrun()) << "payload " << size;
        }
        // A one-bit code ending exactly at the last payload bit is
        // valid.
        BitReader one_bit(last_bit.data(), last_bit.size());
        one_bit.skip(static_cast<int>(size * 8) - 1);
        ASSERT_TRUE(one_bit.readUe(value));
        EXPECT_EQ(value, 0u);
        EXPECT_FALSE(one_bit.overrun());
    }
}

/** Work a kernel accumulated so far, over every thread. */
hwcount::WorkStats
kernelStats(hwcount::KernelId id)
{
    return hwcount::KernelRegistry::instance()
        .snapshot()
        .aggregate[static_cast<std::size_t>(id)]
        .stats;
}

/** An 8x8, q75, full-chroma LJPG header followed by @p payload. */
std::string
craftedBlob(const std::string &payload)
{
    const char header[10] = {'L', 'J', '0', '1', 8, 0, 8, 0, 75, 0};
    return std::string(header, sizeof(header)) + payload;
}

TEST(BitIo, EveryTableWidthAcPairRoundTrips)
{
    // Every (run, level) pair whose two codes fit kAcPairBits decodes
    // whole from kAcPairTable, at every bit phase; every other table
    // entry sends the decoder to the countl_zero path.
    int pairs = 0;
    std::vector<bool> covered(kAcPairTable.size(), false);
    for (int run = 0; run < 64; ++run) {
        for (int level = -40; level <= 40; ++level) {
            const int bits = ueCodeBits(static_cast<std::uint32_t>(run)) +
                             ueCodeBits(signedToUe(level));
            const bool fits = level != 0 && run < 63 && bits <= kAcPairBits;
            for (int phase = 0; phase < 8; ++phase) {
                BitWriter writer;
                writer.putBits(0x7F, phase);
                writer.putUe(static_cast<std::uint32_t>(run));
                writer.putSe(level);
                writer.putBits(0x7FFFFFFF, 31);
                const std::string bytes = writer.take();
                BitReader reader(
                    reinterpret_cast<const std::uint8_t *>(bytes.data()),
                    bytes.size());
                reader.skip(phase);
                const std::size_t index =
                    reader.peek() >> (64 - kAcPairBits);
                const AcPair pair = kAcPairTable[index];
                if (!fits) {
                    // Invalid or too long for the table: never a hit
                    // that would decode this pair.
                    EXPECT_FALSE(pair.bits != 0 && pair.run == run &&
                                 pair.level == level);
                    continue;
                }
                ASSERT_EQ(pair.bits, bits) << run << "," << level;
                EXPECT_EQ(pair.run, run);
                EXPECT_EQ(pair.level, level);
                const std::size_t span = std::size_t(1) << (kAcPairBits - bits);
                for (std::size_t i = index & ~(span - 1);
                     i < (index & ~(span - 1)) + span; ++i)
                    covered[i] = true;
            }
            if (!fits)
                continue;
            ++pairs;
            // The same pair through readBlock: an 8x8 full-chroma image
            // whose luma block codes DC 0, the pair, then EOB.
            BitWriter payload;
            payload.putSe(0);
            payload.putUe(static_cast<std::uint32_t>(run));
            payload.putSe(level);
            payload.putUe(63);
            for (int chroma = 0; chroma < 2; ++chroma) {
                payload.alignByte();
                payload.putSe(0);
                payload.putUe(63);
            }
            const hwcount::WorkStats before =
                kernelStats(hwcount::KernelId::DecodeMcu);
            Result<Image> decoded = tryDecode(craftedBlob(payload.take()));
            ASSERT_TRUE(decoded.ok()) << run << "," << level;
            EXPECT_EQ(kernelStats(hwcount::KernelId::DecodeMcu).items -
                          before.items,
                      8u);
        }
    }
    EXPECT_GT(pairs, 200);
    for (std::size_t i = 0; i < kAcPairTable.size(); ++i)
        EXPECT_EQ(kAcPairTable[i].bits != 0, static_cast<bool>(covered[i]))
            << "entry " << i;
}

TEST(BitIo, AlignByteBetweenPlanesLandsOnByteBoundaries)
{
    // The codec aligns to a byte between planes; the reader must land
    // exactly where the writer padded, from every bit phase, and an
    // aligned cursor must stay put.
    for (int phase = 0; phase < 8; ++phase) {
        BitWriter writer;
        writer.putBits(0x55, phase);
        writer.alignByte();
        const std::size_t first_plane = writer.bitCount();
        writer.putUe(300);
        writer.alignByte();
        const std::size_t second_plane = writer.bitCount();
        writer.putSe(-7);
        const std::string bytes = writer.take();
        BitReader reader(reinterpret_cast<const std::uint8_t *>(bytes.data()),
                         bytes.size());
        reader.skip(phase);
        reader.alignByte();
        EXPECT_EQ(reader.bitPosition(), first_plane);
        reader.alignByte();
        EXPECT_EQ(reader.bitPosition(), first_plane);
        EXPECT_EQ(reader.getUe(), 300u);
        reader.alignByte();
        EXPECT_EQ(reader.bitPosition(), second_plane);
        EXPECT_EQ(reader.bitPosition() % 8, 0u);
        EXPECT_EQ(reader.getSe(), -7);
        EXPECT_FALSE(reader.overrun());
    }
}

TEST(Dct, RoundTripIsNearIdentity)
{
    Rng rng(5);
    Block spatial, freq, back;
    for (auto &v : spatial)
        v = static_cast<float>(rng.uniform(-128.0, 127.0));
    forwardDct(spatial, freq);
    inverseDct(freq, back);
    for (int i = 0; i < kBlockSize; ++i)
        EXPECT_NEAR(back[static_cast<std::size_t>(i)],
                    spatial[static_cast<std::size_t>(i)], 1e-3);
}

TEST(Dct, ConstantBlockConcentratesInDc)
{
    Block spatial, freq;
    spatial.fill(100.0f);
    forwardDct(spatial, freq);
    EXPECT_NEAR(freq[0], 800.0f, 1e-2); // 8 * value
    for (int i = 1; i < kBlockSize; ++i)
        EXPECT_NEAR(freq[static_cast<std::size_t>(i)], 0.0f, 1e-3);
}

TEST(Dct, ZigzagIsAPermutation)
{
    const auto &zz = zigzagOrder();
    std::set<int> seen(zz.begin(), zz.end());
    EXPECT_EQ(seen.size(), 64u);
    EXPECT_EQ(*seen.begin(), 0);
    EXPECT_EQ(*seen.rbegin(), 63);
    // Canonical JPEG start of the scan.
    EXPECT_EQ(zz[0], 0);
    EXPECT_EQ(zz[1], 1);
    EXPECT_EQ(zz[2], 8);
    EXPECT_EQ(zz[3], 16);
    EXPECT_EQ(zz[4], 9);
    EXPECT_EQ(zz[5], 2);
}

TEST(Dct, QuantTablesScaleWithQuality)
{
    const auto q10 = quantTable(10, false);
    const auto q50 = quantTable(50, false);
    const auto q95 = quantTable(95, false);
    for (int i = 0; i < 64; ++i) {
        EXPECT_GE(q10[static_cast<std::size_t>(i)],
                  q50[static_cast<std::size_t>(i)]);
        EXPECT_GE(q50[static_cast<std::size_t>(i)],
                  q95[static_cast<std::size_t>(i)]);
        EXPECT_GE(q95[static_cast<std::size_t>(i)], 1);
    }
    // Quality 50 is the unscaled base table.
    EXPECT_EQ(q50[0], 16);
}

TEST(Dct, QuantizeDequantizeApproximates)
{
    Block freq, back;
    QuantBlock q;
    freq.fill(0.0f);
    freq[0] = 500.0f;
    freq[1] = -80.0f;
    const auto table = quantTable(75, false);
    quantize(freq, table, q);
    dequantize(q, table, back);
    EXPECT_NEAR(back[0], 500.0f, table[0] / 2.0 + 1e-3);
    EXPECT_NEAR(back[1], -80.0f, table[1] / 2.0 + 1e-3);
}

TEST(Color, RgbYccRoundTripClose)
{
    Rng rng(3);
    Image img = synthesize(rng, 32, 24);
    Plane y, cb, cr;
    rgbToYcc(img, y, cb, cr);
    Image back = yccToRgb(y, cb, cr);
    ASSERT_TRUE(back.sameSize(img));
    double max_err = 0.0;
    for (int row = 0; row < img.height(); ++row) {
        for (int col = 0; col < img.width() * 3; ++col) {
            max_err = std::max(
                max_err, std::abs(static_cast<double>(img.row(row)[col]) -
                                  back.row(row)[col]));
        }
    }
    EXPECT_LE(max_err, 2.0);
}

TEST(Color, UpsampleDoublesDimensions)
{
    Plane half(3, 2);
    half.row(0)[0] = 10.0f;
    const Plane full = upsample2x(half, 6, 4);
    EXPECT_EQ(full.width, 6);
    EXPECT_EQ(full.height, 4);
}

TEST(Color, IntegerUpsampleMatchesFloatReference)
{
    Rng rng(91);
    Plane half(13, 9);
    for (auto &s : half.samples)
        s = static_cast<float>(rng.uniform(0.0, 255.0));
    const Plane reference = upsample2x(half, 25, 17);
    const PlaneI16 fast = upsample2x(quantizePlane(half), 25, 17);
    ASSERT_EQ(fast.samples.size(), reference.samples.size());
    for (std::size_t i = 0; i < reference.samples.size(); ++i) {
        // 1/32 input quantization + 1/32 output rounding.
        const float got = static_cast<float>(fast.samples[i]) /
                          (1 << kSampleFracBits);
        EXPECT_NEAR(got, reference.samples[i], 0.1f) << "sample " << i;
    }
}

TEST(Color, IntegerYccToRgbMatchesFloatReference)
{
    Rng rng(92);
    Plane y(31, 17), cb(31, 17), cr(31, 17);
    for (auto *plane : {&y, &cb, &cr}) {
        for (auto &s : plane->samples)
            s = static_cast<float>(rng.uniform(0.0, 255.0));
    }
    const Image reference = yccToRgb(y, cb, cr);
    const Image fast =
        yccToRgb(quantizePlane(y), quantizePlane(cb), quantizePlane(cr));
    ASSERT_TRUE(fast.sameSize(reference));
    for (int row = 0; row < reference.height(); ++row) {
        for (int i = 0; i < reference.width() * 3; ++i) {
            EXPECT_LE(std::abs(static_cast<int>(fast.row(row)[i]) -
                               static_cast<int>(reference.row(row)[i])),
                      1)
                << "row " << row << " byte " << i;
        }
    }
}

/** Derive the entropy-decoder's sparsity summary from a raw block. */
CoeffExtent
extentOf(const QuantBlock &q)
{
    const auto &zz = zigzagOrder();
    CoeffExtent extent;
    for (int k = 0; k < kBlockSize; ++k) {
        if (q[static_cast<std::size_t>(zz[static_cast<std::size_t>(k)])] !=
            0) {
            ++extent.nonzero;
            if (k > 0)
                extent.last_zz = static_cast<std::int16_t>(k);
        }
    }
    return extent;
}

void
expectSparseMatchesDense(const QuantBlock &q, int quality)
{
    const auto table = quantTable(quality, false);
    Block freq, dense, sparse;
    dequantize(q, table, freq);
    inverseDct(freq, dense);
    dequantIdctSparse(q, table, extentOf(q), sparse);
    for (int i = 0; i < kBlockSize; ++i)
        EXPECT_NEAR(sparse[static_cast<std::size_t>(i)],
                    dense[static_cast<std::size_t>(i)], 1e-3)
            << "sample " << i;
}

TEST(SparseIdct, DcOnlyBlock)
{
    QuantBlock q{};
    q[0] = 37;
    expectSparseMatchesDense(q, 75);
}

TEST(SparseIdct, AllZeroBlock)
{
    QuantBlock q{};
    expectSparseMatchesDense(q, 75);
}

TEST(SparseIdct, SingleAcBlock)
{
    QuantBlock q{};
    q[0] = -12;
    q[9] = 5; // one interior AC coefficient
    expectSparseMatchesDense(q, 75);
}

TEST(SparseIdct, FirstRowOnlyBlock)
{
    QuantBlock q{};
    q[0] = 20;
    q[1] = -7;
    q[3] = 4; // all energy in frequency row 0
    expectSparseMatchesDense(q, 60);
}

TEST(SparseIdct, FirstColumnOnlyBlock)
{
    QuantBlock q{};
    q[0] = 20;
    q[8] = -7;
    q[24] = 4; // all energy in frequency column 0
    expectSparseMatchesDense(q, 60);
}

TEST(SparseIdct, ZeroDcWithAcBlock)
{
    QuantBlock q{};
    q[10] = 3;
    q[17] = -2;
    expectSparseMatchesDense(q, 85);
}

TEST(SparseIdct, DenseBlockMatches)
{
    Rng rng(77);
    QuantBlock q;
    for (auto &v : q)
        v = static_cast<std::int32_t>(rng.uniformInt(-30, 30));
    q[63] = 1; // force a full-extent scan
    expectSparseMatchesDense(q, 90);
}

TEST(SparseIdct, RandomSparseBlocks)
{
    Rng rng(78);
    for (int trial = 0; trial < 200; ++trial) {
        QuantBlock q{};
        const int coeffs = static_cast<int>(rng.uniformInt(0, 8));
        for (int i = 0; i < coeffs; ++i)
            q[static_cast<std::size_t>(rng.uniformInt(0, 63))] =
                static_cast<std::int32_t>(rng.uniformInt(-100, 100));
        expectSparseMatchesDense(q, 75);
    }
}

int
maxChannelDiff(const Image &a, const Image &b)
{
    int max_diff = 0;
    for (int y = 0; y < a.height(); ++y) {
        for (int i = 0; i < a.width() * 3; ++i) {
            max_diff = std::max(
                max_diff, std::abs(static_cast<int>(a.row(y)[i]) -
                                   static_cast<int>(b.row(y)[i])));
        }
    }
    return max_diff;
}

/** Differential: the optimized decode must match the retained scalar
 *  reference within one count per channel on every subsample/quality
 *  combination. */
class FastDecodeDifferential
    : public ::testing::TestWithParam<std::tuple<int, bool>>
{
};

TEST_P(FastDecodeDifferential, MatchesReferenceWithinOne)
{
    const auto [quality, subsample] = GetParam();
    Rng rng(static_cast<std::uint64_t>(quality * 2 + (subsample ? 1 : 0)));
    const Image img = synthesize(rng, 211, 173, SynthOptions{0.5, 3});
    const std::string blob =
        encode(img, EncodeOptions{quality, subsample});
    const Image fast = decode(blob);
    const Image reference = decode(blob, DecodeOptions{.reference = true});
    ASSERT_TRUE(fast.sameSize(reference));
    EXPECT_LE(maxChannelDiff(fast, reference), 1)
        << "q" << quality << " subsample=" << subsample;
}

INSTANTIATE_TEST_SUITE_P(QualitySubsample, FastDecodeDifferential,
                         ::testing::Combine(::testing::Values(40, 90),
                                            ::testing::Bool()));

TEST(FastDecode, PaperWorkloadMatchesReference)
{
    // The paper-distribution decode workload the perf trajectory
    // tracks: 500x375 (ImageNet-average size) at q75, subsampled.
    Rng rng(2024);
    const Image img = synthesize(rng, 500, 375, SynthOptions{0.5, 4});
    const std::string blob = encode(img, EncodeOptions{75, true});
    const Image fast = decode(blob);
    const Image reference = decode(blob, DecodeOptions{.reference = true});
    EXPECT_LE(maxChannelDiff(fast, reference), 1);
}

TEST(CodecWorkStats, DecodeSymbolsMatchEncodeSymbols)
{
    // WorkStats count real work even though the decoder takes most AC
    // pairs two symbols per table lookup: decode_mcu sees exactly the
    // symbols encode_mcu wrote, and reads the whole payload except the
    // sub-byte remainders of each block row and plane padding.
    Rng rng(2024);
    const Image img = synthesize(rng, 500, 375, SynthOptions{0.5, 4});
    const hwcount::WorkStats encode_before =
        kernelStats(hwcount::KernelId::EncodeMcu);
    const std::string blob = encode(img, EncodeOptions{75, true});
    const std::uint64_t encoded_symbols =
        kernelStats(hwcount::KernelId::EncodeMcu).items -
        encode_before.items;
    for (const bool reference : {false, true}) {
        const hwcount::WorkStats before =
            kernelStats(hwcount::KernelId::DecodeMcu);
        decode(blob, DecodeOptions{.reference = reference});
        const hwcount::WorkStats after =
            kernelStats(hwcount::KernelId::DecodeMcu);
        EXPECT_EQ(after.items - before.items, encoded_symbols);
        // Block rows: 47 luma + 2 x 24 chroma.
        const std::uint64_t payload = blob.size() - 10;
        const std::uint64_t rows = 47 + 2 * 24;
        const std::uint64_t bytes_read = after.bytes_read - before.bytes_read;
        EXPECT_LE(bytes_read, payload);
        EXPECT_GE(bytes_read, payload - rows);
    }
}

TEST(FastDecode, ZeroCopyDecodeIsDeterministic)
{
    // The zero-copy reader consumes the caller's buffer in place; two
    // decodes of the same blob must agree bit for bit.
    Rng rng(55);
    const Image img = synthesize(rng, 96, 64);
    const std::string blob = encode(img);
    const Image first = decode(blob);
    const Image second = decode(blob);
    EXPECT_EQ(maxChannelDiff(first, second), 0);
}

/** True when @p a and @p b have the same size and bytes. */
bool
samePixels(const Image &a, const Image &b)
{
    if (!a.sameSize(b))
        return false;
    for (int y = 0; y < a.height(); ++y) {
        if (std::memcmp(a.row(y), b.row(y),
                        static_cast<std::size_t>(a.width()) * 3) != 0)
            return false;
    }
    return true;
}

/** Windows of a width x height frame: the whole frame, every corner
 *  pixel, a strip along each edge, odd offsets, and seeded random
 *  windows. */
std::vector<Rect>
testWindows(int width, int height, Rng &rng)
{
    std::vector<Rect> windows = {
        {0, 0, width, height},
        {0, 0, 1, 1},
        {width - 1, 0, 1, 1},
        {0, height - 1, 1, 1},
        {width - 1, height - 1, 1, 1},
        {0, 0, width, 1},
        {0, height - 1, width, 1},
        {0, 0, 1, height},
        {width - 1, 0, 1, height},
    };
    if (width > 4 && height > 4) {
        windows.push_back({1, 1, width - 2, height - 2});
        windows.push_back({3, 1, width / 2, height / 2});
        windows.push_back({width / 2 | 1, height / 2 | 1,
                           width - (width / 2 | 1),
                           height - (height / 2 | 1)});
    }
    for (int i = 0; i < 24; ++i) {
        const int w = static_cast<int>(rng.uniformInt(1, width));
        const int h = static_cast<int>(rng.uniformInt(1, height));
        windows.push_back({static_cast<int>(rng.uniformInt(0, width - w)),
                           static_cast<int>(rng.uniformInt(0, height - h)),
                           w, h});
    }
    return windows;
}

/** Window decode vs decode-then-crop over sizes that put the frame's
 *  right and bottom edges at every phase of the 8x8 block and 2x2
 *  chroma grids, with subsampled and full chroma. */
TEST(WindowDecode, MatchesCropOfFullDecode)
{
    struct Shape
    {
        int width;
        int height;
    };
    const Shape shapes[] = {{1, 1}, {1, 9}, {9, 1},   {2, 2},
                            {17, 9}, {37, 29}, {40, 32}, {211, 173}};
    Rng rng(77);
    for (const Shape shape : shapes) {
        for (const bool subsample : {true, false}) {
            const Image img = synthesize(rng, shape.width, shape.height,
                                         SynthOptions{0.5, 3});
            const std::string blob =
                encode(img, EncodeOptions{75, subsample});
            const Image full = decode(blob);
            for (const Rect &window :
                 testWindows(shape.width, shape.height, rng)) {
                Result<Image> part = tryDecodeWindow(blob, window);
                ASSERT_TRUE(part.ok());
                EXPECT_TRUE(samePixels(part.value(), crop(full, window)))
                    << shape.width << "x" << shape.height
                    << " subsample=" << subsample << " window ("
                    << window.x << "," << window.y << " " << window.width
                    << "x" << window.height << ")";
            }
            // The reference mode decodes the frame and crops.
            const Rect window{shape.width / 2, shape.height / 2,
                              (shape.width + 1) / 2,
                              (shape.height + 1) / 2};
            const Image reference =
                decode(blob, DecodeOptions{.reference = true});
            Result<Image> reference_part = tryDecodeWindow(
                blob, window, DecodeOptions{.reference = true});
            ASSERT_TRUE(reference_part.ok());
            EXPECT_TRUE(
                samePixels(reference_part.value(), crop(reference, window)));
        }
    }
}

TEST(WindowDecode, RejectsWhatTheFullDecodeRejects)
{
    Rng rng(78);
    const Image img = synthesize(rng, 48, 40);
    const std::string blob = encode(img, EncodeOptions{75, true});
    const Rect window{5, 7, 20, 11};
    for (const std::size_t keep : {std::size_t(4), std::size_t(10),
                                   blob.size() / 3, blob.size() - 1}) {
        const std::string cut = blob.substr(0, keep);
        Result<Image> full = tryDecode(cut);
        Result<Image> part = tryDecodeWindow(cut, window);
        ASSERT_FALSE(full.ok());
        ASSERT_FALSE(part.ok());
        EXPECT_EQ(part.error().code, full.error().code);
        EXPECT_EQ(part.error().message, full.error().message);
    }
}

/** Blocks of an extent-long axis that meet [first, first + length). */
std::uint64_t
blocksMeeting(int first, int length)
{
    return static_cast<std::uint64_t>((first + length + 7) / 8 - first / 8);
}

/** The half-resolution span the h2v2 upsample reads for output span
 *  [first, first + length) of an extent-long axis: each output sample
 *  blends half samples (x - 1) / 2 and (x + 1) / 2, clamped. */
std::pair<int, int>
chromaSpan(int first, int length, int extent)
{
    const int lo = first == 0 ? 0 : (first - 1) / 2;
    const int hi = std::min((extent + 1) / 2 - 1, (first + length) / 2);
    return {lo, hi - lo + 1};
}

TEST(WindowDecode, WorkStatsCountTheWindowsWork)
{
    Rng rng(79);
    for (const bool subsample : {true, false}) {
        const int width = 211;
        const int height = 173;
        const Image img =
            synthesize(rng, width, height, SynthOptions{0.5, 3});
        const std::string blob = encode(img, EncodeOptions{75, subsample});
        const hwcount::WorkStats mcu_before =
            kernelStats(hwcount::KernelId::DecodeMcu);
        decode(blob);
        const std::uint64_t full_symbols =
            kernelStats(hwcount::KernelId::DecodeMcu).items -
            mcu_before.items;
        for (const Rect &window :
             {Rect{0, 0, width, height}, Rect{0, 0, 1, 1},
              Rect{width - 1, height - 1, 1, 1}, Rect{9, 15, 100, 61},
              Rect{17, 1, 1, height - 1}, Rect{8, 8, 16, 16}}) {
            const hwcount::WorkStats mcu =
                kernelStats(hwcount::KernelId::DecodeMcu);
            const hwcount::WorkStats idct =
                kernelStats(hwcount::KernelId::IdctBlock);
            const hwcount::WorkStats color =
                kernelStats(hwcount::KernelId::YccToRgb);
            ASSERT_TRUE(tryDecodeWindow(blob, window).ok());
            const std::uint64_t luma =
                blocksMeeting(window.x, window.width) *
                blocksMeeting(window.y, window.height);
            std::uint64_t chroma = luma;
            if (subsample) {
                const auto [cx, cw] =
                    chromaSpan(window.x, window.width, width);
                const auto [cy, ch] =
                    chromaSpan(window.y, window.height, height);
                chroma = blocksMeeting(cx, cw) * blocksMeeting(cy, ch);
            }
            EXPECT_EQ(kernelStats(hwcount::KernelId::DecodeMcu).items -
                          mcu.items,
                      full_symbols);
            EXPECT_EQ(kernelStats(hwcount::KernelId::IdctBlock).items -
                          idct.items,
                      luma + 2 * chroma)
                << "window (" << window.x << "," << window.y << " "
                << window.width << "x" << window.height << ")";
            EXPECT_EQ(kernelStats(hwcount::KernelId::YccToRgb).items -
                          color.items,
                      static_cast<std::uint64_t>(window.width) *
                          static_cast<std::uint64_t>(window.height));
        }
    }
}

double
psnr(const Image &a, const Image &b)
{
    double mse = 0.0;
    const auto n = static_cast<double>(a.byteSize());
    for (int y = 0; y < a.height(); ++y) {
        for (int i = 0; i < a.width() * 3; ++i) {
            const double d = static_cast<double>(a.row(y)[i]) - b.row(y)[i];
            mse += d * d;
        }
    }
    mse /= n;
    return mse == 0.0 ? 99.0 : 10.0 * std::log10(255.0 * 255.0 / mse);
}

TEST(Codec, RoundTripHighQualityIsFaithful)
{
    Rng rng(11);
    Image img = synthesize(rng, 64, 48, SynthOptions{0.3, 2});
    const std::string encoded = encode(img, EncodeOptions{95, false});
    Image decoded = decode(encoded);
    ASSERT_TRUE(decoded.sameSize(img));
    EXPECT_GT(psnr(img, decoded), 30.0);
}

TEST(Codec, SubsampledRoundTripStillReasonable)
{
    Rng rng(12);
    Image img = synthesize(rng, 64, 64, SynthOptions{0.3, 2});
    Image decoded = decode(encode(img, EncodeOptions{90, true}));
    EXPECT_GT(psnr(img, decoded), 26.0);
}

TEST(Codec, LowerQualityMeansSmallerOutput)
{
    Rng rng(13);
    Image img = synthesize(rng, 96, 96, SynthOptions{0.6, 3});
    const auto high = encode(img, EncodeOptions{95, true}).size();
    const auto mid = encode(img, EncodeOptions{60, true}).size();
    const auto low = encode(img, EncodeOptions{15, true}).size();
    EXPECT_GT(high, mid);
    EXPECT_GT(mid, low);
}

TEST(Codec, MoreDetailMeansLargerOutput)
{
    Rng rng1(14), rng2(14);
    Image flat = synthesize(rng1, 96, 96, SynthOptions{0.05, 0});
    Image busy = synthesize(rng2, 96, 96, SynthOptions{0.95, 6});
    EXPECT_GT(encode(busy).size(), encode(flat).size() * 2);
}

TEST(Codec, HeaderRoundTrip)
{
    Rng rng(15);
    Image img = synthesize(rng, 50, 34);
    const std::string encoded = encode(img, EncodeOptions{70, true});
    const LjpgHeader header = peekHeader(encoded);
    EXPECT_EQ(header.width, 50);
    EXPECT_EQ(header.height, 34);
    EXPECT_EQ(header.quality, 70);
    EXPECT_TRUE(header.subsampled);
}

TEST(Codec, OddDimensionsRoundTrip)
{
    Rng rng(16);
    Image img = synthesize(rng, 37, 23, SynthOptions{0.4, 1});
    Image decoded = decode(encode(img, EncodeOptions{85, true}));
    EXPECT_EQ(decoded.width(), 37);
    EXPECT_EQ(decoded.height(), 23);
    EXPECT_GT(psnr(img, decoded), 22.0);
}

TEST(Codec, RejectsGarbage)
{
    Result<Image> decoded = tryDecode("garbage data here");
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error().code, ErrorCode::kCorruptData);
    // The fatal wrapper for trusted fixtures still aborts.
    EXPECT_DEATH(decode("garbage data here"), "");
}

TEST(Codec, RejectsTruncatedPayloadCleanly)
{
    Rng rng(31);
    Image img = synthesize(rng, 48, 48);
    const std::string encoded = encode(img);
    // Chop the entropy payload: the decoder must return a clear
    // error, never crash or emit a half-decoded image.
    Result<Image> decoded =
        tryDecode(encoded.substr(0, encoded.size() / 3));
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error().code, ErrorCode::kCorruptData);
    EXPECT_NE(decoded.error().message.find("corrupt LJPG"),
              std::string::npos);
}

TEST(Codec, RejectsBitFlippedHeader)
{
    Rng rng(32);
    Image img = synthesize(rng, 32, 32);
    std::string encoded = encode(img);
    encoded[8] = static_cast<char>(200); // quality byte out of range
    Result<Image> decoded = tryDecode(encoded);
    ASSERT_FALSE(decoded.ok());
    EXPECT_NE(decoded.error().message.find("corrupt LJPG header"),
              std::string::npos);
}

TEST(Codec, TinyImageRoundTrip)
{
    Image img(2, 2);
    img.pixel(0, 0)[0] = 200;
    img.pixel(1, 1)[2] = 100;
    Image decoded = decode(encode(img, EncodeOptions{90, false}));
    EXPECT_EQ(decoded.width(), 2);
    EXPECT_EQ(decoded.height(), 2);
}

/** Property sweep: round trip across sizes and qualities. */
class CodecRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, int, int, bool>>
{
};

TEST_P(CodecRoundTrip, DecodeMatchesDimensionsAndQuality)
{
    const auto [width, height, quality, subsample] = GetParam();
    Rng rng(static_cast<std::uint64_t>(width * 1000 + height));
    Image img = synthesize(rng, width, height, SynthOptions{0.5, 2});
    Image decoded =
        decode(encode(img, EncodeOptions{quality, subsample}));
    ASSERT_EQ(decoded.width(), width);
    ASSERT_EQ(decoded.height(), height);
    const double floor = quality >= 80 ? 24.0 : 18.0;
    EXPECT_GT(psnr(img, decoded), floor)
        << width << "x" << height << " q" << quality;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, CodecRoundTrip,
    ::testing::Combine(::testing::Values(8, 17, 64, 129),
                       ::testing::Values(8, 33, 64),
                       ::testing::Values(40, 85),
                       ::testing::Bool()));

} // namespace
} // namespace lotus::image::codec
