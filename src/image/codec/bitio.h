/**
 * @file
 * Bit-level I/O for the LJPG codec, with Exp-Golomb entropy codes.
 *
 * BitReader is header-inline and every read is a peek: one unaligned
 * 8-byte big-endian load at bitpos / 8, shifted left by bitpos % 8,
 * which leaves at least kPeekBits = 57 valid bits MSB-aligned in a
 * 64-bit word. Only a peek that starts within the last 8 bytes of the
 * payload takes a byte loop, which pads with zero bits. Consuming
 * bits only moves the cursor, so a read never stops at the end of the
 * stream: overrun() (cursor past the last payload bit) is the
 * caller's check, made once per block by the codec rather than once
 * per bit. Zero padding cannot fake a valid code: it only lengthens an
 * Exp-Golomb prefix, and any code that ends past the payload leaves
 * the cursor past it.
 *
 * An Exp-Golomb code decodes with one countl_zero on the peek. A code
 * with more than kMaxUeZeros leading zeros is rejected as corrupt up
 * front; no valid LJPG symbol needs more than 22 (see readBlock's
 * bounds in codec.cc), and the longest accepted code, 2 * 28 + 1 = 57
 * bits, still fits one peek.
 *
 * kAcPairTable maps the next kAcPairBits bits of the stream to a whole
 * AC (zero-run, level) pair whenever both codes fit in that many bits
 * — the idea of libjpeg's HUFF_LOOKAHEAD applied to this format's
 * zero-run + Exp-Golomb codes. Longer pairs, invalid pairs (level 0),
 * the DC symbol and the 13-bit end-of-block code take the countl_zero
 * path instead.
 *
 * Deliberately unannotated: bit extraction is far too hot to scope per
 * call. The codec layer accounts entropy-input movement at block-row
 * granularity (jpeg_fill_bit_buffer / decode_mcu kernels).
 */

#ifndef LOTUS_IMAGE_CODEC_BITIO_H
#define LOTUS_IMAGE_CODEC_BITIO_H

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"

namespace lotus::image::codec {

/** Zigzag map for signed Exp-Golomb: 0, -1, 1, -2, 2 ... -> 0, 1, 2,
 *  3, 4 ... */
constexpr std::uint32_t
signedToUe(std::int32_t value)
{
    const auto wide = static_cast<std::int64_t>(value);
    return static_cast<std::uint32_t>(value <= 0 ? -2 * wide : 2 * wide - 1);
}

/** Inverse of signedToUe. */
constexpr std::int32_t
ueToSigned(std::uint32_t mapped)
{
    if (mapped % 2 == 0)
        return -static_cast<std::int32_t>(mapped / 2);
    return static_cast<std::int32_t>((mapped + 1) / 2);
}

/** Length in bits of the Exp-Golomb code of @p value. */
constexpr int
ueCodeBits(std::uint32_t value)
{
    return 2 * std::bit_width(static_cast<std::uint64_t>(value) + 1) - 1;
}

class BitWriter
{
  public:
    /** Append the low @p count bits of @p bits (MSB first). */
    void putBits(std::uint32_t bits, int count);

    /** Exp-Golomb code an unsigned value. */
    void putUe(std::uint32_t value);

    /** Exp-Golomb code a signed value (zigzag mapped). */
    void putSe(std::int32_t value) { putUe(signedToUe(value)); }

    /** Pad to a byte boundary with zero bits. */
    void alignByte();

    /** Finish and take the encoded bytes. */
    std::string take();

    std::size_t bitCount() const { return bytes_.size() * 8 + bit_pos_; }

  private:
    std::vector<std::uint8_t> bytes_;
    std::uint8_t current_ = 0;
    int bit_pos_ = 0;
};

/** Bits of a peek() that come from the stream (or its zero padding):
 *  64 minus the at most 7 bits the byte-offset shift drops. */
constexpr int kPeekBits = 57;

/** Longest Exp-Golomb prefix the reader accepts: the longest whose
 *  whole code still fits one peek. */
constexpr int kMaxUeZeros = (kPeekBits - 1) / 2;

class BitReader
{
  public:
    BitReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_bytes_(size), size_bits_(size * 8)
    {
    }

    /** The next 64 stream bits, MSB first. The top kPeekBits of them
     *  are exact; bits past the end of the payload read as 0. */
    std::uint64_t
    peek() const
    {
        const std::size_t byte = pos_ / 8;
        std::uint64_t word;
        if (byte + 8 <= size_bytes_) [[likely]] {
            std::memcpy(&word, data_ + byte, sizeof(word));
            if constexpr (std::endian::native == std::endian::little)
                word = __builtin_bswap64(word);
        } else {
            word = tailWord(byte);
        }
        return word << (pos_ % 8);
    }

    /** Consume @p count bits (already examined through peek()). */
    void skip(int count) { pos_ += static_cast<std::size_t>(count); }

    /** Decode one Exp-Golomb code. Returns false, and marks the reader
     *  overrun, when the prefix exceeds kMaxUeZeros zeros (corrupt
     *  stream, or a code running into the zero padding). A code that
     *  ends past the payload returns true but leaves overrun() set. */
    bool
    readUe(std::uint32_t &value)
    {
        const std::uint64_t window = peek();
        const int zeros = std::countl_zero(window);
        if (zeros > kMaxUeZeros) [[unlikely]] {
            fail();
            return false;
        }
        const int bits = 2 * zeros + 1;
        value = static_cast<std::uint32_t>(window >> (64 - bits)) - 1;
        pos_ += static_cast<std::size_t>(bits);
        return true;
    }

    /** Read @p count bits (MSB first). Reads past the end — or with a
     *  count outside [0, 32], which only a malformed stream can drive
     *  — return 0s and set overrun(). */
    std::uint32_t
    getBits(int count)
    {
        // The reader sits on the untrusted-input surface: a malformed
        // stream must surface as a decode error (overrun), never a panic.
        if (count < 0 || count > 32) {
            fail();
            return 0;
        }
        if (count == 0)
            return 0;
        if (pos_ + static_cast<std::size_t>(count) > size_bits_) {
            fail();
            return 0;
        }
        const std::uint64_t window = peek();
        pos_ += static_cast<std::size_t>(count);
        return static_cast<std::uint32_t>(window >> (64 - count));
    }

    /** Exp-Golomb decode an unsigned value (0 once corrupt). */
    std::uint32_t
    getUe()
    {
        std::uint32_t value = 0;
        return readUe(value) ? value : 0;
    }

    /** Exp-Golomb decode a signed value. */
    std::int32_t getSe() { return ueToSigned(getUe()); }

    /** Skip to the next byte boundary. */
    void alignByte() { pos_ = (pos_ + 7) / 8 * 8; }

    /** True once a read went past the end of the stream. */
    bool overrun() const { return pos_ > size_bits_; }

    std::size_t bitPosition() const { return pos_; }

  private:
    /** Zero-padded big-endian load of the 8 bytes at @p byte, for the
     *  peeks that start within 8 bytes of the payload's end. */
    std::uint64_t
    tailWord(std::size_t byte) const
    {
        std::uint64_t word = 0;
        for (std::size_t i = byte; i < byte + 8; ++i)
            word = (word << 8) | (i < size_bytes_ ? data_[i] : 0u);
        return word;
    }

    /** Park the cursor past the end: overrun() stays true. */
    void fail() { pos_ = std::max(pos_, size_bits_ + 1); }

    const std::uint8_t *data_;
    std::size_t size_bytes_;
    std::size_t size_bits_;
    std::size_t pos_ = 0;
};

/** One AC (zero-run, level) pair decoded whole from a table lookup. */
struct AcPair
{
    std::int8_t run = 0;
    std::int8_t level = 0;
    /** Bits the pair's two codes take; 0 means "not in the table". */
    std::uint8_t bits = 0;
};

/** Lookahead width of kAcPairTable. */
constexpr int kAcPairBits = 12;

namespace detail {

constexpr std::array<AcPair, std::size_t(1) << kAcPairBits>
buildAcPairTable()
{
    std::array<AcPair, std::size_t(1) << kAcPairBits> table{};
    // A pair's run code takes at least one bit, so its level code
    // takes at most kAcPairBits - 1: |level| <= 31 at 12 bits.
    constexpr int kMaxLevel = (1 << (kAcPairBits / 2 - 1)) - 1;
    for (int run = 0; run < 63; ++run) {
        for (int level = -kMaxLevel; level <= kMaxLevel; ++level) {
            if (level == 0)
                continue;
            const auto run_code = static_cast<std::uint32_t>(run);
            const std::uint32_t level_code = signedToUe(level);
            const int level_bits = ueCodeBits(level_code);
            const int bits = ueCodeBits(run_code) + level_bits;
            if (bits > kAcPairBits)
                continue;
            // Each code is its value + 1 in ueCodeBits() bits (the
            // leading zeros are the prefix).
            const std::uint32_t code =
                ((run_code + 1) << level_bits) | (level_code + 1);
            const std::uint32_t first = code << (kAcPairBits - bits);
            for (std::uint32_t i = 0; i < (1u << (kAcPairBits - bits)); ++i)
                table[first + i] = AcPair{static_cast<std::int8_t>(run),
                                          static_cast<std::int8_t>(level),
                                          static_cast<std::uint8_t>(bits)};
        }
    }
    return table;
}

} // namespace detail

/** (run, level) pairs indexed by the next kAcPairBits stream bits. */
inline constexpr auto kAcPairTable = detail::buildAcPairTable();

} // namespace lotus::image::codec

#endif // LOTUS_IMAGE_CODEC_BITIO_H
