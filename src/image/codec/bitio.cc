#include "image/codec/bitio.h"

#include <bit>

namespace lotus::image::codec {

void
BitWriter::putBits(std::uint32_t bits, int count)
{
    LOTUS_ASSERT(count >= 0 && count <= 32, "bad bit count %d", count);
    for (int i = count - 1; i >= 0; --i) {
        current_ = static_cast<std::uint8_t>(
            (current_ << 1) | ((bits >> i) & 1u));
        if (++bit_pos_ == 8) {
            bytes_.push_back(current_);
            current_ = 0;
            bit_pos_ = 0;
        }
    }
}

void
BitWriter::putUe(std::uint32_t value)
{
    // Exp-Golomb: N leading zeros, then the (N+1)-bit value+1.
    const std::uint32_t v = value + 1;
    const int bits = 32 - std::countl_zero(v);
    putBits(0, bits - 1);
    putBits(v, bits);
}

void
BitWriter::alignByte()
{
    if (bit_pos_ > 0)
        putBits(0, 8 - bit_pos_);
}

std::string
BitWriter::take()
{
    alignByte();
    std::string out(reinterpret_cast<const char *>(bytes_.data()),
                    bytes_.size());
    bytes_.clear();
    return out;
}

} // namespace lotus::image::codec
