/**
 * @file
 * In-memory interleaved RGB images.
 *
 * The decode side of the Loader operation produces Image objects;
 * geometric transforms (crop/flip/resize) consume and produce them;
 * ToTensor converts them into CHW f32 tensors.
 */

#ifndef LOTUS_IMAGE_IMAGE_H
#define LOTUS_IMAGE_IMAGE_H

#include <cstdint>

#include "common/logging.h"
#include "memory/buffer_pool.h"

namespace lotus::image {

class Image
{
  public:
    static constexpr int kChannels = 3;

    /** Empty 0x0 image. */
    Image() = default;

    /** Black image of the given size. */
    Image(int width, int height);

    /** Image with indeterminate contents, for producers that write
     *  every pixel (decode, resample): skips the zero fill. */
    static Image uninitialized(int width, int height);

    int width() const { return width_; }
    int height() const { return height_; }
    std::int64_t pixelCount() const
    {
        return static_cast<std::int64_t>(width_) * height_;
    }
    std::size_t byteSize() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    /** Pointer to the first byte of row @p y (RGBRGB...). */
    std::uint8_t *
    row(int y)
    {
        LOTUS_ASSERT(y >= 0 && y < height_);
        return data_.data() +
               static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) *
                   kChannels;
    }

    const std::uint8_t *
    row(int y) const
    {
        LOTUS_ASSERT(y >= 0 && y < height_);
        return data_.data() +
               static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) *
                   kChannels;
    }

    /** Pointer to pixel (x, y)'s R byte. */
    std::uint8_t *pixel(int x, int y) { return row(y) + x * kChannels; }
    const std::uint8_t *
    pixel(int x, int y) const
    {
        return row(y) + x * kChannels;
    }

    std::uint8_t *raw() { return data_.data(); }
    const std::uint8_t *raw() const { return data_.data(); }

    bool
    sameSize(const Image &other) const
    {
        return width_ == other.width_ && height_ == other.height_;
    }

  private:
    struct Uninit
    {
    };
    Image(int width, int height, Uninit);

    int width_ = 0;
    int height_ = 0;
    /** Pooled storage: reads up to memory::kSlackBytes past
     *  byteSize() are in bounds (SIMD tail loads). */
    memory::PooledArray<std::uint8_t> data_;
};

} // namespace lotus::image

#endif // LOTUS_IMAGE_IMAGE_H
