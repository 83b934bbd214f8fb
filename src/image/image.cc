#include "image/image.h"

namespace lotus::image {

Image::Image(int width, int height)
    : width_(width), height_(height),
      data_(static_cast<std::size_t>(width) * static_cast<std::size_t>(height) *
                kChannels,
            /*zero=*/true)
{
    LOTUS_ASSERT(width >= 0 && height >= 0, "negative image size");
}

Image::Image(int width, int height, Uninit)
    : width_(width), height_(height),
      data_(static_cast<std::size_t>(width) * static_cast<std::size_t>(height) *
                kChannels,
            /*zero=*/false)
{
    LOTUS_ASSERT(width >= 0 && height >= 0, "negative image size");
}

Image
Image::uninitialized(int width, int height)
{
    return Image(width, height, Uninit{});
}

} // namespace lotus::image
