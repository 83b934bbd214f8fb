#include "pipeline/transforms/vision.h"

#include <algorithm>
#include <cmath>

#include "image/geometry.h"
#include "image/resample.h"
#include "tensor/ops.h"

namespace lotus::pipeline {

RandomResizedCrop::RandomResizedCrop() : RandomResizedCrop(Params{}) {}

RandomResizedCrop::RandomResizedCrop(Params params)
    : NamedTransform("RandomResizedCrop"), params_(params)
{
    LOTUS_ASSERT(params_.size > 0 && params_.scale_min > 0.0 &&
                 params_.scale_min <= params_.scale_max &&
                 params_.ratio_min > 0.0 &&
                 params_.ratio_min <= params_.ratio_max);
}

image::Rect
RandomResizedCrop::drawRegion(int width, int height, Rng &rng) const
{
    const double area = static_cast<double>(width) * height;
    for (int attempt = 0; attempt < params_.max_attempts; ++attempt) {
        const double target_area =
            area * rng.uniform(params_.scale_min, params_.scale_max);
        const double log_ratio = rng.uniform(std::log(params_.ratio_min),
                                             std::log(params_.ratio_max));
        const double ratio = std::exp(log_ratio);
        const int w = static_cast<int>(
            std::lround(std::sqrt(target_area * ratio)));
        const int h = static_cast<int>(
            std::lround(std::sqrt(target_area / ratio)));
        if (w <= 0 || h <= 0 || w > width || h > height)
            continue;
        const int x = static_cast<int>(rng.uniformInt(0, width - w));
        const int y = static_cast<int>(rng.uniformInt(0, height - h));
        return image::Rect{x, y, w, h};
    }
    // Torchvision fallback: central crop at a valid ratio.
    const double in_ratio = static_cast<double>(width) / height;
    int w, h;
    if (in_ratio < params_.ratio_min) {
        w = width;
        h = static_cast<int>(std::lround(w / params_.ratio_min));
    } else if (in_ratio > params_.ratio_max) {
        h = height;
        w = static_cast<int>(std::lround(h * params_.ratio_max));
    } else {
        w = width;
        h = height;
    }
    return image::Rect{(width - w) / 2, (height - h) / 2, w, h};
}

std::optional<image::Rect>
RandomResizedCrop::drawCropWindow(int width, int height, Rng &rng) const
{
    return drawRegion(width, height, rng);
}

void
RandomResizedCrop::apply(Sample &sample, Rng &rng) const
{
    LOTUS_ASSERT(sample.hasImage(), "RandomResizedCrop needs an image");
    if (sample.pre_cropped) {
        // The Loader decoded just the window drawCropWindow() drew.
        sample.pre_cropped = false;
        sample.image =
            image::resize(*sample.image, params_.size, params_.size);
        return;
    }
    const image::Image &input = *sample.image;
    const image::Image cropped = image::crop(
        input, drawRegion(input.width(), input.height(), rng));
    sample.image = image::resize(cropped, params_.size, params_.size);
}

RandomHorizontalFlip::RandomHorizontalFlip(double probability)
    : NamedTransform("RandomHorizontalFlip"), probability_(probability)
{
    LOTUS_ASSERT(probability >= 0.0 && probability <= 1.0);
}

void
RandomHorizontalFlip::apply(Sample &sample, Rng &rng) const
{
    LOTUS_ASSERT(sample.hasImage(), "RandomHorizontalFlip needs an image");
    if (rng.chance(probability_))
        sample.image = image::flipHorizontal(*sample.image);
}

Resize::Resize(int size, int max_size, bool exact)
    : NamedTransform("Resize"), size_(size), max_size_(max_size),
      exact_(exact)
{
    LOTUS_ASSERT(size > 0);
}

void
Resize::apply(Sample &sample, Rng &rng) const
{
    (void)rng;
    LOTUS_ASSERT(sample.hasImage(), "Resize needs an image");
    const image::Image &input = *sample.image;
    int out_w, out_h;
    if (exact_) {
        out_w = size_;
        out_h = size_;
    } else {
        const int shorter = std::min(input.width(), input.height());
        double factor = static_cast<double>(size_) / shorter;
        if (max_size_ > 0) {
            const int longer = std::max(input.width(), input.height());
            factor = std::min(
                factor, static_cast<double>(max_size_) / longer);
        }
        out_w = std::max(1, static_cast<int>(
                                std::lround(input.width() * factor)));
        out_h = std::max(1, static_cast<int>(
                                std::lround(input.height() * factor)));
    }
    if (out_w == input.width() && out_h == input.height())
        return;
    sample.image = image::resize(input, out_w, out_h);
}

std::uint64_t
Resize::configHash() const
{
    return ConfigHash()
        .mix(static_cast<std::uint64_t>(size_))
        .mix(static_cast<std::uint64_t>(max_size_))
        .mix(static_cast<std::uint64_t>(exact_))
        .value();
}

ToTensor::ToTensor() : NamedTransform("ToTensor") {}

void
ToTensor::apply(Sample &sample, Rng &rng) const
{
    (void)rng;
    LOTUS_ASSERT(sample.hasImage(), "ToTensor needs an image");
    const image::Image &img = *sample.image;
    sample.data = tensor::rgbToChwF32(img.raw(), img.height(), img.width());
    sample.image.reset();
}

Normalize::Normalize(std::vector<float> mean, std::vector<float> stddev)
    : NamedTransform("Normalize"), mean_(std::move(mean)),
      stddev_(std::move(stddev))
{
    LOTUS_ASSERT(mean_.size() == stddev_.size() && !mean_.empty());
    for (const float s : stddev_)
        LOTUS_ASSERT(s > 0.0f, "stddev must be positive");
}

std::uint64_t
Normalize::configHash() const
{
    ConfigHash hash;
    for (const float m : mean_)
        hash.mix(static_cast<double>(m));
    for (const float s : stddev_)
        hash.mix(static_cast<double>(s));
    return hash.value();
}

void
Normalize::apply(Sample &sample, Rng &rng) const
{
    (void)rng;
    LOTUS_ASSERT(!sample.hasImage(),
                 "Normalize runs after ToTensor (tensor domain)");
    tensor::normalizeChannels(sample.data, mean_, stddev_);
}

} // namespace lotus::pipeline
