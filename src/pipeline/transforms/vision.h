/**
 * @file
 * Vision (image-domain) transforms: the torchvision set used by the
 * paper's Image Classification and Object Detection pipelines.
 */

#ifndef LOTUS_PIPELINE_TRANSFORMS_VISION_H
#define LOTUS_PIPELINE_TRANSFORMS_VISION_H

#include <vector>

#include "pipeline/transform.h"

namespace lotus::pipeline {

/**
 * Crop a random area/aspect-ratio region and resize it to a square
 * target (torchvision.transforms.RandomResizedCrop).
 */
class RandomResizedCrop : public NamedTransform
{
  public:
    struct Params
    {
        int size = 224;
        double scale_min = 0.08;
        double scale_max = 1.0;
        double ratio_min = 3.0 / 4.0;
        double ratio_max = 4.0 / 3.0;
        int max_attempts = 10;
    };

    RandomResizedCrop();
    explicit RandomResizedCrop(Params params);

    void apply(Sample &sample, Rng &rng) const override;
    std::optional<image::Rect> drawCropWindow(int width, int height,
                                              Rng &rng) const override;

  private:
    /** The crop region of a width x height input (torchvision's
     *  get_params): every draw apply() makes. */
    image::Rect drawRegion(int width, int height, Rng &rng) const;

    Params params_;
};

/** Mirror the image with probability p. */
class RandomHorizontalFlip : public NamedTransform
{
  public:
    explicit RandomHorizontalFlip(double probability = 0.5);

    void apply(Sample &sample, Rng &rng) const override;

  private:
    double probability_;
};

/**
 * Resize so the shorter edge equals @p size (longer edge capped at
 * @p max_size, preserving aspect as well as possible). When
 * @p exact is set, resizes to exactly size x size.
 */
class Resize : public NamedTransform
{
  public:
    explicit Resize(int size, int max_size = 0, bool exact = false);

    void apply(Sample &sample, Rng &rng) const override;
    bool deterministic() const override { return true; }
    std::uint64_t configHash() const override;

  private:
    int size_;
    int max_size_;
    bool exact_;
};

/** Convert the Image payload into a CHW f32 tensor in [0, 1]. */
class ToTensor : public NamedTransform
{
  public:
    ToTensor();

    void apply(Sample &sample, Rng &rng) const override;
    bool deterministic() const override { return true; }
};

/** Per-channel normalization of a CHW f32 tensor. */
class Normalize : public NamedTransform
{
  public:
    Normalize(std::vector<float> mean, std::vector<float> stddev);

    void apply(Sample &sample, Rng &rng) const override;
    bool deterministic() const override { return true; }
    std::uint64_t configHash() const override;

  private:
    std::vector<float> mean_;
    std::vector<float> stddev_;
};

} // namespace lotus::pipeline

#endif // LOTUS_PIPELINE_TRANSFORMS_VISION_H
