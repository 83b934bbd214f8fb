/**
 * @file
 * The Transform interface: one declaratively specified preprocessing
 * operation (a torchvision transform analogue).
 */

#ifndef LOTUS_PIPELINE_TRANSFORM_H
#define LOTUS_PIPELINE_TRANSFORM_H

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "common/rng.h"
#include "image/geometry.h"
#include "pipeline/sample.h"

namespace lotus::pipeline {

/**
 * FNV-1a accumulator for Transform::configHash() implementations:
 * mix every construction-time parameter that changes the output, so
 * two transforms hash equal exactly when they compute the same
 * function. Doubles are mixed by bit pattern (the configs are exact
 * constants, never derived floats).
 */
class ConfigHash
{
  public:
    ConfigHash &
    mix(std::uint64_t value)
    {
        for (int i = 0; i < 8; ++i) {
            state_ ^= (value >> (8 * i)) & 0xFF;
            state_ *= 0x100000001B3ull;
        }
        return *this;
    }

    ConfigHash &
    mix(double value)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof(bits));
        return mix(bits);
    }

    ConfigHash &
    mix(const std::string &value)
    {
        for (const char c : value) {
            state_ ^= static_cast<std::uint8_t>(c);
            state_ *= 0x100000001B3ull;
        }
        return mix(static_cast<std::uint64_t>(value.size()));
    }

    std::uint64_t value() const { return state_; }

  private:
    std::uint64_t state_ = 0xCBF29CE484222325ull; // FNV offset basis
};

class Transform
{
  public:
    virtual ~Transform() = default;

    /** Class-style name shown in traces (e.g. "RandomResizedCrop"). */
    virtual const std::string &name() const = 0;

    /** Apply in place. Randomized transforms draw from @p rng. */
    virtual void apply(Sample &sample, Rng &rng) const = 0;

    /**
     * True when apply() never draws from rng and its output is a pure
     * function of the input sample and construction-time config. The
     * leading run of deterministic transforms is the cacheable
     * pipeline prefix (lotus::cache): its output can be snapshotted
     * and replayed on later epochs without changing any downstream
     * random draw. Defaults to false — an unmarked transform is never
     * cached, only ever recomputed, so forgetting the override costs
     * performance, never correctness.
     */
    virtual bool deterministic() const { return false; }

    /**
     * Hash of the construction-time configuration, mixed into the
     * cache key's prefix fingerprint so a config change (e.g. a new
     * resize target) invalidates stale cached/materialized samples.
     * Only consulted for deterministic() transforms.
     */
    virtual std::uint64_t configHash() const { return 0; }

    /**
     * Crop-first fusion. A transform whose apply() starts by drawing
     * a crop window from the input image's size alone, and then copies
     * that window out, returns the window of a @p width x @p height
     * image here, drawn with exactly the draws apply() makes, in the
     * same order. The Loader may then decode only that window and pass
     * apply() the sample with Sample::pre_cropped set; apply() must
     * then skip its draws and its crop. Defaults to nullopt, "not
     * fusable", with no draw: a decorator that does not forward this
     * hook runs the unfused path, which gives the same sample.
     */
    virtual std::optional<image::Rect>
    drawCropWindow(int width, int height, Rng &rng) const
    {
        (void)width;
        (void)height;
        (void)rng;
        return std::nullopt;
    }
};

using TransformPtr = std::unique_ptr<Transform>;

/** Helper base that stores the name. */
class NamedTransform : public Transform
{
  public:
    explicit NamedTransform(std::string name) : name_(std::move(name)) {}
    const std::string &name() const override { return name_; }

  private:
    std::string name_;
};

} // namespace lotus::pipeline

#endif // LOTUS_PIPELINE_TRANSFORM_H
