/**
 * @file
 * Unit tests for image resampling, geometry and synthesis.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "image/geometry.h"
#include "image/image.h"
#include "image/resample.h"
#include "image/synth.h"

namespace lotus::image {
namespace {

TEST(Image, ConstructionAndAccess)
{
    Image img(4, 3);
    EXPECT_EQ(img.width(), 4);
    EXPECT_EQ(img.height(), 3);
    EXPECT_EQ(img.byteSize(), 36u);
    img.pixel(2, 1)[1] = 77;
    EXPECT_EQ(img.row(1)[2 * 3 + 1], 77);
}

TEST(Resample, PrecomputeCoeffsNormalized)
{
    const auto windows = detail::precomputeCoeffs(100, 30, Filter::Bilinear);
    ASSERT_EQ(windows.size(), 30u);
    for (const auto &window : windows) {
        double sum = 0.0;
        for (const float w : window.weights)
            sum += w;
        EXPECT_NEAR(sum, 1.0, 1e-4);
        EXPECT_GE(window.first, 0);
        EXPECT_LE(window.first + static_cast<int>(window.weights.size()),
                  100);
    }
}

TEST(Resample, IdentityKeepsUniformColor)
{
    Image img(16, 16);
    for (int y = 0; y < 16; ++y) {
        for (int i = 0; i < 16 * 3; ++i)
            img.row(y)[i] = 120;
    }
    Image out = resize(img, 16, 16);
    for (int y = 0; y < 16; ++y) {
        for (int i = 0; i < 16 * 3; ++i)
            EXPECT_EQ(out.row(y)[i], 120);
    }
}

TEST(Resample, UniformColorSurvivesAnyScale)
{
    Image img(40, 30);
    for (int y = 0; y < 30; ++y) {
        for (int i = 0; i < 40 * 3; ++i)
            img.row(y)[i] = 200;
    }
    for (const auto &[w, h] : {std::pair{10, 10}, {80, 60}, {17, 23}}) {
        Image out = resize(img, w, h);
        EXPECT_EQ(out.width(), w);
        EXPECT_EQ(out.height(), h);
        for (int y = 0; y < h; ++y) {
            for (int i = 0; i < w * 3; ++i)
                EXPECT_NEAR(out.row(y)[i], 200, 1);
        }
    }
}

TEST(Resample, DownscalePreservesMeanBrightness)
{
    Rng rng(4);
    Image img = synthesize(rng, 64, 64, SynthOptions{0.4, 2});
    Image out = resize(img, 16, 16);
    auto mean = [](const Image &image) {
        double sum = 0.0;
        for (int y = 0; y < image.height(); ++y) {
            for (int i = 0; i < image.width() * 3; ++i)
                sum += image.row(y)[i];
        }
        return sum / static_cast<double>(image.byteSize());
    };
    EXPECT_NEAR(mean(out), mean(img), 4.0);
}

TEST(Resample, BoxFilterWorks)
{
    Rng rng(6);
    Image img = synthesize(rng, 32, 32);
    Image out = resize(img, 8, 8, Filter::Box);
    EXPECT_EQ(out.width(), 8);
    EXPECT_EQ(out.height(), 8);
}

TEST(Geometry, CropExtractsRegion)
{
    Image img(6, 4);
    img.pixel(3, 2)[0] = 99;
    Image out = crop(img, Rect{2, 1, 3, 2});
    EXPECT_EQ(out.width(), 3);
    EXPECT_EQ(out.height(), 2);
    EXPECT_EQ(out.pixel(1, 1)[0], 99); // (3, 2) in source coords
}

TEST(Geometry, CropOutOfBoundsPanics)
{
    Image img(4, 4);
    EXPECT_DEATH(crop(img, Rect{2, 2, 4, 4}), "crop");
}

TEST(Geometry, FlipHorizontalMirrors)
{
    Image img(3, 1);
    img.pixel(0, 0)[0] = 1;
    img.pixel(1, 0)[0] = 2;
    img.pixel(2, 0)[0] = 3;
    Image out = flipHorizontal(img);
    EXPECT_EQ(out.pixel(0, 0)[0], 3);
    EXPECT_EQ(out.pixel(1, 0)[0], 2);
    EXPECT_EQ(out.pixel(2, 0)[0], 1);
}

TEST(Geometry, DoubleFlipIsIdentity)
{
    Rng rng(7);
    Image img = synthesize(rng, 13, 9);
    Image twice = flipHorizontal(flipHorizontal(img));
    for (int y = 0; y < img.height(); ++y) {
        for (int i = 0; i < img.width() * 3; ++i)
            EXPECT_EQ(twice.row(y)[i], img.row(y)[i]);
    }
}

TEST(Synth, DeterministicForSeed)
{
    Rng rng1(42), rng2(42);
    Image a = synthesize(rng1, 20, 20);
    Image b = synthesize(rng2, 20, 20);
    for (int y = 0; y < 20; ++y) {
        for (int i = 0; i < 20 * 3; ++i)
            EXPECT_EQ(a.row(y)[i], b.row(y)[i]);
    }
}

TEST(Synth, DifferentSeedsDiffer)
{
    Rng rng1(1), rng2(2);
    Image a = synthesize(rng1, 20, 20);
    Image b = synthesize(rng2, 20, 20);
    int diffs = 0;
    for (int y = 0; y < 20; ++y) {
        for (int i = 0; i < 20 * 3; ++i) {
            if (a.row(y)[i] != b.row(y)[i])
                ++diffs;
        }
    }
    EXPECT_GT(diffs, 100);
}

/** Property sweep: resize dimension contracts hold for many pairs. */
class ResizePairs
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>>
{
};

TEST_P(ResizePairs, OutputDimensionsExact)
{
    const auto [in_w, in_h, out_w, out_h] = GetParam();
    Rng rng(static_cast<std::uint64_t>(in_w * 31 + in_h));
    Image img = synthesize(rng, in_w, in_h);
    Image out = resize(img, out_w, out_h);
    EXPECT_EQ(out.width(), out_w);
    EXPECT_EQ(out.height(), out_h);
}

INSTANTIATE_TEST_SUITE_P(
    Dims, ResizePairs,
    ::testing::Combine(::testing::Values(5, 32, 100),
                       ::testing::Values(7, 64),
                       ::testing::Values(1, 16, 224),
                       ::testing::Values(1, 50)));

} // namespace
} // namespace lotus::image
