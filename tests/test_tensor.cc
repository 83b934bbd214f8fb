/**
 * @file
 * Unit tests for the tensor substrate: shapes, typed access, compute
 * kernels, serialization.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"
#include "tensor/tensor.h"

namespace lotus::tensor {
namespace {

TEST(Tensor, ZeroInitializedWithShape)
{
    Tensor t(DType::F32, {2, 3, 4});
    EXPECT_EQ(t.numel(), 24);
    EXPECT_EQ(t.byteSize(), 96u);
    EXPECT_EQ(t.dim(0), 2);
    EXPECT_EQ(t.dim(-1), 4);
    for (std::int64_t i = 0; i < t.numel(); ++i)
        EXPECT_EQ(t.data<float>()[i], 0.0f);
}

TEST(Tensor, EmptyTensor)
{
    Tensor t;
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.numel(), 0);
}

TEST(Tensor, CloneIsDeep)
{
    Tensor t(DType::U8, {4});
    t.data<std::uint8_t>()[0] = 42;
    Tensor copy = t.clone();
    copy.data<std::uint8_t>()[0] = 7;
    EXPECT_EQ(t.data<std::uint8_t>()[0], 42);
    EXPECT_EQ(copy.data<std::uint8_t>()[0], 7);
}

TEST(Tensor, ReshapePreservesData)
{
    Tensor t(DType::U8, {2, 6});
    t.data<std::uint8_t>()[5] = 9;
    Tensor r = std::move(t).reshaped({3, 4});
    EXPECT_EQ(r.dim(0), 3);
    EXPECT_EQ(r.data<std::uint8_t>()[5], 9);
}

TEST(Tensor, Description)
{
    Tensor t(DType::F32, {3, 224, 224});
    EXPECT_EQ(t.description(), "f32[3, 224, 224]");
}

TEST(Tensor, TypeCheckPanicsOnMismatch)
{
    Tensor t(DType::U8, {2});
    EXPECT_DEATH(t.data<float>(), "assertion failed");
}

TEST(Ops, CastU8ToF32Scales)
{
    Tensor t(DType::U8, {3});
    t.data<std::uint8_t>()[0] = 0;
    t.data<std::uint8_t>()[1] = 255;
    t.data<std::uint8_t>()[2] = 51;
    Tensor f = castU8ToF32(t);
    EXPECT_FLOAT_EQ(f.data<float>()[0], 0.0f);
    EXPECT_FLOAT_EQ(f.data<float>()[1], 1.0f);
    EXPECT_NEAR(f.data<float>()[2], 0.2f, 1e-6);
}

TEST(Ops, CastRoundTripIdentityForSmallIntegers)
{
    Tensor t(DType::U8, {256});
    for (int i = 0; i < 256; ++i)
        t.data<std::uint8_t>()[i] = static_cast<std::uint8_t>(i);
    Tensor f = castU8ToF32(t, 1.0f);
    Tensor back = castF32ToU8(f, 1.0f);
    for (int i = 0; i < 256; ++i)
        EXPECT_EQ(back.data<std::uint8_t>()[i], i);
}

TEST(Ops, CastF32ToU8Clamps)
{
    Tensor t(DType::F32, {2});
    t.data<float>()[0] = -5.0f;
    t.data<float>()[1] = 300.0f;
    Tensor u = castF32ToU8(t);
    EXPECT_EQ(u.data<std::uint8_t>()[0], 0);
    EXPECT_EQ(u.data<std::uint8_t>()[1], 255);
}

TEST(Ops, RgbToChwF32MatchesThreePassReference)
{
    Rng rng(5);
    for (const auto &[h, w] :
         std::vector<std::pair<std::int64_t, std::int64_t>>{
             {1, 1}, {1, 67}, {3, 5}, {7, 13}, {17, 31}, {33, 1}, {75, 101}}) {
        Tensor hwc(DType::U8, {h, w, 3});
        for (std::int64_t i = 0; i < hwc.numel(); ++i)
            hwc.data<std::uint8_t>()[i] =
                static_cast<std::uint8_t>(rng.nextBelow(256));

        // The reference: copy out, permute HWC -> CHW byte by byte,
        // then cast u8 -> f32.
        Tensor chw(DType::U8, {3, h, w});
        for (std::int64_t c = 0; c < 3; ++c)
            for (std::int64_t y = 0; y < h; ++y)
                for (std::int64_t x = 0; x < w; ++x)
                    chw.data<std::uint8_t>()[(c * h + y) * w + x] =
                        hwc.data<std::uint8_t>()[(y * w + x) * 3 + c];
        const Tensor expected = castU8ToF32(chw);

        const Tensor actual = rgbToChwF32(hwc.raw(), h, w);
        ASSERT_EQ(actual.dtype(), DType::F32);
        ASSERT_EQ(actual.shape(), (std::vector<std::int64_t>{3, h, w}));
        EXPECT_EQ(std::memcmp(actual.raw(), expected.raw(),
                              expected.byteSize()),
                  0)
            << h << "x" << w;
    }
}

TEST(Ops, NormalizeChannels)
{
    Tensor t(DType::F32, {2, 2});
    t.data<float>()[0] = 1.0f;
    t.data<float>()[1] = 3.0f;
    t.data<float>()[2] = 10.0f;
    t.data<float>()[3] = 20.0f;
    normalizeChannels(t, {2.0f, 15.0f}, {2.0f, 5.0f});
    EXPECT_FLOAT_EQ(t.data<float>()[0], -0.5f);
    EXPECT_FLOAT_EQ(t.data<float>()[1], 0.5f);
    EXPECT_FLOAT_EQ(t.data<float>()[2], -1.0f);
    EXPECT_FLOAT_EQ(t.data<float>()[3], 1.0f);
}

TEST(Ops, ScaleBrightness)
{
    Tensor t(DType::F32, {3});
    for (int i = 0; i < 3; ++i)
        t.data<float>()[i] = static_cast<float>(i + 1);
    scaleBrightness(t, 2.0f);
    EXPECT_FLOAT_EQ(t.data<float>()[2], 6.0f);
}

TEST(Ops, GaussianNoiseChangesValuesWithRequestedSpread)
{
    Tensor t(DType::F32, {10000});
    Rng rng(3);
    addGaussianNoise(t, rng, 0.0f, 2.0f);
    double sum = 0.0, sum_sq = 0.0;
    for (std::int64_t i = 0; i < t.numel(); ++i) {
        sum += t.data<float>()[i];
        sum_sq += static_cast<double>(t.data<float>()[i]) *
                  t.data<float>()[i];
    }
    const double mean = sum / static_cast<double>(t.numel());
    const double stddev =
        std::sqrt(sum_sq / static_cast<double>(t.numel()) - mean * mean);
    EXPECT_NEAR(mean, 0.0, 0.1);
    EXPECT_NEAR(stddev, 2.0, 0.1);
}

TEST(Ops, FlipAxisReversesMiddleAxis)
{
    Tensor t(DType::U8, {2, 3, 2});
    for (std::int64_t i = 0; i < t.numel(); ++i)
        t.data<std::uint8_t>()[i] = static_cast<std::uint8_t>(i);
    Tensor f = flipAxis(t, 1);
    // element (o, m, i) -> (o, 2-m, i)
    for (int o = 0; o < 2; ++o) {
        for (int m = 0; m < 3; ++m) {
            for (int i = 0; i < 2; ++i) {
                EXPECT_EQ(f.data<std::uint8_t>()[(o * 3 + m) * 2 + i],
                          (o * 3 + (2 - m)) * 2 + i);
            }
        }
    }
}

TEST(Ops, FlipAxisTwiceIsIdentity)
{
    Rng rng(8);
    Tensor t(DType::F32, {3, 4, 5});
    for (std::int64_t i = 0; i < t.numel(); ++i)
        t.data<float>()[i] = static_cast<float>(rng.nextDouble());
    for (int axis = 0; axis < 3; ++axis) {
        Tensor once = flipAxis(t, axis);
        Tensor twice = flipAxis(once, axis);
        for (std::int64_t i = 0; i < t.numel(); ++i)
            EXPECT_EQ(twice.data<float>()[i], t.data<float>()[i]);
    }
}

TEST(Ops, CropWindowExtractsSubtensor)
{
    Tensor t(DType::U8, {4, 4});
    for (std::int64_t i = 0; i < 16; ++i)
        t.data<std::uint8_t>()[i] = static_cast<std::uint8_t>(i);
    Tensor c = cropWindow(t, {1, 2}, {2, 2});
    ASSERT_EQ(c.shape(), (std::vector<std::int64_t>{2, 2}));
    EXPECT_EQ(c.data<std::uint8_t>()[0], 6);  // (1, 2)
    EXPECT_EQ(c.data<std::uint8_t>()[1], 7);  // (1, 3)
    EXPECT_EQ(c.data<std::uint8_t>()[2], 10); // (2, 2)
    EXPECT_EQ(c.data<std::uint8_t>()[3], 11); // (2, 3)
}

TEST(Ops, CropWindowOutOfBoundsPanics)
{
    Tensor t(DType::U8, {4, 4});
    EXPECT_DEATH(cropWindow(t, {3, 0}, {2, 4}), "crop out of bounds");
}

TEST(Ops, ForegroundSearchFindsBrightVoxels)
{
    Tensor t(DType::F32, {1, 3, 3});
    t.data<float>()[4] = 250.0f;
    t.data<float>()[8] = 251.0f;
    const auto hits = foregroundSearch(t, 200.0f, 100);
    ASSERT_EQ(hits.size(), 2u);
    EXPECT_EQ(hits[0], 4);
    EXPECT_EQ(hits[1], 8);
}

TEST(Ops, ForegroundSearchWorksOnU8)
{
    Tensor t(DType::U8, {1, 4});
    t.data<std::uint8_t>()[2] = 230;
    const auto hits = foregroundSearch(t, 200.0f, 100);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0], 2);
}

TEST(Ops, ForegroundSearchHonorsMaxResults)
{
    Tensor t(DType::F32, {1, 100});
    for (int i = 0; i < 100; ++i)
        t.data<float>()[i] = 300.0f;
    EXPECT_EQ(foregroundSearch(t, 200.0f, 5).size(), 5u);
}

TEST(Ops, StackAddsLeadingAxis)
{
    Tensor a(DType::F32, {2, 2});
    Tensor b(DType::F32, {2, 2});
    a.data<float>()[0] = 1.0f;
    b.data<float>()[3] = 2.0f;
    Tensor s = stack(std::vector<Tensor>{a.clone(), b.clone()});
    ASSERT_EQ(s.shape(), (std::vector<std::int64_t>{2, 2, 2}));
    EXPECT_FLOAT_EQ(s.data<float>()[0], 1.0f);
    EXPECT_FLOAT_EQ(s.data<float>()[7], 2.0f);
}

TEST(Ops, StackRequiresMatchingShapes)
{
    Tensor a(DType::F32, {2});
    Tensor b(DType::F32, {3});
    EXPECT_DEATH(stack(std::vector<Tensor>{a.clone(), b.clone()}),
                 "equal shapes");
}

TEST(Ops, PadToGrowsWithZeros)
{
    Tensor t(DType::U8, {2, 3});
    for (std::int64_t i = 0; i < 6; ++i)
        t.data<std::uint8_t>()[i] = static_cast<std::uint8_t>(i + 1);
    Tensor p = padTo(t, {3, 5});
    ASSERT_EQ(p.shape(), (std::vector<std::int64_t>{3, 5}));
    // Original values at the origin corner.
    EXPECT_EQ(p.data<std::uint8_t>()[0], 1);
    EXPECT_EQ(p.data<std::uint8_t>()[1 * 5 + 2], 6); // (1,2)
    // Padding is zero.
    EXPECT_EQ(p.data<std::uint8_t>()[0 * 5 + 3], 0);
    EXPECT_EQ(p.data<std::uint8_t>()[2 * 5 + 0], 0);
}

TEST(Ops, PadToSameShapeIsCopy)
{
    Tensor t(DType::F32, {2, 2});
    t.data<float>()[3] = 7.0f;
    Tensor p = padTo(t, {2, 2});
    EXPECT_FLOAT_EQ(p.data<float>()[3], 7.0f);
    p.data<float>()[3] = 1.0f;
    EXPECT_FLOAT_EQ(t.data<float>()[3], 7.0f); // deep copy
}

TEST(Ops, PadToRejectsShrinking)
{
    Tensor t(DType::U8, {4});
    EXPECT_DEATH(padTo(t, {2}), "pad target smaller");
}

TEST(Serialize, RoundTripF32)
{
    Rng rng(17);
    Tensor t(DType::F32, {2, 3, 4});
    for (std::int64_t i = 0; i < t.numel(); ++i)
        t.data<float>()[i] = static_cast<float>(rng.normal());
    const std::string bytes = toBytes(t);
    Tensor back = fromBytes(bytes);
    ASSERT_EQ(back.shape(), t.shape());
    ASSERT_EQ(back.dtype(), t.dtype());
    for (std::int64_t i = 0; i < t.numel(); ++i)
        EXPECT_EQ(back.data<float>()[i], t.data<float>()[i]);
}

TEST(Serialize, RoundTripU8)
{
    Tensor t(DType::U8, {5});
    for (int i = 0; i < 5; ++i)
        t.data<std::uint8_t>()[i] = static_cast<std::uint8_t>(50 + i);
    Tensor back = fromBytes(toBytes(t));
    EXPECT_EQ(back.data<std::uint8_t>()[4], 54);
}

TEST(Serialize, RejectsGarbage)
{
    EXPECT_DEATH(fromBytes("not a tensor"), "");
}

} // namespace
} // namespace lotus::tensor
