#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "hwcount/registry.h"
#include "simd/dispatch.h"

namespace lotus::tensor {

using hwcount::KernelId;
using hwcount::KernelScope;

Tensor
castU8ToF32(const Tensor &input, float scale)
{
    KernelScope scope(KernelId::CastU8ToF32);
    Tensor out = Tensor::uninitialized(DType::F32, input.shape());
    const std::uint8_t *src = input.data<std::uint8_t>();
    float *dst = out.data<float>();
    const std::int64_t n = input.numel();
    simd::kernels().cast_u8_f32(src, dst, n, scale);
    scope.stats().bytes_read += static_cast<std::uint64_t>(n);
    scope.stats().bytes_written += static_cast<std::uint64_t>(n) * 4;
    scope.stats().arith_ops += static_cast<std::uint64_t>(n);
    scope.stats().items += static_cast<std::uint64_t>(n);
    return out;
}

Tensor
castF32ToU8(const Tensor &input, float scale)
{
    KernelScope scope(KernelId::CastF32ToU8);
    Tensor out(DType::U8, input.shape());
    const float *src = input.data<float>();
    std::uint8_t *dst = out.data<std::uint8_t>();
    const std::int64_t n = input.numel();
    for (std::int64_t i = 0; i < n; ++i) {
        const float v = src[i] * scale;
        dst[i] = static_cast<std::uint8_t>(
            std::clamp(v, 0.0f, 255.0f));
    }
    scope.stats().bytes_read += static_cast<std::uint64_t>(n) * 4;
    scope.stats().bytes_written += static_cast<std::uint64_t>(n);
    scope.stats().arith_ops += static_cast<std::uint64_t>(n) * 2;
    scope.stats().items += static_cast<std::uint64_t>(n);
    return out;
}

Tensor
rgbToChwF32(const std::uint8_t *rgb, std::int64_t height, std::int64_t width,
            float scale)
{
    KernelScope scope(KernelId::UnpackRgb);
    Tensor out = Tensor::uninitialized(DType::F32, {3, height, width});
    const std::int64_t pixels = height * width;
    float *r = out.data<float>();
    simd::kernels().unpack_rgb_f32(rgb, r, r + pixels, r + 2 * pixels, pixels,
                                   scale);
    const auto n = static_cast<std::uint64_t>(pixels) * 3;
    scope.stats().bytes_read += n;
    scope.stats().bytes_written += n * 4;
    scope.stats().arith_ops += n;
    scope.stats().items += n;
    return out;
}

void
normalizeChannels(Tensor &cfirst, const std::vector<float> &mean,
                  const std::vector<float> &stddev)
{
    LOTUS_ASSERT(cfirst.rank() >= 2, "normalize expects channel-first");
    const auto channels = static_cast<std::size_t>(cfirst.dim(0));
    LOTUS_ASSERT(mean.size() == channels && stddev.size() == channels,
                 "mean/stddev size %zu != channels %zu", mean.size(),
                 channels);
    KernelScope scope(KernelId::NormalizeChannels);
    float *data = cfirst.data<float>();
    const std::int64_t per_channel = cfirst.numel() / cfirst.dim(0);
    const auto &kernel = simd::kernels();
    for (std::size_t c = 0; c < channels; ++c) {
        const float m = mean[c];
        const float inv = 1.0f / stddev[c];
        float *chan = data + static_cast<std::size_t>(per_channel) * c;
        kernel.normalize_f32(chan, per_channel, m, inv);
    }
    const std::uint64_t n = static_cast<std::uint64_t>(cfirst.numel());
    scope.stats().bytes_read += n * 4;
    scope.stats().bytes_written += n * 4;
    scope.stats().arith_ops += n * 2;
    scope.stats().items += n;
}

void
scaleBrightness(Tensor &input, float factor)
{
    KernelScope scope(KernelId::BrightnessScale);
    float *data = input.data<float>();
    const std::int64_t n = input.numel();
    for (std::int64_t i = 0; i < n; ++i)
        data[i] *= factor;
    const auto un = static_cast<std::uint64_t>(n);
    scope.stats().bytes_read += un * 4;
    scope.stats().bytes_written += un * 4;
    scope.stats().arith_ops += un;
    scope.stats().items += un;
}

void
addGaussianNoise(Tensor &input, Rng &rng, float mean, float stddev)
{
    KernelScope scope(KernelId::GaussianNoiseAdd);
    float *data = input.data<float>();
    const std::int64_t n = input.numel();
    for (std::int64_t i = 0; i < n; ++i)
        data[i] += static_cast<float>(rng.normal(mean, stddev));
    const auto un = static_cast<std::uint64_t>(n);
    scope.stats().bytes_read += un * 4;
    scope.stats().bytes_written += un * 4;
    scope.stats().arith_ops += un * 8; // box-muller is arithmetic heavy
    scope.stats().items += un;
}

Tensor
flipAxis(const Tensor &input, int axis)
{
    const int rank = static_cast<int>(input.rank());
    if (axis < 0)
        axis += rank;
    LOTUS_ASSERT(axis >= 0 && axis < rank, "flip axis %d out of range", axis);
    KernelScope scope(KernelId::FlipAxisCopy);

    Tensor out(input.dtype(), input.shape());
    const std::size_t esize = dtypeSize(input.dtype());
    // Treat the tensor as [outer, flip, inner] and reverse the middle.
    std::int64_t outer = 1, inner = 1;
    for (int i = 0; i < axis; ++i)
        outer *= input.dim(i);
    for (int i = axis + 1; i < rank; ++i)
        inner *= input.dim(i);
    const std::int64_t flip = input.dim(axis);
    const std::size_t inner_bytes = static_cast<std::size_t>(inner) * esize;

    const std::uint8_t *src = input.raw();
    std::uint8_t *dst = out.raw();
    for (std::int64_t o = 0; o < outer; ++o) {
        for (std::int64_t f = 0; f < flip; ++f) {
            const std::size_t s =
                static_cast<std::size_t>((o * flip + f)) * inner_bytes;
            const std::size_t d = static_cast<std::size_t>(
                                      (o * flip + (flip - 1 - f))) *
                                  inner_bytes;
            std::copy_n(src + s, inner_bytes, dst + d);
        }
    }
    scope.stats().bytes_read += input.byteSize();
    scope.stats().bytes_written += input.byteSize();
    scope.stats().items += static_cast<std::uint64_t>(input.numel());
    return out;
}

Tensor
cropWindow(const Tensor &input, const std::vector<std::int64_t> &offsets,
           const std::vector<std::int64_t> &sizes)
{
    const std::size_t rank = input.rank();
    LOTUS_ASSERT(offsets.size() == rank && sizes.size() == rank,
                 "crop spec rank mismatch");
    for (std::size_t i = 0; i < rank; ++i) {
        LOTUS_ASSERT(offsets[i] >= 0 && sizes[i] >= 0 &&
                         offsets[i] + sizes[i] <= input.dim(static_cast<int>(i)),
                     "crop out of bounds on axis %zu", i);
    }
    KernelScope scope(KernelId::CropWindowCopy);
    Tensor out(input.dtype(), sizes);
    const std::size_t esize = dtypeSize(input.dtype());

    // Copy rows of the innermost axis.
    std::vector<std::int64_t> in_strides(rank, 1), idx(rank, 0);
    for (int i = static_cast<int>(rank) - 2; i >= 0; --i)
        in_strides[i] = in_strides[i + 1] * input.dim(i + 1);

    const std::int64_t inner = rank == 0 ? 1 : sizes[rank - 1];
    const std::size_t inner_bytes = static_cast<std::size_t>(inner) * esize;
    std::int64_t outer = 1;
    for (std::size_t i = 0; i + 1 < rank; ++i)
        outer *= sizes[i];

    const std::uint8_t *src = input.raw();
    std::uint8_t *dst = out.raw();
    for (std::int64_t o = 0; o < outer; ++o) {
        std::int64_t src_index = offsets[rank - 1];
        for (std::size_t i = 0; i + 1 < rank; ++i)
            src_index += (idx[i] + offsets[i]) * in_strides[i];
        std::copy_n(src + static_cast<std::size_t>(src_index) * esize,
                    inner_bytes,
                    dst + static_cast<std::size_t>(o) * inner_bytes);
        // Advance the multi-index over all but the innermost axis.
        for (int i = static_cast<int>(rank) - 2; i >= 0; --i) {
            if (++idx[i] < sizes[i])
                break;
            idx[i] = 0;
        }
    }
    scope.stats().bytes_read += out.byteSize();
    scope.stats().bytes_written += out.byteSize();
    scope.stats().random_accesses += static_cast<std::uint64_t>(outer);
    scope.stats().items += static_cast<std::uint64_t>(out.numel());
    return out;
}

std::vector<std::int64_t>
foregroundSearch(const Tensor &input, float threshold,
                 std::size_t max_results)
{
    KernelScope scope(KernelId::ForegroundSearch);
    std::vector<std::int64_t> hits;
    const std::int64_t per_channel =
        input.rank() >= 1 ? input.numel() / input.dim(0) : 0;
    std::uint64_t branches = 0;
    if (input.dtype() == DType::F32) {
        const float *data = input.data<float>();
        for (std::int64_t i = 0;
             i < per_channel && hits.size() < max_results; ++i) {
            ++branches;
            if (data[i] > threshold)
                hits.push_back(i);
        }
    } else {
        const std::uint8_t *data = input.data<std::uint8_t>();
        for (std::int64_t i = 0;
             i < per_channel && hits.size() < max_results; ++i) {
            ++branches;
            if (static_cast<float>(data[i]) > threshold)
                hits.push_back(i);
        }
    }
    scope.stats().bytes_read += static_cast<std::uint64_t>(per_channel) *
                                dtypeSize(input.dtype());
    scope.stats().branches += branches;
    scope.stats().random_accesses += hits.size();
    scope.stats().items += static_cast<std::uint64_t>(per_channel);
    return hits;
}

Tensor
padTo(const Tensor &input, const std::vector<std::int64_t> &target_shape)
{
    const std::size_t rank = input.rank();
    LOTUS_ASSERT(target_shape.size() == rank, "pad rank mismatch");
    bool same = true;
    for (std::size_t i = 0; i < rank; ++i) {
        LOTUS_ASSERT(target_shape[i] >= input.dim(static_cast<int>(i)),
                     "pad target smaller than input on axis %zu", i);
        same = same && target_shape[i] == input.dim(static_cast<int>(i));
    }
    if (same)
        return input.clone();

    KernelScope scope(KernelId::MemsetBulk);
    Tensor out(input.dtype(), target_shape);
    const std::size_t esize = dtypeSize(input.dtype());

    std::vector<std::int64_t> out_strides(rank, 1);
    for (int i = static_cast<int>(rank) - 2; i >= 0; --i)
        out_strides[static_cast<std::size_t>(i)] =
            out_strides[static_cast<std::size_t>(i) + 1] *
            target_shape[static_cast<std::size_t>(i) + 1];

    std::vector<std::int64_t> idx(rank, 0);
    std::int64_t outer = 1;
    for (std::size_t i = 0; i + 1 < rank; ++i)
        outer *= input.dim(static_cast<int>(i));
    const std::int64_t inner =
        rank == 0 ? 1 : input.dim(static_cast<int>(rank) - 1);
    const std::uint8_t *src = input.raw();
    std::uint8_t *dst = out.raw();
    for (std::int64_t o = 0; o < outer; ++o) {
        std::int64_t dst_index = 0;
        for (std::size_t i = 0; i + 1 < rank; ++i)
            dst_index += idx[i] * out_strides[i];
        std::copy_n(src + static_cast<std::size_t>(o * inner) * esize,
                    static_cast<std::size_t>(inner) * esize,
                    dst + static_cast<std::size_t>(dst_index) * esize);
        for (int i = static_cast<int>(rank) - 2; i >= 0; --i) {
            if (++idx[static_cast<std::size_t>(i)] < input.dim(i))
                break;
            idx[static_cast<std::size_t>(i)] = 0;
        }
    }
    scope.stats().bytes_read += input.byteSize();
    scope.stats().bytes_written += out.byteSize();
    scope.stats().items += static_cast<std::uint64_t>(out.numel());
    return out;
}

Tensor
stack(const std::vector<const Tensor *> &items)
{
    LOTUS_ASSERT(!items.empty(), "cannot stack zero tensors");
    const Tensor &first = *items.front();
    for (const Tensor *item : items) {
        LOTUS_ASSERT(item->sameShape(first) && item->dtype() == first.dtype(),
                     "stack requires equal shapes and dtypes");
    }
    std::vector<std::int64_t> shape;
    shape.push_back(static_cast<std::int64_t>(items.size()));
    shape.insert(shape.end(), first.shape().begin(), first.shape().end());
    Tensor out = Tensor::uninitialized(first.dtype(), shape);
    KernelScope scope(KernelId::CollateCopy);
    const std::size_t item_bytes = first.byteSize();
    std::uint8_t *dst = out.raw();
    const auto &kernel = simd::kernels();
    for (std::size_t i = 0; i < items.size(); ++i)
        kernel.copy_bytes(items[i]->raw(), dst + i * item_bytes,
                          item_bytes);
    scope.stats().bytes_read += item_bytes * items.size();
    scope.stats().bytes_written += item_bytes * items.size();
    scope.stats().items += items.size();
    return out;
}

Tensor
stack(const std::vector<Tensor> &items)
{
    std::vector<const Tensor *> ptrs;
    ptrs.reserve(items.size());
    for (const auto &item : items)
        ptrs.push_back(&item);
    return stack(ptrs);
}

} // namespace lotus::tensor
