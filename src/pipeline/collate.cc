#include "pipeline/collate.h"

#include <algorithm>
#include <cstring>

#include "hwcount/registry.h"
#include "simd/dispatch.h"
#include "tensor/ops.h"

namespace lotus::pipeline {

using hwcount::KernelId;
using hwcount::KernelScope;

Batch
Collate::collateInto(std::vector<Sample> samples, tensor::Tensor) const
{
    return collate(std::move(samples));
}

Batch
StackCollate::collate(std::vector<Sample> samples) const
{
    LOTUS_ASSERT(!samples.empty(), "cannot collate an empty batch");
    Batch batch;
    std::vector<const tensor::Tensor *> tensors;
    tensors.reserve(samples.size());
    for (const auto &sample : samples) {
        LOTUS_ASSERT(!sample.hasImage(),
                     "collate needs tensor samples (missing ToTensor?)");
        tensors.push_back(&sample.data);
    }
    batch.data = tensor::stack(tensors);
    batch.labels.reserve(samples.size());
    for (const auto &sample : samples)
        batch.labels.push_back(sample.label);
    return batch;
}

PadCollate::PadCollate(std::int64_t size_divisor)
    : size_divisor_(size_divisor)
{
    LOTUS_ASSERT(size_divisor >= 0);
}

Batch
PadCollate::collate(std::vector<Sample> samples) const
{
    LOTUS_ASSERT(!samples.empty(), "cannot collate an empty batch");
    const std::size_t rank = samples.front().data.rank();
    const tensor::DType dtype = samples.front().data.dtype();
    std::vector<std::int64_t> max_shape(rank, 0);
    for (const auto &sample : samples) {
        LOTUS_ASSERT(!sample.hasImage(),
                     "collate needs tensor samples (missing ToTensor?)");
        LOTUS_ASSERT(sample.data.rank() == rank,
                     "pad collate requires uniform rank");
        LOTUS_ASSERT(sample.data.dtype() == dtype,
                     "pad collate requires uniform dtype");
        for (std::size_t i = 0; i < rank; ++i) {
            max_shape[i] = std::max(max_shape[i],
                                    sample.data.dim(static_cast<int>(i)));
        }
    }
    if (size_divisor_ > 1) {
        // Pad spatial axes (all but the leading channel axis) up to a
        // multiple of the divisor, as detection frameworks do.
        for (std::size_t i = 1; i < rank; ++i) {
            const std::int64_t rem = max_shape[i] % size_divisor_;
            if (rem != 0)
                max_shape[i] += size_divisor_ - rem;
        }
    }
    bool any_padding = false;
    for (const auto &sample : samples)
        any_padding = any_padding || sample.data.shape() != max_shape;

    // Write every sample straight into its batch slot rather than
    // materializing per-sample padded copies and stacking them.
    std::vector<std::int64_t> batch_shape;
    batch_shape.push_back(static_cast<std::int64_t>(samples.size()));
    batch_shape.insert(batch_shape.end(), max_shape.begin(),
                       max_shape.end());
    Batch batch;
    batch.data = tensor::Tensor::uninitialized(dtype, batch_shape);

    const std::size_t esize = tensor::dtypeSize(dtype);
    std::size_t item_bytes = esize;
    for (const auto extent : max_shape)
        item_bytes *= static_cast<std::size_t>(extent);

    if (any_padding) {
        // Zero the batch first so the gaps around each sample read
        // as padding.
        KernelScope scope(KernelId::MemsetBulk);
        std::memset(batch.data.raw(), 0, batch.data.byteSize());
        scope.stats().bytes_written += batch.data.byteSize();
        scope.stats().items += 1;
    }

    KernelScope scope(KernelId::CollateCopy);
    std::vector<std::int64_t> out_strides(rank, 1);
    for (int i = static_cast<int>(rank) - 2; i >= 0; --i)
        out_strides[static_cast<std::size_t>(i)] =
            out_strides[static_cast<std::size_t>(i) + 1] *
            max_shape[static_cast<std::size_t>(i) + 1];
    const auto &kernel = simd::kernels();
    std::uint64_t copied = 0;
    for (std::size_t n = 0; n < samples.size(); ++n) {
        const auto &sample = samples[n].data;
        std::uint8_t *slot = batch.data.raw() + n * item_bytes;
        if (sample.shape() == max_shape) {
            kernel.copy_bytes(sample.raw(), slot, sample.byteSize());
            copied += sample.byteSize();
            continue;
        }
        // Copy the sample into the origin corner row by row.
        std::vector<std::int64_t> idx(rank, 0);
        std::int64_t outer = 1;
        for (std::size_t i = 0; i + 1 < rank; ++i)
            outer *= sample.dim(static_cast<int>(i));
        const std::int64_t inner = sample.dim(static_cast<int>(rank) - 1);
        const std::uint8_t *src = sample.raw();
        for (std::int64_t o = 0; o < outer; ++o) {
            std::int64_t dst_index = 0;
            for (std::size_t i = 0; i + 1 < rank; ++i)
                dst_index += idx[i] * out_strides[i];
            kernel.copy_bytes(
                src + static_cast<std::size_t>(o * inner) * esize,
                slot + static_cast<std::size_t>(dst_index) * esize,
                static_cast<std::size_t>(inner) * esize);
            for (int i = static_cast<int>(rank) - 2; i >= 0; --i) {
                if (++idx[static_cast<std::size_t>(i)] < sample.dim(i))
                    break;
                idx[static_cast<std::size_t>(i)] = 0;
            }
        }
        copied += sample.byteSize();
    }
    scope.stats().bytes_read += copied;
    scope.stats().bytes_written += copied;
    scope.stats().items += samples.size();

    batch.labels.reserve(samples.size());
    for (const auto &sample : samples)
        batch.labels.push_back(sample.label);
    return batch;
}

} // namespace lotus::pipeline
