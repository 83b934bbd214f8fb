/**
 * @file
 * Data currency of the preprocessing framework.
 *
 * A Sample carries either a decoded Image (vision pipelines before
 * ToTensor) or a Tensor (after ToTensor, and throughout volumetric
 * pipelines), plus its label. A Batch is the collated result a worker
 * ships to the main process.
 */

#ifndef LOTUS_PIPELINE_SAMPLE_H
#define LOTUS_PIPELINE_SAMPLE_H

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "image/image.h"
#include "tensor/tensor.h"
#include "trace/logger.h"

namespace lotus::pipeline {

struct Sample
{
    /** Image-domain payload (present until ToTensor consumes it). */
    std::optional<image::Image> image;
    /** Tensor-domain payload. */
    tensor::Tensor data;
    std::int64_t label = 0;
    /** The Loader decoded only the window the first transform's
     *  drawCropWindow() drew; that transform's apply() consumes the
     *  flag instead of drawing and cropping again. */
    bool pre_cropped = false;

    bool hasImage() const { return image.has_value(); }
};

struct Batch
{
    std::int64_t batch_id = -1;
    tensor::Tensor data;
    std::vector<std::int64_t> labels;

    std::int64_t size() const
    {
        return data.rank() == 0 || data.empty() ? 0 : data.dim(0);
    }
};

/**
 * Ambient state for one dataset/pipeline invocation: the tracer (may
 * be null = tracing disabled), the calling worker's identity and RNG
 * stream, and the batch/sample being produced (for [T3] records).
 */
struct PipelineContext
{
    trace::TraceLogger *logger = nullptr;
    std::uint32_t pid = 0;
    std::int64_t batch_id = -1;
    std::int64_t sample_index = -1;
    Rng *rng = nullptr;

    Rng &
    rngRef()
    {
        LOTUS_ASSERT(rng != nullptr, "pipeline context has no rng");
        return *rng;
    }
};

} // namespace lotus::pipeline

#endif // LOTUS_PIPELINE_SAMPLE_H
