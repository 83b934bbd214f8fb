/**
 * @file
 * Tensor compute kernels used by preprocessing operations.
 *
 * Every function here does real elementwise/copy work and annotates
 * itself in the kernel registry (hwcount), so hardware-level profiling
 * observes these as native leaf functions — the liblotustensor
 * analogue of the ATen/numpy kernels in the paper's stack.
 */

#ifndef LOTUS_TENSOR_OPS_H
#define LOTUS_TENSOR_OPS_H

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace lotus::tensor {

/**
 * Convert a u8 tensor to f32, multiplying by @p scale
 * (ToTensor uses 1/255).
 */
Tensor castU8ToF32(const Tensor &input, float scale = 1.0f / 255.0f);

/** Convert an f32 tensor to u8 with clamping to [0, 255]. */
Tensor castF32ToU8(const Tensor &input, float scale = 1.0f);

/**
 * ToTensor in one pass: read @p height x @p width interleaved RGB u8
 * pixels at @p rgb in place and return the [3, height, width] f32 CHW
 * tensor float(u8) * @p scale. Bit-identical to permuting to CHW and
 * then castU8ToF32. @p rgb must stay readable for
 * simd::kMaxReadSlack bytes past its end (pooled Image storage is).
 */
Tensor rgbToChwF32(const std::uint8_t *rgb, std::int64_t height,
                   std::int64_t width, float scale = 1.0f / 255.0f);

/**
 * In-place per-channel normalization of a CHW (or C-first N-D) f32
 * tensor: x = (x - mean[c]) / stddev[c].
 */
void normalizeChannels(Tensor &cfirst, const std::vector<float> &mean,
                       const std::vector<float> &stddev);

/** In-place brightness scaling: x *= factor. */
void scaleBrightness(Tensor &input, float factor);

/** In-place additive Gaussian noise on an f32 tensor. */
void addGaussianNoise(Tensor &input, Rng &rng, float mean, float stddev);

/** Copy with one axis reversed (RandomFlip on tensors/volumes). */
Tensor flipAxis(const Tensor &input, int axis);

/**
 * Copy a window: output[i] = input[i + offset] for every axis.
 * @p offsets and @p sizes must match the tensor rank.
 */
Tensor cropWindow(const Tensor &input, const std::vector<std::int64_t> &offsets,
                  const std::vector<std::int64_t> &sizes);

/**
 * Scan a C-first tensor's channel 0 for "foreground" (elements above
 * @p threshold), returning indices of the flattened spatial positions
 * found, up to @p max_results. Works on u8 and f32 tensors. Models
 * the irregular-access search in RandBalancedCrop.
 */
std::vector<std::int64_t> foregroundSearch(const Tensor &input,
                                           float threshold,
                                           std::size_t max_results);

/**
 * Zero-pad @p input at the high end of each axis up to
 * @p target_shape (no-op when shapes already match). Every target
 * extent must be >= the input's.
 */
Tensor padTo(const Tensor &input,
             const std::vector<std::int64_t> &target_shape);

/** Stack equally shaped tensors along a new leading batch axis. */
Tensor stack(const std::vector<Tensor> &items);

/** Stack via pointers (avoids copying the input vector). */
Tensor stack(const std::vector<const Tensor *> &items);

} // namespace lotus::tensor

#endif // LOTUS_TENSOR_OPS_H
