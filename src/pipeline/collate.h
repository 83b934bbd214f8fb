/**
 * @file
 * Batch collation (the paper's C(k) operation): combine k
 * preprocessed samples into one batch tensor.
 */

#ifndef LOTUS_PIPELINE_COLLATE_H
#define LOTUS_PIPELINE_COLLATE_H

#include <string>
#include <vector>

#include "pipeline/sample.h"

namespace lotus::pipeline {

class Collate
{
  public:
    static constexpr const char *kOpName = "Collate";

    virtual ~Collate() = default;

    /** Consume samples, producing a batch (batch_id left unset). */
    virtual Batch collate(std::vector<Sample> samples) const = 0;

    /**
     * Forwards to collate() and ignores its tensor argument. Nothing
     * in the library calls it; it stays only because perfbench's
     * TimedCollate overrides it, and goes with the next change to
     * perfbench.
     */
    virtual Batch collateInto(std::vector<Sample> samples,
                              tensor::Tensor unused) const;
};

/** Stack equally shaped sample tensors along a new batch axis. */
class StackCollate : public Collate
{
  public:
    Batch collate(std::vector<Sample> samples) const override;
};

/**
 * Pad samples to the per-axis maximum before stacking (the detection
 * pipeline's variable-size batches, a Mask R-CNN style pad collate).
 */
class PadCollate : public Collate
{
  public:
    /** Pad spatial extents up to a multiple of this (0 = exact max). */
    explicit PadCollate(std::int64_t size_divisor = 0);

    Batch collate(std::vector<Sample> samples) const override;

  private:
    std::int64_t size_divisor_;
};

} // namespace lotus::pipeline

#endif // LOTUS_PIPELINE_COLLATE_H
