/**
 * @file
 * ImageFolder analogue: decode-from-store dataset for vision
 * pipelines.
 *
 * get() performs the Loader operation (blob read + LJPG decode),
 * logged as a [T3] op named "Loader" exactly like the paper's
 * instrumented torchvision.datasets, then applies the Compose chain.
 * When the chain's first op crops first (Transform::drawCropWindow),
 * the uncached get() draws its window from the LJPG header and decodes
 * only that window; the sample is bit-identical to the unfused one.
 */

#ifndef LOTUS_PIPELINE_IMAGE_FOLDER_H
#define LOTUS_PIPELINE_IMAGE_FOLDER_H

#include <memory>

#include "hwcount/registry.h"
#include "pipeline/compose.h"
#include "pipeline/dataset.h"
#include "pipeline/store.h"

namespace lotus::pipeline {

class ImageFolderDataset : public Dataset
{
  public:
    static constexpr const char *kLoaderOpName = "Loader";

    /**
     * @param store encoded image blobs
     * @param transforms transform chain applied after decode
     * @param num_classes labels are index % num_classes
     */
    ImageFolderDataset(std::shared_ptr<const BlobStore> store,
                       std::shared_ptr<const Compose> transforms,
                       std::int64_t num_classes = 1000);

    std::int64_t size() const override;
    Sample get(std::int64_t index, PipelineContext &ctx) const override;
    Result<Sample> tryGet(std::int64_t index,
                          PipelineContext &ctx) const override;
    const BlobStore *blobStore() const override { return store_.get(); }

    /**
     * Cache split: the prefix is Loader (store read + decode) plus
     * the Compose chain's deterministic prefix; the suffix is the
     * remaining (stochastic-first) transforms. The fingerprint covers
     * the labeling scheme and the prefix transform configs.
     */
    std::optional<CacheableSplit> cacheableSplit() const override;
    Result<Sample> tryGetPrefix(std::int64_t index,
                                PipelineContext &ctx) const override;
    void applySuffix(Sample &sample,
                     PipelineContext &ctx) const override;

    const Compose &transforms() const { return *transforms_; }

  private:
    /** The Loader op: store read + decode, under its [T3] span. With
     *  @p fuse_crop and a crop-first op 0, decodes only its window. */
    Result<Sample> load(std::int64_t index, PipelineContext &ctx,
                        bool fuse_crop) const;

    std::shared_ptr<const BlobStore> store_;
    std::shared_ptr<const Compose> transforms_;
    std::int64_t num_classes_;
    hwcount::OpTag loader_tag_;
    std::uint64_t dataset_id_;
};

} // namespace lotus::pipeline

#endif // LOTUS_PIPELINE_IMAGE_FOLDER_H
