#include "pipeline/image_folder.h"

#include "image/codec/codec.h"

namespace lotus::pipeline {

ImageFolderDataset::ImageFolderDataset(
    std::shared_ptr<const BlobStore> store,
    std::shared_ptr<const Compose> transforms, std::int64_t num_classes)
    : store_(std::move(store)), transforms_(std::move(transforms)),
      num_classes_(num_classes),
      loader_tag_(hwcount::KernelRegistry::instance().registerOp(
          kLoaderOpName)),
      dataset_id_(allocateDatasetId())
{
    LOTUS_ASSERT(store_ != nullptr && transforms_ != nullptr);
    LOTUS_ASSERT(num_classes_ > 0);
}

std::int64_t
ImageFolderDataset::size() const
{
    return store_->size();
}

Sample
ImageFolderDataset::get(std::int64_t index, PipelineContext &ctx) const
{
    Result<Sample> sample = tryGet(index, ctx);
    if (!sample.ok())
        LOTUS_FATAL("sample %lld: %s", static_cast<long long>(index),
                    sample.error().describe().c_str());
    return sample.take();
}

Result<Sample>
ImageFolderDataset::tryGet(std::int64_t index, PipelineContext &ctx) const
{
    Result<Sample> loaded = load(index, ctx, /*fuse_crop=*/true);
    if (!loaded.ok())
        return loaded.takeError();
    Sample sample = loaded.take();
    (*transforms_)(sample, ctx);
    return sample;
}

std::optional<CacheableSplit>
ImageFolderDataset::cacheableSplit() const
{
    CacheableSplit split;
    split.dataset_id = dataset_id_;
    split.prefix_fingerprint =
        ConfigHash()
            .mix(std::string("ImageFolderDataset"))
            .mix(static_cast<std::uint64_t>(num_classes_))
            .mix(transforms_->prefixFingerprint())
            .value();
    return split;
}

Result<Sample>
ImageFolderDataset::tryGetPrefix(std::int64_t index,
                                 PipelineContext &ctx) const
{
    // Cached and materialized prefixes hold the full decoded frame.
    Result<Sample> sample = load(index, ctx, /*fuse_crop=*/false);
    if (sample.ok())
        transforms_->applyPrefix(sample.value(), ctx);
    return sample;
}

namespace {

/**
 * Decode @p blob. With a @p crop_first op, draw its window from the
 * header and decode only that window: the draw takes the place of the
 * one apply() would make right after a full decode (the Loader draws
 * nothing), so the rng stream is unchanged. A failed decode restores
 * the rng, as the unfused path would not have drawn.
 */
Result<image::Image>
decodeBlob(const std::string &blob, const Transform *crop_first, Rng *rng,
           bool &pre_cropped)
{
    if (crop_first != nullptr) {
        Result<image::codec::LjpgHeader> header =
            image::codec::tryPeekHeader(blob);
        if (header.ok()) {
            const Rng before = *rng;
            if (const std::optional<image::Rect> window =
                    crop_first->drawCropWindow(header.value().width,
                                               header.value().height,
                                               *rng)) {
                Result<image::Image> image =
                    image::codec::tryDecodeWindow(blob, *window);
                pre_cropped = image.ok();
                if (!image.ok())
                    *rng = before;
                return image;
            }
        }
    }
    return image::codec::tryDecode(blob);
}

} // namespace

Result<Sample>
ImageFolderDataset::load(std::int64_t index, PipelineContext &ctx,
                         bool fuse_crop) const
{
    const Transform *crop_first =
        fuse_crop && !transforms_->empty() && ctx.rng != nullptr
            ? &transforms_->transform(0)
            : nullptr;
    Sample sample;
    sample.label = index % num_classes_;
    trace::SpanTimer span(ctx.logger, trace::RecordKind::TransformOp);
    span.record().op_name = kLoaderOpName;
    span.record().batch_id = ctx.batch_id;
    span.record().pid = ctx.pid;
    span.record().sample_index = ctx.sample_index;
    {
        hwcount::OpTagScope op_scope(loader_tag_);
        Result<std::string> blob = readBlobOrStaged(*store_, index);
        if (!blob.ok()) {
            Error error = blob.takeError();
            error.stage = "store";
            span.finish();
            return error;
        }
        Result<image::Image> image = decodeBlob(
            blob.value(), crop_first, ctx.rng, sample.pre_cropped);
        if (!image.ok()) {
            Error error = image.takeError();
            error.stage = "decode";
            span.finish();
            return error;
        }
        sample.image = image.take();
    }
    span.finish();
    return sample;
}

void
ImageFolderDataset::applySuffix(Sample &sample, PipelineContext &ctx) const
{
    transforms_->applySuffix(sample, ctx);
}

} // namespace lotus::pipeline
