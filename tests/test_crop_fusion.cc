/**
 * @file
 * Crop-aware decode at the loader level: an IC pipeline whose first
 * op, RandomResizedCrop, lets the Loader decode only the crop window
 * must deliver the same bytes as the same pipeline with the crop behind
 * an opaque forwarding wrapper, which hides the fusion hook and so
 * runs decode-then-crop. Covers the synchronous loader, round-robin,
 * work stealing and a PreprocServer client over two shuffled epochs,
 * kSkip and kRetry with corrupt blobs, and the iterable loader, whose
 * per-worker rng stream runs on across a failed sample. Runs under
 * TSan (tools/run_tsan.sh) and ASan/UBSan (tools/run_sanitizers.sh).
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dataflow/data_loader.h"
#include "dataflow/error_policy.h"
#include "dataflow/iterable_loader.h"
#include "hwcount/registry.h"
#include "image/codec/codec.h"
#include "image/synth.h"
#include "pipeline/collate.h"
#include "pipeline/compose.h"
#include "pipeline/faulty_store.h"
#include "pipeline/image_folder.h"
#include "pipeline/iterable_dataset.h"
#include "pipeline/store.h"
#include "pipeline/transforms/vision.h"
#include "service/loader_client.h"
#include "service/preproc_server.h"

namespace lotus {
namespace {

using dataflow::DataLoader;
using dataflow::DataLoaderOptions;
using dataflow::ErrorPolicy;
using dataflow::LoaderError;
using dataflow::Schedule;
using pipeline::FaultyStore;
using pipeline::FaultyStoreOptions;

/** Forwards everything but drawCropWindow(): the unfused reference. */
class OpaqueTransform : public pipeline::Transform
{
  public:
    explicit OpaqueTransform(pipeline::TransformPtr inner)
        : inner_(std::move(inner))
    {
    }

    const std::string &name() const override { return inner_->name(); }
    void
    apply(pipeline::Sample &sample, Rng &rng) const override
    {
        inner_->apply(sample, rng);
    }
    bool deterministic() const override { return inner_->deterministic(); }
    std::uint64_t configHash() const override { return inner_->configHash(); }

  private:
    pipeline::TransformPtr inner_;
};

/** Images whose sizes put the frame edges at every phase of the block
 *  and chroma grids, subsampled and not. */
std::shared_ptr<pipeline::InMemoryStore>
makeStore(int count)
{
    auto store = std::make_shared<pipeline::InMemoryStore>();
    Rng rng(404);
    for (int i = 0; i < count; ++i) {
        const int width = 24 + static_cast<int>(rng.uniformInt(0, 57));
        const int height = 20 + static_cast<int>(rng.uniformInt(0, 45));
        store->add(image::codec::encode(
            image::synthesize(rng, width, height),
            image::codec::EncodeOptions{75, i % 3 != 0}));
    }
    return store;
}

/** The IC pipeline at a small crop size; @p fusable = false hides
 *  RandomResizedCrop's fusion hook. */
std::shared_ptr<pipeline::ImageFolderDataset>
makeDataset(std::shared_ptr<const pipeline::BlobStore> store, bool fusable)
{
    pipeline::RandomResizedCrop::Params params;
    params.size = 24;
    pipeline::TransformPtr crop =
        std::make_unique<pipeline::RandomResizedCrop>(params);
    std::vector<pipeline::TransformPtr> transforms;
    transforms.push_back(fusable ? std::move(crop)
                                 : std::make_unique<OpaqueTransform>(
                                       std::move(crop)));
    transforms.push_back(std::make_unique<pipeline::RandomHorizontalFlip>());
    transforms.push_back(std::make_unique<pipeline::ToTensor>());
    transforms.push_back(std::make_unique<pipeline::Normalize>(
        std::vector<float>{0.485f, 0.456f, 0.406f},
        std::vector<float>{0.229f, 0.224f, 0.225f}));
    return std::make_shared<pipeline::ImageFolderDataset>(
        std::move(store),
        std::make_shared<pipeline::Compose>(std::move(transforms)));
}

void
appendBatch(const pipeline::Batch &batch, std::vector<std::uint8_t> &out)
{
    const std::uint8_t *raw = batch.data.raw();
    out.insert(out.end(), raw, raw + batch.data.byteSize());
    for (const std::int64_t label : batch.labels) {
        const auto *p = reinterpret_cast<const std::uint8_t *>(&label);
        out.insert(out.end(), p, p + sizeof(label));
    }
}

/** Every batch of one epoch, then the failure that ended it, if any. */
template <typename Loader>
std::vector<std::uint8_t>
epochBytes(Loader &loader)
{
    std::vector<std::uint8_t> bytes;
    try {
        while (auto batch = loader.next())
            appendBatch(*batch, bytes);
    } catch (const LoaderError &e) {
        const std::string failure =
            "failed batch " + std::to_string(e.batchId()) + ": " +
            e.error().describe();
        bytes.insert(bytes.end(), failure.begin(), failure.end());
    }
    return bytes;
}

enum class Engine
{
    kSync,
    kRoundRobin,
    kWorkStealing,
    kService,
};

constexpr int kBatchSize = 4;

/** Two shuffled epochs of @p dataset on @p engine. */
std::vector<std::vector<std::uint8_t>>
twoEpochs(const std::shared_ptr<pipeline::ImageFolderDataset> &dataset,
          Engine engine, ErrorPolicy policy)
{
    auto collate = std::make_shared<pipeline::StackCollate>();
    std::vector<std::vector<std::uint8_t>> epochs;
    if (engine == Engine::kService) {
        service::PreprocServer server({.num_workers = 2});
        auto client = server
                          .connect(dataset, collate,
                                   {.batch_size = kBatchSize,
                                    .shuffle = true,
                                    .seed = 17,
                                    .error_policy = policy})
                          .take();
        for (int epoch = 0; epoch < 2; ++epoch) {
            client->startEpoch();
            epochs.push_back(epochBytes(*client));
        }
        return epochs;
    }
    DataLoaderOptions options;
    options.batch_size = kBatchSize;
    options.shuffle = true;
    options.seed = 17;
    options.error_policy = policy;
    options.num_workers = engine == Engine::kSync ? 0 : 2;
    options.schedule = engine == Engine::kWorkStealing
                           ? Schedule::kWorkStealing
                           : Schedule::kRoundRobin;
    DataLoader loader(dataset, collate, options);
    for (int epoch = 0; epoch < 2; ++epoch) {
        loader.startEpoch();
        epochs.push_back(epochBytes(loader));
    }
    return epochs;
}

std::uint64_t
kernelItems(hwcount::KernelId id)
{
    return hwcount::KernelRegistry::instance()
        .snapshot()
        .aggregate[static_cast<std::size_t>(id)]
        .stats.items;
}

/** Each run reads a fresh store from @p makeStore: a FaultyStore's
 *  transient faults count down across reads. Returns the reference
 *  epochs. */
std::vector<std::vector<std::uint8_t>>
expectEveryEngineMatchesUnfused(
    const std::function<std::shared_ptr<const pipeline::BlobStore>()>
        &makeStore,
    ErrorPolicy policy)
{
    const auto reference = twoEpochs(
        makeDataset(makeStore(), /*fusable=*/false), Engine::kSync, policy);
    for (const Engine engine : {Engine::kSync, Engine::kRoundRobin,
                                Engine::kWorkStealing, Engine::kService}) {
        EXPECT_EQ(twoEpochs(makeDataset(makeStore(), /*fusable=*/true),
                            engine, policy),
                  reference)
            << "engine " << static_cast<int>(engine);
    }
    return reference;
}

TEST(CropFusion, EveryEngineMatchesTheUnfusedPipeline)
{
    const auto reference = expectEveryEngineMatchesUnfused(
        [] { return makeStore(40); }, ErrorPolicy::kFail);
    EXPECT_NE(reference[0], reference[1]);
}

TEST(CropFusion, FusedLoaderSkipsTheCropCopyAndDecodesLess)
{
    // The fused path must actually run: no ImagingCrop copy, and
    // fewer IDCT blocks and color-converted pixels, for the same
    // decode_mcu symbols.
    const auto store = makeStore(24);
    struct Work
    {
        std::uint64_t crop, idct, color, mcu;
    };
    const auto measure = [&](bool fusable) {
        const auto dataset = makeDataset(store, fusable);
        const Work before{kernelItems(hwcount::KernelId::ImagingCrop),
                          kernelItems(hwcount::KernelId::IdctBlock),
                          kernelItems(hwcount::KernelId::YccToRgb),
                          kernelItems(hwcount::KernelId::DecodeMcu)};
        twoEpochs(dataset, Engine::kSync, ErrorPolicy::kFail);
        return Work{
            kernelItems(hwcount::KernelId::ImagingCrop) - before.crop,
            kernelItems(hwcount::KernelId::IdctBlock) - before.idct,
            kernelItems(hwcount::KernelId::YccToRgb) - before.color,
            kernelItems(hwcount::KernelId::DecodeMcu) - before.mcu};
    };
    const Work unfused = measure(false);
    const Work fused = measure(true);
    EXPECT_GT(unfused.crop, 0u);
    EXPECT_EQ(fused.crop, 0u);
    EXPECT_LT(fused.idct, unfused.idct);
    EXPECT_LT(fused.color, unfused.color);
    EXPECT_EQ(fused.mcu, unfused.mcu);
}

/** A store with corrupt blobs: bit flips and truncations the decoder
 *  rejects (after the header parses, so the fused path has drawn its
 *  window), plus transient I/O errors. */
std::shared_ptr<FaultyStore>
makeFaultyStore()
{
    auto faulty = std::make_shared<FaultyStore>(
        makeStore(40), FaultyStoreOptions{.seed = 5, .transient_failures = 1});
    faulty->inject(3, FaultyStore::Fault::kTruncate);
    faulty->inject(11, FaultyStore::Fault::kBitFlip);
    faulty->inject(17, FaultyStore::Fault::kIoError);
    faulty->inject(26, FaultyStore::Fault::kTruncate);
    return faulty;
}

TEST(CropFusion, SkipPolicyWithCorruptBlobsMatches)
{
    expectEveryEngineMatchesUnfused(makeFaultyStore, ErrorPolicy::kSkip);
}

TEST(CropFusion, RetryPolicyWithCorruptBlobsMatches)
{
    // The corrupt blobs fail the epoch under kRetry: the batches
    // before the failure, and the error itself, must match.
    expectEveryEngineMatchesUnfused(makeFaultyStore, ErrorPolicy::kRetry);
}

TEST(CropFusion, IterableStreamRngSurvivesAFailedDecode)
{
    // The iterable loader's rng runs on across samples, so a fused
    // decode that fails after drawing its window must give the draws
    // back: the next sample then draws what it draws unfused.
    const auto epoch = [](bool fusable) {
        dataflow::IterableDataLoader loader(
            std::make_shared<pipeline::ShardedIterable>(
                makeDataset(makeFaultyStore(), fusable)),
            std::make_shared<pipeline::StackCollate>(),
            {.batch_size = 4,
             .num_workers = 1,
             .seed = 9,
             .error_policy = ErrorPolicy::kSkip});
        return epochBytes(loader);
    };
    const auto unfused = epoch(false);
    EXPECT_FALSE(unfused.empty());
    EXPECT_EQ(epoch(true), unfused);
}

} // namespace
} // namespace lotus
