/**
 * @file
 * Unit and integration tests for the DataLoader protocol: samplers,
 * fetcher, ordering, prefetch, out-of-order handling, and the [T1]/
 * [T2] instrumentation points.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <limits>
#include <set>

#include "common/files.h"
#include "dataflow/data_loader.h"
#include "dataflow/iterable_loader.h"
#include "dataflow/sampler.h"
#include "image/codec/codec.h"
#include "image/synth.h"
#include "memory/buffer_pool.h"
#include "metrics/metrics.h"
#include "pipeline/compose.h"
#include "pipeline/image_folder.h"
#include "pipeline/iterable_dataset.h"
#include "pipeline/store.h"
#include "pipeline/transforms/vision.h"
#include "trace/logger.h"

namespace lotus::dataflow {
namespace {

using pipeline::Batch;
using pipeline::PipelineContext;
using pipeline::Sample;

/**
 * Dataset producing tiny tensors whose value encodes the index, with
 * an optional index-dependent artificial compute time to provoke
 * out-of-order arrivals.
 */
class ToyDataset : public pipeline::Dataset
{
  public:
    ToyDataset(std::int64_t size, TimeNs base_cost = 0,
               TimeNs odd_extra_cost = 0)
        : size_(size), base_cost_(base_cost), odd_extra_(odd_extra_cost)
    {
    }

    ToyDataset(std::int64_t size, std::function<TimeNs(std::int64_t)> cost)
        : size_(size), cost_fn_(std::move(cost))
    {
    }

    std::int64_t size() const override { return size_; }

    Sample
    get(std::int64_t index, PipelineContext &ctx) const override
    {
        (void)ctx;
        TimeNs cost = base_cost_;
        if (index % 2 == 1)
            cost += odd_extra_;
        if (cost_fn_)
            cost = cost_fn_(index);
        if (cost > 0) {
            const auto &clock = SteadyClock::instance();
            const TimeNs deadline = clock.now() + cost;
            while (clock.now() < deadline) {
            }
        }
        Sample sample;
        sample.data = tensor::Tensor(tensor::DType::F32, {1});
        sample.data.data<float>()[0] = static_cast<float>(index);
        sample.label = index;
        return sample;
    }

  private:
    std::int64_t size_;
    TimeNs base_cost_ = 0;
    TimeNs odd_extra_ = 0;
    std::function<TimeNs(std::int64_t)> cost_fn_;
};

TEST(Sampler, SequentialAndShuffled)
{
    const auto seq = sequentialIndices(5);
    EXPECT_EQ(seq, (std::vector<std::int64_t>{0, 1, 2, 3, 4}));
    const auto shuffled = shuffledIndices(100, 3);
    EXPECT_EQ(shuffled.size(), 100u);
    EXPECT_NE(shuffled, sequentialIndices(100));
    std::set<std::int64_t> unique(shuffled.begin(), shuffled.end());
    EXPECT_EQ(unique.size(), 100u);
    // Same seed, same permutation.
    EXPECT_EQ(shuffledIndices(100, 3), shuffled);
    EXPECT_NE(shuffledIndices(100, 4), shuffled);
}

TEST(Sampler, BatchingDropLast)
{
    const auto indices = sequentialIndices(10);
    const auto keep = batchIndices(indices, 4, /*drop_last=*/false);
    ASSERT_EQ(keep.size(), 3u);
    EXPECT_EQ(keep[2].size(), 2u);
    const auto drop = batchIndices(indices, 4, /*drop_last=*/true);
    ASSERT_EQ(drop.size(), 2u);
    EXPECT_EQ(drop[1], (std::vector<std::int64_t>{4, 5, 6, 7}));
}

TEST(Fetcher, ProducesCollatedBatchWithCollateRecord)
{
    auto dataset = std::make_shared<ToyDataset>(8);
    auto collate = std::make_shared<pipeline::StackCollate>();
    Fetcher fetcher(dataset, collate);

    trace::TraceLogger logger;
    Rng rng(1);
    PipelineContext ctx;
    ctx.logger = &logger;
    ctx.pid = 3;
    ctx.rng = &rng;
    Result<Batch> fetched =
        fetcher.tryFetch(7, {2, 4, 6}, ctx, ErrorHandling{ErrorPolicy::kFail},
                         /*seed_base=*/0);
    ASSERT_TRUE(fetched.ok());
    const Batch batch = fetched.take();
    EXPECT_EQ(batch.batch_id, 7);
    EXPECT_EQ(batch.size(), 3);
    EXPECT_FLOAT_EQ(batch.data.data<float>()[1], 4.0f);
    EXPECT_EQ(batch.labels, (std::vector<std::int64_t>{2, 4, 6}));

    const auto records = logger.records();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].op_name, "Collate");
    EXPECT_EQ(records[0].batch_id, 7);
}

DataLoaderOptions
baseOptions(int batch_size, int workers, trace::TraceLogger *logger)
{
    DataLoaderOptions options;
    options.batch_size = batch_size;
    options.num_workers = workers;
    options.logger = logger;
    options.pin_memory = true;
    return options;
}

TEST(DataLoaderOptionsValidation, RejectsNonPositiveBatchSize)
{
    auto dataset = std::make_shared<ToyDataset>(4);
    auto collate = std::make_shared<pipeline::StackCollate>();
    auto options = baseOptions(0, 1, nullptr);
    EXPECT_EXIT(DataLoader(dataset, collate, options),
                ::testing::ExitedWithCode(1), "batch_size must be > 0");
}

TEST(DataLoaderOptionsValidation, RejectsNegativeNumWorkers)
{
    auto dataset = std::make_shared<ToyDataset>(4);
    auto collate = std::make_shared<pipeline::StackCollate>();
    auto options = baseOptions(2, -1, nullptr);
    EXPECT_EXIT(DataLoader(dataset, collate, options),
                ::testing::ExitedWithCode(1), "num_workers must be >= 0");
}

TEST(DataLoaderOptionsValidation, RejectsPrefetchFactorBelowOne)
{
    auto dataset = std::make_shared<ToyDataset>(4);
    auto collate = std::make_shared<pipeline::StackCollate>();
    auto options = baseOptions(2, 1, nullptr);
    options.prefetch_factor = 0;
    EXPECT_EXIT(DataLoader(dataset, collate, options),
                ::testing::ExitedWithCode(1),
                "prefetch_factor must be >= 1");
}

TEST(DataLoaderOptionsValidation, RejectsNegativeMaxRetries)
{
    auto dataset = std::make_shared<ToyDataset>(4);
    auto collate = std::make_shared<pipeline::StackCollate>();
    auto options = baseOptions(2, 1, nullptr);
    options.max_retries = -1;
    EXPECT_EXIT(DataLoader(dataset, collate, options),
                ::testing::ExitedWithCode(1), "max_retries must be >= 0");
}

TEST(DataLoaderOptionsValidation, RejectsNegativeMaxRefillAttempts)
{
    auto dataset = std::make_shared<ToyDataset>(4);
    auto collate = std::make_shared<pipeline::StackCollate>();
    auto options = baseOptions(2, 1, nullptr);
    options.max_refill_attempts = -3;
    EXPECT_EXIT(DataLoader(dataset, collate, options),
                ::testing::ExitedWithCode(1),
                "max_refill_attempts must be >= 0");
}

TEST(DataLoaderOptionsValidation, RejectsPrefetchTimesWorkersOverflow)
{
    auto dataset = std::make_shared<ToyDataset>(4);
    auto collate = std::make_shared<pipeline::StackCollate>();
    auto options = baseOptions(2, 4, nullptr);
    options.prefetch_factor = std::numeric_limits<int>::max();
    EXPECT_EXIT(DataLoader(dataset, collate, options),
                ::testing::ExitedWithCode(1), "overflows");
}

TEST(DataLoaderOptionsValidation, HugePrefetchFactorIsCappedByEpoch)
{
    // A huge-but-valid prefetch_factor must not try to prime billions
    // of rounds: priming is capped at the epoch's batch count.
    auto dataset = std::make_shared<ToyDataset>(8);
    auto collate = std::make_shared<pipeline::StackCollate>();
    auto options = baseOptions(2, 1, nullptr);
    options.prefetch_factor = std::numeric_limits<int>::max();
    DataLoader loader(dataset, collate, options);
    std::int64_t batches = 0;
    while (loader.next().has_value())
        ++batches;
    EXPECT_EQ(batches, 4);
}

TEST(DataLoaderOptionsValidation, RejectsNonPositiveCacheBudget)
{
    auto dataset = std::make_shared<ToyDataset>(4);
    auto collate = std::make_shared<pipeline::StackCollate>();
    auto options = baseOptions(2, 1, nullptr);
    options.cache_policy = CachePolicy::kMemory;
    EXPECT_EXIT(DataLoader(dataset, collate, options),
                ::testing::ExitedWithCode(1),
                "cache_budget_bytes must be > 0");
}

TEST(DataLoaderOptionsValidation, RejectsNonPositiveCacheShards)
{
    auto dataset = std::make_shared<ToyDataset>(4);
    auto collate = std::make_shared<pipeline::StackCollate>();
    auto options = baseOptions(2, 1, nullptr);
    options.cache_policy = CachePolicy::kMemory;
    options.cache_budget_bytes = 1 << 20;
    options.cache_shards = 0;
    EXPECT_EXIT(DataLoader(dataset, collate, options),
                ::testing::ExitedWithCode(1), "cache_shards must be > 0");
}

TEST(DataLoaderOptionsValidation, RejectsMaterializeWithoutADirectory)
{
    auto dataset = std::make_shared<ToyDataset>(4);
    auto collate = std::make_shared<pipeline::StackCollate>();
    auto options = baseOptions(2, 1, nullptr);
    options.cache_policy = CachePolicy::kMaterialize;
    options.cache_budget_bytes = 1 << 20;
    EXPECT_EXIT(DataLoader(dataset, collate, options),
                ::testing::ExitedWithCode(1), "needs a materialize_dir");
}

TEST(DataLoaderOptionsValidation, RejectsDirectoryWithoutMaterialize)
{
    auto dataset = std::make_shared<ToyDataset>(4);
    auto collate = std::make_shared<pipeline::StackCollate>();
    auto options = baseOptions(2, 1, nullptr);
    options.cache_policy = CachePolicy::kMemory;
    options.cache_budget_bytes = 1 << 20;
    options.materialize_dir = "/tmp/lotus_unused_spills";
    EXPECT_EXIT(DataLoader(dataset, collate, options),
                ::testing::ExitedWithCode(1),
                "cache_policy is not kMaterialize");
}

TEST(DataLoaderOptionsValidation, RejectsMaterializeDirCollision)
{
    // Two live loaders spilling into one directory would silently
    // corrupt each other's files; the second claim must be fatal.
    auto dataset = std::make_shared<ToyDataset>(4);
    auto collate = std::make_shared<pipeline::StackCollate>();
    TempDir dir("lotus_dataflow_spills");
    auto options = baseOptions(2, 1, nullptr);
    options.cache_policy = CachePolicy::kMaterialize;
    options.cache_budget_bytes = 1 << 20;
    options.materialize_dir = dir.file("spills");
    EXPECT_EXIT(
        {
            DataLoader first(dataset, collate, options);
            DataLoader second(dataset, collate, options);
        },
        ::testing::ExitedWithCode(1), "already in use");
}

TEST(DataLoader, SynchronousModeDeliversAllBatchesInOrder)
{
    trace::TraceLogger logger;
    auto dataset = std::make_shared<ToyDataset>(12);
    auto collate = std::make_shared<pipeline::StackCollate>();
    DataLoader loader(dataset, collate, baseOptions(3, 0, &logger));
    EXPECT_TRUE(loader.workerPids().empty());
    for (std::int64_t i = 0; i < 4; ++i) {
        auto batch = loader.next();
        ASSERT_TRUE(batch.has_value());
        EXPECT_EQ(batch->batch_id, i);
        EXPECT_EQ(batch->labels[0], i * 3);
    }
    EXPECT_FALSE(loader.next().has_value());
    // Inline fetches log [T1] on the main pid; no [T2] waits exist.
    int preprocessed = 0, waits = 0;
    for (const auto &record : logger.records()) {
        if (record.kind == trace::RecordKind::BatchPreprocessed) {
            ++preprocessed;
            EXPECT_EQ(record.pid, loader.mainPid());
        }
        if (record.kind == trace::RecordKind::BatchWait)
            ++waits;
    }
    EXPECT_EQ(preprocessed, 4);
    EXPECT_EQ(waits, 0);
}

TEST(DataLoader, SynchronousModeMultiEpochRestart)
{
    auto dataset = std::make_shared<ToyDataset>(6);
    auto collate = std::make_shared<pipeline::StackCollate>();
    auto options = baseOptions(2, 0, nullptr);
    options.shuffle = true;
    DataLoader loader(dataset, collate, options);
    for (int epoch = 0; epoch < 2; ++epoch) {
        loader.startEpoch();
        std::multiset<std::int64_t> labels;
        while (auto batch = loader.next()) {
            for (const auto label : batch->labels)
                labels.insert(label);
        }
        EXPECT_EQ(labels.size(), 6u);
    }
}

TEST(DataLoader, MultiEpochMetricsAccumulateAndTraceRecordsGrow)
{
    // Documented contract: trace records and metric counters
    // accumulate across epochs (one logger, one process-wide
    // registry); queue-depth gauges return to zero once each epoch
    // drains.
    metrics::ScopedEnable enable;
    auto &registry = metrics::MetricsRegistry::instance();
    registry.reset();

    trace::TraceLogger logger;
    auto dataset = std::make_shared<ToyDataset>(8);
    auto collate = std::make_shared<pipeline::StackCollate>();
    DataLoader loader(dataset, collate, baseOptions(2, 2, &logger));

    loader.startEpoch();
    while (loader.next().has_value()) {
    }
    const auto batches_after_first =
        registry.counter("lotus_loader_batches_total")->value();
    const auto records_after_first = logger.recordCount();
    EXPECT_EQ(batches_after_first, 4u);

    loader.startEpoch();
    while (loader.next().has_value()) {
    }
    EXPECT_EQ(registry.counter("lotus_loader_batches_total")->value(),
              2 * batches_after_first);
    EXPECT_EQ(logger.recordCount(), 2 * records_after_first);
    EXPECT_EQ(registry.gauge("lotus_loader_data_queue_depth")->value(), 0);
    EXPECT_EQ(
        registry
            .gauge(metrics::labeled("lotus_loader_index_queue_depth",
                                    "worker", "0"))
            ->value(),
        0);
    EXPECT_EQ(registry.gauge("lotus_loader_pin_cache_size")->value(), 0);
    registry.reset();
}

TEST(DataLoader, DeliversAllBatchesInOrderSingleWorker)
{
    auto dataset = std::make_shared<ToyDataset>(12);
    auto collate = std::make_shared<pipeline::StackCollate>();
    DataLoader loader(dataset, collate, baseOptions(3, 1, nullptr));
    EXPECT_EQ(loader.numBatches(), 4);
    for (std::int64_t i = 0; i < 4; ++i) {
        auto batch = loader.next();
        ASSERT_TRUE(batch.has_value());
        EXPECT_EQ(batch->batch_id, i);
        EXPECT_EQ(batch->labels[0], i * 3);
    }
    EXPECT_FALSE(loader.next().has_value());
}

TEST(DataLoader, InOrderDeliveryWithManyWorkers)
{
    auto dataset = std::make_shared<ToyDataset>(32, 100 * kMicrosecond,
                                                2 * kMillisecond);
    auto collate = std::make_shared<pipeline::StackCollate>();
    DataLoader loader(dataset, collate, baseOptions(2, 4, nullptr));
    for (std::int64_t i = 0; i < loader.numBatches(); ++i) {
        auto batch = loader.next();
        ASSERT_TRUE(batch.has_value());
        EXPECT_EQ(batch->batch_id, i);
    }
    EXPECT_FALSE(loader.next().has_value());
}

TEST(DataLoader, ShuffleCoversDatasetOnce)
{
    auto dataset = std::make_shared<ToyDataset>(20);
    auto collate = std::make_shared<pipeline::StackCollate>();
    auto options = baseOptions(4, 2, nullptr);
    options.shuffle = true;
    options.seed = 5;
    DataLoader loader(dataset, collate, options);
    std::multiset<std::int64_t> labels;
    while (auto batch = loader.next()) {
        for (const auto label : batch->labels)
            labels.insert(label);
    }
    EXPECT_EQ(labels.size(), 20u);
    EXPECT_EQ(*labels.begin(), 0);
    EXPECT_EQ(*labels.rbegin(), 19);
}

TEST(DataLoader, LogsT1T2AndConsumedSpans)
{
    trace::TraceLogger logger;
    auto dataset = std::make_shared<ToyDataset>(8);
    auto collate = std::make_shared<pipeline::StackCollate>();
    DataLoader loader(dataset, collate, baseOptions(2, 2, &logger));
    while (loader.next().has_value()) {
    }
    int preprocessed = 0, waits = 0, consumed = 0;
    for (const auto &record : logger.records()) {
        switch (record.kind) {
          case trace::RecordKind::BatchPreprocessed: ++preprocessed; break;
          case trace::RecordKind::BatchWait: ++waits; break;
          case trace::RecordKind::BatchConsumed: ++consumed; break;
          default: break;
        }
    }
    EXPECT_EQ(preprocessed, 4);
    EXPECT_EQ(waits, 4);
    EXPECT_EQ(consumed, 4);
}

TEST(DataLoader, WorkerPidsDistinctFromMain)
{
    trace::TraceLogger logger;
    auto dataset = std::make_shared<ToyDataset>(4);
    auto collate = std::make_shared<pipeline::StackCollate>();
    DataLoader loader(dataset, collate, baseOptions(2, 2, &logger));
    loader.startEpoch();
    const auto worker_pids = loader.workerPids();
    while (loader.next().has_value()) {
    }
    ASSERT_EQ(worker_pids.size(), 2u);
    EXPECT_NE(worker_pids[0], worker_pids[1]);
    for (const auto pid : worker_pids)
        EXPECT_NE(pid, loader.mainPid());
}

TEST(DataLoader, OutOfOrderArrivalsGetSentinelWaits)
{
    // Even-numbered batches (indices 0-1, 4-5, ...) are much slower
    // than odd ones, so with multiple workers the odd batches always
    // overtake on the shared data queue (the Fig. 3 scenario).
    trace::TraceLogger logger;
    auto dataset = std::make_shared<ToyDataset>(
        40, [](std::int64_t index) -> TimeNs {
            return (index / 2) % 2 == 0 ? 5 * kMillisecond
                                        : 100 * kMicrosecond;
        });
    auto collate = std::make_shared<pipeline::StackCollate>();
    DataLoader loader(dataset, collate, baseOptions(2, 4, &logger));
    while (loader.next().has_value()) {
    }
    int sentinels = 0;
    for (const auto &record : logger.records()) {
        if (record.kind == trace::RecordKind::BatchWait &&
            record.duration <= trace::kOutOfOrderSentinel)
            ++sentinels;
    }
    EXPECT_GT(sentinels, 0);
}

/** ToyDataset whose sample @p bad fails with a store error. */
class FailingToyDataset : public ToyDataset
{
  public:
    FailingToyDataset(std::int64_t size, std::int64_t bad)
        : ToyDataset(size), bad_(bad)
    {
    }

    Result<Sample>
    tryGet(std::int64_t index, PipelineContext &ctx) const override
    {
        if (index == bad_)
            return LOTUS_ERROR(ErrorCode::kIoError, "sample %lld is bad",
                               static_cast<long long>(index));
        return get(index, ctx);
    }

  private:
    std::int64_t bad_;
};

TEST(DataLoader, RoundRobinPlacesBatchOnWorkerBatchIdModN)
{
    // Paper §II-B: priming is round-robin from worker 0 and the refill
    // after consuming batch b goes to b's producer, so batch b always
    // runs whole on worker b mod N — never decomposed, never stolen.
    constexpr int kWorkers = 3;
    metrics::ScopedEnable enable;
    auto &registry = metrics::MetricsRegistry::instance();
    registry.reset();
    trace::TraceLogger logger;
    auto dataset = std::make_shared<ToyDataset>(
        48, [](std::int64_t index) -> TimeNs {
            return index % 5 == 0 ? 2 * kMillisecond : 50 * kMicrosecond;
        });
    auto collate = std::make_shared<pipeline::StackCollate>();
    auto options = baseOptions(2, kWorkers, &logger);
    options.shuffle = true;
    options.schedule = Schedule::kRoundRobin;
    DataLoader loader(dataset, collate, options);
    for (int epoch = 0; epoch < 2; ++epoch) {
        const std::size_t first_record = logger.recordCount();
        loader.startEpoch();
        const auto pids = loader.workerPids();
        ASSERT_EQ(pids.size(), static_cast<std::size_t>(kWorkers));
        std::int64_t batches = 0;
        while (loader.next().has_value())
            ++batches;
        EXPECT_EQ(batches, loader.numBatches());

        const auto records = logger.records();
        int preprocessed = 0;
        for (std::size_t i = first_record; i < records.size(); ++i) {
            const auto &record = records[i];
            EXPECT_NE(record.kind, trace::RecordKind::TaskSpan);
            EXPECT_NE(record.kind, trace::RecordKind::StealEvent);
            if (record.kind != trace::RecordKind::BatchPreprocessed)
                continue;
            ++preprocessed;
            EXPECT_EQ(record.pid,
                      pids[static_cast<std::size_t>(record.batch_id %
                                                    kWorkers)])
                << "epoch " << epoch << " batch " << record.batch_id;
        }
        EXPECT_EQ(preprocessed, loader.numBatches());
    }
    EXPECT_EQ(registry.counter(kTasksMetric)->value(), 0u);
    for (int w = 0; w < kWorkers; ++w) {
        const std::string id = std::to_string(w);
        EXPECT_EQ(
            registry.counter(metrics::labeled(kStealsMetric, "worker", id))
                ->value(),
            0u);
        EXPECT_EQ(registry
                      .gauge(metrics::labeled(
                          "lotus_loader_index_queue_depth", "worker", id))
                      ->value(),
                  0);
    }
    registry.reset();

    // A failing batch surfaces with its home worker's identity.
    for (const std::int64_t bad_batch : {0, 4, 5, 7}) {
        auto failing = std::make_shared<FailingToyDataset>(
            24, /*bad=*/bad_batch * 2 + 1);
        auto fail_options = baseOptions(2, kWorkers, nullptr);
        fail_options.schedule = Schedule::kRoundRobin;
        fail_options.error_policy = ErrorPolicy::kFail;
        DataLoader failing_loader(failing, collate, fail_options);
        bool threw = false;
        try {
            while (failing_loader.next().has_value()) {
            }
        } catch (const LoaderError &e) {
            threw = true;
            EXPECT_EQ(e.batchId(), bad_batch);
            EXPECT_EQ(e.workerId(), bad_batch % kWorkers);
        }
        EXPECT_TRUE(threw) << "bad batch " << bad_batch;
    }
}

TEST(DataLoader, RecycleWithWorkersReturnsPagesToThePool)
{
    // Only a synchronous fetch collates into a recycled tensor; with
    // workers recycle() must release it, not park it forever.
    auto dataset = std::make_shared<ToyDataset>(64);
    auto collate = std::make_shared<pipeline::StackCollate>();
    DataLoader loader(dataset, collate, baseOptions(16, 2, nullptr));
    std::optional<Batch> last;
    while (auto batch = loader.next())
        last = std::move(batch);
    ASSERT_TRUE(last.has_value());
    const std::size_t bytes = last->data.byteSize();
    ASSERT_GT(bytes, 0u);
    // The epoch is over and its fleet joined: nothing else releases.
    auto &pool = memory::BufferPool::instance();
    pool.trim();
    const std::uint64_t before = pool.stats().cached_bytes;
    loader.recycle(std::move(*last));
    EXPECT_GE(pool.stats().cached_bytes, before + bytes);
}

TEST(DataLoader, ShuffleReshufflesEachEpoch)
{
    auto dataset = std::make_shared<ToyDataset>(24);
    auto collate = std::make_shared<pipeline::StackCollate>();
    auto options = baseOptions(4, 1, nullptr);
    options.shuffle = true;
    options.seed = 9;
    DataLoader loader(dataset, collate, options);
    auto collectEpoch = [&] {
        loader.startEpoch();
        std::vector<std::int64_t> labels;
        while (auto batch = loader.next()) {
            labels.insert(labels.end(), batch->labels.begin(),
                          batch->labels.end());
        }
        return labels;
    };
    const auto first = collectEpoch();
    const auto second = collectEpoch();
    EXPECT_NE(first, second); // different permutations...
    std::multiset<std::int64_t> a(first.begin(), first.end());
    std::multiset<std::int64_t> b(second.begin(), second.end());
    EXPECT_EQ(a, b); // ...of the same samples
}

TEST(DataLoader, EpochMarkerLogged)
{
    trace::TraceLogger logger;
    auto dataset = std::make_shared<ToyDataset>(4);
    auto collate = std::make_shared<pipeline::StackCollate>();
    DataLoader loader(dataset, collate, baseOptions(2, 1, &logger));
    while (loader.next().has_value()) {
    }
    int markers = 0;
    for (const auto &record : logger.records()) {
        if (record.kind == trace::RecordKind::EpochBoundary &&
            record.op_name == "epoch_start")
            ++markers;
    }
    EXPECT_EQ(markers, 1);
}

TEST(DataLoader, MultiEpochRestart)
{
    auto dataset = std::make_shared<ToyDataset>(6);
    auto collate = std::make_shared<pipeline::StackCollate>();
    DataLoader loader(dataset, collate, baseOptions(2, 2, nullptr));
    for (int epoch = 0; epoch < 3; ++epoch) {
        loader.startEpoch();
        int batches = 0;
        while (loader.next().has_value())
            ++batches;
        EXPECT_EQ(batches, 3);
    }
}

/** ImageFolder over in-memory blobs with a random augmentation, for
 *  probing the per-epoch fetch-RNG reseed. */
std::shared_ptr<pipeline::ImageFolderDataset>
makeAugmentedDataset()
{
    auto store = std::make_shared<pipeline::InMemoryStore>();
    Rng synth_rng(123);
    for (int i = 0; i < 4; ++i) {
        store->add(image::codec::encode(
            image::synthesize(synth_rng, 32, 32)));
    }
    std::vector<pipeline::TransformPtr> transforms;
    pipeline::RandomResizedCrop::Params crop;
    crop.size = 16;
    transforms.push_back(
        std::make_unique<pipeline::RandomResizedCrop>(crop));
    transforms.push_back(std::make_unique<pipeline::ToTensor>());
    return std::make_shared<pipeline::ImageFolderDataset>(
        store, std::make_shared<pipeline::Compose>(std::move(transforms)),
        4);
}

/** Run one full epoch and return every batch tensor's contents. */
std::vector<float>
epochTensorData(DataLoader &loader)
{
    loader.startEpoch();
    std::vector<float> out;
    while (auto batch = loader.next()) {
        const float *data = batch->data.data<float>();
        out.insert(out.end(), data, data + batch->data.numel());
    }
    return out;
}

TEST(DataLoader, AugmentationDrawsDifferAcrossEpochs)
{
    // Regression: worker fetch RNGs used to ignore the epoch, so
    // RandomResizedCrop drew identical crops every epoch even though
    // the shuffle reseeded. Epochs must differ, while a fixed (seed,
    // epoch, worker) triple stays exactly reproducible.
    auto dataset = makeAugmentedDataset();
    auto collate = std::make_shared<pipeline::StackCollate>();
    auto options = baseOptions(4, 1, nullptr);
    options.seed = 11;
    DataLoader loader(dataset, collate, options);
    const auto epoch0 = epochTensorData(loader);
    const auto epoch1 = epochTensorData(loader);
    ASSERT_EQ(epoch0.size(), epoch1.size());
    EXPECT_NE(epoch0, epoch1);

    DataLoader replay(dataset, collate, options);
    EXPECT_EQ(epochTensorData(replay), epoch0);
    EXPECT_EQ(epochTensorData(replay), epoch1);
}

TEST(DataLoader, SynchronousAugmentationDrawsDifferAcrossEpochs)
{
    auto dataset = makeAugmentedDataset();
    auto collate = std::make_shared<pipeline::StackCollate>();
    auto options = baseOptions(4, 0, nullptr);
    options.seed = 11;
    DataLoader loader(dataset, collate, options);
    const auto epoch0 = epochTensorData(loader);
    const auto epoch1 = epochTensorData(loader);
    EXPECT_NE(epoch0, epoch1);

    DataLoader replay(dataset, collate, options);
    EXPECT_EQ(epochTensorData(replay), epoch0);
    EXPECT_EQ(epochTensorData(replay), epoch1);
}

TEST(DataLoader, PrefetchKeepsWorkersAheadOfConsumer)
{
    // With prefetch_factor 2 and 2 workers, up to 4 batches can be
    // in flight before the first next(); just verify the protocol
    // completes and every label arrives exactly once.
    auto dataset = std::make_shared<ToyDataset>(24, 200 * kMicrosecond);
    auto collate = std::make_shared<pipeline::StackCollate>();
    auto options = baseOptions(2, 2, nullptr);
    options.prefetch_factor = 2;
    DataLoader loader(dataset, collate, options);
    std::multiset<std::int64_t> labels;
    while (auto batch = loader.next()) {
        for (const auto label : batch->labels)
            labels.insert(label);
    }
    EXPECT_EQ(labels.size(), 24u);
}

TEST(DataLoader, DropLastFalseKeepsPartialBatch)
{
    auto dataset = std::make_shared<ToyDataset>(7);
    auto collate = std::make_shared<pipeline::StackCollate>();
    auto options = baseOptions(3, 1, nullptr);
    options.drop_last = false;
    DataLoader loader(dataset, collate, options);
    EXPECT_EQ(loader.numBatches(), 3);
    std::int64_t samples = 0;
    while (auto batch = loader.next())
        samples += batch->size();
    EXPECT_EQ(samples, 7);
}

TEST(IterableLoader, ShardsCoverDatasetExactlyOnce)
{
    auto map_dataset = std::make_shared<ToyDataset>(23);
    auto dataset =
        std::make_shared<pipeline::ShardedIterable>(map_dataset);
    auto collate = std::make_shared<pipeline::StackCollate>();
    IterableLoaderOptions options;
    options.batch_size = 4;
    options.num_workers = 3;
    IterableDataLoader loader(dataset, collate, options);
    std::multiset<std::int64_t> labels;
    std::int64_t batches = 0;
    while (auto batch = loader.next()) {
        ++batches;
        EXPECT_LE(batch->size(), 4);
        for (const auto label : batch->labels) {
            EXPECT_EQ(labels.count(label), 0u) << "duplicate sample";
            labels.insert(label);
        }
    }
    EXPECT_EQ(labels.size(), 23u);
    EXPECT_EQ(*labels.rbegin(), 22);
    EXPECT_GE(batches, 6); // 23 samples at batch 4 across 3 shards
    EXPECT_FALSE(loader.next().has_value()); // stays exhausted
}

TEST(IterableLoader, DropLastRemovesPartialShardTails)
{
    auto dataset = std::make_shared<pipeline::ShardedIterable>(
        std::make_shared<ToyDataset>(10));
    auto collate = std::make_shared<pipeline::StackCollate>();
    IterableLoaderOptions options;
    options.batch_size = 4;
    options.num_workers = 2;
    options.drop_last = true;
    // Each shard has 5 samples: one full batch of 4, tail dropped.
    IterableDataLoader loader(dataset, collate, options);
    std::int64_t samples = 0;
    while (auto batch = loader.next()) {
        EXPECT_EQ(batch->size(), 4);
        samples += batch->size();
    }
    EXPECT_EQ(samples, 8);
}

TEST(IterableLoader, InstrumentationMatchesMapStyleSpans)
{
    trace::TraceLogger logger;
    auto dataset = std::make_shared<pipeline::ShardedIterable>(
        std::make_shared<ToyDataset>(8));
    auto collate = std::make_shared<pipeline::StackCollate>();
    IterableLoaderOptions options;
    options.batch_size = 2;
    options.num_workers = 2;
    options.logger = &logger;
    IterableDataLoader loader(dataset, collate, options);
    int batches = 0;
    while (loader.next().has_value())
        ++batches;
    int t1 = 0, t2 = 0, consumed = 0, collates = 0;
    for (const auto &record : logger.records()) {
        switch (record.kind) {
          case trace::RecordKind::BatchPreprocessed: ++t1; break;
          case trace::RecordKind::BatchWait: ++t2; break;
          case trace::RecordKind::BatchConsumed: ++consumed; break;
          case trace::RecordKind::TransformOp:
            if (record.op_name == "Collate")
                ++collates;
            break;
          default: break;
        }
    }
    EXPECT_EQ(batches, 4);
    EXPECT_EQ(t1, 4);
    EXPECT_EQ(consumed, 4);
    EXPECT_EQ(collates, 4);
    EXPECT_GE(t2, 4); // waits include pops that returned done markers
}

TEST(IterableLoader, MultiEpochRestart)
{
    auto dataset = std::make_shared<pipeline::ShardedIterable>(
        std::make_shared<ToyDataset>(6));
    auto collate = std::make_shared<pipeline::StackCollate>();
    IterableLoaderOptions options;
    options.batch_size = 2;
    options.num_workers = 2;
    IterableDataLoader loader(dataset, collate, options);
    for (int epoch = 0; epoch < 2; ++epoch) {
        loader.startEpoch();
        std::int64_t samples = 0;
        while (auto batch = loader.next())
            samples += batch->size();
        EXPECT_EQ(samples, 6);
    }
}

TEST(IterableLoader, DestructorJoinsMidStream)
{
    auto dataset = std::make_shared<pipeline::ShardedIterable>(
        std::make_shared<ToyDataset>(64, kMillisecond));
    auto collate = std::make_shared<pipeline::StackCollate>();
    IterableLoaderOptions options;
    options.batch_size = 2;
    options.num_workers = 2;
    {
        IterableDataLoader loader(dataset, collate, options);
        loader.next();
    }
    SUCCEED();
}

TEST(DataLoader, DestructorJoinsMidEpoch)
{
    auto dataset = std::make_shared<ToyDataset>(64, kMillisecond);
    auto collate = std::make_shared<pipeline::StackCollate>();
    {
        DataLoader loader(dataset, collate, baseOptions(2, 2, nullptr));
        loader.startEpoch();
        loader.next(); // consume one, then abandon
    }
    SUCCEED(); // no deadlock, no crash
}

} // namespace
} // namespace lotus::dataflow
