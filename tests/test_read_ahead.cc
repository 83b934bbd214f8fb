/**
 * @file
 * Read-ahead suite: the engine's window semantics (hits serve
 * prefetched bytes, misses fall back, depth bounds outstanding work,
 * cancel wakes blocked claims), loader integration across all three
 * fetch paths with bit-identical batches (cold and cache-warm),
 * ErrorPolicy composition over FaultyStore(RemoteStore), off-thread
 * IoEvent correlation, and option validation.
 */

#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/strings.h"
#include "dataflow/data_loader.h"
#include "dataflow/read_ahead.h"
#include "image/codec/codec.h"
#include "image/synth.h"
#include "metrics/metrics.h"
#include "pipeline/collate.h"
#include "pipeline/compose.h"
#include "pipeline/faulty_store.h"
#include "pipeline/image_folder.h"
#include "pipeline/remote_store.h"
#include "pipeline/store.h"
#include "pipeline/traced_store.h"
#include "pipeline/transforms/vision.h"
#include "trace/logger.h"

namespace lotus {
namespace {

using dataflow::DataLoader;
using dataflow::DataLoaderOptions;
using dataflow::ErrorPolicy;
using dataflow::LoaderError;
using dataflow::ReadAhead;
using dataflow::ReadAheadOptions;
using dataflow::Schedule;
using pipeline::BlobReadRequest;
using pipeline::FaultyStore;
using pipeline::FaultyStoreOptions;
using pipeline::InMemoryStore;
using pipeline::RemoteStore;
using pipeline::RemoteStoreOptions;

std::shared_ptr<InMemoryStore>
makePlainStore(int count)
{
    auto store = std::make_shared<InMemoryStore>();
    for (int i = 0; i < count; ++i)
        store->add(strFormat("payload-%04d", i));
    return store;
}

std::vector<BlobReadRequest>
sequentialPlan(int count)
{
    std::vector<BlobReadRequest> plan;
    for (int i = 0; i < count; ++i) {
        BlobReadRequest request;
        request.index = i;
        request.batch_id = i / 4;
        request.sample_index = i;
        plan.push_back(request);
    }
    return plan;
}

TEST(ReadAhead, ClaimsServePrefetchedBytesInAnyOrder)
{
    auto store = makePlainStore(24);
    ReadAheadOptions options;
    options.depth = 8;
    options.io_threads = 2;
    ReadAhead engine(store.get(), options);
    engine.startEpoch(sequentialPlan(24), nullptr);

    // Give the issuers time to fill the window between claim bursts:
    // a claim is only *guaranteed* to hit once its read was issued
    // (an outrun consumer legitimately misses and reads itself).
    const auto settle = [] {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    };
    settle();
    // In-order claims drain the full window; each matches the store.
    for (int i = 0; i < 8; ++i) {
        auto blob = engine.claim(i);
        ASSERT_TRUE(blob.has_value()) << "index " << i;
        EXPECT_EQ(blob->value(), store->read(i));
    }
    settle();
    for (int i = 8; i < 16; ++i) {
        auto blob = engine.claim(i);
        ASSERT_TRUE(blob.has_value()) << "index " << i;
        EXPECT_EQ(blob->value(), store->read(i));
    }
    settle();
    // Out-of-order (work-stealing shape): claims land regardless of
    // the order the window was filled in.
    for (const int i : {23, 17, 20, 16, 22, 18, 21, 19}) {
        auto blob = engine.claim(i);
        ASSERT_TRUE(blob.has_value()) << "index " << i;
        EXPECT_EQ(blob->value(), store->read(i));
    }
}

TEST(ReadAhead, UnplannedIndexMissesWithoutBlocking)
{
    auto store = makePlainStore(8);
    ReadAheadOptions options;
    options.depth = 4;
    options.io_threads = 1;
    ReadAhead engine(store.get(), options);
    engine.startEpoch(sequentialPlan(4), nullptr);
    // Let the issuer fill the window so claim(0) is a guaranteed hit.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    EXPECT_FALSE(engine.claim(7).has_value()); // never in the plan
    EXPECT_TRUE(engine.claim(0).has_value());
    EXPECT_FALSE(engine.claim(0).has_value()); // already consumed
}

TEST(ReadAhead, MissedIndexIsNeverIssuedLater)
{
    metrics::ScopedEnable enable;
    auto &registry = metrics::MetricsRegistry::instance();
    registry.reset();

    auto store = makePlainStore(16);
    ReadAheadOptions options;
    options.depth = 2; // small window: most of the plan is unissued
    options.io_threads = 1;
    ReadAhead engine(store.get(), options);
    engine.startEpoch(sequentialPlan(16), nullptr);

    // Claim far ahead of the window: a miss, served synchronously by
    // the caller. The issuer must then skip index 15 — nobody will
    // consume it — so every issued read is one that got claimed and
    // nothing is stranded in (or wasted on) the window at epoch end.
    EXPECT_FALSE(engine.claim(15).has_value());
    std::uint64_t hits = 0;
    for (int i = 0; i < 15; ++i)
        hits += engine.claim(i).has_value() ? 1 : 0;
    EXPECT_EQ(registry.counter(dataflow::kReadAheadHitsMetric)->value(),
              hits);
    EXPECT_EQ(registry.counter(dataflow::kReadAheadIssuedMetric)->value(),
              hits);
    EXPECT_LE(hits, 15u);
    registry.reset();
}

TEST(ReadAhead, DepthBoundsOutstandingPrefetches)
{
    metrics::ScopedEnable enable;
    auto &registry = metrics::MetricsRegistry::instance();
    registry.reset();

    auto store = makePlainStore(64);
    ReadAheadOptions options;
    options.depth = 4;
    options.io_threads = 2;
    ReadAhead engine(store.get(), options);
    engine.startEpoch(sequentialPlan(64), nullptr);

    // The instant store fills the window immediately; with no claims
    // the issuers stall at exactly `depth` outstanding blobs.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(registry.gauge(dataflow::kReadAheadInFlightMetric)->value(),
              4);
    EXPECT_EQ(registry.gauge(dataflow::kReadAheadDepthMetric)->value(), 4);
    EXPECT_EQ(registry.counter(dataflow::kReadAheadIssuedMetric)->value(),
              4u);

    // Draining re-opens the window; every issued read is accounted
    // as a hit (a claim that outruns the issuer misses and is then
    // skipped, never issued).
    std::uint64_t hits = 0;
    for (int i = 0; i < 64; ++i)
        hits += engine.claim(i).has_value() ? 1 : 0;
    EXPECT_GE(hits, 4u); // at least the pre-filled window
    EXPECT_EQ(registry.counter(dataflow::kReadAheadHitsMetric)->value(),
              hits);
    EXPECT_EQ(registry.counter(dataflow::kReadAheadIssuedMetric)->value(),
              hits);
    registry.reset();
}

TEST(ReadAhead, ClaimBlocksForInFlightReadThenHits)
{
    metrics::ScopedEnable enable;
    auto &registry = metrics::MetricsRegistry::instance();
    registry.reset();

    auto inner = makePlainStore(8);
    RemoteStoreOptions remote_options;
    remote_options.rtt = 20 * kMillisecond;
    remote_options.bytes_per_ns = 0.0;
    RemoteStore remote(inner, remote_options);
    ReadAheadOptions options;
    options.depth = 8;
    options.io_threads = 1;
    ReadAhead engine(&remote, options);

    engine.startEpoch(sequentialPlan(8), nullptr);
    // Wait until the issuer has *registered* the first chunk (entries
    // counted by the in-flight gauge) but its modelled round trip is
    // still pending: the claim must then block for the read instead
    // of missing.
    auto *in_flight = registry.gauge(dataflow::kReadAheadInFlightMetric);
    for (int i = 0; i < 500 && in_flight->value() == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_GT(in_flight->value(), 0);
    auto blob = engine.claim(0);
    ASSERT_TRUE(blob.has_value());
    EXPECT_EQ(blob->value(), inner->read(0));
    registry.reset();
}

TEST(ReadAhead, CancelWakesBlockedClaimsAsMisses)
{
    auto inner = makePlainStore(4);
    RemoteStoreOptions remote_options;
    remote_options.rtt = 200 * kMillisecond; // long enough to race
    remote_options.bytes_per_ns = 0.0;
    RemoteStore remote(inner, remote_options);
    ReadAheadOptions options;
    options.depth = 4;
    options.io_threads = 1;
    ReadAhead engine(&remote, options);
    engine.startEpoch(sequentialPlan(4), nullptr);

    std::optional<Result<std::string>> claimed;
    std::thread claimer([&] { claimed = engine.claim(0); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const TimeNs cancel_at = SteadyClock::instance().now();
    engine.cancel();
    claimer.join();
    // The claim returned promptly as a miss instead of sitting out
    // the remaining ~180 ms of modelled round trip.
    EXPECT_LT(SteadyClock::instance().now() - cancel_at,
              100 * kMillisecond);
    EXPECT_FALSE(claimed.has_value());
}

TEST(ReadAhead, PrefetchedErrorsAreDeliveredOnClaim)
{
    auto faulty = std::make_shared<FaultyStore>(makePlainStore(8),
                                                FaultyStoreOptions{});
    faulty->inject(3, FaultyStore::Fault::kIoError);
    ReadAheadOptions options;
    options.depth = 8;
    options.io_threads = 1;
    ReadAhead engine(faulty.get(), options);
    engine.startEpoch(sequentialPlan(8), nullptr);
    // Instant store: the whole window is ready after a short settle.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    auto good = engine.claim(2);
    ASSERT_TRUE(good.has_value());
    EXPECT_TRUE(good->ok());
    auto bad = engine.claim(3);
    ASSERT_TRUE(bad.has_value());
    ASSERT_FALSE(bad->ok());
    EXPECT_EQ(bad->error().code, ErrorCode::kIoError);
}

TEST(ReadAhead, ValidatesOptionsFatally)
{
    auto store = makePlainStore(2);
    ReadAheadOptions bad_depth;
    bad_depth.depth = 0;
    EXPECT_EXIT(ReadAhead(store.get(), bad_depth),
                ::testing::ExitedWithCode(1), "depth");
    ReadAheadOptions bad_threads;
    bad_threads.io_threads = 0;
    EXPECT_EXIT(ReadAhead(store.get(), bad_threads),
                ::testing::ExitedWithCode(1), "io_threads");
}

// --- Loader integration ----------------------------------------------

std::shared_ptr<InMemoryStore>
makeEncodedStore(int count)
{
    auto store = std::make_shared<InMemoryStore>();
    Rng rng(55);
    for (int i = 0; i < count; ++i)
        store->add(
            image::codec::encode(image::synthesize(rng, 16, 16)));
    return store;
}

/** ImageFolder over @p store whose transform chain starts with a
 *  random flip, so the cacheable prefix is decode-only and cache-warm
 *  epochs still draw from the per-sample rng stream. */
std::shared_ptr<pipeline::ImageFolderDataset>
makeDataset(std::shared_ptr<const pipeline::BlobStore> store)
{
    std::vector<pipeline::TransformPtr> transforms;
    transforms.push_back(
        std::make_unique<pipeline::RandomHorizontalFlip>(0.5));
    transforms.push_back(std::make_unique<pipeline::ToTensor>());
    return std::make_shared<pipeline::ImageFolderDataset>(
        std::move(store),
        std::make_shared<pipeline::Compose>(std::move(transforms)),
        /*num_classes=*/1 << 20);
}

/** Two epochs of payload bytes + labels (cold, then cache-warm when
 *  the options enable a cache). */
std::vector<std::vector<std::uint8_t>>
twoEpochBytes(const std::shared_ptr<pipeline::Dataset> &dataset,
              DataLoaderOptions options)
{
    DataLoader loader(dataset,
                      std::make_shared<pipeline::StackCollate>(), options);
    std::vector<std::vector<std::uint8_t>> epochs;
    for (int epoch = 0; epoch < 2; ++epoch) {
        loader.startEpoch();
        std::vector<std::uint8_t> bytes;
        while (auto batch = loader.next()) {
            const std::uint8_t *raw = batch->data.raw();
            bytes.insert(bytes.end(), raw, raw + batch->data.byteSize());
            for (const std::int64_t label : batch->labels) {
                const auto *p =
                    reinterpret_cast<const std::uint8_t *>(&label);
                bytes.insert(bytes.end(), p, p + sizeof(label));
            }
        }
        epochs.push_back(std::move(bytes));
    }
    return epochs;
}

TEST(ReadAheadLoader, BitIdenticalAcrossPathsColdAndCacheWarm)
{
    auto store = makeEncodedStore(48);
    RemoteStoreOptions remote_options;
    remote_options.rtt = 200 * kMicrosecond;
    remote_options.bytes_per_ns = 0.0;
    auto remote =
        std::make_shared<RemoteStore>(std::move(store), remote_options);
    auto dataset = makeDataset(remote);

    DataLoaderOptions reference;
    reference.batch_size = 4;
    reference.num_workers = 2;
    reference.shuffle = true;
    reference.seed = 77;
    reference.cache_policy = dataflow::CachePolicy::kMemory;
    reference.cache_budget_bytes = 64 << 20;
    const auto expected = twoEpochBytes(dataset, reference);
    EXPECT_NE(expected[0], expected[1]); // epochs draw differently

    struct PathCase
    {
        const char *name;
        int workers;
        Schedule schedule;
    };
    const PathCase cases[] = {
        {"round-robin", 2, Schedule::kRoundRobin},
        {"work-stealing", 2, Schedule::kWorkStealing},
        {"sync", 0, Schedule::kRoundRobin},
    };
    for (const PathCase &path : cases) {
        DataLoaderOptions options = reference;
        options.num_workers = path.workers;
        options.schedule = path.schedule;
        options.read_ahead_depth = 8;
        options.io_threads = 2;
        EXPECT_EQ(twoEpochBytes(dataset, options), expected)
            << path.name;
    }
}

/** Forwards to an inner store, but every read parks at a gate until
 *  the test opens it, so a test can order the I/O threads' reads
 *  against the consumer instead of racing them. */
class GatedStore : public pipeline::BlobStore
{
  public:
    explicit GatedStore(std::shared_ptr<const pipeline::BlobStore> inner)
        : inner_(std::move(inner))
    {
    }

    std::int64_t size() const override { return inner_->size(); }

    std::uint64_t
    blobSize(std::int64_t index) const override
    {
        return inner_->blobSize(index);
    }

    std::string
    read(std::int64_t index) const override
    {
        waitOpen();
        return inner_->read(index);
    }

    Result<std::string>
    tryRead(std::int64_t index) const override
    {
        waitOpen();
        return inner_->tryRead(index);
    }

    std::vector<Result<std::string>>
    tryReadMany(const std::vector<BlobReadRequest> &requests) const override
    {
        waitOpen(&parked_many_);
        return inner_->tryReadMany(requests);
    }

    /** Block until @p count read calls are parked at the closed gate. */
    void
    waitForParkedReads(int count) const
    {
        std::unique_lock lock(mutex_);
        cv_.wait(lock, [this, count] { return parked_ >= count; });
    }

    /** Block until @p count batched reads — the calls the read-ahead
     *  I/O threads make — are parked at the closed gate. */
    void
    waitForParkedBatchedReads(int count) const
    {
        std::unique_lock lock(mutex_);
        cv_.wait(lock, [this, count] { return parked_many_ >= count; });
    }

    void
    open()
    {
        {
            std::lock_guard lock(mutex_);
            open_ = true;
        }
        cv_.notify_all();
    }

  private:
    void
    waitOpen(int *kind = nullptr) const
    {
        std::unique_lock lock(mutex_);
        ++parked_;
        if (kind != nullptr)
            ++*kind;
        cv_.notify_all();
        cv_.wait(lock, [this] { return open_; });
        --parked_;
        if (kind != nullptr)
            --*kind;
    }

    std::shared_ptr<const pipeline::BlobStore> inner_;
    mutable std::mutex mutex_;
    mutable std::condition_variable cv_;
    mutable int parked_ = 0;
    mutable int parked_many_ = 0;
    bool open_ = false;
};

TEST(ReadAheadLoader, HitsDominateASequentialEpoch)
{
    metrics::ScopedEnable enable;
    auto &registry = metrics::MetricsRegistry::instance();
    registry.reset();

    auto store = std::make_shared<GatedStore>(makeEncodedStore(32));
    DataLoaderOptions options;
    options.batch_size = 4;
    options.num_workers = 0;
    options.read_ahead_depth = 32;
    options.io_threads = 1;
    DataLoader loader(makeDataset(store),
                      std::make_shared<pipeline::StackCollate>(), options);
    ASSERT_NE(loader.readAhead(), nullptr);

    // Arm the window behind the closed gate: once a read is parked,
    // the I/O thread has already entered its first chunk as in-flight,
    // and it enters the rest of the epoch (the window spans it) in the
    // same critical section that publishes that chunk. So every claim
    // of the sequential epoch finds its entry: no claim can precede
    // its issue, whatever the scheduler does.
    loader.startEpoch();
    store->waitForParkedReads(1);
    store->open();
    std::int64_t samples = 0;
    while (auto batch = loader.next())
        samples += batch->size();
    EXPECT_EQ(samples, 32);

    // A missed index is never issued later, so issued + synchronous
    // fallbacks covers the epoch exactly once.
    const auto hits =
        registry.counter(dataflow::kReadAheadHitsMetric)->value();
    const auto misses =
        registry.counter(dataflow::kReadAheadMissesMetric)->value();
    EXPECT_EQ(hits + misses, 32u);
    EXPECT_EQ(hits, 32u);
    EXPECT_EQ(registry.counter(dataflow::kReadAheadIssuedMetric)->value(),
              hits);
    registry.reset();
}

TEST(ReadAheadLoader, SlidingWindowStaysConsistentBehindAWorker)
{
    metrics::ScopedEnable enable;
    auto &registry = metrics::MetricsRegistry::instance();
    registry.reset();

    // A window a quarter of the epoch slides ahead of a worker's fetch
    // path. How far it keeps ahead is a race, so only the invariants
    // are exact. The I/O thread parks its first read with entries of
    // the window already in flight; the worker can have missed at most
    // the one index its own (also parked) read is serving, so at least
    // one claim of that window must hit.
    auto store = std::make_shared<GatedStore>(makeEncodedStore(32));
    DataLoaderOptions options;
    options.batch_size = 4;
    options.num_workers = 1;
    options.read_ahead_depth = 8;
    options.io_threads = 1;
    DataLoader loader(makeDataset(store),
                      std::make_shared<pipeline::StackCollate>(), options);
    ASSERT_NE(loader.readAhead(), nullptr);

    loader.startEpoch();
    store->waitForParkedBatchedReads(1);
    store->open();
    std::int64_t samples = 0;
    while (auto batch = loader.next())
        samples += batch->size();
    EXPECT_EQ(samples, 32);

    const auto hits =
        registry.counter(dataflow::kReadAheadHitsMetric)->value();
    const auto misses =
        registry.counter(dataflow::kReadAheadMissesMetric)->value();
    EXPECT_EQ(hits + misses, 32u);
    EXPECT_GT(hits, 0u);
    EXPECT_EQ(registry.counter(dataflow::kReadAheadIssuedMetric)->value(),
              hits);
    registry.reset();
}

TEST(ReadAheadLoader, RetryAbsorbsTransientFaultsThroughReadAhead)
{
    // FaultyStore(RemoteStore): the prefetched read serves the
    // transient error; the retry's claim misses (already consumed)
    // and re-reads synchronously, clearing the fault — identical to
    // the synchronous path's behavior.
    FaultyStoreOptions fault_options;
    fault_options.transient_failures = 2;
    RemoteStoreOptions remote_options;
    remote_options.rtt = 100 * kMicrosecond;
    remote_options.bytes_per_ns = 0.0;
    auto remote = std::make_shared<RemoteStore>(makeEncodedStore(16),
                                                remote_options);
    auto faulty = std::make_shared<FaultyStore>(remote, fault_options);
    faulty->inject(5, FaultyStore::Fault::kIoError);
    auto dataset = makeDataset(faulty);

    DataLoaderOptions options;
    options.batch_size = 4;
    options.num_workers = 2;
    options.error_policy = ErrorPolicy::kRetry;
    options.max_retries = 2;
    options.read_ahead_depth = 8;
    options.io_threads = 2;
    DataLoader loader(dataset, std::make_shared<pipeline::StackCollate>(),
                      options);
    std::multiset<std::int64_t> labels;
    while (auto batch = loader.next()) {
        for (const auto label : batch->labels)
            labels.insert(label);
    }
    EXPECT_EQ(labels.size(), 16u);
    for (std::int64_t i = 0; i < 16; ++i)
        EXPECT_EQ(labels.count(i), 1u) << "label " << i;
}

TEST(ReadAheadLoader, SkipRefillsComposeWithReadAhead)
{
    auto faulty = std::make_shared<FaultyStore>(makeEncodedStore(24),
                                                FaultyStoreOptions{});
    faulty->inject(7, FaultyStore::Fault::kIoError); // permanent
    auto dataset = makeDataset(faulty);

    DataLoaderOptions options;
    options.batch_size = 4;
    options.num_workers = 2;
    options.error_policy = ErrorPolicy::kSkip;
    options.read_ahead_depth = 6;
    options.io_threads = 2;
    DataLoader loader(dataset, std::make_shared<pipeline::StackCollate>(),
                      options);
    std::multiset<std::int64_t> labels;
    while (auto batch = loader.next()) {
        for (const auto label : batch->labels)
            labels.insert(label);
    }
    EXPECT_EQ(labels.size(), 24u);
    EXPECT_EQ(labels.count(7), 0u); // dropped
    EXPECT_EQ(labels.count(8), 2u); // its forward neighbor, twice
}

TEST(ReadAheadLoader, PersistentTimeoutsSurfaceAsLoaderError)
{
    // Every remote read misses its deadline: kRetry burns its bounded
    // attempts on the (transient) kTimeout and then fails the epoch.
    RemoteStoreOptions remote_options;
    remote_options.rtt = 5 * kMillisecond;
    remote_options.bytes_per_ns = 0.0;
    remote_options.deadline = kMillisecond;
    auto remote = std::make_shared<RemoteStore>(makeEncodedStore(8),
                                                remote_options);
    auto dataset = makeDataset(remote);

    DataLoaderOptions options;
    options.batch_size = 2;
    options.num_workers = 1;
    options.error_policy = ErrorPolicy::kRetry;
    options.max_retries = 1;
    options.read_ahead_depth = 4;
    options.io_threads = 1;
    DataLoader loader(dataset, std::make_shared<pipeline::StackCollate>(),
                      options);
    bool threw = false;
    try {
        while (loader.next().has_value()) {
        }
    } catch (const LoaderError &e) {
        threw = true;
        EXPECT_EQ(e.error().code, ErrorCode::kTimeout);
        EXPECT_EQ(e.error().stage, "store");
    }
    EXPECT_TRUE(threw);
}

TEST(ReadAheadLoader, IoEventsFromIoThreadsCorrelateWithSamples)
{
    trace::TraceLogger logger;
    RemoteStoreOptions remote_options;
    remote_options.rtt = 100 * kMicrosecond;
    remote_options.bytes_per_ns = 0.0;
    auto remote = std::make_shared<RemoteStore>(makeEncodedStore(16),
                                                remote_options);
    auto gated = std::make_shared<GatedStore>(remote);
    auto traced = std::make_shared<pipeline::TracedStore>(gated);
    auto dataset = makeDataset(traced);

    DataLoaderOptions options;
    options.batch_size = 4;
    options.num_workers = 1;
    options.logger = &logger;
    options.read_ahead_depth = 8;
    options.io_threads = 2;
    DataLoader loader(dataset, std::make_shared<pipeline::StackCollate>(),
                      options);
    // Both I/O threads pick a chunk and park at the closed gate (the
    // window has room for both), and the single worker parks at most
    // one read there: two parked reads include an I/O thread's, which
    // lands in its lane once the gate opens.
    loader.startEpoch();
    gated->waitForParkedReads(2);
    gated->open();
    std::int64_t samples = 0;
    while (auto batch = loader.next())
        samples += batch->size();
    ASSERT_EQ(samples, 16);

    const auto worker_pids = loader.workerPids();
    int io_events = 0;
    int off_thread = 0;
    for (const auto &record : logger.records()) {
        if (record.kind != trace::RecordKind::IoEvent)
            continue;
        ++io_events;
        // Correlation comes from the BlobReadRequest, not the issuing
        // thread: shuffle=false, so sample i lives in batch i / 4.
        ASSERT_GE(record.sample_index, 0);
        ASSERT_LT(record.sample_index, 16);
        EXPECT_EQ(record.batch_id, record.sample_index / 4);
        bool is_worker = record.pid == loader.mainPid();
        for (const auto pid : worker_pids)
            is_worker = is_worker || record.pid == pid;
        off_thread += is_worker ? 0 : 1;
    }
    EXPECT_EQ(io_events, 16);
    // The reads actually moved off the fetch threads.
    EXPECT_GT(off_thread, 0);
}

TEST(ReadAheadLoader, ValidationRequiresMatchedOptions)
{
    auto dataset = makeDataset(makeEncodedStore(4));
    auto collate = std::make_shared<pipeline::StackCollate>();
    DataLoaderOptions depth_only;
    depth_only.read_ahead_depth = 4;
    EXPECT_EXIT(DataLoader(dataset, collate, depth_only),
                ::testing::ExitedWithCode(1), "together");
    DataLoaderOptions threads_only;
    threads_only.io_threads = 2;
    EXPECT_EXIT(DataLoader(dataset, collate, threads_only),
                ::testing::ExitedWithCode(1), "together");
    DataLoaderOptions negative;
    negative.read_ahead_depth = -1;
    EXPECT_EXIT(DataLoader(dataset, collate, negative),
                ::testing::ExitedWithCode(1), "read_ahead_depth");
}

/** Map-style dataset without a blob store (synthetic samples). */
class SyntheticDataset : public pipeline::Dataset
{
  public:
    std::int64_t size() const override { return 8; }

    pipeline::Sample
    get(std::int64_t index, pipeline::PipelineContext &ctx) const override
    {
        (void)ctx;
        pipeline::Sample sample;
        sample.label = index;
        sample.data = tensor::Tensor(tensor::DType::F32, {4});
        return sample;
    }
};

TEST(ReadAheadLoader, DatasetWithoutBlobStoreRunsWithoutEngine)
{
    DataLoaderOptions options;
    options.batch_size = 2;
    options.num_workers = 1;
    options.read_ahead_depth = 4;
    options.io_threads = 1;
    DataLoader loader(std::make_shared<SyntheticDataset>(),
                      std::make_shared<pipeline::StackCollate>(), options);
    EXPECT_EQ(loader.readAhead(), nullptr); // warned and disabled
    std::int64_t batches = 0;
    while (loader.next().has_value())
        ++batches;
    EXPECT_EQ(batches, 4);
}

TEST(ReadAhead, IoBatchDerivationCoversDegenerateWindows)
{
    auto store = makePlainStore(8);
    const auto io_batch_for = [&](int depth, int io_threads,
                                  int io_batch = 0) {
        ReadAheadOptions options;
        options.depth = depth;
        options.io_threads = io_threads;
        options.io_batch = io_batch;
        ReadAhead engine(store.get(), options);
        return engine.ioBatch();
    };
    // depth < 2 * io_threads divides to 0; the lower clamp floors the
    // chunk at 1 so every issuer can still make one-blob progress.
    EXPECT_EQ(io_batch_for(1, 4), 1);
    EXPECT_EQ(io_batch_for(1, 1), 1);
    EXPECT_EQ(io_batch_for(7, 4), 1);
    EXPECT_EQ(io_batch_for(2, 4), 1);
    // Nominal shape: two chunks per issuer.
    EXPECT_EQ(io_batch_for(32, 2), 8);
    EXPECT_EQ(io_batch_for(16, 2), 4);
    // The per-call latency cap.
    EXPECT_EQ(io_batch_for(256, 2), 16);
    // Explicit io_batch is honored but can never exceed the window.
    EXPECT_EQ(io_batch_for(4, 1, 3), 3);
    EXPECT_EQ(io_batch_for(4, 1, 100), 4);
}

TEST(ReadAhead, DepthOneWindowWithManyIssuersDeliversEverything)
{
    // The most degenerate config: a single-slot window fought over by
    // four issuers. Every claim must resolve (hit, block-then-hit, or
    // miss) with correct bytes and without deadlock.
    auto store = makePlainStore(32);
    ReadAheadOptions options;
    options.depth = 1;
    options.io_threads = 4;
    ReadAhead engine(store.get(), options);
    EXPECT_EQ(engine.ioBatch(), 1);
    engine.startEpoch(sequentialPlan(32), nullptr);
    for (int i = 0; i < 32; ++i) {
        auto blob = engine.claim(i);
        if (blob.has_value()) {
            EXPECT_EQ(blob->value(), store->read(i)) << "index " << i;
        }
    }
}

} // namespace
} // namespace lotus
