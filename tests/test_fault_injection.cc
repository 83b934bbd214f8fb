/**
 * @file
 * Fault-injection suite for the recoverable sample-path error model:
 * exhaustive codec corruption sweeps (every single-byte truncation,
 * seeded bit flips), the FaultyStore decorator, and the loader-level
 * ErrorPolicy behaviors (fail / skip / retry) with their metrics and
 * trace instrumentation.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/strings.h"
#include "dataflow/data_loader.h"
#include "dataflow/error_policy.h"
#include "dataflow/fetcher.h"
#include "dataflow/iterable_loader.h"
#include "image/codec/bitio.h"
#include "image/codec/codec.h"
#include "image/synth.h"
#include "metrics/metrics.h"
#include "pipeline/collate.h"
#include "pipeline/compose.h"
#include "pipeline/faulty_store.h"
#include "pipeline/image_folder.h"
#include "pipeline/iterable_dataset.h"
#include "pipeline/remote_store.h"
#include "pipeline/store.h"
#include "pipeline/transforms/vision.h"
#include "trace/logger.h"

namespace lotus {
namespace {

using dataflow::DataLoader;
using dataflow::DataLoaderOptions;
using dataflow::ErrorPolicy;
using dataflow::IterableDataLoader;
using dataflow::IterableLoaderOptions;
using dataflow::LoaderError;
using pipeline::FaultyStore;
using pipeline::FaultyStoreOptions;

std::string
encodedFixture(int width, int height, std::uint64_t seed = 21)
{
    Rng rng(seed);
    const image::Image img = image::synthesize(rng, width, height);
    return image::codec::encode(img,
                                image::codec::EncodeOptions{75, true});
}

/** tryDecode must return a value or an Error — the assertion here is
 *  really "the process is still alive and the Result is coherent". */
void
expectDecodeOrError(const std::string &blob)
{
    Result<image::Image> decoded = image::codec::tryDecode(blob);
    if (decoded.ok()) {
        EXPECT_GT(decoded.value().width(), 0);
        EXPECT_GT(decoded.value().height(), 0);
    } else {
        EXPECT_FALSE(decoded.error().message.empty());
    }
}

TEST(CorruptionSweep, EverySingleByteTruncationFailsCleanly)
{
    const std::string blob = encodedFixture(48, 32);
    ASSERT_GT(blob.size(), 10u);
    int errors = 0;
    for (std::size_t len = 0; len < blob.size(); ++len) {
        Result<image::Image> decoded =
            image::codec::tryDecode(blob.substr(0, len));
        if (!decoded.ok())
            ++errors;
        else
            EXPECT_EQ(decoded.value().width(), 48);
    }
    // Nearly every prefix is rejected; a handful of late truncations
    // may only lose padding bits and still decode.
    EXPECT_GT(errors, static_cast<int>(blob.size()) / 2);
}

TEST(CorruptionSweep, SeededBitFlipsNeverCrash)
{
    const std::string blob = encodedFixture(48, 32);
    Rng rng(4242);
    int errors = 0;
    for (int trial = 0; trial < 1500; ++trial) {
        std::string corrupt = blob;
        const auto pos =
            static_cast<std::size_t>(rng.nextBelow(corrupt.size()));
        corrupt[pos] = static_cast<char>(
            static_cast<unsigned char>(corrupt[pos]) ^
            (1u << rng.nextBelow(8)));
        Result<image::Image> decoded = image::codec::tryDecode(corrupt);
        if (!decoded.ok())
            ++errors;
        else
            expectDecodeOrError(corrupt);
    }
    // Payload flips frequently land in the entropy stream; the sweep
    // must exercise real error paths, not just survive.
    EXPECT_GT(errors, 100);
}

TEST(CorruptionSweep, SeededByteStormsNeverCrash)
{
    // Heavier corruption: several flipped bytes per trial, so decode
    // failures compound across planes and blocks.
    const std::string blob = encodedFixture(32, 24, 77);
    Rng rng(777);
    for (int trial = 0; trial < 300; ++trial) {
        std::string corrupt = blob;
        const int flips = 1 + static_cast<int>(rng.nextBelow(8));
        for (int i = 0; i < flips; ++i) {
            const auto pos =
                static_cast<std::size_t>(rng.nextBelow(corrupt.size()));
            corrupt[pos] =
                static_cast<char>(rng.nextBelow(256));
        }
        expectDecodeOrError(corrupt);
    }
}

/** Craft a structurally valid LJPG header followed by a chosen
 *  entropy payload. */
std::string
craftedBlob(int width, int height, const std::string &payload)
{
    std::string blob;
    blob.append("LJ01", 4);
    blob.push_back(static_cast<char>(width & 0xFF));
    blob.push_back(static_cast<char>((width >> 8) & 0xFF));
    blob.push_back(static_cast<char>(height & 0xFF));
    blob.push_back(static_cast<char>((height >> 8) & 0xFF));
    blob.push_back(75);               // quality
    blob.push_back(0);                // not subsampled
    blob += payload;
    return blob;
}

TEST(CorruptionSweep, OversizedExpGolombRunIsADecodeError)
{
    // Regression: a crafted stream whose first AC run claims ~2e9
    // zeros used to wrap the int cursor and index out of bounds; it
    // must now come back as a decode error.
    image::codec::BitWriter writer;
    writer.putSe(0);              // luma DC delta
    writer.putUe(2'000'000'000u); // absurd zero-run length
    writer.putSe(1);
    const std::string blob = craftedBlob(8, 8, writer.take());
    Result<image::Image> decoded = image::codec::tryDecode(blob);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error().code, ErrorCode::kCorruptData);
}

TEST(CorruptionSweep, ThirtyTwoZeroExpGolombPrefixIsADecodeError)
{
    // Regression: a luma DC code of exactly 32 leading zeros and a 1
    // used to evaluate 1u << 32 in the reader's bit-at-a-time loop
    // (undefined behaviour). Any prefix past 28 zeros is corrupt.
    const unsigned char bytes[22] = {'L', 'J', '0', '1', 16, 0, 16, 0,
                                     75, 1, 0x00, 0x00, 0x00, 0x00, 0x80};
    const std::string blob(reinterpret_cast<const char *>(bytes),
                           sizeof(bytes));
    Result<image::Image> decoded = image::codec::tryDecode(blob);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error().code, ErrorCode::kCorruptData);
}

TEST(CorruptionSweep, HugeHeaderDimensionsRejectedBeforeAllocation)
{
    // A flipped header byte can claim a 65535x65535 image from a tiny
    // blob; the max_pixels cap must reject it before any plane is
    // allocated.
    const std::string blob = craftedBlob(0xFFFF, 0xFFFF, "xx");
    Result<image::Image> decoded = image::codec::tryDecode(blob);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error().code, ErrorCode::kCorruptData);
    EXPECT_NE(decoded.error().message.find("pixel"), std::string::npos);
}

TEST(FaultyStore, FaultMapIsDeterministicPerSeed)
{
    auto inner = std::make_shared<pipeline::InMemoryStore>();
    for (int i = 0; i < 200; ++i)
        inner->add(strFormat("blob-%03d-payload-bytes", i));

    FaultyStoreOptions options;
    options.seed = 7;
    options.truncate_fraction = 0.1;
    options.bitflip_fraction = 0.1;
    options.io_error_fraction = 0.1;
    FaultyStore first(inner, options);
    FaultyStore second(inner, options);

    EXPECT_GT(first.faultCount(), 0);
    EXPECT_LT(first.faultCount(), first.size());
    for (std::int64_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(first.faultFor(i), second.faultFor(i)) << "index " << i;

    FaultyStoreOptions reseeded = options;
    reseeded.seed = 8;
    FaultyStore other(inner, reseeded);
    int differing = 0;
    for (std::int64_t i = 0; i < first.size(); ++i)
        differing += first.faultFor(i) != other.faultFor(i);
    EXPECT_GT(differing, 0);
}

TEST(FaultyStore, ServesEachFaultShapeDeterministically)
{
    auto inner = std::make_shared<pipeline::InMemoryStore>();
    for (int i = 0; i < 8; ++i)
        inner->add(strFormat("blob-%03d-payload-bytes", i));
    FaultyStore store(inner, FaultyStoreOptions{.seed = 3});
    store.inject(1, FaultyStore::Fault::kTruncate);
    store.inject(2, FaultyStore::Fault::kBitFlip);
    store.inject(3, FaultyStore::Fault::kIoError);

    // Unfaulted blobs pass through untouched.
    EXPECT_EQ(store.tryRead(0).value(), inner->read(0));

    const std::string truncated = store.tryRead(1).value();
    EXPECT_LT(truncated.size(), inner->read(1).size());
    EXPECT_EQ(truncated, inner->read(1).substr(0, truncated.size()));
    EXPECT_EQ(store.tryRead(1).value(), truncated); // same every read

    const std::string flipped = store.tryRead(2).value();
    const std::string original = inner->read(2);
    ASSERT_EQ(flipped.size(), original.size());
    int differing_bits = 0;
    for (std::size_t i = 0; i < flipped.size(); ++i) {
        const unsigned delta = static_cast<unsigned char>(flipped[i]) ^
                               static_cast<unsigned char>(original[i]);
        for (unsigned bit = 0; bit < 8; ++bit)
            differing_bits += (delta >> bit) & 1u;
    }
    EXPECT_EQ(differing_bits, 1);
    EXPECT_EQ(store.tryRead(2).value(), flipped);

    Result<std::string> failed = store.tryRead(3);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.error().code, ErrorCode::kIoError);
    EXPECT_GE(store.faultsServed(), 4u);
    EXPECT_EQ(store.blobSize(1), inner->blobSize(1)); // metadata unfaulted
}

TEST(FaultyStore, TransientIoErrorsClearAfterCountdown)
{
    auto inner = std::make_shared<pipeline::InMemoryStore>();
    inner->add("only-blob-here");
    FaultyStoreOptions options;
    options.transient_failures = 2;
    FaultyStore store(inner, options);
    store.inject(0, FaultyStore::Fault::kIoError);

    EXPECT_FALSE(store.tryRead(0).ok());
    EXPECT_FALSE(store.tryRead(0).ok());
    // Third and later reads succeed: the transient fault cleared.
    EXPECT_EQ(store.tryRead(0).value(), "only-blob-here");
    EXPECT_EQ(store.tryRead(0).value(), "only-blob-here");
}

/** ImageFolder dataset over @p store with a ToTensor-only chain and
 *  labels equal to indices (num_classes = store size). */
std::shared_ptr<pipeline::ImageFolderDataset>
makeImageDataset(std::shared_ptr<const pipeline::BlobStore> store)
{
    std::vector<pipeline::TransformPtr> transforms;
    transforms.push_back(std::make_unique<pipeline::ToTensor>());
    return std::make_shared<pipeline::ImageFolderDataset>(
        std::move(store),
        std::make_shared<pipeline::Compose>(std::move(transforms)),
        /*num_classes=*/1 << 20);
}

std::shared_ptr<pipeline::InMemoryStore>
makeEncodedStore(int count)
{
    auto store = std::make_shared<pipeline::InMemoryStore>();
    Rng rng(99);
    for (int i = 0; i < count; ++i)
        store->add(
            image::codec::encode(image::synthesize(rng, 16, 16)));
    return store;
}

TEST(LoaderErrorPolicy, FailSurfacesBatchAndWorkerIdentity)
{
    auto faulty = std::make_shared<FaultyStore>(makeEncodedStore(12),
                                                FaultyStoreOptions{});
    faulty->inject(5, FaultyStore::Fault::kIoError);
    auto collate = std::make_shared<pipeline::StackCollate>();
    DataLoaderOptions options;
    options.batch_size = 2;
    options.num_workers = 2;
    options.error_policy = ErrorPolicy::kFail;
    DataLoader loader(makeImageDataset(faulty), collate, options);

    std::int64_t delivered = 0;
    bool threw = false;
    try {
        while (loader.next().has_value())
            ++delivered;
    } catch (const LoaderError &e) {
        threw = true;
        EXPECT_EQ(e.batchId(), 2); // index 5 lives in batch {4, 5}
        EXPECT_GE(e.workerId(), 0);
        EXPECT_LT(e.workerId(), 2);
        EXPECT_EQ(e.error().code, ErrorCode::kIoError);
        EXPECT_EQ(e.error().stage, "store");
    }
    EXPECT_TRUE(threw);
    // Batches before the failing one deliver normally: the error
    // surfaces in batch order even if it arrived early.
    EXPECT_EQ(delivered, 2);

    // The loader is restartable after a failed epoch.
    loader.startEpoch();
    auto batch = loader.next();
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(batch->batch_id, 0);
}

TEST(LoaderErrorPolicy, SynchronousFailUsesSentinelWorkerId)
{
    auto faulty = std::make_shared<FaultyStore>(makeEncodedStore(12),
                                                FaultyStoreOptions{});
    faulty->inject(5, FaultyStore::Fault::kIoError);
    auto collate = std::make_shared<pipeline::StackCollate>();
    DataLoaderOptions options;
    options.batch_size = 2;
    options.num_workers = 0;
    options.error_policy = ErrorPolicy::kFail;
    DataLoader loader(makeImageDataset(faulty), collate, options);

    std::int64_t delivered = 0;
    bool threw = false;
    try {
        while (loader.next().has_value())
            ++delivered;
    } catch (const LoaderError &e) {
        threw = true;
        EXPECT_EQ(e.batchId(), 2);
        EXPECT_EQ(e.workerId(), -1); // main process, no worker
    }
    EXPECT_TRUE(threw);
    EXPECT_EQ(delivered, 2);
}

TEST(LoaderErrorPolicy, SkipRefillsKeepCadenceAndCountDrops)
{
    metrics::ScopedEnable enable;
    auto &registry = metrics::MetricsRegistry::instance();
    registry.reset();

    // 5% injected permanent I/O errors, evenly spaced so every refill
    // candidate (index + 1) is clean and the counter equals the
    // injected count exactly.
    auto faulty = std::make_shared<FaultyStore>(makeEncodedStore(40),
                                                FaultyStoreOptions{});
    faulty->inject(0, FaultyStore::Fault::kIoError);
    faulty->inject(20, FaultyStore::Fault::kIoError);
    auto collate = std::make_shared<pipeline::StackCollate>();
    DataLoaderOptions options;
    options.batch_size = 4;
    options.num_workers = 2;
    options.error_policy = ErrorPolicy::kSkip;
    DataLoader loader(makeImageDataset(faulty), collate, options);

    std::int64_t batches = 0;
    std::multiset<std::int64_t> labels;
    while (auto batch = loader.next()) {
        ++batches;
        EXPECT_EQ(batch->size(), 4); // cadence and shape intact
        for (const auto label : batch->labels)
            labels.insert(label);
    }
    EXPECT_EQ(batches, 10);
    EXPECT_EQ(labels.size(), 40u);
    // Bad samples dropped, their forward neighbors duplicated.
    EXPECT_EQ(labels.count(0), 0u);
    EXPECT_EQ(labels.count(1), 2u);
    EXPECT_EQ(labels.count(20), 0u);
    EXPECT_EQ(labels.count(21), 2u);

    EXPECT_EQ(registry
                  .counter(metrics::labeled(dataflow::kSampleErrorsMetric,
                                            "policy", "skip", "stage",
                                            "store"))
                  ->value(),
              2u);
    registry.reset();
}

TEST(LoaderErrorPolicy, SynchronousSkipCountsDecodeErrorsAndTraces)
{
    metrics::ScopedEnable enable;
    auto &registry = metrics::MetricsRegistry::instance();
    registry.reset();

    // Blob 3 is not an LJPG stream at all: the error surfaces from
    // the decode stage rather than the store.
    auto clean = makeEncodedStore(8);
    auto swapped = std::make_shared<pipeline::InMemoryStore>();
    for (std::int64_t i = 0; i < 8; ++i)
        swapped->add(i == 3 ? "this is not an image" : clean->read(i));

    trace::TraceLogger logger;
    auto collate = std::make_shared<pipeline::StackCollate>();
    DataLoaderOptions options;
    options.batch_size = 2;
    options.num_workers = 0;
    options.logger = &logger;
    options.error_policy = ErrorPolicy::kSkip;
    DataLoader loader(makeImageDataset(swapped), collate, options);

    std::int64_t samples = 0;
    while (auto batch = loader.next())
        samples += batch->size();
    EXPECT_EQ(samples, 8);

    EXPECT_EQ(registry
                  .counter(metrics::labeled(dataflow::kSampleErrorsMetric,
                                            "policy", "skip", "stage",
                                            "decode"))
                  ->value(),
              1u);
    int error_events = 0;
    for (const auto &record : logger.records()) {
        if (record.kind == trace::RecordKind::ErrorEvent) {
            ++error_events;
            EXPECT_EQ(record.op_name, "error:decode");
            EXPECT_EQ(record.sample_index, 3);
        }
    }
    EXPECT_EQ(error_events, 1);
    registry.reset();
}

TEST(LoaderErrorPolicy, RetryClearsTransientStoreFaults)
{
    FaultyStoreOptions fault_options;
    fault_options.transient_failures = 2;
    auto faulty = std::make_shared<FaultyStore>(makeEncodedStore(12),
                                                fault_options);
    faulty->inject(3, FaultyStore::Fault::kIoError);
    auto collate = std::make_shared<pipeline::StackCollate>();
    DataLoaderOptions options;
    options.batch_size = 2;
    options.num_workers = 1;
    options.error_policy = ErrorPolicy::kRetry;
    options.max_retries = 2;
    DataLoader loader(makeImageDataset(faulty), collate, options);

    // Every sample delivered exactly once: the transient fault was
    // absorbed by retries, nothing skipped or duplicated.
    std::multiset<std::int64_t> labels;
    while (auto batch = loader.next()) {
        for (const auto label : batch->labels)
            labels.insert(label);
    }
    EXPECT_EQ(labels.size(), 12u);
    for (std::int64_t i = 0; i < 12; ++i)
        EXPECT_EQ(labels.count(i), 1u) << "label " << i;
}

TEST(LoaderErrorPolicy, RetryExhaustionFailsTheBatch)
{
    auto faulty = std::make_shared<FaultyStore>(makeEncodedStore(8),
                                                FaultyStoreOptions{});
    faulty->inject(2, FaultyStore::Fault::kIoError); // permanent
    auto collate = std::make_shared<pipeline::StackCollate>();
    DataLoaderOptions options;
    options.batch_size = 2;
    options.num_workers = 1;
    options.error_policy = ErrorPolicy::kRetry;
    options.max_retries = 1;
    DataLoader loader(makeImageDataset(faulty), collate, options);
    EXPECT_THROW(
        {
            while (loader.next().has_value()) {
            }
        },
        LoaderError);
}

TEST(IterableLoaderErrorPolicy, SkipDropsBadSamplesAndStreamsOn)
{
    auto faulty = std::make_shared<FaultyStore>(makeEncodedStore(10),
                                                FaultyStoreOptions{});
    faulty->inject(2, FaultyStore::Fault::kIoError);
    faulty->inject(7, FaultyStore::Fault::kIoError);
    auto dataset = std::make_shared<pipeline::ShardedIterable>(
        makeImageDataset(faulty));
    auto collate = std::make_shared<pipeline::StackCollate>();
    IterableLoaderOptions options;
    options.batch_size = 2;
    options.num_workers = 2;
    options.error_policy = ErrorPolicy::kSkip;
    IterableDataLoader loader(dataset, collate, options);

    std::multiset<std::int64_t> labels;
    while (auto batch = loader.next()) {
        for (const auto label : batch->labels)
            labels.insert(label);
    }
    // Streams cannot refill, so the bad samples are simply gone.
    EXPECT_EQ(labels.size(), 8u);
    EXPECT_EQ(labels.count(2), 0u);
    EXPECT_EQ(labels.count(7), 0u);
}

TEST(IterableLoaderErrorPolicy, FailRaisesLoaderErrorWithWorker)
{
    auto faulty = std::make_shared<FaultyStore>(makeEncodedStore(10),
                                                FaultyStoreOptions{});
    faulty->inject(4, FaultyStore::Fault::kIoError);
    auto dataset = std::make_shared<pipeline::ShardedIterable>(
        makeImageDataset(faulty));
    auto collate = std::make_shared<pipeline::StackCollate>();
    IterableLoaderOptions options;
    options.batch_size = 2;
    options.num_workers = 2;
    options.error_policy = ErrorPolicy::kFail;
    IterableDataLoader loader(dataset, collate, options);

    bool threw = false;
    try {
        while (loader.next().has_value()) {
        }
    } catch (const LoaderError &e) {
        threw = true;
        EXPECT_GE(e.workerId(), 0);
        EXPECT_LT(e.workerId(), 2);
        EXPECT_EQ(e.error().code, ErrorCode::kIoError);
    }
    EXPECT_TRUE(threw);

    // Restartable: a fresh epoch streams again (and fails again on
    // the same permanent fault, proving determinism).
    loader.startEpoch();
    EXPECT_THROW(
        {
            while (loader.next().has_value()) {
            }
        },
        LoaderError);
}

TEST(LoaderErrorPolicy, FullyCorruptStoreExhaustsSkipRefills)
{
    // Every blob fails: kSkip's bounded refill walk must give up and
    // surface an error instead of spinning forever.
    auto faulty = std::make_shared<FaultyStore>(makeEncodedStore(6),
                                                FaultyStoreOptions{});
    for (std::int64_t i = 0; i < 6; ++i)
        faulty->inject(i, FaultyStore::Fault::kIoError);
    auto collate = std::make_shared<pipeline::StackCollate>();
    DataLoaderOptions options;
    options.batch_size = 2;
    options.num_workers = 1;
    options.error_policy = ErrorPolicy::kSkip;
    options.max_refill_attempts = 4;
    DataLoader loader(makeImageDataset(faulty), collate, options);
    EXPECT_THROW(
        {
            while (loader.next().has_value()) {
            }
        },
        LoaderError);
}

// ---------------------------------------------------------------------------
// Deadline timeouts: the RemoteStore's modeled deadline maps misses to
// ErrorCode::kTimeout, a *transient* error kind, and the FaultyStore
// decorator passes it through untouched — the two layers compose.

TEST(TimeoutFaults, DeadlineMissThroughFaultLayerIsRetryableTimeout)
{
    pipeline::RemoteStoreOptions remote_options;
    remote_options.rtt = 5 * kMillisecond;
    remote_options.bytes_per_ns = 0.0;
    remote_options.deadline = kMillisecond; // every request misses
    auto remote = std::make_shared<pipeline::RemoteStore>(
        makeEncodedStore(4), remote_options);
    auto faulty =
        std::make_shared<FaultyStore>(remote, FaultyStoreOptions{});

    Result<std::string> blob = faulty->tryRead(0);
    ASSERT_FALSE(blob.ok());
    EXPECT_EQ(blob.error().code, ErrorCode::kTimeout);
    EXPECT_TRUE(errorIsTransient(blob.error().code));
    EXPECT_STREQ(errorCodeName(blob.error().code), "timeout");

    // The batched path fails every slot of the run the same way, and
    // none of it is the fault layer's doing.
    std::vector<pipeline::BlobReadRequest> requests;
    for (std::int64_t i = 0; i < 3; ++i)
        requests.push_back(pipeline::BlobReadRequest{i, -1, -1});
    auto blobs = faulty->tryReadMany(requests);
    ASSERT_EQ(blobs.size(), 3u);
    for (const auto &result : blobs) {
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.error().code, ErrorCode::kTimeout);
    }
    EXPECT_EQ(faulty->faultsServed(), 0u);
    EXPECT_EQ(remote->roundTrips(), 0u);
    EXPECT_EQ(remote->timeouts(), 4u);
}

TEST(TimeoutFaults, RetryAbsorbsTransientFaultsOverTheRemoteModel)
{
    // Generous deadline: the remote model adds latency but never
    // fires, while the fault layer injects a clearing I/O error. The
    // kRetry policy re-reads through both layers and recovers.
    pipeline::RemoteStoreOptions remote_options;
    remote_options.rtt = 100 * kMicrosecond;
    remote_options.bytes_per_ns = 0.0;
    remote_options.deadline = 500 * kMillisecond;
    auto remote = std::make_shared<pipeline::RemoteStore>(
        makeEncodedStore(8), remote_options);
    FaultyStoreOptions fault_options;
    fault_options.transient_failures = 2;
    auto faulty = std::make_shared<FaultyStore>(remote, fault_options);
    faulty->inject(3, FaultyStore::Fault::kIoError);

    auto collate = std::make_shared<pipeline::StackCollate>();
    DataLoaderOptions options;
    options.batch_size = 2;
    options.num_workers = 1;
    options.error_policy = ErrorPolicy::kRetry;
    options.max_retries = 3;
    DataLoader loader(makeImageDataset(faulty), collate, options);

    std::int64_t samples = 0;
    while (auto batch = loader.next())
        samples += batch->data.dim(0);
    EXPECT_EQ(samples, 8);
    EXPECT_EQ(faulty->faultsServed(), 2u);
}

TEST(TimeoutFaults, PersistentDeadlineMissFailsTheLoaderWithTimeout)
{
    // The modeled deadline is deterministic, so retries can't clear
    // it: the loader surfaces a LoaderError carrying kTimeout.
    pipeline::RemoteStoreOptions remote_options;
    remote_options.rtt = 5 * kMillisecond;
    remote_options.bytes_per_ns = 0.0;
    remote_options.deadline = kMillisecond;
    auto remote = std::make_shared<pipeline::RemoteStore>(
        makeEncodedStore(4), remote_options);
    auto faulty =
        std::make_shared<FaultyStore>(remote, FaultyStoreOptions{});

    auto collate = std::make_shared<pipeline::StackCollate>();
    DataLoaderOptions options;
    options.batch_size = 2;
    options.num_workers = 1;
    options.error_policy = ErrorPolicy::kRetry;
    options.max_retries = 1;
    DataLoader loader(makeImageDataset(faulty), collate, options);

    bool threw = false;
    try {
        while (loader.next().has_value()) {
        }
    } catch (const LoaderError &e) {
        threw = true;
        EXPECT_EQ(e.error().code, ErrorCode::kTimeout);
    }
    EXPECT_TRUE(threw);
}

} // namespace
} // namespace lotus
