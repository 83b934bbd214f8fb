/**
 * @file
 * RemoteStore suite: the latency/bandwidth model (RTT, per-connection
 * throughput, bounded in-flight slots), tryReadMany range coalescing
 * (runs, gap tolerance, byte cap, request-order results), deadline
 * misses as retryable kTimeout, and decorator composition —
 * TracedStore(RemoteStore) byte/latency accounting with per-request
 * IoEvent correlation, FaultyStore(RemoteStore) error paths through
 * the default per-index fallback.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/strings.h"
#include "metrics/metrics.h"
#include "pipeline/faulty_store.h"
#include "pipeline/remote_store.h"
#include "pipeline/sample.h"
#include "pipeline/store.h"
#include "pipeline/traced_store.h"
#include "trace/logger.h"

namespace lotus {
namespace {

using pipeline::BlobReadRequest;
using pipeline::FaultyStore;
using pipeline::FaultyStoreOptions;
using pipeline::InMemoryStore;
using pipeline::RemoteStore;
using pipeline::RemoteStoreOptions;
using pipeline::TracedStore;

/** Inner store with @p count blobs of @p bytes each ("blob-<i>..."
 *  padded), no modelled local latency. */
std::shared_ptr<InMemoryStore>
makeStore(int count, std::size_t bytes = 64)
{
    auto store = std::make_shared<InMemoryStore>();
    for (int i = 0; i < count; ++i) {
        std::string blob = strFormat("blob-%04d-", i);
        blob.resize(bytes, 'x');
        store->add(std::move(blob));
    }
    return store;
}

std::vector<BlobReadRequest>
requestsFor(const std::vector<std::int64_t> &indices)
{
    std::vector<BlobReadRequest> requests;
    for (const auto index : indices) {
        BlobReadRequest request;
        request.index = index;
        request.batch_id = index / 4;
        request.sample_index = index;
        requests.push_back(request);
    }
    return requests;
}

TEST(RemoteStore, ServesExactBytesAndPaysRtt)
{
    auto inner = makeStore(4);
    RemoteStoreOptions options;
    options.rtt = 2 * kMillisecond;
    options.bytes_per_ns = 0.0; // unlimited bandwidth: RTT only
    RemoteStore remote(inner, options);

    const TimeNs start = SteadyClock::instance().now();
    EXPECT_EQ(remote.read(2), inner->read(2));
    const TimeNs elapsed = SteadyClock::instance().now() - start;
    EXPECT_GE(elapsed, options.rtt);
    EXPECT_EQ(remote.roundTrips(), 1u);
    EXPECT_EQ(remote.coalescedReads(), 0u);
    EXPECT_EQ(remote.bytesTransferred(), inner->blobSize(2));
    EXPECT_EQ(remote.size(), inner->size());
    EXPECT_EQ(remote.blobSize(1), inner->blobSize(1));
}

TEST(RemoteStore, BandwidthCapExtendsTransfers)
{
    auto inner = makeStore(1, /*bytes=*/4 << 20);
    RemoteStoreOptions options;
    options.rtt = 0;
    options.bytes_per_ns = 1.0; // 1 GB/s -> 4 MiB takes ~4.2 ms
    RemoteStore remote(inner, options);

    const TimeNs start = SteadyClock::instance().now();
    EXPECT_TRUE(remote.tryRead(0).ok());
    const TimeNs elapsed = SteadyClock::instance().now() - start;
    EXPECT_GE(elapsed, static_cast<TimeNs>(4 << 20));
}

TEST(RemoteStore, CoalescesAdjacentRunsIntoSingleRoundTrips)
{
    auto inner = makeStore(32);
    RemoteStoreOptions options;
    options.rtt = kMillisecond;
    options.bytes_per_ns = 0.0;
    options.max_inflight = 1; // one connection: the runs go one by one
    RemoteStore remote(inner, options);

    // Three runs under strict adjacency: {0,1,2}, {10,11}, {20}.
    const std::vector<std::int64_t> indices = {0, 1, 2, 10, 11, 20};
    const TimeNs start = SteadyClock::instance().now();
    auto blobs = remote.tryReadMany(requestsFor(indices));
    const TimeNs elapsed = SteadyClock::instance().now() - start;

    ASSERT_EQ(blobs.size(), indices.size());
    for (std::size_t i = 0; i < indices.size(); ++i)
        EXPECT_EQ(blobs[i].value(), inner->read(indices[i]))
            << "slot " << i;
    EXPECT_EQ(remote.roundTrips(), 3u);
    EXPECT_EQ(remote.coalescedReads(), 5u); // 3 + 2; the singleton no
    EXPECT_EQ(remote.bytesTransferred(),
              6 * inner->blobSize(0)); // no gap blobs in any run
    // One connection: three modelled round trips back to back, not
    // six — the delay is paid per run, not per blob.
    EXPECT_GE(elapsed, 3 * options.rtt);
    EXPECT_EQ(remote.modelledDelayNs(), 3 * options.rtt);
}

TEST(RemoteStore, ResultsComeBackInRequestOrderUnsorted)
{
    auto inner = makeStore(16);
    RemoteStoreOptions options;
    options.rtt = 0;
    options.bytes_per_ns = 0.0;
    RemoteStore remote(inner, options);

    const std::vector<std::int64_t> indices = {5, 0, 3, 1, 4, 2};
    auto blobs = remote.tryReadMany(requestsFor(indices));
    ASSERT_EQ(blobs.size(), indices.size());
    for (std::size_t i = 0; i < indices.size(); ++i)
        EXPECT_EQ(blobs[i].value(), inner->read(indices[i]))
            << "slot " << i;
    // {5,0,3,1,4,2} sorts to the single adjacent run [0,5].
    EXPECT_EQ(remote.roundTrips(), 1u);
    EXPECT_EQ(remote.coalescedReads(), 6u);
}

TEST(RemoteStore, GapToleranceFetchesDeadBytes)
{
    auto inner = makeStore(8, /*bytes=*/100);
    RemoteStoreOptions options;
    options.rtt = 0;
    options.bytes_per_ns = 0.0;
    options.max_coalesce_gap = 1;
    RemoteStore remote(inner, options);

    // 0 and 2 coalesce across the unrequested gap blob 1; its bytes
    // ride the wire anyway. 5 is beyond the window from 2.
    auto blobs = remote.tryReadMany(requestsFor({0, 2, 5}));
    ASSERT_EQ(blobs.size(), 3u);
    EXPECT_EQ(blobs[0].value(), inner->read(0));
    EXPECT_EQ(blobs[1].value(), inner->read(2));
    EXPECT_EQ(blobs[2].value(), inner->read(5));
    EXPECT_EQ(remote.roundTrips(), 2u);
    EXPECT_EQ(remote.coalescedReads(), 2u); // {0,2}; {5} is alone
    EXPECT_EQ(remote.bytesTransferred(), 400u); // blobs 0,1,2 + 5
}

TEST(RemoteStore, ByteCapSplitsRuns)
{
    auto inner = makeStore(8, /*bytes=*/1000);
    RemoteStoreOptions options;
    options.rtt = 0;
    options.bytes_per_ns = 0.0;
    options.max_coalesced_bytes = 2500; // two blobs fit, three do not
    RemoteStore remote(inner, options);

    auto blobs = remote.tryReadMany(requestsFor({0, 1, 2, 3}));
    ASSERT_EQ(blobs.size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(blobs[static_cast<std::size_t>(i)].ok());
    EXPECT_EQ(remote.roundTrips(), 2u); // {0,1} and {2,3}
    EXPECT_EQ(remote.bytesTransferred(), 4000u);
}

TEST(RemoteStore, InflightSlotsBoundConcurrency)
{
    auto inner = makeStore(8);
    RemoteStoreOptions options;
    options.rtt = 4 * kMillisecond;
    options.bytes_per_ns = 0.0;
    options.max_inflight = 1;
    RemoteStore remote(inner, options);

    // Two concurrent reads through one connection slot serialize:
    // total wall is two RTTs even though both threads sleep.
    const TimeNs start = SteadyClock::instance().now();
    std::thread other([&] { EXPECT_TRUE(remote.tryRead(0).ok()); });
    EXPECT_TRUE(remote.tryRead(1).ok());
    other.join();
    const TimeNs serialized = SteadyClock::instance().now() - start;
    EXPECT_GE(serialized, 2 * options.rtt);

    // With two slots the same pair overlaps.
    options.max_inflight = 2;
    RemoteStore wide(inner, options);
    std::thread wide_other([&] { EXPECT_TRUE(wide.tryRead(0).ok()); });
    EXPECT_TRUE(wide.tryRead(1).ok());
    wide_other.join();
    // Two requests on two slots never queue for a connection.
    EXPECT_EQ(wide.connectionWaits(), 0u);
}

TEST(RemoteStore, OneCallKeepsItsRunsInFlightTogether)
{
    auto inner = makeStore(64);
    RemoteStoreOptions options;
    options.rtt = kMillisecond;
    options.bytes_per_ns = 0.0;
    options.max_inflight = 3;

    // Five runs under strict adjacency: {0,1}, {10}, {20}, {30}, {40,41}.
    const std::vector<std::int64_t> indices = {0, 1, 10, 20, 30, 40, 41};
    RemoteStore remote(inner, options);
    auto blobs = remote.tryReadMany(requestsFor(indices));
    ASSERT_EQ(blobs.size(), indices.size());
    for (std::size_t i = 0; i < indices.size(); ++i)
        EXPECT_EQ(blobs[i].value(), inner->read(indices[i]))
            << "slot " << i;
    // min(5 runs, 3 slots) on the wire at once; the two runs left
    // over each waited for a slot to come back to the call.
    EXPECT_EQ(remote.inflightHighWater(), 3);
    EXPECT_EQ(remote.connectionWaits(), 2u);
    // Overlap moves when bytes land, not what the model charges.
    EXPECT_EQ(remote.roundTrips(), 5u);
    EXPECT_EQ(remote.coalescedReads(), 4u);
    EXPECT_EQ(remote.bytesTransferred(), 7 * inner->blobSize(0));
    EXPECT_EQ(remote.modelledDelayNs(), 5 * options.rtt);

    // Fewer runs than slots: every run is on the wire at once.
    RemoteStore wide(inner, options);
    EXPECT_EQ(wide.tryReadMany(requestsFor({3, 30})).size(), 2u);
    EXPECT_EQ(wide.inflightHighWater(), 2);
    EXPECT_EQ(wide.connectionWaits(), 0u);
}

TEST(RemoteStore, ConcurrentMultiRunCallsShareThePool)
{
    // Four threads, each with one call of eight runs, on three slots:
    // the gate never hands out more than max_inflight, every call gets
    // its own bytes back, and the accounting adds up across callers.
    auto inner = makeStore(128);
    RemoteStoreOptions options;
    options.rtt = 200 * kMicrosecond;
    options.bytes_per_ns = 0.0;
    options.max_inflight = 3;
    RemoteStore remote(inner, options);

    std::vector<std::thread> callers;
    for (int t = 0; t < 4; ++t)
        callers.emplace_back([&, t] {
            std::vector<std::int64_t> indices;
            for (int r = 0; r < 8; ++r)
                indices.push_back(t + 16 * r); // no two adjacent
            auto blobs = remote.tryReadMany(requestsFor(indices));
            ASSERT_EQ(blobs.size(), indices.size());
            for (std::size_t i = 0; i < indices.size(); ++i)
                EXPECT_EQ(blobs[i].value(), inner->read(indices[i]));
        });
    for (std::thread &caller : callers)
        caller.join();
    EXPECT_LE(remote.inflightHighWater(), 3);
    EXPECT_EQ(remote.roundTrips(), 32u);
    EXPECT_EQ(remote.modelledDelayNs(), 32 * options.rtt);
    EXPECT_EQ(remote.bytesTransferred(), 32 * inner->blobSize(0));
}

TEST(RemoteStore, InflightMetricsTrackThePool)
{
    metrics::ScopedEnable enable;
    auto &registry = metrics::MetricsRegistry::instance();
    registry.reset();

    auto inner = makeStore(16);
    RemoteStoreOptions options;
    options.rtt = 0;
    options.bytes_per_ns = 0.0;
    options.max_inflight = 2;
    RemoteStore remote(inner, options);
    EXPECT_EQ(remote.tryReadMany(requestsFor({0, 4, 8, 12})).size(), 4u);

    // Every slot is back once the call returns; the counter mirrors
    // connectionWaits().
    EXPECT_EQ(registry.gauge(pipeline::kRemoteInflightMetric)->value(), 0);
    EXPECT_EQ(
        registry.counter(pipeline::kRemoteConnectionWaitsMetric)->value(),
        remote.connectionWaits());
    EXPECT_EQ(remote.connectionWaits(), 2u);
    registry.reset();
}

TEST(RemoteStore, LateRunTimesOutWhileTheCallsOtherRunsSucceed)
{
    // Blob 0 is 1 MiB: at 0.1 B/ns its transfer alone is ~10.5 ms,
    // past the 5 ms deadline. The 64-byte runs finish in ~1 ms.
    auto inner = makeStore(32);
    auto big = std::make_shared<InMemoryStore>();
    std::string large = "blob-big-";
    large.resize(1 << 20, 'x');
    big->add(std::move(large));
    for (std::int64_t i = 1; i < inner->size(); ++i)
        big->add(inner->read(i));

    RemoteStoreOptions options;
    options.rtt = kMillisecond;
    options.bytes_per_ns = 0.1;
    options.max_inflight = 4;
    options.deadline = 5 * kMillisecond;
    RemoteStore remote(big, options);

    const TimeNs start = SteadyClock::instance().now();
    auto blobs = remote.tryReadMany(requestsFor({10, 0, 20}));
    const TimeNs elapsed = SteadyClock::instance().now() - start;
    ASSERT_EQ(blobs.size(), 3u);
    EXPECT_EQ(blobs[0].value(), big->read(10));
    ASSERT_FALSE(blobs[1].ok());
    EXPECT_EQ(blobs[1].error().code, ErrorCode::kTimeout);
    EXPECT_EQ(blobs[2].value(), big->read(20));
    // The late run used its time up to the deadline.
    EXPECT_GE(elapsed, options.deadline);
    EXPECT_EQ(remote.timeouts(), 1u);
    EXPECT_EQ(remote.roundTrips(), 2u);
    EXPECT_EQ(remote.bytesTransferred(), 2 * big->blobSize(10));
    EXPECT_EQ(remote.inflightHighWater(), 3);
}

TEST(RemoteStore, RunSplittingSizesOnlyGapsThatMayJoin)
{
    /** Counts blobSize() calls on the way through. */
    class CountingStore : public pipeline::BlobStore
    {
      public:
        explicit CountingStore(std::shared_ptr<InMemoryStore> inner)
            : inner_(std::move(inner))
        {
        }
        std::int64_t size() const override { return inner_->size(); }
        std::string read(std::int64_t index) const override
        {
            return inner_->read(index);
        }
        std::uint64_t blobSize(std::int64_t index) const override
        {
            ++size_calls;
            return inner_->blobSize(index);
        }
        mutable std::atomic<std::uint64_t> size_calls{0};

      private:
        std::shared_ptr<InMemoryStore> inner_;
    };

    auto counting = std::make_shared<CountingStore>(makeStore(100000, 8));
    RemoteStoreOptions options;
    options.rtt = 0;
    options.bytes_per_ns = 0.0;
    options.max_coalesce_gap = 2;
    RemoteStore remote(counting, options);

    // Far apart: each index is its own run and is sized once.
    const std::vector<std::int64_t> far = {99999, 0, 50000, 25000};
    auto blobs = remote.tryReadMany(requestsFor(far));
    ASSERT_EQ(blobs.size(), far.size());
    for (std::size_t i = 0; i < far.size(); ++i)
        EXPECT_TRUE(blobs[i].ok()) << "slot " << i;
    EXPECT_EQ(remote.roundTrips(), far.size());
    EXPECT_LE(counting->size_calls.load(), far.size());

    // A joinable gap is sized blob by blob: 7 + {8, 9, 10}.
    counting->size_calls = 0;
    EXPECT_EQ(remote.tryReadMany(requestsFor({7, 10})).size(), 2u);
    EXPECT_EQ(remote.roundTrips(), far.size() + 1);
    EXPECT_LE(counting->size_calls.load(), 4u);
}

TEST(RemoteStore, DeadlineMissesFailTheRunWithRetryableTimeout)
{
    auto inner = makeStore(8);
    RemoteStoreOptions options;
    options.rtt = 5 * kMillisecond;
    options.bytes_per_ns = 0.0;
    options.deadline = kMillisecond; // every request misses
    RemoteStore remote(inner, options);

    Result<std::string> blob = remote.tryRead(0);
    ASSERT_FALSE(blob.ok());
    EXPECT_EQ(blob.error().code, ErrorCode::kTimeout);
    EXPECT_TRUE(errorIsTransient(blob.error().code));
    EXPECT_NE(blob.error().message.find("deadline"), std::string::npos);
    EXPECT_EQ(remote.timeouts(), 1u);
    EXPECT_EQ(remote.roundTrips(), 0u);

    // A coalesced run misses as a unit: every slot fails.
    auto blobs = remote.tryReadMany(requestsFor({2, 3, 4}));
    ASSERT_EQ(blobs.size(), 3u);
    for (const auto &result : blobs) {
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.error().code, ErrorCode::kTimeout);
    }
    EXPECT_EQ(remote.timeouts(), 4u);
    EXPECT_EQ(remote.bytesTransferred(), 0u);
}

TEST(RemoteStore, GenerousDeadlineDoesNotFire)
{
    auto inner = makeStore(4);
    RemoteStoreOptions options;
    options.rtt = kMillisecond;
    options.bytes_per_ns = 0.0;
    options.deadline = 500 * kMillisecond;
    RemoteStore remote(inner, options);
    EXPECT_TRUE(remote.tryRead(0).ok());
    EXPECT_EQ(remote.timeouts(), 0u);
    EXPECT_EQ(remote.roundTrips(), 1u);
}

TEST(RemoteStore, ValidatesOptionsFatally)
{
    auto inner = makeStore(2);
    RemoteStoreOptions bad_inflight;
    bad_inflight.max_inflight = 0;
    EXPECT_EXIT(RemoteStore(inner, bad_inflight),
                ::testing::ExitedWithCode(1), "max_inflight");
    RemoteStoreOptions bad_rtt;
    bad_rtt.rtt = -1;
    EXPECT_EXIT(RemoteStore(inner, bad_rtt), ::testing::ExitedWithCode(1),
                "rtt");
}

TEST(BlobStore, DefaultTryReadManyMatchesPerIndexReads)
{
    // Stores without a batched override serve tryReadMany through the
    // per-index fallback: same bytes, per-slot errors.
    auto store = makeStore(8);
    auto blobs = store->tryReadMany(requestsFor({3, 0, 7}));
    ASSERT_EQ(blobs.size(), 3u);
    EXPECT_EQ(blobs[0].value(), store->read(3));
    EXPECT_EQ(blobs[1].value(), store->read(0));
    EXPECT_EQ(blobs[2].value(), store->read(7));
}

TEST(StoreComposition, TracedOverRemoteAccountsCoalescedReads)
{
    metrics::ScopedEnable enable;
    auto &registry = metrics::MetricsRegistry::instance();
    registry.reset();

    auto inner = makeStore(16, /*bytes=*/128);
    RemoteStoreOptions options;
    options.rtt = kMillisecond;
    options.bytes_per_ns = 0.0;
    auto remote = std::make_shared<RemoteStore>(inner, options);
    TracedStore traced(remote);

    auto blobs = traced.tryReadMany(requestsFor({4, 5, 6}));
    ASSERT_EQ(blobs.size(), 3u);
    for (const auto &blob : blobs)
        EXPECT_TRUE(blob.ok());

    // The batch reached the remote store whole (one round trip), and
    // the tracer accounted every delivered blob individually.
    EXPECT_EQ(remote->roundTrips(), 1u);
    EXPECT_EQ(traced.reads(), 3u);
    EXPECT_EQ(traced.bytesRead(), 3 * 128u);
    EXPECT_EQ(registry.histogram(pipeline::kStoreReadNsMetric)->count(),
              3u);
    EXPECT_EQ(registry.histogram(pipeline::kStoreReadBytesMetric)->count(),
              3u);
    registry.reset();
}

TEST(StoreComposition, TracedOverRemoteStampsPerRequestCorrelation)
{
    trace::TraceLogger logger;
    pipeline::PipelineContext ctx;
    ctx.logger = &logger;
    ctx.pid = 77;
    ctx.batch_id = -1;      // ambient values must be overridden
    ctx.sample_index = -1;  // by the per-request correlation

    auto inner = makeStore(16, /*bytes=*/64);
    RemoteStoreOptions options;
    options.rtt = 0;
    options.bytes_per_ns = 0.0;
    auto remote = std::make_shared<RemoteStore>(inner, options);
    TracedStore traced(remote);

    {
        pipeline::IoTraceScope scope(&ctx);
        auto blobs = traced.tryReadMany(requestsFor({8, 9, 10}));
        ASSERT_EQ(blobs.size(), 3u);
    }

    int io_events = 0;
    for (const auto &record : logger.records()) {
        if (record.kind != trace::RecordKind::IoEvent)
            continue;
        ++io_events;
        // requestsFor: batch_id = index / 4, sample_index = index.
        const std::int64_t index = record.sample_index;
        EXPECT_GE(index, 8);
        EXPECT_LE(index, 10);
        EXPECT_EQ(record.batch_id, index / 4);
        EXPECT_EQ(record.pid, 77u);
        EXPECT_EQ(record.op_name, "io:64");
    }
    EXPECT_EQ(io_events, 3);
}

TEST(StoreComposition, FaultyOverRemoteFailsPerSlot)
{
    auto inner = makeStore(8);
    RemoteStoreOptions options;
    options.rtt = 0;
    options.bytes_per_ns = 0.0;
    auto remote = std::make_shared<RemoteStore>(inner, options);
    auto faulty =
        std::make_shared<FaultyStore>(remote, FaultyStoreOptions{});
    faulty->inject(2, FaultyStore::Fault::kIoError);

    // FaultyStore has no batched override: the default fallback reads
    // per index through the remote model, so each surviving request is
    // its own round trip. The faulted slot short-circuits in the fault
    // layer and never reaches the remote at all.
    auto blobs = faulty->tryReadMany(requestsFor({1, 2, 3}));
    ASSERT_EQ(blobs.size(), 3u);
    EXPECT_TRUE(blobs[0].ok());
    ASSERT_FALSE(blobs[1].ok());
    EXPECT_EQ(blobs[1].error().code, ErrorCode::kIoError);
    EXPECT_TRUE(blobs[2].ok());
    EXPECT_EQ(remote->roundTrips(), 2u);
    EXPECT_EQ(remote->coalescedReads(), 0u);
}

TEST(StoreComposition, FaultyOverRemoteTimeoutWinsOverFault)
{
    // With both decorations active, the remote deadline fires first:
    // the fault layer sees (and passes through) the kTimeout error.
    auto inner = makeStore(4);
    RemoteStoreOptions options;
    options.rtt = 5 * kMillisecond;
    options.bytes_per_ns = 0.0;
    options.deadline = kMillisecond;
    auto remote = std::make_shared<RemoteStore>(inner, options);
    FaultyStoreOptions fault_options;
    fault_options.transient_failures = 1;
    auto faulty = std::make_shared<FaultyStore>(remote, fault_options);
    faulty->inject(0, FaultyStore::Fault::kIoError);

    Result<std::string> blob = faulty->tryRead(1); // unfaulted index
    ASSERT_FALSE(blob.ok());
    EXPECT_EQ(blob.error().code, ErrorCode::kTimeout);
}

} // namespace
} // namespace lotus
