/**
 * @file
 * Multi-tenant preprocessing service suite: per-client bit-identity
 * against a solo DataLoader under every ErrorPolicy (the DESIGN.md
 * §10 determinism contract), multi-epoch replay, weighted fairness
 * under a synthetic noisy neighbor, admission control (client cap and
 * in-flight sample cap), mid-epoch disconnect draining without
 * stalling other tenants, and client state outliving a LoaderClient
 * destroyed mid-task. Runs under TSan (tools/run_tsan.sh) and
 * ASan/UBSan (tools/run_sanitizers.sh).
 */

#include <gtest/gtest.h>

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "dataflow/data_loader.h"
#include "dataflow/error_policy.h"
#include "image/codec/codec.h"
#include "image/synth.h"
#include "metrics/metrics.h"
#include "pipeline/collate.h"
#include "pipeline/compose.h"
#include "pipeline/faulty_store.h"
#include "pipeline/image_folder.h"
#include "pipeline/store.h"
#include "pipeline/transforms/vision.h"
#include "service/loader_client.h"
#include "service/preproc_server.h"
#include "workloads/synthetic.h"

namespace lotus::service {
namespace {

using dataflow::DataLoader;
using dataflow::DataLoaderOptions;
using dataflow::ErrorPolicy;
using dataflow::LoaderError;
using dataflow::Schedule;
using pipeline::FaultyStore;
using pipeline::FaultyStoreOptions;
using pipeline::PipelineContext;
using pipeline::Sample;

/** Index-stamped tensors plus per-sample RNG draws (the same probe
 *  shape test_work_stealing.cc uses): any deviation from the
 *  per-sample reseeding contract shows up as a byte diff. */
class ProbeDataset : public pipeline::Dataset
{
  public:
    explicit ProbeDataset(std::int64_t size,
                          std::function<TimeNs(std::int64_t)> cost = {})
        : size_(size), cost_fn_(std::move(cost))
    {
    }

    std::int64_t size() const override { return size_; }

    Sample
    get(std::int64_t index, PipelineContext &ctx) const override
    {
        if (cost_fn_) {
            const TimeNs cost = cost_fn_(index);
            const auto &clock = SteadyClock::instance();
            const TimeNs deadline = clock.now() + cost;
            while (clock.now() < deadline) {
            }
        }
        Sample sample;
        sample.data = tensor::Tensor(tensor::DType::F32, {4});
        float *out = sample.data.data<float>();
        for (int i = 0; i < 4; ++i)
            out[i] = static_cast<float>(index) +
                     static_cast<float>(ctx.rngRef().nextDouble());
        sample.label = index;
        return sample;
    }

  private:
    std::int64_t size_;
    std::function<TimeNs(std::int64_t)> cost_fn_;
};

/** ProbeDataset whose get() of one index parks until the test
 *  releases it: pins a fleet worker inside a task on demand. */
class GatedDataset : public ProbeDataset
{
  public:
    GatedDataset(std::int64_t size, std::int64_t gated_index)
        : ProbeDataset(size), gated_index_(gated_index)
    {
    }

    Sample
    get(std::int64_t index, PipelineContext &ctx) const override
    {
        if (index == gated_index_) {
            std::unique_lock lock(mutex_);
            entered_ = true;
            cv_.notify_all();
            cv_.wait(lock, [this] { return released_; });
        }
        return ProbeDataset::get(index, ctx);
    }

    void
    waitEntered() const
    {
        std::unique_lock lock(mutex_);
        cv_.wait(lock, [this] { return entered_; });
    }

    void
    release()
    {
        {
            std::lock_guard lock(mutex_);
            released_ = true;
        }
        cv_.notify_all();
    }

  private:
    const std::int64_t gated_index_;
    mutable std::mutex mutex_;
    mutable std::condition_variable cv_;
    mutable bool entered_ = false;
    bool released_ = false;
};

std::vector<std::uint8_t>
batchBytes(const pipeline::Batch &batch)
{
    std::vector<std::uint8_t> bytes;
    const std::uint8_t *raw = batch.data.raw();
    bytes.insert(bytes.end(), raw, raw + batch.data.byteSize());
    for (const std::int64_t label : batch.labels) {
        const auto *p = reinterpret_cast<const std::uint8_t *>(&label);
        bytes.insert(bytes.end(), p, p + sizeof(label));
    }
    return bytes;
}

/** One solo-DataLoader epoch's payload, the bit-identity reference. */
std::vector<std::uint8_t>
soloEpochBytes(const std::shared_ptr<pipeline::Dataset> &dataset,
               const ClientConfig &config, Schedule schedule,
               int workers)
{
    DataLoaderOptions options;
    options.batch_size = config.batch_size;
    options.num_workers = workers;
    options.schedule = schedule;
    options.shuffle = config.shuffle;
    options.seed = config.seed;
    options.drop_last = config.drop_last;
    options.error_policy = config.error_policy;
    options.max_retries = config.max_retries;
    options.max_refill_attempts = config.max_refill_attempts;
    DataLoader loader(dataset,
                      std::make_shared<pipeline::StackCollate>(), options);
    std::vector<std::uint8_t> bytes;
    while (auto batch = loader.next()) {
        const auto chunk = batchBytes(*batch);
        bytes.insert(bytes.end(), chunk.begin(), chunk.end());
    }
    return bytes;
}

/** One service-client epoch's payload. */
std::vector<std::uint8_t>
clientEpochBytes(LoaderClient &client)
{
    std::vector<std::uint8_t> bytes;
    while (auto batch = client.next()) {
        const auto chunk = batchBytes(*batch);
        bytes.insert(bytes.end(), chunk.begin(), chunk.end());
    }
    return bytes;
}

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

TEST(Service, ClientsBitIdenticalToSoloLoader)
{
    // Three clients with different seeds, batch sizes, and shuffle
    // settings share one fleet concurrently; each must produce the
    // exact bytes its own solo loader would.
    auto dataset = std::make_shared<ProbeDataset>(48);
    PreprocServer server({.num_workers = 4});

    ClientConfig configs[3];
    configs[0] = {.batch_size = 4, .shuffle = true, .seed = 31};
    configs[1] = {.batch_size = 6, .shuffle = false, .seed = 7};
    configs[2] = {.batch_size = 5,
                  .shuffle = true,
                  .seed = 100,
                  .drop_last = false};

    std::vector<std::vector<std::uint8_t>> expected;
    for (const auto &config : configs)
        expected.push_back(soloEpochBytes(
            dataset, config, Schedule::kWorkStealing, 2));

    std::vector<std::shared_ptr<LoaderClient>> clients;
    for (const auto &config : configs) {
        auto connected = server.connect(
            dataset, std::make_shared<pipeline::StackCollate>(), config);
        ASSERT_TRUE(connected.ok());
        clients.push_back(connected.take());
    }

    std::vector<std::vector<std::uint8_t>> got(clients.size());
    std::vector<std::thread> drivers;
    for (std::size_t i = 0; i < clients.size(); ++i)
        drivers.emplace_back(
            [&, i] { got[i] = clientEpochBytes(*clients[i]); });
    for (auto &driver : drivers)
        driver.join();

    for (std::size_t i = 0; i < clients.size(); ++i)
        EXPECT_EQ(got[i], expected[i]) << "client " << i;
}

TEST(Service, MultiEpochReplayIsExactlyReproducible)
{
    auto dataset = std::make_shared<ProbeDataset>(24);
    ClientConfig config{.batch_size = 4, .shuffle = true, .seed = 13};

    auto collectTwoEpochs = [&] {
        PreprocServer server({.num_workers = 3});
        auto client =
            server
                .connect(dataset,
                         std::make_shared<pipeline::StackCollate>(),
                         config)
                .take();
        std::vector<std::vector<std::uint8_t>> epochs;
        for (int epoch = 0; epoch < 2; ++epoch) {
            client->startEpoch();
            epochs.push_back(clientEpochBytes(*client));
        }
        return epochs;
    };
    const auto first = collectTwoEpochs();
    const auto second = collectTwoEpochs();
    EXPECT_NE(first[0], first[1]); // epochs draw differently...
    EXPECT_EQ(first, second);      // ...but replay exactly

    // And each epoch matches the solo loader's same-numbered epoch.
    DataLoaderOptions solo;
    solo.batch_size = config.batch_size;
    solo.num_workers = 2;
    solo.schedule = Schedule::kWorkStealing;
    solo.shuffle = config.shuffle;
    solo.seed = config.seed;
    DataLoader loader(dataset,
                      std::make_shared<pipeline::StackCollate>(), solo);
    for (int epoch = 0; epoch < 2; ++epoch) {
        loader.startEpoch();
        std::vector<std::uint8_t> bytes;
        while (auto batch = loader.next()) {
            const auto chunk = batchBytes(*batch);
            bytes.insert(bytes.end(), chunk.begin(), chunk.end());
        }
        EXPECT_EQ(first[static_cast<std::size_t>(epoch)], bytes)
            << "epoch " << epoch;
    }
}

// --- Error policies through the service -------------------------------

TEST(Service, FailPolicySurfacesErrorInBatchOrderAndRestarts)
{
    auto faulty = std::make_shared<FaultyStore>(makeEncodedStore(12),
                                                FaultyStoreOptions{});
    faulty->inject(5, FaultyStore::Fault::kIoError);
    PreprocServer server({.num_workers = 2});
    auto client = server
                      .connect(makeImageDataset(faulty),
                               std::make_shared<pipeline::StackCollate>(),
                               {.batch_size = 2, .seed = 31})
                      .take();

    std::int64_t delivered = 0;
    bool threw = false;
    try {
        while (client->next().has_value())
            ++delivered;
    } catch (const LoaderError &e) {
        threw = true;
        EXPECT_EQ(e.batchId(), 2); // index 5 lives in batch {4, 5}
        EXPECT_EQ(e.error().code, ErrorCode::kIoError);
        EXPECT_EQ(e.error().stage, "store");
    }
    EXPECT_TRUE(threw);
    EXPECT_EQ(delivered, 2); // error surfaced in batch order

    // Restartable after the failed epoch, still epoch 0 (like the
    // solo loader, an aborted epoch replays under the same number).
    client->startEpoch();
    EXPECT_EQ(client->epoch(), 0);
    auto batch = client->next();
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(batch->batch_id, 0);
}

TEST(Service, SkipPolicyMatchesSoloLoaderLabels)
{
    auto faulty = std::make_shared<FaultyStore>(makeEncodedStore(40),
                                                FaultyStoreOptions{});
    faulty->inject(0, FaultyStore::Fault::kIoError);
    faulty->inject(20, FaultyStore::Fault::kIoError);
    auto dataset = makeImageDataset(faulty);
    ClientConfig config{.batch_size = 4,
                        .seed = 31,
                        .error_policy = ErrorPolicy::kSkip};

    const auto expected =
        soloEpochBytes(dataset, config, Schedule::kWorkStealing, 2);

    PreprocServer server({.num_workers = 2});
    auto client = server
                      .connect(dataset,
                               std::make_shared<pipeline::StackCollate>(),
                               config)
                      .take();
    EXPECT_EQ(clientEpochBytes(*client), expected);
}

TEST(Service, RetryPolicyClearsTransientFaultsBitIdentically)
{
    FaultyStoreOptions fault_options;
    fault_options.transient_failures = 2;
    auto makeFaulty = [&] {
        auto faulty = std::make_shared<FaultyStore>(makeEncodedStore(12),
                                                    fault_options);
        faulty->inject(3, FaultyStore::Fault::kIoError);
        return faulty;
    };
    ClientConfig config{.batch_size = 2,
                        .seed = 31,
                        .error_policy = ErrorPolicy::kRetry,
                        .max_retries = 2};

    // Fresh stores per run: transient fault budgets are store state.
    const auto expected = soloEpochBytes(makeImageDataset(makeFaulty()),
                                         config,
                                         Schedule::kWorkStealing, 2);

    PreprocServer server({.num_workers = 2});
    auto client = server
                      .connect(makeImageDataset(makeFaulty()),
                               std::make_shared<pipeline::StackCollate>(),
                               config)
                      .take();
    EXPECT_EQ(clientEpochBytes(*client), expected);
}

// --- Fairness, admission, disconnect ----------------------------------

TEST(Service, WeightedFairnessShieldsLightClientFromNoisyNeighbor)
{
    // The noisy neighbor's samples cost ~2 ms; the light client's are
    // nearly free. Weighted-fair victim selection must let the light
    // epoch finish promptly while the heavy backlog is still open —
    // the quantitative p99 gate lives in bench_loader's multi_tenant
    // section; this is the functional ordering check.
    auto heavy_dataset = std::make_shared<ProbeDataset>(
        64, [](std::int64_t) -> TimeNs { return 2 * kMillisecond; });
    auto light_dataset = std::make_shared<ProbeDataset>(
        64, [](std::int64_t) -> TimeNs { return 20 * kMicrosecond; });

    PreprocServer server({.num_workers = 2});
    auto heavy =
        server
            .connect(heavy_dataset,
                     std::make_shared<pipeline::StackCollate>(),
                     {.batch_size = 8, .seed = 1, .prefetch_batches = 4})
            .take();
    auto light =
        server
            .connect(light_dataset,
                     std::make_shared<pipeline::StackCollate>(),
                     {.batch_size = 8,
                      .seed = 2,
                      .weight = 4.0,
                      .prefetch_batches = 4})
            .take();

    // Fill the fleet with heavy work, then run the light epoch to
    // completion without consuming any heavy batch.
    heavy->startEpoch();
    std::int64_t light_batches = 0;
    while (light->next().has_value())
        ++light_batches;
    EXPECT_EQ(light_batches, light->numBatches());

    ServerStats stats = server.stats();
    std::uint64_t heavy_service = 0, light_service = 0;
    std::uint64_t heavy_shipped = 0;
    for (const auto &client : stats.clients) {
        if (client.id == heavy->id()) {
            heavy_service = client.service_ns;
            heavy_shipped = client.shipped_batches;
        }
        if (client.id == light->id())
            light_service = client.service_ns;
    }
    // The heavy epoch is still open (its 8 batches cannot all ship:
    // backpressure caps unconsumed output), and its executed service
    // time dominates — exactly the vtime ordering that shielded the
    // light client.
    EXPECT_LT(heavy_shipped,
              static_cast<std::uint64_t>(heavy->numBatches()));
    EXPECT_GT(heavy_service, light_service);

    // Drain the heavy epoch so both tenants end cleanly.
    while (heavy->next().has_value()) {
    }
}

TEST(Service, AdmissionControlRefusesPastMaxClients)
{
    auto dataset = std::make_shared<ProbeDataset>(8);
    auto collate = std::make_shared<pipeline::StackCollate>();
    PreprocServer server({.num_workers = 1, .max_clients = 2});

    auto first = server.connect(dataset, collate, {.batch_size = 2});
    auto second = server.connect(dataset, collate, {.batch_size = 2});
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());

    auto third = server.connect(dataset, collate, {.batch_size = 2});
    ASSERT_FALSE(third.ok());
    EXPECT_EQ(third.error().code, ErrorCode::kRejected);
    EXPECT_EQ(server.stats().rejected_connects, 1u);

    // Disconnecting frees the slot.
    second.take().reset();
    auto fourth = server.connect(dataset, collate, {.batch_size = 2});
    EXPECT_TRUE(fourth.ok());
}

TEST(Service, InflightSampleCapBoundsDecomposition)
{
    auto dataset = std::make_shared<ProbeDataset>(
        64, [](std::int64_t) -> TimeNs { return 50 * kMicrosecond; });
    PreprocServer server({.num_workers = 2,
                          .max_inflight_samples = 16,
                          .outbound_capacity = 8});
    auto client =
        server
            .connect(dataset, std::make_shared<pipeline::StackCollate>(),
                     {.batch_size = 8, .seed = 5, .prefetch_batches = 8})
            .take();
    while (client->next().has_value()) {
    }
    const ServerStats stats = server.stats();
    ASSERT_EQ(stats.clients.size(), 1u);
    EXPECT_GT(stats.clients[0].peak_inflight_samples, 0);
    EXPECT_LE(stats.clients[0].peak_inflight_samples, 16);
}

TEST(Service, DisconnectMidEpochDrainsWithoutStallingOthers)
{
    auto slow_dataset = std::make_shared<ProbeDataset>(
        64, [](std::int64_t) -> TimeNs { return kMillisecond; });
    auto fast_dataset = std::make_shared<ProbeDataset>(48);
    ClientConfig fast_config{.batch_size = 4, .shuffle = true, .seed = 31};
    const auto expected = soloEpochBytes(
        fast_dataset, fast_config, Schedule::kWorkStealing, 2);

    PreprocServer server({.num_workers = 2});
    auto survivor = server
                        .connect(fast_dataset,
                                 std::make_shared<pipeline::StackCollate>(),
                                 fast_config)
                        .take();
    {
        auto doomed =
            server
                .connect(slow_dataset,
                         std::make_shared<pipeline::StackCollate>(),
                         {.batch_size = 8, .seed = 1,
                          .prefetch_batches = 4})
                .take();
        doomed->startEpoch();
        auto batch = doomed->next(); // consume one, then walk away
        ASSERT_TRUE(batch.has_value());
    } // ~LoaderClient disconnects with work still in flight

    // The survivor's epoch completes bit-identically: the canceled
    // tenant's residue drains as no-ops, it does not poison peers.
    EXPECT_EQ(clientEpochBytes(*survivor), expected);

    // The drained tasks were counted, and the disconnected client is
    // eventually reaped from the roster (workers reap when idle).
    const TimeNs deadline =
        SteadyClock::instance().now() + 5'000 * kMillisecond;
    ServerStats stats = server.stats();
    while ((stats.live_clients != 1 || stats.clients.size() != 1) &&
           SteadyClock::instance().now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        stats = server.stats();
    }
    EXPECT_EQ(stats.live_clients, 1);
    EXPECT_EQ(stats.clients.size(), 1u);
    EXPECT_GT(stats.dropped_tasks, 0u);
}

/** Poll the roster until @p done holds (workers reap when idle). */
ServerStats
awaitStats(const PreprocServer &server,
           const std::function<bool(const ServerStats &)> &done)
{
    const TimeNs deadline =
        SteadyClock::instance().now() + 5'000 * kMillisecond;
    ServerStats stats = server.stats();
    while (!done(stats) && SteadyClock::instance().now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        stats = server.stats();
    }
    return stats;
}

TEST(Service, ClientDestroyedMidTaskKeepsItsStateUntilTheTaskEnds)
{
    // The engine's ownership rule: a fleet worker inside a client's
    // task holds that client's state — Fetcher, dataset, build — so
    // destroying the LoaderClient (and with it the DataLoader) under
    // the running task must not free anything the task touches.
    auto gated = std::make_shared<GatedDataset>(8, /*gated_index=*/0);
    auto fast_dataset = std::make_shared<ProbeDataset>(48);
    ClientConfig fast_config{.batch_size = 4, .shuffle = true, .seed = 31};
    const auto expected = soloEpochBytes(
        fast_dataset, fast_config, Schedule::kWorkStealing, 2);

    PreprocServer server({.num_workers = 2});
    auto survivor = server
                        .connect(fast_dataset,
                                 std::make_shared<pipeline::StackCollate>(),
                                 fast_config)
                        .take();
    {
        // One one-sample batch in flight: sample 0, parked in get().
        auto doomed =
            server
                .connect(gated, std::make_shared<pipeline::StackCollate>(),
                         {.batch_size = 1, .prefetch_batches = 1})
                .take();
        doomed->startEpoch();
        gated->waitEntered();
    }
    // Nothing was queued behind the parked task, so nothing is
    // dropped yet, and the roster still holds the doomed state.
    ServerStats stats = server.stats();
    EXPECT_EQ(stats.dropped_tasks, 0u);
    EXPECT_EQ(stats.live_clients, 1);
    EXPECT_EQ(stats.clients.size(), 2u);

    // The survivor's epoch runs on the free worker, bit-identically.
    EXPECT_EQ(clientEpochBytes(*survivor), expected);

    // Released, the task finishes into a canceled build: its result is
    // dropped, counted, and the drained state leaves the roster.
    gated->release();
    stats = awaitStats(server, [](const ServerStats &s) {
        return s.clients.size() == 1 && s.dropped_tasks == 1;
    });
    EXPECT_EQ(stats.dropped_tasks, 1u);
    ASSERT_EQ(stats.clients.size(), 1u);
    EXPECT_EQ(stats.clients[0].id, survivor->id());
}

} // namespace
} // namespace lotus::service
