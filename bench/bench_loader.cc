/**
 * @file
 * DataLoader scheduling bench: round-robin vs work-stealing on a
 * heavy-tailed per-sample cost distribution (the straggler shape of
 * paper §IV: one slow sample stalls its whole statically-assigned
 * batch while peers idle).
 *
 * The per-sample cost is a seeded lognormal draw with a straggler
 * population (workloads::HeavyTailCostDataset), modelled as mostly a
 * blocking stall (I/O-like) plus a small CPU spin, so worker overlap
 * — and therefore the scheduling effect — is visible regardless of
 * host core count. Batch contents mix per-sample RNG draws, so the
 * cross-schedule bit-identity check exercises the per-sample
 * reseeding contract end to end.
 *
 * Reports, per (schedule, workers in 1/2/4/8): epoch wall time, [T2]
 * wait p50/p99 (lotus_loader_wait_ns), and steal_efficiency
 * (steals / tasks). `--json` additionally writes BENCH_loader.json
 * (schema_version 3) so the perf trajectory is tracked across PRs.
 *
 * The second half benches the decoded-sample cache on an
 * ImageNet-like IC pipeline (modelled remote-store latency + real
 * LJPG decode + RandomResizedCrop suffix): cold vs warm epochs at an
 * oversized, a tight and a thrashing memory budget, plus the disk
 * materialization mode. Gates: warm epochs at the oversized budget
 * >= 5x over uncached, the thrashing budget within 5% of uncached,
 * and cold-vs-warm bit-identity.
 *
 * The third section is io-bound: the same IC chain behind a
 * RemoteStore modelling an 8 ms object-store round trip, with the
 * async read-ahead stage on vs off. The I/O threads coalesce the
 * sequential plan into multi-blob range GETs and overlap them with
 * decode, so read-ahead must win >= 2x epoch wall at 4 workers (the
 * acceptance gate), while batches stay bit-identical across
 * round-robin / work-stealing / sync, cold and cache-warm.
 *
 * The fourth section runs the self-driving tuner (src/tuner/) live:
 * starting from the worst config (1 worker, prefetch 1, round-robin,
 * no read-ahead), the controller reconfigures the loader at each
 * epoch boundary from the metrics diff alone. Gates: on both the
 * heavy-tailed and the io-bound scenario the converged epoch wall
 * must land within 10% of the best swept config, and the tuned run's
 * per-epoch batches must be bit-identical to a fixed loader running
 * the final config from the start (`--json` schema_version 4 adds
 * the tuner_convergence section).
 *
 * The fifth section benches the multi-tenant preprocessing service
 * (src/service/): one shared fleet, N LoaderClients. Gates: aggregate
 * samples/s must scale >= 2x from 1 to 4 clients (each client's
 * submission window underfills the fleet, so tenancy is what buys the
 * utilization back), a heavy-tailed noisy neighbor may not inflate a
 * light client's [T2] p99 by more than 2x (weighted-fair stealing),
 * and every client's epoch must stay bit-identical to a solo
 * DataLoader with the same config (`--json` schema_version 5 adds the
 * multi_tenant section).
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/stats.h"
#include "common/clock.h"
#include "common/files.h"
#include "common/strings.h"
#include "dataflow/data_loader.h"
#include "dataflow/read_ahead.h"
#include "metrics/metrics.h"
#include "pipeline/collate.h"
#include "pipeline/compose.h"
#include "pipeline/image_folder.h"
#include "pipeline/remote_store.h"
#include "pipeline/traced_store.h"
#include "pipeline/transforms/vision.h"
#include "service/loader_client.h"
#include "service/preproc_server.h"
#include "tuner/tuner.h"
#include "workloads/synthetic.h"

namespace {

using namespace lotus;
using dataflow::DataLoader;
using dataflow::DataLoaderOptions;
using dataflow::Schedule;

constexpr std::int64_t kNumSamples = 512;
constexpr int kBatchSize = 16;
constexpr std::uint64_t kSeed = 42;

workloads::HeavyTailCostConfig
scenario()
{
    workloads::HeavyTailCostConfig config;
    config.median_cost = 100 * kMicrosecond;
    config.sigma = 0.8;
    config.straggler_fraction = 0.05;
    config.straggler_multiplier = 500.0; // 50 ms stalls
    config.busy_fraction = 0.05;
    config.seed = 17;
    return config;
}

DataLoaderOptions
loaderOptions(Schedule schedule, int workers)
{
    DataLoaderOptions options;
    options.batch_size = kBatchSize;
    options.num_workers = workers;
    options.shuffle = true;
    options.seed = kSeed;
    options.schedule = schedule;
    return options;
}

struct ConfigResult
{
    const char *schedule = "";
    int workers = 0;
    double wall_ms = 0.0;
    double wait_p50_ns = 0.0;
    double wait_p99_ns = 0.0;
    std::uint64_t steals = 0;
    std::uint64_t tasks = 0;
    double steal_efficiency = 0.0;
};

ConfigResult
runConfig(const std::shared_ptr<workloads::HeavyTailCostDataset> &dataset,
          Schedule schedule, int workers)
{
    auto &registry = metrics::MetricsRegistry::instance();
    registry.reset();
    metrics::ScopedEnable enable;

    DataLoader loader(dataset, std::make_shared<pipeline::StackCollate>(),
                      loaderOptions(schedule, workers));
    // Best-of-3 epochs: one epoch of a sleep-heavy workload is noisy
    // under OS scheduling, and the minimum is the standard estimator
    // for "what the schedule can do". The [T2] histogram and steal
    // counters accumulate across all three epochs.
    TimeNs wall = 0;
    for (int epoch = 0; epoch < 3; ++epoch) {
        loader.startEpoch();
        const TimeNs start = SteadyClock::instance().now();
        while (loader.next().has_value()) {
        }
        const TimeNs elapsed = SteadyClock::instance().now() - start;
        if (wall == 0 || elapsed < wall)
            wall = elapsed;
    }

    ConfigResult result;
    result.schedule = schedule == Schedule::kWorkStealing ? "work_stealing"
                                                          : "round_robin";
    result.workers = workers;
    result.wall_ms = static_cast<double>(wall) / 1e6;
    auto *wait = registry.histogram("lotus_loader_wait_ns");
    result.wait_p50_ns = static_cast<double>(wait->quantile(0.50));
    result.wait_p99_ns = static_cast<double>(wait->quantile(0.99));
    for (int w = 0; w < workers; ++w) {
        result.steals += registry
                             .counter(metrics::labeled(
                                 dataflow::kStealsMetric, "worker",
                                 strFormat("%d", w)))
                             ->value();
    }
    result.tasks = registry.counter(dataflow::kTasksMetric)->value();
    result.steal_efficiency =
        result.tasks > 0 ? static_cast<double>(result.steals) /
                               static_cast<double>(result.tasks)
                         : 0.0;
    return result;
}

/** Every batch's payload + labels, concatenated in epoch order. */
std::vector<std::uint8_t>
epochContent(const std::shared_ptr<workloads::HeavyTailCostDataset> &dataset,
             Schedule schedule, int workers)
{
    DataLoader loader(dataset, std::make_shared<pipeline::StackCollate>(),
                      loaderOptions(schedule, workers));
    std::vector<std::uint8_t> bytes;
    while (auto batch = loader.next()) {
        const std::uint8_t *raw = batch->data.raw();
        bytes.insert(bytes.end(), raw, raw + batch->data.byteSize());
        for (const std::int64_t label : batch->labels) {
            const auto *p = reinterpret_cast<const std::uint8_t *>(&label);
            bytes.insert(bytes.end(), p, p + sizeof(label));
        }
    }
    return bytes;
}

// --- Decoded-sample cache: cold vs warm epochs ------------------------

constexpr std::int64_t kCacheSamples = 96;
constexpr int kCacheBatch = 8;
constexpr int kCacheWorkers = 4;
/** Discarded uncached epochs run at least this long before timing. */
constexpr TimeNs kCacheWarmup = 2 * kSecond;

workloads::ImageNetConfig
cacheScenario()
{
    workloads::ImageNetConfig config;
    config.num_images = kCacheSamples;
    config.median_width = 320.0;
    config.seed = 7;
    // Remote-dataset stand-in: a fixed per-request cost (object-store
    // GET latency) plus per-byte streaming latency on every blob
    // read. This is the epoch-repeated Loader work the cache elides.
    config.io_base = kMillisecond;
    config.io_ns_per_byte = 1.0;
    return config;
}

std::shared_ptr<pipeline::ImageFolderDataset>
cacheDataset()
{
    // The paper's IC chain: the stochastic crop leads, so the cached
    // prefix is exactly the Loader stage (store read + decode).
    pipeline::RandomResizedCrop::Params crop;
    crop.size = 96;
    std::vector<pipeline::TransformPtr> transforms;
    transforms.push_back(
        std::make_unique<pipeline::RandomResizedCrop>(crop));
    transforms.push_back(
        std::make_unique<pipeline::RandomHorizontalFlip>(0.5));
    transforms.push_back(std::make_unique<pipeline::ToTensor>());
    return std::make_shared<pipeline::ImageFolderDataset>(
        workloads::buildImageNetStore(cacheScenario()),
        std::make_shared<pipeline::Compose>(std::move(transforms)),
        /*num_classes=*/1000);
}

DataLoaderOptions
cacheOptions(dataflow::CachePolicy policy, std::int64_t budget,
             const std::string &materialize_dir = {})
{
    DataLoaderOptions options;
    options.batch_size = kCacheBatch;
    options.num_workers = kCacheWorkers;
    options.shuffle = true;
    options.seed = kSeed;
    options.cache_policy = policy;
    options.cache_budget_bytes = budget;
    options.materialize_dir = materialize_dir;
    return options;
}

struct CacheResult
{
    std::string name;
    std::int64_t budget_bytes = 0;
    double cold_ms = 0.0;
    double warm_ms = 0.0;
    /** Warm epoch vs the uncached per-epoch baseline. */
    double warm_speedup = 0.0;
    double warm_hit_rate = 0.0;
    std::uint64_t rejects = 0;
    std::uint64_t disk_spills = 0;
    std::uint64_t disk_hits = 0;
};

/** Per-epoch wall ms for @p epochs epochs of one loader. */
std::vector<double>
epochTimes(DataLoader &loader, int epochs)
{
    std::vector<double> times;
    for (int epoch = 0; epoch < epochs; ++epoch) {
        loader.startEpoch();
        const TimeNs start = SteadyClock::instance().now();
        while (loader.next().has_value()) {
        }
        times.push_back(
            static_cast<double>(SteadyClock::instance().now() - start) /
            1e6);
    }
    return times;
}

CacheResult
runCacheConfig(const std::shared_ptr<pipeline::ImageFolderDataset> &dataset,
               const char *name, const DataLoaderOptions &options,
               double uncached_ms)
{
    DataLoader loader(dataset, std::make_shared<pipeline::StackCollate>(),
                      options);
    const auto times = epochTimes(loader, 3);

    CacheResult result;
    result.name = name;
    result.budget_bytes = options.cache_budget_bytes;
    result.cold_ms = times[0];
    result.warm_ms = std::min(times[1], times[2]);
    result.warm_speedup =
        result.warm_ms > 0 ? uncached_ms / result.warm_ms : 0.0;
    if (loader.cache() != nullptr) {
        const auto stats = loader.cache()->stats();
        // Every lookup resolves as exactly one of memory hit, disk
        // hit or miss; epoch 0's kCacheSamples lookups are all misses.
        const std::uint64_t served = stats.hits + stats.disk_hits;
        const std::uint64_t warm_lookups =
            served + stats.misses - kCacheSamples;
        result.warm_hit_rate =
            warm_lookups > 0 ? static_cast<double>(served) /
                                   static_cast<double>(warm_lookups)
                             : 0.0;
        result.rejects = stats.rejects;
        result.disk_spills = stats.disk_spills;
        result.disk_hits = stats.disk_hits;
    }
    return result;
}

/** Batch payloads + labels for @p epochs epochs of one loader. */
std::vector<std::vector<std::uint8_t>>
cacheEpochContent(const std::shared_ptr<pipeline::ImageFolderDataset> &dataset,
                  const DataLoaderOptions &options, int epochs)
{
    DataLoader loader(dataset, std::make_shared<pipeline::StackCollate>(),
                      options);
    std::vector<std::vector<std::uint8_t>> out;
    for (int epoch = 0; epoch < epochs; ++epoch) {
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
        out.push_back(std::move(bytes));
    }
    return out;
}

// --- Io-bound: async read-ahead over a modeled remote store -----------

constexpr std::int64_t kIoSamples = 96;
constexpr int kIoBatch = 8;
constexpr int kIoWorkers = 4;
constexpr int kIoDepth = 32;
constexpr int kIoIoThreads = 2;
// 8 ms keeps the sync-read penalty comfortably above the single-core
// decode floor of the read-ahead run, so the >=2x gate is not judging
// scheduler noise.
constexpr TimeNs kIoRtt = 8 * kMillisecond;

workloads::ImageNetConfig
ioScenario()
{
    workloads::ImageNetConfig config;
    config.num_images = kIoSamples;
    config.median_width = 160.0;
    config.seed = 11;
    // The inner store is instant: every millisecond of I/O lives in
    // the RemoteStore round-trip model, which *sleeps* (a blocking
    // socket wait), so read-ahead can overlap it with decode even on
    // a single core.
    return config;
}

std::shared_ptr<pipeline::RemoteStore>
ioStore()
{
    pipeline::RemoteStoreOptions options;
    options.rtt = kIoRtt;
    return std::make_shared<pipeline::RemoteStore>(
        workloads::buildImageNetStore(ioScenario()), options);
}

std::shared_ptr<pipeline::ImageFolderDataset>
ioDataset(std::shared_ptr<const pipeline::BlobStore> store)
{
    pipeline::RandomResizedCrop::Params crop;
    crop.size = 64;
    std::vector<pipeline::TransformPtr> transforms;
    transforms.push_back(
        std::make_unique<pipeline::RandomResizedCrop>(crop));
    transforms.push_back(
        std::make_unique<pipeline::RandomHorizontalFlip>(0.5));
    transforms.push_back(std::make_unique<pipeline::ToTensor>());
    return std::make_shared<pipeline::ImageFolderDataset>(
        std::move(store),
        std::make_shared<pipeline::Compose>(std::move(transforms)),
        /*num_classes=*/1000);
}

DataLoaderOptions
ioOptions(Schedule schedule, int workers, bool read_ahead,
          dataflow::CachePolicy policy = dataflow::CachePolicy::kNone)
{
    DataLoaderOptions options;
    options.batch_size = kIoBatch;
    options.num_workers = workers;
    options.shuffle = false; // sequential plan: ranges coalesce
    options.seed = kSeed;
    options.schedule = schedule;
    if (read_ahead) {
        options.read_ahead_depth = kIoDepth;
        options.io_threads = kIoIoThreads;
    }
    if (policy != dataflow::CachePolicy::kNone) {
        options.cache_policy = policy;
        options.cache_budget_bytes = std::int64_t{1} << 30;
    }
    return options;
}

struct IoResult
{
    bool read_ahead = false;
    double wall_ms = 0.0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t issued = 0;
    std::uint64_t round_trips = 0;
    std::uint64_t coalesced_reads = 0;
};

IoResult
runIoConfig(const std::shared_ptr<pipeline::RemoteStore> &store,
            const std::shared_ptr<pipeline::ImageFolderDataset> &dataset,
            bool read_ahead)
{
    auto &registry = metrics::MetricsRegistry::instance();
    registry.reset();
    metrics::ScopedEnable enable;
    const std::uint64_t trips_before = store->roundTrips();
    const std::uint64_t coalesced_before = store->coalescedReads();

    DataLoader loader(
        dataset, std::make_shared<pipeline::StackCollate>(),
        ioOptions(Schedule::kRoundRobin, kIoWorkers, read_ahead));
    // Min-of-3: single-core hosts schedule the decode workers and I/O
    // threads noisily enough that min-of-2 wobbles around the gate.
    const auto times = epochTimes(loader, 3);

    IoResult result;
    result.read_ahead = read_ahead;
    result.wall_ms = *std::min_element(times.begin(), times.end());
    result.hits =
        registry.counter(dataflow::kReadAheadHitsMetric)->value();
    result.misses =
        registry.counter(dataflow::kReadAheadMissesMetric)->value();
    result.issued =
        registry.counter(dataflow::kReadAheadIssuedMetric)->value();
    result.round_trips = store->roundTrips() - trips_before;
    result.coalesced_reads = store->coalescedReads() - coalesced_before;
    return result;
}

struct IoReport
{
    IoResult off;
    IoResult on;
    double speedup = 0.0;
    bool speedup_gate = false; ///< read-ahead >= 2x epoch wall
    bool bit_identical = false;
};

// --- Self-driving tuner: live convergence from a bad start ------------

std::string
formatReconfig(const dataflow::LoaderReconfig &config)
{
    return strFormat(
        "%dw pf%d %s ra%d:%d", config.num_workers,
        config.prefetch_factor,
        config.schedule == Schedule::kWorkStealing ? "ws" : "rr",
        config.read_ahead_depth, config.io_threads);
}

struct TunerEpoch
{
    /** Config the epoch actually ran with. */
    std::string config;
    double wall_ms = 0.0;
    /** The controller's verdict at this epoch's end. */
    const char *bottleneck = "";
};

struct LiveTunerRun
{
    std::vector<TunerEpoch> epochs;
    dataflow::LoaderReconfig final_config;
    /** Per-epoch batch payloads+labels, for the bit-identity gate. */
    std::vector<std::vector<std::uint8_t>> contents;
};

/**
 * One epoch's batches, timed and captured. The capture memcpy is
 * noise next to the modelled stalls both scenarios are built from.
 */
std::vector<std::uint8_t>
timedEpoch(DataLoader &loader, double *wall_ms)
{
    loader.startEpoch();
    const TimeNs start = SteadyClock::instance().now();
    std::vector<std::uint8_t> bytes;
    while (auto batch = loader.next()) {
        const std::uint8_t *raw = batch->data.raw();
        bytes.insert(bytes.end(), raw, raw + batch->data.byteSize());
        for (const std::int64_t label : batch->labels) {
            const auto *p = reinterpret_cast<const std::uint8_t *>(&label);
            bytes.insert(bytes.end(), p, p + sizeof(label));
        }
    }
    *wall_ms =
        static_cast<double>(SteadyClock::instance().now() - start) / 1e6;
    return bytes;
}

/**
 * Drive @p epochs epochs with the controller in the loop: each epoch
 * boundary diffs the registry snapshot and applies any reconfig.
 */
LiveTunerRun
runLiveTuner(const std::shared_ptr<const pipeline::Dataset> &dataset,
             const DataLoaderOptions &start,
             const tuner::TunerOptions &tuner_options, int epochs)
{
    auto &registry = metrics::MetricsRegistry::instance();
    registry.reset();
    metrics::ScopedEnable enable;

    DataLoader loader(dataset, std::make_shared<pipeline::StackCollate>(),
                      start);
    tuner::PipelineTuner controller(loader.currentConfig(),
                                    tuner_options);
    controller.onEpochEnd(registry.snapshot()); // baseline

    LiveTunerRun run;
    for (int epoch = 0; epoch < epochs; ++epoch) {
        TunerEpoch record;
        record.config = formatReconfig(loader.currentConfig());
        run.contents.push_back(timedEpoch(loader, &record.wall_ms));
        const tuner::TunerDecision decision =
            controller.onEpochEnd(registry.snapshot());
        record.bottleneck = tuner::bottleneckName(decision.bottleneck);
        run.epochs.push_back(std::move(record));
        if (decision.changed)
            loader.reconfigure(decision.config);
    }
    run.final_config = loader.currentConfig();
    return run;
}

/** The same epochs from a loader fixed at @p config from the start. */
std::vector<std::vector<std::uint8_t>>
fixedRunContents(const std::shared_ptr<const pipeline::Dataset> &dataset,
                 DataLoaderOptions options,
                 const dataflow::LoaderReconfig &config, int epochs)
{
    options.num_workers = config.num_workers;
    options.prefetch_factor = config.prefetch_factor;
    options.schedule = config.schedule;
    options.read_ahead_depth = config.read_ahead_depth;
    options.io_threads = config.io_threads;
    DataLoader loader(dataset, std::make_shared<pipeline::StackCollate>(),
                      options);
    std::vector<std::vector<std::uint8_t>> out;
    for (int epoch = 0; epoch < epochs; ++epoch) {
        double wall_ms = 0.0;
        out.push_back(timedEpoch(loader, &wall_ms));
    }
    return out;
}

struct SweptConfig
{
    std::string config;
    double wall_ms = 0.0;
};

struct TunerScenarioReport
{
    std::vector<SweptConfig> swept;
    std::string best_config;
    double best_ms = 0.0;
    std::vector<TunerEpoch> epochs;
    std::string final_config;
    /** The final config measured with the sweep's own estimator (the
     *  swept wall when the config is in the grid), so the gate scores
     *  the controller's *selection* rather than one live epoch's OS
     *  scheduling noise. */
    double converged_ms = 0.0;
    bool gate = false; ///< converged <= 1.10x best swept
};

struct TunerReport
{
    TunerScenarioReport heavy;
    TunerScenarioReport io;
    bool bit_identical = false; ///< tuned run == fixed-final, both
};

double
sweptOrLiveWall(const TunerScenarioReport &report)
{
    for (const SweptConfig &swept : report.swept)
        if (swept.config == report.final_config)
            return swept.wall_ms;
    // Config off the swept grid: best post-convergence live epoch.
    return std::min(report.epochs[2].wall_ms, report.epochs[3].wall_ms);
}

// --- Multi-tenant service: one shared fleet, N clients ----------------

constexpr std::int64_t kMtSamples = 256;
constexpr int kMtBatch = 4;
// Deliberately larger than one client's submission window (batch 4 x
// prefetch 1 = 4 in-flight samples): a solo tenant underfills the
// fleet, so the 1 -> 4 client scaling gate measures what shared
// tenancy buys. The per-sample cost is mostly a blocking stall, so
// 16 fleet threads overlap fine on any host core count.
constexpr int kMtWorkers = 16;

workloads::HeavyTailCostConfig
mtUniformScenario()
{
    workloads::HeavyTailCostConfig config;
    config.median_cost = kMillisecond;
    config.sigma = 0.05;
    config.straggler_fraction = 0.0;
    config.busy_fraction = 0.02;
    config.seed = 23;
    return config;
}

workloads::HeavyTailCostConfig
mtLightScenario()
{
    auto config = mtUniformScenario();
    config.median_cost = 500 * kMicrosecond;
    config.seed = 29;
    return config;
}

workloads::HeavyTailCostConfig
mtHeavyScenario()
{
    // The noisy neighbor: 10% of samples are 100 ms stragglers.
    auto config = mtUniformScenario();
    config.median_cost = 5 * kMillisecond;
    config.sigma = 0.6;
    config.straggler_fraction = 0.10;
    config.straggler_multiplier = 20.0;
    config.seed = 37;
    return config;
}

service::ClientConfig
mtClientConfig(std::uint64_t seed)
{
    service::ClientConfig config;
    config.batch_size = kMtBatch;
    config.shuffle = true;
    config.seed = seed;
    config.prefetch_batches = 1;
    return config;
}

struct MtReport
{
    double solo_rate = 0.0;      ///< samples/s, 1 client
    double aggregate_rate = 0.0; ///< samples/s, 4 clients
    double scaling = 0.0;
    bool scaling_gate = false; ///< >= 2x aggregate at 4 clients
    double light_solo_p99_ns = 0.0;
    double light_noisy_p99_ns = 0.0;
    double p99_inflation = 0.0;
    bool isolation_gate = false; ///< noisy-neighbor p99 <= 2x solo
    bool bit_identical = false;  ///< every client == its solo loader
};

/** Best-of-3 concurrent epochs' aggregate samples/s for @p n clients
 *  sharing one fleet (every client drives its own epoch thread). */
double
mtAggregateRate(const std::shared_ptr<workloads::HeavyTailCostDataset>
                    &dataset,
                int n)
{
    service::PreprocServer server({.num_workers = kMtWorkers});
    std::vector<std::shared_ptr<service::LoaderClient>> clients;
    for (int i = 0; i < n; ++i)
        clients.push_back(
            server
                .connect(dataset,
                         std::make_shared<pipeline::StackCollate>(),
                         mtClientConfig(kSeed + static_cast<unsigned>(i)))
                .take());
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        const TimeNs start = SteadyClock::instance().now();
        std::vector<std::thread> drivers;
        for (const auto &client : clients)
            drivers.emplace_back([&client] {
                client->startEpoch();
                while (client->next().has_value()) {
                }
            });
        for (auto &driver : drivers)
            driver.join();
        const double secs =
            static_cast<double>(SteadyClock::instance().now() - start) /
            1e9;
        const double rate =
            secs > 0 ? static_cast<double>(n * kMtSamples) / secs : 0.0;
        best = std::max(best, rate);
    }
    return best;
}

/** Every client of a 4-tenant run byte-compared against its own solo
 *  DataLoader (work-stealing, same seed). */
bool
mtBitIdentical(const std::shared_ptr<workloads::HeavyTailCostDataset>
                   &dataset)
{
    service::PreprocServer server({.num_workers = kMtWorkers});
    std::vector<std::shared_ptr<service::LoaderClient>> clients;
    for (int i = 0; i < 4; ++i)
        clients.push_back(
            server
                .connect(dataset,
                         std::make_shared<pipeline::StackCollate>(),
                         mtClientConfig(kSeed + static_cast<unsigned>(i)))
                .take());
    std::vector<std::vector<std::uint8_t>> got(clients.size());
    std::vector<std::thread> drivers;
    for (std::size_t i = 0; i < clients.size(); ++i)
        drivers.emplace_back([&, i] {
            std::vector<std::uint8_t> bytes;
            while (auto batch = clients[i]->next()) {
                const std::uint8_t *raw = batch->data.raw();
                bytes.insert(bytes.end(), raw,
                             raw + batch->data.byteSize());
                for (const std::int64_t label : batch->labels) {
                    const auto *p =
                        reinterpret_cast<const std::uint8_t *>(&label);
                    bytes.insert(bytes.end(), p, p + sizeof(label));
                }
            }
            got[i] = std::move(bytes);
        });
    for (auto &driver : drivers)
        driver.join();
    for (std::size_t i = 0; i < clients.size(); ++i) {
        DataLoaderOptions solo;
        solo.batch_size = kMtBatch;
        solo.num_workers = 2;
        solo.schedule = Schedule::kWorkStealing;
        solo.shuffle = true;
        solo.seed = kSeed + static_cast<unsigned>(i);
        DataLoader loader(dataset,
                          std::make_shared<pipeline::StackCollate>(),
                          solo);
        std::vector<std::uint8_t> expected;
        while (auto batch = loader.next()) {
            const std::uint8_t *raw = batch->data.raw();
            expected.insert(expected.end(), raw,
                            raw + batch->data.byteSize());
            for (const std::int64_t label : batch->labels) {
                const auto *p =
                    reinterpret_cast<const std::uint8_t *>(&label);
                expected.insert(expected.end(), p, p + sizeof(label));
            }
        }
        if (got[i] != expected)
            return false;
    }
    return true;
}

/** Light client's [T2] p99 over 3 epochs, optionally sharing the
 *  fleet with a continuously-replaying heavy-tailed neighbor. Waits
 *  are timed directly around next() (exact nearest-rank p99, not the
 *  metrics histogram's log-bucket upper bound — a one-bucket shift
 *  would swing the inflation ratio by ~2x) and the whole measurement
 *  is best-of-3, since the gate is a ratio of two tail estimates.
 *  The light tenant declares weight 4 — the weighted-fair share a
 *  latency-sensitive job would reserve (DESIGN.md §10). */
double
mtLightP99(const std::shared_ptr<workloads::HeavyTailCostDataset> &light,
           const std::shared_ptr<workloads::HeavyTailCostDataset> &heavy,
           bool with_neighbor)
{
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        service::PreprocServer server({.num_workers = kMtWorkers});
        auto light_config = mtClientConfig(kSeed);
        light_config.weight = 4.0;
        auto light_client =
            server
                .connect(light,
                         std::make_shared<pipeline::StackCollate>(),
                         light_config)
                .take();

        std::atomic<bool> done{false};
        std::thread neighbor;
        std::shared_ptr<service::LoaderClient> heavy_client;
        if (with_neighbor) {
            heavy_client =
                server
                    .connect(heavy,
                             std::make_shared<pipeline::StackCollate>(),
                             mtClientConfig(kSeed + 101))
                    .take();
            neighbor = std::thread([&] {
                // Replay epochs until the light tenant finishes; the
                // abandoned tail drains server-side on disconnect.
                while (!done.load(std::memory_order_acquire)) {
                    heavy_client->startEpoch();
                    while (!done.load(std::memory_order_acquire) &&
                           heavy_client->next().has_value()) {
                    }
                }
            });
        }

        std::vector<double> waits;
        for (int epoch = 0; epoch < 3; ++epoch) {
            light_client->startEpoch();
            for (;;) {
                const TimeNs start = SteadyClock::instance().now();
                auto batch = light_client->next();
                if (!batch.has_value())
                    break;
                waits.push_back(static_cast<double>(
                    SteadyClock::instance().now() - start));
            }
        }
        done.store(true, std::memory_order_release);
        if (neighbor.joinable())
            neighbor.join();

        const double p99 = analysis::percentile(std::move(waits), 99.0);
        if (rep == 0 || p99 < best)
            best = p99;
    }
    return best;
}

MtReport
runMultiTenant()
{
    MtReport report;
    auto uniform = std::make_shared<workloads::HeavyTailCostDataset>(
        kMtSamples, mtUniformScenario());
    report.solo_rate = mtAggregateRate(uniform, 1);
    report.aggregate_rate = mtAggregateRate(uniform, 4);
    report.scaling = report.solo_rate > 0
                         ? report.aggregate_rate / report.solo_rate
                         : 0.0;
    report.scaling_gate = report.scaling >= 2.0;
    report.bit_identical = mtBitIdentical(uniform);

    auto light = std::make_shared<workloads::HeavyTailCostDataset>(
        kMtSamples, mtLightScenario());
    auto heavy = std::make_shared<workloads::HeavyTailCostDataset>(
        kMtSamples, mtHeavyScenario());
    report.light_solo_p99_ns = mtLightP99(light, heavy, false);
    report.light_noisy_p99_ns = mtLightP99(light, heavy, true);
    report.p99_inflation =
        report.light_solo_p99_ns > 0
            ? report.light_noisy_p99_ns / report.light_solo_p99_ns
            : 0.0;
    report.isolation_gate = report.p99_inflation <= 2.0;
    return report;
}

const ConfigResult *
find(const std::vector<ConfigResult> &results, const char *schedule,
     int workers)
{
    for (const auto &result : results) {
        if (std::strcmp(result.schedule, schedule) == 0 &&
            result.workers == workers)
            return &result;
    }
    return nullptr;
}

struct CacheReport
{
    std::vector<CacheResult> results;
    double uncached_ms = 0.0;
    bool bit_identical = false;
    bool oversized_gate = false; ///< warm >= 5x uncached
    bool thrashing_gate = false; ///< warm within 5% of uncached
};

void
writeTunerScenarioJson(std::FILE *out, const char *name,
                       const TunerScenarioReport &report, bool last)
{
    std::fprintf(out, "    \"%s\": {\n      \"swept\": [\n", name);
    for (std::size_t i = 0; i < report.swept.size(); ++i) {
        std::fprintf(out,
                     "        {\"config\": \"%s\", "
                     "\"epoch_wall_ms\": %.2f}%s\n",
                     report.swept[i].config.c_str(),
                     report.swept[i].wall_ms,
                     i + 1 < report.swept.size() ? "," : "");
    }
    std::fprintf(out,
                 "      ],\n"
                 "      \"best_swept_config\": \"%s\",\n"
                 "      \"best_swept_ms\": %.2f,\n"
                 "      \"epochs\": [\n",
                 report.best_config.c_str(), report.best_ms);
    for (std::size_t i = 0; i < report.epochs.size(); ++i) {
        std::fprintf(out,
                     "        {\"config\": \"%s\", "
                     "\"epoch_wall_ms\": %.2f, \"bottleneck\": "
                     "\"%s\"}%s\n",
                     report.epochs[i].config.c_str(),
                     report.epochs[i].wall_ms,
                     report.epochs[i].bottleneck,
                     i + 1 < report.epochs.size() ? "," : "");
    }
    std::fprintf(out,
                 "      ],\n"
                 "      \"final_config\": \"%s\",\n"
                 "      \"converged_epoch_ms\": %.2f,\n"
                 "      \"converged_within_10pct_gate\": %s\n"
                 "    }%s\n",
                 report.final_config.c_str(), report.converged_ms,
                 report.gate ? "true" : "false", last ? "" : ",");
}

int
writeJson(const char *path, const std::vector<ConfigResult> &results,
          bool deterministic, double wall_speedup, double p99_speedup,
          const CacheReport &cache, const IoReport &io,
          const TunerReport &tuner, const MtReport &mt)
{
    std::FILE *out = std::fopen(path, "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n", path);
        return 1;
    }
    const auto config = scenario();
    std::fprintf(out, "{\n  \"schema_version\": 5,\n");
    std::fprintf(out, "  \"bench\": \"bench_loader\",\n");
    std::fprintf(out,
                 "  \"scenario\": {\n"
                 "    \"num_samples\": %lld,\n"
                 "    \"batch_size\": %d,\n"
                 "    \"seed\": %llu,\n"
                 "    \"median_cost_us\": %.1f,\n"
                 "    \"sigma\": %.2f,\n"
                 "    \"straggler_fraction\": %.3f,\n"
                 "    \"straggler_multiplier\": %.1f,\n"
                 "    \"busy_fraction\": %.2f,\n"
                 "    \"cost_model\": \"lognormal + stragglers; "
                 "per-sample cost is %.0f%% CPU spin, rest blocking "
                 "stall\"\n"
                 "  },\n",
                 static_cast<long long>(kNumSamples), kBatchSize,
                 static_cast<unsigned long long>(kSeed),
                 static_cast<double>(config.median_cost) / 1e3,
                 config.sigma, config.straggler_fraction,
                 config.straggler_multiplier, config.busy_fraction,
                 config.busy_fraction * 100.0);
    std::fprintf(out, "  \"configs\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        std::fprintf(out,
                     "    {\"schedule\": \"%s\", \"num_workers\": %d, "
                     "\"epoch_wall_ms\": %.2f, \"t2_wait_p50_ns\": %.0f, "
                     "\"t2_wait_p99_ns\": %.0f, \"steals\": %llu, "
                     "\"tasks\": %llu, \"steal_efficiency\": %.4f}%s\n",
                     r.schedule, r.workers, r.wall_ms, r.wait_p50_ns,
                     r.wait_p99_ns,
                     static_cast<unsigned long long>(r.steals),
                     static_cast<unsigned long long>(r.tasks),
                     r.steal_efficiency,
                     i + 1 < results.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out,
                 "  \"work_stealing_speedup_4_workers\": {\n"
                 "    \"epoch_wall\": %.2f,\n"
                 "    \"t2_wait_p99\": %.2f\n"
                 "  },\n",
                 wall_speedup, p99_speedup);
    std::fprintf(out, "  \"bit_identical_across_schedules\": %s,\n",
                 deterministic ? "true" : "false");

    const auto imagenet = cacheScenario();
    std::fprintf(out,
                 "  \"cache\": {\n"
                 "    \"scenario\": {\n"
                 "      \"num_samples\": %lld,\n"
                 "      \"batch_size\": %d,\n"
                 "      \"num_workers\": %d,\n"
                 "      \"median_width_px\": %.0f,\n"
                 "      \"io_base_us\": %.0f,\n"
                 "      \"io_ns_per_byte\": %.1f,\n"
                 "      \"pipeline\": \"LJPG decode -> "
                 "RandomResizedCrop(96) -> flip -> ToTensor; cached "
                 "prefix = Loader (read+decode)\"\n"
                 "    },\n"
                 "    \"uncached_epoch_ms\": %.2f,\n"
                 "    \"configs\": [\n",
                 static_cast<long long>(kCacheSamples), kCacheBatch,
                 kCacheWorkers, imagenet.median_width,
                 static_cast<double>(imagenet.io_base) / 1e3,
                 imagenet.io_ns_per_byte, cache.uncached_ms);
    for (std::size_t i = 0; i < cache.results.size(); ++i) {
        const auto &r = cache.results[i];
        std::fprintf(
            out,
            "      {\"budget\": \"%s\", \"budget_bytes\": %lld, "
            "\"cold_epoch_ms\": %.2f, \"warm_epoch_ms\": %.2f, "
            "\"warm_speedup_vs_uncached\": %.2f, "
            "\"warm_hit_rate\": %.3f, \"rejects\": %llu, "
            "\"disk_spills\": %llu, \"disk_hits\": %llu}%s\n",
            r.name.c_str(), static_cast<long long>(r.budget_bytes),
            r.cold_ms, r.warm_ms, r.warm_speedup, r.warm_hit_rate,
            static_cast<unsigned long long>(r.rejects),
            static_cast<unsigned long long>(r.disk_spills),
            static_cast<unsigned long long>(r.disk_hits),
            i + 1 < cache.results.size() ? "," : "");
    }
    std::fprintf(out,
                 "    ],\n"
                 "    \"bit_identical_cold_vs_warm\": %s,\n"
                 "    \"oversized_warm_speedup_gate_5x\": %s,\n"
                 "    \"thrashing_overhead_gate_5pct\": %s\n"
                 "  },\n",
                 cache.bit_identical ? "true" : "false",
                 cache.oversized_gate ? "true" : "false",
                 cache.thrashing_gate ? "true" : "false");

    const auto io_scenario = ioScenario();
    std::fprintf(out,
                 "  \"io_bound\": {\n"
                 "    \"scenario\": {\n"
                 "      \"num_samples\": %lld,\n"
                 "      \"batch_size\": %d,\n"
                 "      \"num_workers\": %d,\n"
                 "      \"median_width_px\": %.0f,\n"
                 "      \"remote_rtt_ms\": %.1f,\n"
                 "      \"read_ahead_depth\": %d,\n"
                 "      \"io_threads\": %d,\n"
                 "      \"pipeline\": \"RemoteStore(8 ms RTT) -> LJPG "
                 "decode -> RandomResizedCrop(64) -> flip -> ToTensor; "
                 "sequential plan so ranges coalesce\"\n"
                 "    },\n",
                 static_cast<long long>(kIoSamples), kIoBatch, kIoWorkers,
                 io_scenario.median_width,
                 static_cast<double>(kIoRtt) / 1e6, kIoDepth,
                 kIoIoThreads);
    std::fprintf(out, "    \"configs\": [\n");
    for (const IoResult *r : {&io.off, &io.on}) {
        std::fprintf(
            out,
            "      {\"read_ahead\": %s, \"epoch_wall_ms\": %.2f, "
            "\"hits\": %llu, \"misses\": %llu, \"issued\": %llu, "
            "\"remote_round_trips\": %llu, \"coalesced_reads\": "
            "%llu}%s\n",
            r->read_ahead ? "true" : "false", r->wall_ms,
            static_cast<unsigned long long>(r->hits),
            static_cast<unsigned long long>(r->misses),
            static_cast<unsigned long long>(r->issued),
            static_cast<unsigned long long>(r->round_trips),
            static_cast<unsigned long long>(r->coalesced_reads),
            r == &io.off ? "," : "");
    }
    std::fprintf(out,
                 "    ],\n"
                 "    \"readahead_epoch_wall_speedup\": %.2f,\n"
                 "    \"readahead_speedup_gate_2x\": %s,\n"
                 "    \"bit_identical_readahead\": %s\n"
                 "  },\n",
                 io.speedup, io.speedup_gate ? "true" : "false",
                 io.bit_identical ? "true" : "false");

    std::fprintf(out, "  \"tuner_convergence\": {\n");
    writeTunerScenarioJson(out, "heavy_tailed", tuner.heavy,
                           /*last=*/false);
    writeTunerScenarioJson(out, "io_bound", tuner.io, /*last=*/false);
    std::fprintf(out, "    \"bit_identical_tuned\": %s\n  },\n",
                 tuner.bit_identical ? "true" : "false");

    const auto mt_uniform = mtUniformScenario();
    const auto mt_heavy = mtHeavyScenario();
    std::fprintf(out,
                 "  \"multi_tenant\": {\n"
                 "    \"scenario\": {\n"
                 "      \"num_samples_per_client\": %lld,\n"
                 "      \"batch_size\": %d,\n"
                 "      \"fleet_workers\": %d,\n"
                 "      \"prefetch_batches\": 1,\n"
                 "      \"uniform_cost_us\": %.0f,\n"
                 "      \"neighbor_median_cost_us\": %.0f,\n"
                 "      \"neighbor_straggler_fraction\": %.2f,\n"
                 "      \"neighbor_straggler_multiplier\": %.0f,\n"
                 "      \"light_client_weight\": 4,\n"
                 "      \"pipeline\": \"one PreprocServer fleet; each "
                 "client's window (batch x prefetch) underfills it, so "
                 "scaling measures shared tenancy\"\n"
                 "    },\n"
                 "    \"solo_samples_per_s\": %.0f,\n"
                 "    \"aggregate_4client_samples_per_s\": %.0f,\n"
                 "    \"scaling_1_to_4_clients\": %.2f,\n"
                 "    \"scaling_gate_2x\": %s,\n"
                 "    \"light_t2_p99_solo_ns\": %.0f,\n"
                 "    \"light_t2_p99_noisy_ns\": %.0f,\n"
                 "    \"noisy_neighbor_p99_inflation\": %.2f,\n"
                 "    \"isolation_gate_2x\": %s,\n"
                 "    \"bit_identical_service\": %s\n"
                 "  }\n",
                 static_cast<long long>(kMtSamples), kMtBatch, kMtWorkers,
                 static_cast<double>(mt_uniform.median_cost) / 1e3,
                 static_cast<double>(mt_heavy.median_cost) / 1e3,
                 mt_heavy.straggler_fraction,
                 mt_heavy.straggler_multiplier, mt.solo_rate,
                 mt.aggregate_rate, mt.scaling,
                 mt.scaling_gate ? "true" : "false", mt.light_solo_p99_ns,
                 mt.light_noisy_p99_ns, mt.p99_inflation,
                 mt.isolation_gate ? "true" : "false",
                 mt.bit_identical ? "true" : "false");
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote %s\n", path);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0)
            json = true;
    }

    auto dataset = std::make_shared<workloads::HeavyTailCostDataset>(
        kNumSamples, scenario());
    std::printf("heavy-tailed scenario: %lld samples, total cost %.0f ms, "
                "max sample %.1f ms\n",
                static_cast<long long>(kNumSamples),
                static_cast<double>(dataset->totalCost()) / 1e6,
                [&] {
                    TimeNs worst = 0;
                    for (std::int64_t i = 0; i < dataset->size(); ++i)
                        worst = std::max(worst, dataset->costOf(i));
                    return static_cast<double>(worst) / 1e6;
                }());

    // Bit-identity across schedules and worker counts (same seed):
    // the acceptance gate for the per-sample RNG reseeding contract.
    const auto reference = epochContent(dataset, Schedule::kRoundRobin, 4);
    const bool deterministic =
        reference == epochContent(dataset, Schedule::kWorkStealing, 4) &&
        reference == epochContent(dataset, Schedule::kRoundRobin, 0);
    std::printf("bit-identical across schedules + sync: %s\n",
                deterministic ? "yes" : "NO — DETERMINISM BROKEN");

    std::vector<ConfigResult> results;
    std::printf("%-14s %8s %12s %14s %14s %8s %8s %7s\n", "schedule",
                "workers", "wall_ms", "t2_p50", "t2_p99", "steals",
                "tasks", "eff");
    for (const int workers : {1, 2, 4, 8}) {
        for (const Schedule schedule :
             {Schedule::kRoundRobin, Schedule::kWorkStealing}) {
            const ConfigResult r = runConfig(dataset, schedule, workers);
            std::printf("%-14s %8d %12.2f %14.0f %14.0f %8llu %8llu "
                        "%7.3f\n",
                        r.schedule, r.workers, r.wall_ms, r.wait_p50_ns,
                        r.wait_p99_ns,
                        static_cast<unsigned long long>(r.steals),
                        static_cast<unsigned long long>(r.tasks),
                        r.steal_efficiency);
            results.push_back(r);
        }
    }

    const ConfigResult *rr4 = find(results, "round_robin", 4);
    const ConfigResult *ws4 = find(results, "work_stealing", 4);
    const double wall_speedup =
        ws4->wall_ms > 0 ? rr4->wall_ms / ws4->wall_ms : 0.0;
    const double p99_speedup = ws4->wait_p99_ns > 0
                                   ? rr4->wait_p99_ns / ws4->wait_p99_ns
                                   : 0.0;
    std::printf("4-worker work-stealing vs round-robin: wall %.2fx, "
                "[T2] p99 %.2fx\n",
                wall_speedup, p99_speedup);

    // --- Decoded-sample cache: cold vs warm -------------------------
    auto image_dataset = cacheDataset();
    CacheReport cache;

    // Uncached baseline: every epoch repeats the full Loader work, so
    // per-epoch cost is flat; take the min of 3 as the trimmed value.
    // It is the first decode-heavy loader in the process, and the
    // first second or so of sustained 4-worker decode runs slower than
    // steady state (on a 4-vCPU VM: ~300 ms epochs before, ~100 ms
    // after, so one discarded epoch is not enough). Epochs are
    // discarded for kCacheWarmup first, so the baseline is measured
    // as warm as the cached configs that follow it.
    {
        DataLoader loader(image_dataset,
                          std::make_shared<pipeline::StackCollate>(),
                          cacheOptions(dataflow::CachePolicy::kNone, 0));
        const TimeNs warm_until =
            SteadyClock::instance().now() + kCacheWarmup;
        do {
            epochTimes(loader, 1);
        } while (SteadyClock::instance().now() < warm_until);
        const auto times = epochTimes(loader, 3);
        cache.uncached_ms =
            *std::min_element(times.begin(), times.end());
    }
    std::printf("\nimagenet-like IC scenario: %lld samples, uncached "
                "epoch %.2f ms\n",
                static_cast<long long>(kCacheSamples), cache.uncached_ms);

    // Working set = every decoded sample resident (measured with an
    // effectively unlimited budget); the tight and thrashing budgets
    // are fractions of it.
    std::int64_t working_set = 0;
    {
        DataLoader loader(
            image_dataset, std::make_shared<pipeline::StackCollate>(),
            cacheOptions(dataflow::CachePolicy::kMemory,
                         std::int64_t{4} << 30));
        epochTimes(loader, 1);
        working_set = loader.cache()->stats().bytes;
    }
    std::printf("decoded working set: %.1f MiB\n",
                static_cast<double>(working_set) / (1024.0 * 1024.0));

    const TempDir spill_dir("bench_loader_spills");
    struct BudgetCase
    {
        const char *name;
        dataflow::CachePolicy policy;
        std::int64_t budget;
        std::string dir;
    };
    // 4x: well above the working set, so the oversized case really
    // holds every sample resident (zero warm misses).
    const BudgetCase cases[] = {
        {"oversized", dataflow::CachePolicy::kMemory, 4 * working_set, {}},
        {"tight", dataflow::CachePolicy::kMemory, working_set / 2, {}},
        {"thrashing", dataflow::CachePolicy::kMemory, working_set / 16,
         {}},
        {"materialized", dataflow::CachePolicy::kMaterialize,
         working_set / 16, spill_dir.file("spills")},
    };
    std::printf("%-14s %12s %10s %10s %9s %8s %10s %10s\n", "budget",
                "budget_mb", "cold_ms", "warm_ms", "speedup", "hit%",
                "rejects", "disk_hits");
    for (const BudgetCase &c : cases) {
        const CacheResult r = runCacheConfig(
            image_dataset, c.name,
            cacheOptions(c.policy, c.budget, c.dir), cache.uncached_ms);
        std::printf("%-14s %12.1f %10.2f %10.2f %8.2fx %7.1f%% %10llu "
                    "%10llu\n",
                    r.name.c_str(),
                    static_cast<double>(r.budget_bytes) /
                        (1024.0 * 1024.0),
                    r.cold_ms, r.warm_ms, r.warm_speedup,
                    r.warm_hit_rate * 100.0,
                    static_cast<unsigned long long>(r.rejects),
                    static_cast<unsigned long long>(r.disk_hits));
        cache.results.push_back(r);
    }

    // Gates: warm epochs must repay the cache (oversized >= 5x) and a
    // useless budget must not tax the pipeline (thrashing <= +5%).
    cache.oversized_gate = cache.results[0].warm_speedup >= 5.0;
    cache.thrashing_gate =
        cache.results[2].warm_ms <= cache.uncached_ms * 1.05;

    // Cold-vs-warm bit-identity: cached epochs must replay the exact
    // uncached stream (prefix replay + suffix reseeding contract).
    cache.bit_identical =
        cacheEpochContent(image_dataset,
                          cacheOptions(dataflow::CachePolicy::kNone, 0),
                          2) ==
        cacheEpochContent(image_dataset,
                          cacheOptions(dataflow::CachePolicy::kMemory,
                                       4 * working_set),
                          2);
    std::printf("cache gates: oversized>=5x %s, thrashing<=+5%% %s, "
                "cold-vs-warm bit-identical %s\n",
                cache.oversized_gate ? "PASS" : "FAIL",
                cache.thrashing_gate ? "PASS" : "FAIL",
                cache.bit_identical ? "yes" : "NO — DETERMINISM BROKEN");

    // --- Io-bound: read-ahead over the modeled remote store ---------
    auto remote_store = ioStore();
    auto io_dataset = ioDataset(remote_store);
    IoReport io;
    std::printf("\nio-bound scenario: %lld samples behind a %.0f ms RTT "
                "remote store, %d workers\n",
                static_cast<long long>(kIoSamples),
                static_cast<double>(kIoRtt) / 1e6, kIoWorkers);
    io.off = runIoConfig(remote_store, io_dataset, false);
    io.on = runIoConfig(remote_store, io_dataset, true);
    io.speedup = io.on.wall_ms > 0 ? io.off.wall_ms / io.on.wall_ms : 0.0;
    io.speedup_gate = io.speedup >= 2.0;
    std::printf("%-12s %10s %8s %8s %8s %12s %10s\n", "read_ahead",
                "wall_ms", "hits", "misses", "issued", "round_trips",
                "coalesced");
    for (const IoResult *r : {&io.off, &io.on})
        std::printf("%-12s %10.2f %8llu %8llu %8llu %12llu %10llu\n",
                    r->read_ahead ? "on" : "off", r->wall_ms,
                    static_cast<unsigned long long>(r->hits),
                    static_cast<unsigned long long>(r->misses),
                    static_cast<unsigned long long>(r->issued),
                    static_cast<unsigned long long>(r->round_trips),
                    static_cast<unsigned long long>(r->coalesced_reads));

    // Bit-identity: read-ahead moves *when* bytes are read, never what
    // is decoded. Reference = round-robin without read-ahead; each
    // read-ahead path must replay it exactly, on both the cold epoch
    // (reads through the prefetch window) and the cache-warm epoch
    // (the window is bypassed entirely).
    const auto io_reference = cacheEpochContent(
        io_dataset,
        ioOptions(Schedule::kRoundRobin, kIoWorkers, false,
                  dataflow::CachePolicy::kMemory),
        2);
    io.bit_identical =
        io_reference == cacheEpochContent(
                            io_dataset,
                            ioOptions(Schedule::kRoundRobin, kIoWorkers,
                                      true,
                                      dataflow::CachePolicy::kMemory),
                            2) &&
        io_reference == cacheEpochContent(
                            io_dataset,
                            ioOptions(Schedule::kWorkStealing,
                                      kIoWorkers, true,
                                      dataflow::CachePolicy::kMemory),
                            2) &&
        io_reference == cacheEpochContent(
                            io_dataset,
                            ioOptions(Schedule::kRoundRobin, 0, true,
                                      dataflow::CachePolicy::kMemory),
                            2);
    std::printf("read-ahead gates: speedup>=2x %s (%.2fx), "
                "bit-identical rr/ws/sync cold+warm %s\n",
                io.speedup_gate ? "PASS" : "FAIL", io.speedup,
                io.bit_identical ? "yes" : "NO — DETERMINISM BROKEN");

    // --- Self-driving tuner: convergence from a bad start -----------
    TunerReport tuner_report;

    // Heavy-tailed: the measured optimum is the schedule sweep above.
    for (const ConfigResult &r : results) {
        SweptConfig swept;
        swept.config = strFormat(
            "%dw pf2 %s ra0:0", r.workers,
            std::strcmp(r.schedule, "work_stealing") == 0 ? "ws" : "rr");
        swept.wall_ms = r.wall_ms;
        if (tuner_report.heavy.best_ms == 0.0 ||
            r.wall_ms < tuner_report.heavy.best_ms) {
            tuner_report.heavy.best_ms = r.wall_ms;
            tuner_report.heavy.best_config = swept.config;
        }
        tuner_report.heavy.swept.push_back(std::move(swept));
    }

    DataLoaderOptions heavy_start =
        loaderOptions(Schedule::kRoundRobin, 1);
    heavy_start.prefetch_factor = 1;
    tuner::TunerOptions heavy_tuner;
    heavy_tuner.max_workers = 8;
    const LiveTunerRun heavy_run =
        runLiveTuner(dataset, heavy_start, heavy_tuner, 4);
    tuner_report.heavy.epochs = heavy_run.epochs;
    tuner_report.heavy.final_config =
        formatReconfig(heavy_run.final_config);
    // The controller needs one epoch to see traffic and one more to
    // see the straggler skew, so convergence must land by epoch 2.
    tuner_report.heavy.converged_ms =
        sweptOrLiveWall(tuner_report.heavy);
    tuner_report.heavy.gate = tuner_report.heavy.converged_ms <=
                              tuner_report.heavy.best_ms * 1.10;

    std::printf("\ntuner (heavy-tailed) from %s:\n",
                heavy_run.epochs[0].config.c_str());
    for (const TunerEpoch &epoch : heavy_run.epochs)
        std::printf("  %-20s %8.2fms  -> %s\n", epoch.config.c_str(),
                    epoch.wall_ms, epoch.bottleneck);
    std::printf("  converged %.2fms vs best swept %.2fms (%s) %s\n",
                tuner_report.heavy.converged_ms,
                tuner_report.heavy.best_ms,
                tuner_report.heavy.best_config.c_str(),
                tuner_report.heavy.gate ? "PASS" : "FAIL");

    // Io-bound: sweep workers x read-ahead on a TracedStore-wrapped
    // remote (the tuner's store signal is the lotus_store_read_ns
    // histogram TracedStore records), then converge live on it.
    auto traced_dataset = ioDataset(
        std::make_shared<pipeline::TracedStore>(ioStore()));
    {
        metrics::ScopedEnable enable;
        for (const bool read_ahead : {false, true}) {
            for (const int workers : {1, 2, 4}) {
                DataLoader loader(
                    traced_dataset,
                    std::make_shared<pipeline::StackCollate>(),
                    ioOptions(Schedule::kRoundRobin, workers,
                              read_ahead));
                const auto times = epochTimes(loader, 3);
                SweptConfig swept;
                swept.config = strFormat(
                    "%dw pf2 rr ra%d:%d", workers,
                    read_ahead ? kIoDepth : 0,
                    read_ahead ? kIoIoThreads : 0);
                swept.wall_ms =
                    *std::min_element(times.begin(), times.end());
                if (tuner_report.io.best_ms == 0.0 ||
                    swept.wall_ms < tuner_report.io.best_ms) {
                    tuner_report.io.best_ms = swept.wall_ms;
                    tuner_report.io.best_config = swept.config;
                }
                tuner_report.io.swept.push_back(std::move(swept));
            }
        }
    }

    DataLoaderOptions io_start =
        ioOptions(Schedule::kRoundRobin, 1, false);
    io_start.prefetch_factor = 1;
    tuner::TunerOptions io_tuner;
    // Decode here is a real CPU spin (unlike the heavy-tailed
    // scenario's blocking stalls), so the worker ceiling is the host's
    // core budget — the guidance tuner.h gives callers.
    io_tuner.max_workers = std::max(
        1, std::min(kIoWorkers,
                    static_cast<int>(
                        std::thread::hardware_concurrency())));
    io_tuner.max_read_ahead_depth = kIoDepth;
    io_tuner.read_ahead_io_threads = kIoIoThreads;
    io_tuner.allow_schedule_flip = false; // match the swept grid
    const LiveTunerRun io_run =
        runLiveTuner(traced_dataset, io_start, io_tuner, 4);
    tuner_report.io.epochs = io_run.epochs;
    tuner_report.io.final_config = formatReconfig(io_run.final_config);
    tuner_report.io.converged_ms = sweptOrLiveWall(tuner_report.io);
    tuner_report.io.gate = tuner_report.io.converged_ms <=
                           tuner_report.io.best_ms * 1.10;

    std::printf("tuner (io-bound) from %s:\n",
                io_run.epochs[0].config.c_str());
    for (const TunerEpoch &epoch : io_run.epochs)
        std::printf("  %-20s %8.2fms  -> %s\n", epoch.config.c_str(),
                    epoch.wall_ms, epoch.bottleneck);
    std::printf("  converged %.2fms vs best swept %.2fms (%s) %s\n",
                tuner_report.io.converged_ms, tuner_report.io.best_ms,
                tuner_report.io.best_config.c_str(),
                tuner_report.io.gate ? "PASS" : "FAIL");

    // Bit-identity: the tuned runs' epochs must byte-match a loader
    // fixed at the final config from epoch 0 (the reconfiguration
    // knobs are all content-neutral — DESIGN.md §14).
    tuner_report.bit_identical =
        heavy_run.contents == fixedRunContents(dataset, heavy_start,
                                               heavy_run.final_config,
                                               4) &&
        io_run.contents == fixedRunContents(traced_dataset, io_start,
                                            io_run.final_config, 4);
    std::printf("tuner gates: heavy %s, io %s, tuned-vs-fixed "
                "bit-identical %s\n",
                tuner_report.heavy.gate ? "PASS" : "FAIL",
                tuner_report.io.gate ? "PASS" : "FAIL",
                tuner_report.bit_identical ? "yes"
                                           : "NO — DETERMINISM BROKEN");

    // --- Multi-tenant service: shared fleet, 1 vs 4 clients ---------
    const MtReport mt = runMultiTenant();
    std::printf("\nmulti-tenant service: %d fleet workers, %lld samples "
                "per client\n",
                kMtWorkers, static_cast<long long>(kMtSamples));
    std::printf("  solo %.0f samples/s, 4 clients %.0f samples/s "
                "aggregate -> %.2fx scaling (gate >=2x %s)\n",
                mt.solo_rate, mt.aggregate_rate, mt.scaling,
                mt.scaling_gate ? "PASS" : "FAIL");
    std::printf("  light [T2] p99 %.2f ms solo, %.2f ms with noisy "
                "neighbor -> %.2fx inflation (gate <=2x %s)\n",
                mt.light_solo_p99_ns / 1e6, mt.light_noisy_p99_ns / 1e6,
                mt.p99_inflation, mt.isolation_gate ? "PASS" : "FAIL");
    std::printf("  per-client bit-identical to solo loaders: %s\n",
                mt.bit_identical ? "yes" : "NO — DETERMINISM BROKEN");

    if (json)
        return writeJson("BENCH_loader.json", results, deterministic,
                         wall_speedup, p99_speedup, cache, io,
                         tuner_report, mt);
    return 0;
}
