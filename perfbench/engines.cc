#include "engines.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <thread>

#include "common/logging.h"
#include "common/rng.h"
#include "dataflow/data_loader.h"
#include "dataflow/error_policy.h"
#include "image/codec/codec.h"
#include "pipeline/image_folder.h"
#include "pipeline/transforms/volumetric.h"
#include "pipeline/volume_dataset.h"
#include "service/loader_client.h"
#include "service/preproc_server.h"
#include "workloads/synthetic.h"

namespace perfbench {

using namespace lotus;
using lotus::dataflow::DataLoader;
using lotus::dataflow::DataLoaderOptions;
using lotus::pipeline::Batch;
using lotus::pipeline::BlobStore;
using lotus::pipeline::InMemoryStore;
using lotus::workloads::Workload;

namespace {

// ic_steal_local, and the IC tenant.
constexpr std::int64_t kIcImages = 256;
constexpr double kIcMedianWidth = 400.0;
constexpr int kIcBatch = 16;
constexpr int kIcCrop = 224;
/** ImageFolderDataset's label modulus in workloads::makeImageClassification. */
constexpr std::int64_t kIcClasses = 1000;

// od_remote_cached.
constexpr std::int64_t kOdImages = 128;
constexpr int kOdBatch = 8;
constexpr int kOdShorter = 256;
constexpr int kOdMax = 512;
/** ImageFolderDataset's label modulus in workloads::makeObjectDetection. */
constexpr std::int64_t kOdClasses = 80;
constexpr TimeNs kOdRtt = 8 * kMillisecond;
constexpr double kOdBytesPerNs = 0.05; // 50 MB/s per connection
constexpr int kOdConnections = 4;
/** Cache budget as a share of the decoded (post-Resize) working set:
 *  small enough that the cache evicts under per-epoch reshuffle. */
constexpr double kOdCacheShare = 0.4;
constexpr int kOdReadAheadDepth = 32;
constexpr int kOdIoThreads = 2;

// The IS tenant.
constexpr std::int64_t kIsVolumes = 32;
constexpr int kIsBatch = 2;
constexpr std::int64_t kIsPatch = 64;

TimeNs
now()
{
    return SteadyClock::instance().now();
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** Seed of shard @p shard of input set @p set under workload seed. */
std::uint64_t
shardSeed(std::uint64_t seed, std::uint64_t set, std::uint64_t shard)
{
    return splitmix64(splitmix64(seed) ^ (set << 32) ^ shard);
}

/** Standard normal quantile of @p p, by bisection on erfc. */
double
normalQuantile(double p)
{
    double lo = -10.0, hi = 10.0;
    for (int i = 0; i < 80; ++i) {
        const double mid = 0.5 * (lo + hi);
        (0.5 * std::erfc(-mid / std::sqrt(2.0)) < p ? lo : hi) = mid;
    }
    return 0.5 * (lo + hi);
}

/**
 * @p n sizes from the generators' lognormal draw, median *
 * exp(sigma * z), but stratified: z runs through the standard normal
 * quantiles of (i + 0.5) / n and @p seed only shuffles them. Every
 * seed then gets the same size histogram, largest images included,
 * so a run's work and peak memory do not hinge on how many large
 * images one seed happened to draw.
 */
std::vector<double>
stratifiedSizes(std::int64_t n, double median, double sigma,
                std::uint64_t seed)
{
    std::vector<double> sizes;
    for (std::int64_t i = 0; i < n; ++i)
        sizes.push_back(median *
                        std::exp(sigma * normalQuantile(
                                             (static_cast<double>(i) + 0.5) /
                                             static_cast<double>(n))));
    Rng rng(seed);
    for (std::size_t i = sizes.size(); i > 1; --i)
        std::swap(sizes[i - 1], sizes[rng.nextBelow(i)]);
    return sizes;
}

/** Run @p tasks on kWorkers threads. */
void
runOnWorkers(const std::vector<std::function<void()>> &tasks)
{
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kWorkers; ++t) {
        threads.emplace_back([&] {
            for (std::size_t i = next++; i < tasks.size(); i = next++)
                tasks[i]();
        });
    }
    for (auto &thread : threads)
        thread.join();
}

/** Shard sizes summing to @p total, kWorkers of them. */
std::int64_t
shardSize(std::int64_t total, int shard)
{
    return total / kWorkers + (shard < total % kWorkers ? 1 : 0);
}

std::shared_ptr<InMemoryStore>
concat(const std::vector<std::shared_ptr<InMemoryStore>> &shards)
{
    auto merged = std::make_shared<InMemoryStore>();
    for (const auto &shard : shards) {
        for (std::int64_t i = 0; i < shard->size(); ++i)
            merged->add(shard->read(i));
    }
    return merged;
}

/** Bytes of the Resize(kOdShorter, kOdMax) output for a w x h RGB
 *  image: the size of one prefix-stage sample in the cache. */
std::int64_t
resizedBytes(int width, int height)
{
    double factor = static_cast<double>(kOdShorter) / std::min(width, height);
    factor = std::min(factor,
                      static_cast<double>(kOdMax) / std::max(width, height));
    const auto w = std::max<std::int64_t>(1, std::lround(width * factor));
    const auto h = std::max<std::int64_t>(1, std::lround(height * factor));
    return w * h * 3;
}

/** 64-bit fold of a batch stream (word-wise multiply-xorshift). */
class Digest
{
  public:
    void
    fold(const Batch &batch)
    {
        mix(static_cast<std::uint64_t>(batch.batch_id));
        for (const std::int64_t label : batch.labels)
            mix(static_cast<std::uint64_t>(label));
        for (const std::int64_t dim : batch.data.shape())
            mix(static_cast<std::uint64_t>(dim));
        const std::uint8_t *bytes = batch.data.raw();
        const std::size_t size = batch.data.byteSize();
        std::size_t i = 0;
        for (; i + 8 <= size; i += 8) {
            std::uint64_t word = 0;
            std::memcpy(&word, bytes + i, 8);
            mix(word);
        }
        std::uint64_t tail = 0;
        if (i < size)
            std::memcpy(&tail, bytes + i, size - i);
        mix(tail ^ size);
    }

    std::uint64_t value() const { return state_; }

  private:
    void
    mix(std::uint64_t word)
    {
        state_ = (state_ ^ word) * 0x9FB21C651E98DF25ull;
        state_ ^= state_ >> 29;
    }

    std::uint64_t state_ = 0x243F6A8885A308D3ull;
};

/** A Stream that owns its DataLoader or LoaderClient. */
template <typename LoaderPtr>
class OwningStream : public Stream
{
  public:
    OwningStream(std::string name, LoaderPtr loader)
        : Stream(std::move(name)), loader_(std::move(loader))
    {
    }

  protected:
    void startEpoch() override { loader_->startEpoch(); }
    std::optional<Batch> next() override { return loader_->next(); }

  private:
    LoaderPtr loader_;
};

DataLoaderOptions
loaderOptions(int batch_size, std::uint64_t seed, int num_workers)
{
    DataLoaderOptions options;
    options.batch_size = batch_size;
    options.num_workers = num_workers;
    options.shuffle = true;
    options.seed = seed;
    return options;
}

using LoaderStream = OwningStream<std::unique_ptr<DataLoader>>;
using ClientStream = OwningStream<std::shared_ptr<service::LoaderClient>>;

std::unique_ptr<Stream>
loaderStream(std::string name, const Workload &workload,
             DataLoaderOptions options)
{
    return std::make_unique<LoaderStream>(
        std::move(name), std::make_unique<DataLoader>(
                             workload.dataset, workload.collate, options));
}

pipeline::RemoteStoreOptions
remoteOptions()
{
    pipeline::RemoteStoreOptions options;
    options.rtt = kOdRtt;
    options.bytes_per_ns = kOdBytesPerNs;
    options.max_inflight = kOdConnections;
    return options;
}

std::shared_ptr<pipeline::Compose>
wrapCompose(const pipeline::Compose &plain, Probes &probes)
{
    auto wrapped = std::make_shared<pipeline::Compose>();
    for (std::size_t i = 0; i < plain.size(); ++i)
        wrapped->add(
            std::make_unique<TimedTransform>(plain.transform(i), probes));
    return wrapped;
}

/** The plain IC/OD workload re-assembled around the decorators. The
 *  decorated transforms refer to @p plain's, kept alive in @p keep. */
Workload
traceImageFolder(const Workload &plain,
                 std::shared_ptr<const BlobStore> store,
                 std::int64_t num_classes, Probes &probes,
                 std::vector<std::shared_ptr<const void>> &keep)
{
    const auto *folder =
        dynamic_cast<const pipeline::ImageFolderDataset *>(
            plain.dataset.get());
    LOTUS_ASSERT(folder != nullptr, "IC/OD dataset is not an ImageFolder");
    keep.push_back(plain.dataset);
    Workload traced;
    traced.dataset = std::make_shared<TimedDataset>(
        std::make_shared<pipeline::ImageFolderDataset>(
            std::make_shared<TimedStore>(std::move(store), probes),
            wrapCompose(folder->transforms(), probes), num_classes),
        probes);
    traced.collate = std::make_shared<TimedCollate>(plain.collate, probes);
    return traced;
}

/** The IS workload around the decorators. VolumeDataset does not
 *  expose its transforms, so this spells out the chain of
 *  workloads::makeImageSegmentation; the digest check against the
 *  untraced engine proves the two agree. */
Workload
traceVolumes(std::shared_ptr<const BlobStore> store, Probes &probes,
             std::vector<std::shared_ptr<const void>> &keep)
{
    using namespace lotus::pipeline;
    auto plain = std::make_shared<Compose>();
    RandBalancedCrop::Params rbc;
    rbc.patch = {kIsPatch, kIsPatch, kIsPatch};
    rbc.oversampling = 0.4;
    rbc.foreground_threshold = 200.0f;
    plain->add(std::make_unique<RandBalancedCrop>(rbc));
    plain->add(std::make_unique<RandomFlip>(1.0 / 3.0));
    plain->add(std::make_unique<Cast>(tensor::DType::F32));
    plain->add(std::make_unique<RandomBrightnessAugmentation>(0.3, 0.1));
    plain->add(std::make_unique<GaussianNoise>(0.0f, 3.0f, 0.1));
    keep.push_back(plain);
    Workload traced;
    traced.dataset = std::make_shared<TimedDataset>(
        std::make_shared<VolumeDataset>(
            std::make_shared<TimedStore>(std::move(store), probes),
            wrapCompose(*plain, probes)),
        probes);
    traced.collate = std::make_shared<TimedCollate>(
        std::make_shared<StackCollate>(), probes);
    return traced;
}

/** User + system CPU seconds of this process so far. */
double
cpuSeconds()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) / 1e6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

} // namespace

std::optional<WorkloadId>
parseWorkload(const std::string &name)
{
    if (name == "ic_steal_local")
        return WorkloadId::kIcStealLocal;
    if (name == "od_remote_cached")
        return WorkloadId::kOdRemoteCached;
    if (name == "tenants_ic_is")
        return WorkloadId::kTenantsIcIs;
    return std::nullopt;
}

Inputs
makeInputs(WorkloadId workload, std::uint64_t seed)
{
    const bool od = workload == WorkloadId::kOdRemoteCached;
    const bool volumes = workload == WorkloadId::kTenantsIcIs;
    // Images one at a time at stratified widths; each call's own seed
    // draws the aspect ratio, detail and content as usual.
    const std::vector<double> widths =
        od ? stratifiedSizes(kOdImages, workloads::CocoConfig{}.median_width,
                             workloads::CocoConfig{}.width_sigma,
                             shardSeed(seed, 1, 0))
           : stratifiedSizes(kIcImages, kIcMedianWidth,
                             workloads::ImageNetConfig{}.width_sigma,
                             shardSeed(seed, 0, 0));
    std::vector<std::shared_ptr<InMemoryStore>> image_shards(widths.size());
    std::vector<std::shared_ptr<InMemoryStore>> volume_shards(kWorkers);
    std::vector<std::function<void()>> tasks;
    for (std::size_t i = 0; i < widths.size(); ++i) {
        tasks.emplace_back([&, i] {
            const std::uint64_t image_seed = shardSeed(seed, od ? 1 : 0, i + 1);
            if (od) {
                workloads::CocoConfig config;
                config.num_images = 1;
                config.median_width = widths[i];
                config.width_sigma = 0.0;
                config.seed = image_seed;
                image_shards[i] = workloads::buildCocoStore(config);
            } else {
                workloads::ImageNetConfig config;
                config.num_images = 1;
                config.median_width = widths[i];
                config.width_sigma = 0.0;
                config.seed = image_seed;
                image_shards[i] = workloads::buildImageNetStore(config);
            }
        });
    }
    for (int k = 0; volumes && k < kWorkers; ++k) {
        tasks.emplace_back([&, k] {
            workloads::Kits19Config config;
            config.num_volumes = shardSize(kIsVolumes, k);
            config.seed = shardSeed(seed, 2, k);
            volume_shards[k] = workloads::buildKits19Store(config);
        });
    }
    runOnWorkers(tasks);

    Inputs inputs;
    inputs.images = concat(image_shards);
    if (volumes)
        inputs.volumes = concat(volume_shards);
    if (od) {
        std::int64_t working_set = 0;
        for (std::int64_t i = 0; i < inputs.images->size(); ++i) {
            const auto header =
                image::codec::peekHeader(inputs.images->read(i));
            working_set += resizedBytes(header.width, header.height);
        }
        inputs.cache_budget_bytes = static_cast<std::int64_t>(
            kOdCacheShare * static_cast<double>(working_set));
    }
    return inputs;
}

// --- Stream ----------------------------------------------------------

bool
Stream::runEpoch(StreamWindow &window)
{
    const bool fold = epochs_started_ < 2;
    ++epochs_started_;
    Digest digest;
    try {
        startEpoch();
        for (;;) {
            const TimeNs asked = now();
            std::optional<Batch> batch = next();
            const TimeNs got = now();
            if (!batch)
                break;
            window.wait_ms.push_back(static_cast<double>(got - asked) / 1e6);
            window.samples += batch->size();
            ++window.batches;
            if (fold)
                digest.fold(*batch);
        }
    } catch (const dataflow::LoaderError &error) {
        ++window.failed;
        window.error = error.what();
        return false;
    }
    if (fold)
        digests_.push_back(digest.value());
    ++window.epochs;
    return true;
}

StreamWindow
Stream::run(TimeNs deadline)
{
    StreamWindow window;
    while (runEpoch(window) && now() < deadline) {
    }
    window.end = now();
    return window;
}

// --- Engine ----------------------------------------------------------

Engine::~Engine() = default;

std::int64_t
Window::samples() const
{
    std::int64_t total = 0;
    for (const auto &stream : streams)
        total += stream.samples;
    return total;
}

Window
Engine::window(double seconds)
{
    Window result;
    result.streams.resize(streams_.size());
    const TimeNs start = now();
    const double cpu_start = cpuSeconds();
    const TimeNs deadline =
        start + static_cast<TimeNs>(seconds * static_cast<double>(kSecond));
    std::vector<std::thread> consumers;
    for (std::size_t i = 0; i < streams_.size(); ++i) {
        consumers.emplace_back(
            [&, i] { result.streams[i] = streams_[i]->run(deadline); });
    }
    for (auto &consumer : consumers)
        consumer.join();
    result.cpu_s = cpuSeconds() - cpu_start;
    TimeNs end = start;
    for (const auto &stream : result.streams)
        end = std::max(end, stream.end);
    result.wall_s = static_cast<double>(end - start) / 1e9;
    return result;
}

std::unique_ptr<Engine>
buildEngine(WorkloadId workload, const Inputs &inputs, std::uint64_t seed,
            bool traced)
{
    std::unique_ptr<Engine> engine(new Engine());
    Probes *probes = nullptr;
    trace::TraceLogger *logger = nullptr;
    if (traced) {
        engine->instruments_ = std::make_unique<Instruments>();
        probes = &engine->instruments_->probes;
        logger = &engine->instruments_->logger;
    }
    auto &keep = engine->keep_alive_;

    switch (workload) {
    case WorkloadId::kIcStealLocal: {
        Workload ic =
            workloads::makeImageClassification(inputs.images, kIcCrop);
        if (traced)
            ic = traceImageFolder(ic, inputs.images, kIcClasses, *probes,
                                  keep);
        DataLoaderOptions options = loaderOptions(kIcBatch, seed, kWorkers);
        options.schedule = dataflow::Schedule::kWorkStealing;
        options.logger = logger;
        auto loader =
            std::make_unique<DataLoader>(ic.dataset, ic.collate, options);
        engine->loader_ = loader.get();
        engine->streams_.push_back(
            std::make_unique<LoaderStream>("ic", std::move(loader)));
        break;
    }
    case WorkloadId::kOdRemoteCached: {
        engine->remote_ = std::make_shared<pipeline::RemoteStore>(
            inputs.images, remoteOptions());
        Workload od = workloads::makeObjectDetection(engine->remote_,
                                                     kOdShorter, kOdMax);
        if (traced)
            od = traceImageFolder(od, engine->remote_, kOdClasses, *probes,
                                  keep);
        DataLoaderOptions options = loaderOptions(kOdBatch, seed, kWorkers);
        options.schedule = dataflow::Schedule::kRoundRobin;
        options.cache_policy = dataflow::CachePolicy::kMemory;
        options.cache_budget_bytes = inputs.cache_budget_bytes;
        options.read_ahead_depth = kOdReadAheadDepth;
        options.io_threads = kOdIoThreads;
        options.logger = logger;
        auto loader =
            std::make_unique<DataLoader>(od.dataset, od.collate, options);
        engine->loader_ = loader.get();
        engine->streams_.push_back(
            std::make_unique<LoaderStream>("od", std::move(loader)));
        break;
    }
    case WorkloadId::kTenantsIcIs: {
        service::ServerOptions server_options;
        server_options.num_workers = kWorkers;
        engine->server_ =
            std::make_unique<service::PreprocServer>(server_options);
        Workload ic =
            workloads::makeImageClassification(inputs.images, kIcCrop);
        Workload is =
            workloads::makeImageSegmentation(inputs.volumes, kIsPatch);
        if (traced) {
            ic = traceImageFolder(ic, inputs.images, kIcClasses, *probes,
                                  keep);
            is = traceVolumes(inputs.volumes, *probes, keep);
        }
        // Equal weights; each client has its own consumer thread.
        auto connect = [&](const char *name, const Workload &tenant,
                           int batch_size) {
            service::ClientConfig config;
            config.batch_size = batch_size;
            config.shuffle = true;
            config.seed = seed;
            config.logger = logger;
            auto client = engine->server_->connect(tenant.dataset,
                                                   tenant.collate, config);
            LOTUS_ASSERT(client.ok(), "tenant %s refused", name);
            engine->streams_.push_back(
                std::make_unique<ClientStream>(name, client.take()));
        };
        connect("ic", ic, kIcBatch);
        connect("is", is, kIsBatch);
        break;
    }
    }
    return engine;
}

std::vector<std::vector<std::uint64_t>>
referenceDigests(WorkloadId workload, const Inputs &inputs,
                 std::uint64_t seed)
{
    std::vector<std::unique_ptr<Stream>> streams;
    switch (workload) {
    case WorkloadId::kIcStealLocal:
        streams.push_back(loaderStream(
            "ic", workloads::makeImageClassification(inputs.images, kIcCrop),
            loaderOptions(kIcBatch, seed, 0)));
        break;
    case WorkloadId::kOdRemoteCached:
        streams.push_back(loaderStream(
            "od",
            workloads::makeObjectDetection(inputs.images, kOdShorter, kOdMax),
            loaderOptions(kOdBatch, seed, 0)));
        break;
    case WorkloadId::kTenantsIcIs:
        streams.push_back(loaderStream(
            "ic", workloads::makeImageClassification(inputs.images, kIcCrop),
            loaderOptions(kIcBatch, seed, 0)));
        streams.push_back(loaderStream(
            "is", workloads::makeImageSegmentation(inputs.volumes, kIsPatch),
            loaderOptions(kIsBatch, seed, 0)));
        break;
    }
    std::vector<std::vector<std::uint64_t>> digests;
    for (auto &stream : streams) {
        stream->run(0); // epoch 0
        stream->run(0); // epoch 1
        digests.push_back(stream->digests());
    }
    return digests;
}

} // namespace perfbench
