/**
 * @file
 * Decoded-sample cache suite: deterministic-prefix bookkeeping on
 * Compose, prefix fingerprints, the fill-once SampleCache with one
 * global budget (budget, rejection, concurrent hammering, pooled warm
 * hits), disk
 * materialization (round-trip, atomicity residue, corruption
 * recovery, directory claims, spills counted as held), loader
 * end-to-end warm epochs (bit-identity, Loader-span collapse), and
 * CacheEvent trace records through record/visualize/analysis.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "cache/materialize.h"
#include "cache/sample_cache.h"
#include "common/files.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/lotustrace/analysis.h"
#include "core/lotustrace/visualize.h"
#include "dataflow/data_loader.h"
#include "image/codec/codec.h"
#include "image/synth.h"
#include "memory/buffer_pool.h"
#include "pipeline/collate.h"
#include "pipeline/compose.h"
#include "pipeline/image_folder.h"
#include "pipeline/store.h"
#include "pipeline/transforms/vision.h"
#include "trace/logger.h"

namespace lotus::cache {
namespace {

using pipeline::Compose;
using pipeline::PipelineContext;
using pipeline::Sample;

// --- Deterministic prefix on Compose ---------------------------------

std::unique_ptr<Compose>
icCompose(int crop = 32)
{
    // The paper's IC chain: stochastic first op => empty prefix.
    pipeline::RandomResizedCrop::Params params;
    params.size = crop;
    std::vector<pipeline::TransformPtr> transforms;
    transforms.push_back(
        std::make_unique<pipeline::RandomResizedCrop>(params));
    transforms.push_back(
        std::make_unique<pipeline::RandomHorizontalFlip>(0.5));
    transforms.push_back(std::make_unique<pipeline::ToTensor>());
    transforms.push_back(std::make_unique<pipeline::Normalize>(
        std::vector<float>{0.485f, 0.456f, 0.406f},
        std::vector<float>{0.229f, 0.224f, 0.225f}));
    return std::make_unique<Compose>(std::move(transforms));
}

std::unique_ptr<Compose>
resizeFirstCompose(int size, bool with_flip)
{
    std::vector<pipeline::TransformPtr> transforms;
    transforms.push_back(
        std::make_unique<pipeline::Resize>(size, 0, /*exact=*/true));
    if (with_flip)
        transforms.push_back(
            std::make_unique<pipeline::RandomHorizontalFlip>(0.5));
    transforms.push_back(std::make_unique<pipeline::ToTensor>());
    return std::make_unique<Compose>(std::move(transforms));
}

TEST(DeterministicPrefix, EndsAtFirstStochasticOp)
{
    EXPECT_EQ(icCompose()->deterministicPrefixLength(), 0u);
    // Resize, Flip, ToTensor: the prefix is Resize only — ToTensor is
    // deterministic but sits after a stochastic op.
    EXPECT_EQ(resizeFirstCompose(32, true)->deterministicPrefixLength(),
              1u);
    // Fully deterministic chain: whole pipeline is prefix.
    EXPECT_EQ(resizeFirstCompose(32, false)->deterministicPrefixLength(),
              2u);
}

TEST(DeterministicPrefix, FingerprintTracksPrefixConfigOnly)
{
    const auto a = resizeFirstCompose(32, true)->prefixFingerprint();
    const auto same = resizeFirstCompose(32, true)->prefixFingerprint();
    const auto other_size =
        resizeFirstCompose(64, true)->prefixFingerprint();
    EXPECT_EQ(a, same);
    EXPECT_NE(a, other_size) << "prefix config must change the key";
    // A longer prefix (same leading op) is a different computation.
    EXPECT_NE(a, resizeFirstCompose(32, false)->prefixFingerprint());
}

TEST(DeterministicPrefix, PrefixPlusSuffixMatchesFullApplication)
{
    Rng synth_rng(5);
    const image::Image source = image::synthesize(synth_rng, 48, 40);

    auto run = [&](bool split) {
        const auto compose = resizeFirstCompose(24, true);
        Sample sample;
        sample.image = source; // deep pooled copy
        Rng rng(1234);
        PipelineContext ctx;
        ctx.rng = &rng;
        if (split) {
            compose->applyPrefix(sample, ctx);
            compose->applySuffix(sample, ctx);
        } else {
            (*compose)(sample, ctx);
        }
        return sample;
    };
    const Sample whole = run(false);
    const Sample parts = run(true);
    ASSERT_EQ(whole.data.byteSize(), parts.data.byteSize());
    EXPECT_EQ(0, std::memcmp(whole.data.raw(), parts.data.raw(),
                             whole.data.byteSize()));
}

// --- SampleCache ------------------------------------------------------

Sample
stampedSample(std::int64_t index, std::int64_t floats = 256)
{
    Sample sample;
    sample.data = tensor::Tensor(tensor::DType::F32, {floats});
    float *out = sample.data.data<float>();
    for (std::int64_t i = 0; i < floats; ++i)
        out[i] = static_cast<float>(index * 1000 + i);
    sample.label = index;
    return sample;
}

bool
sampleMatches(const Sample &sample, std::int64_t index)
{
    if (sample.label != index)
        return false;
    const float *data = sample.data.data<float>();
    for (std::int64_t i = 0; i < sample.data.numel(); ++i) {
        if (data[i] != static_cast<float>(index * 1000 + i))
            return false;
    }
    return true;
}

CacheKey
keyFor(std::int64_t index)
{
    return CacheKey{/*dataset_id=*/1, /*prefix_fingerprint=*/42, index};
}

TEST(SampleCache, HitReturnsIsolatedDeepClone)
{
    CacheConfig config;
    config.budget_bytes = 1 << 20;
    SampleCache cache(config);
    PipelineContext ctx;

    cache.insert(keyFor(7), stampedSample(7), ctx);
    auto first = cache.lookup(keyFor(7), ctx);
    ASSERT_TRUE(first.has_value());
    EXPECT_TRUE(sampleMatches(*first, 7));

    // Scribbling on the returned clone (as an in-place suffix
    // transform would) must not corrupt the cached master copy.
    first->data.data<float>()[0] = -1.0f;
    auto second = cache.lookup(keyFor(7), ctx);
    ASSERT_TRUE(second.has_value());
    EXPECT_TRUE(sampleMatches(*second, 7));

    // Different fingerprint or dataset id = different entry.
    CacheKey other = keyFor(7);
    other.prefix_fingerprint = 43;
    EXPECT_FALSE(cache.lookup(other, ctx).has_value());
    other = keyFor(7);
    other.dataset_id = 2;
    EXPECT_FALSE(cache.lookup(other, ctx).has_value());

    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.inserts, 1u);
}

TEST(SampleCache, FillsOnceAndRejectsPastTheBudget)
{
    const std::int64_t entry_bytes = static_cast<std::int64_t>(
        SampleCache::sampleBytes(stampedSample(0)));
    CacheConfig config;
    config.budget_bytes = 4 * entry_bytes;
    SampleCache cache(config);
    PipelineContext ctx;

    for (std::int64_t i = 0; i < 32; ++i) {
        cache.insert(keyFor(i), stampedSample(i), ctx);
        EXPECT_LE(cache.stats().bytes, config.budget_bytes);
    }
    // The first four entries fill the budget and stay; every later
    // one is refused instead of displacing a resident.
    for (std::int64_t i = 0; i < 32; ++i) {
        EXPECT_EQ(cache.holds(keyFor(i)), i < 4) << "key " << i;
        EXPECT_EQ(cache.lookup(keyFor(i), ctx).has_value(), i < 4)
            << "key " << i;
    }
    const auto stats = cache.stats();
    EXPECT_EQ(stats.inserts, 4u);
    EXPECT_EQ(stats.rejects, 28u);
    EXPECT_EQ(stats.hits, 4u);
    EXPECT_EQ(stats.misses, 28u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(stats.bytes, 4 * entry_bytes);
}

TEST(SampleCache, RejectsEntriesLargerThanTheBudget)
{
    CacheConfig config;
    config.budget_bytes = 4096;
    SampleCache cache(config);
    PipelineContext ctx;

    // 1024 floats fill the budget exactly; one float more does not
    // fit, in an empty cache or a full one.
    cache.insert(keyFor(1), stampedSample(1, /*floats=*/1025), ctx);
    EXPECT_FALSE(cache.lookup(keyFor(1), ctx).has_value());
    cache.insert(keyFor(2), stampedSample(2, /*floats=*/1024), ctx);
    EXPECT_TRUE(cache.lookup(keyFor(2), ctx).has_value());
    cache.insert(keyFor(3), stampedSample(3, /*floats=*/1), ctx);
    EXPECT_FALSE(cache.lookup(keyFor(3), ctx).has_value());
    const auto stats = cache.stats();
    EXPECT_EQ(stats.rejects, 2u);
    EXPECT_EQ(stats.inserts, 1u);
    EXPECT_EQ(stats.bytes, config.budget_bytes);
}

TEST(SampleCache, WarmHitsAllocateFromThePoolNotTheHeap)
{
    CacheConfig config;
    config.budget_bytes = 1 << 22;
    SampleCache cache(config);
    PipelineContext ctx;
    for (std::int64_t i = 0; i < 8; ++i)
        cache.insert(keyFor(i), stampedSample(i), ctx);

    // Warm the pool's freelists with one round of clones,
    // then a steady-state round must be all pool hits: zero misses
    // means zero heap allocations on the warm path.
    for (std::int64_t i = 0; i < 8; ++i)
        ASSERT_TRUE(cache.lookup(keyFor(i), ctx).has_value());
    const auto before = memory::BufferPool::instance().stats();
    for (int round = 0; round < 4; ++round) {
        for (std::int64_t i = 0; i < 8; ++i)
            ASSERT_TRUE(cache.lookup(keyFor(i), ctx).has_value());
    }
    const auto delta =
        memory::BufferPool::instance().stats() - before;
    EXPECT_EQ(delta.misses, 0u);
    EXPECT_GE(delta.hits, 32u);
}

TEST(SampleCache, ConcurrentHammerKeepsBudgetAndContentInvariants)
{
    // Multi-worker hammer (also run under TSan): every thread mixes
    // lookups and inserts over a keyspace several times the budget,
    // so the budget fills under contention and then refuses racing
    // admissions while serving concurrent hits.
    const std::int64_t entry_bytes = static_cast<std::int64_t>(
        SampleCache::sampleBytes(stampedSample(0)));
    CacheConfig config;
    config.budget_bytes = 8 * entry_bytes;
    SampleCache cache(config);

    constexpr int kThreads = 8;
    constexpr std::int64_t kKeys = 64;
    std::atomic<bool> corrupt{false};
    std::atomic<bool> over_budget{false};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            PipelineContext ctx;
            Rng rng(static_cast<std::uint64_t>(t) + 1);
            for (int iter = 0; iter < 2000; ++iter) {
                const std::int64_t index =
                    static_cast<std::int64_t>(rng.uniformInt(0, kKeys - 1));
                if (auto hit = cache.lookup(keyFor(index), ctx)) {
                    if (!sampleMatches(*hit, index))
                        corrupt.store(true);
                } else {
                    cache.insert(keyFor(index), stampedSample(index),
                                 ctx);
                    if (cache.stats().bytes > config.budget_bytes)
                        over_budget.store(true);
                }
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    EXPECT_FALSE(corrupt.load()) << "a hit returned another key's bytes";
    EXPECT_FALSE(over_budget.load()) << "resident bytes passed the budget";
    const auto stats = cache.stats();
    EXPECT_LE(stats.bytes, config.budget_bytes);
    EXPECT_GE(stats.bytes, 0);
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GT(stats.rejects, 0u);
    // Conservation: every admitted byte is still resident.
    EXPECT_EQ(static_cast<std::int64_t>(stats.inserts) * entry_bytes,
              stats.bytes);
}

// --- Materialization --------------------------------------------------

TEST(Materialize, SerializeDeserializeRoundTripsImageAndTensor)
{
    Rng rng(3);
    Sample with_image;
    with_image.image = image::synthesize(rng, 21, 13);
    with_image.label = 77;
    const std::string image_bytes = serializeSample(with_image, 9);
    auto back = deserializeSample(
        reinterpret_cast<const std::uint8_t *>(image_bytes.data()),
        image_bytes.size(), 9);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value().label, 77);
    ASSERT_TRUE(back.value().hasImage());
    EXPECT_TRUE(back.value().image->sameSize(*with_image.image));
    EXPECT_EQ(0, std::memcmp(back.value().image->raw(),
                             with_image.image->raw(),
                             with_image.image->byteSize()));

    const Sample with_tensor = stampedSample(5);
    const std::string tensor_bytes = serializeSample(with_tensor, 9);
    auto tensor_back = deserializeSample(
        reinterpret_cast<const std::uint8_t *>(tensor_bytes.data()),
        tensor_bytes.size(), 9);
    ASSERT_TRUE(tensor_back.ok());
    EXPECT_TRUE(sampleMatches(tensor_back.value(), 5));
}

TEST(Materialize, RejectsCorruptionTruncationAndWrongFingerprint)
{
    const std::string bytes = serializeSample(stampedSample(1), 11);
    const auto *data =
        reinterpret_cast<const std::uint8_t *>(bytes.data());

    // Wrong fingerprint: a reconfigured pipeline must not consume it.
    EXPECT_FALSE(deserializeSample(data, bytes.size(), 12).ok());

    // Any single flipped byte must fail the checksum, and every
    // truncation point must fail bounds checks — never crash.
    for (const std::size_t at :
         {std::size_t{0}, std::size_t{8}, std::size_t{40},
          bytes.size() - 1}) {
        std::string mutated = bytes;
        mutated[at] = static_cast<char>(mutated[at] ^ 0x5A);
        auto result = deserializeSample(
            reinterpret_cast<const std::uint8_t *>(mutated.data()),
            mutated.size(), 11);
        ASSERT_FALSE(result.ok()) << "flipped byte " << at;
        EXPECT_EQ(result.error().code, ErrorCode::kCorruptData);
    }
    for (std::size_t keep = 0; keep < bytes.size();
         keep += bytes.size() / 17 + 1)
        EXPECT_FALSE(deserializeSample(data, keep, 11).ok())
            << "truncated to " << keep;
}

TEST(Materialize, StoreSpillsAtomicallyAndRecoversFromCorruption)
{
    TempDir dir("lotus_cache_test");
    MaterializeStore store(dir.path(), /*fingerprint=*/21);

    EXPECT_EQ(store.tryLoad(3).error().code, ErrorCode::kNotFound);
    ASSERT_TRUE(store.spill(3, stampedSample(3)));
    EXPECT_TRUE(store.contains(3));
    // Atomic publication: no tmp residue after a completed spill.
    namespace fs = std::filesystem;
    for (const auto &entry : fs::directory_iterator(dir.path()))
        EXPECT_EQ(entry.path().string().find(".tmp."), std::string::npos)
            << entry.path();

    auto loaded = store.tryLoad(3);
    ASSERT_TRUE(loaded.ok());
    EXPECT_TRUE(sampleMatches(loaded.value(), 3));

    // Corrupt the file on disk: load must fail recoverably (stage
    // "cache") and self-heal by unlinking, so the next load is a
    // plain kNotFound miss that triggers re-decode + re-spill.
    std::string bytes = readFile(store.pathFor(3));
    bytes[bytes.size() / 2] ^= 0x40;
    writeFile(store.pathFor(3), bytes);
    auto corrupt = store.tryLoad(3);
    ASSERT_FALSE(corrupt.ok());
    EXPECT_EQ(corrupt.error().code, ErrorCode::kCorruptData);
    EXPECT_EQ(corrupt.error().stage, "cache");
    EXPECT_FALSE(store.contains(3));
    EXPECT_EQ(store.tryLoad(3).error().code, ErrorCode::kNotFound);
}

TEST(Materialize, HoldsCountsSpillsTheMemoryBudgetRejected)
{
    // The loader leaves held keys out of its read-ahead plan, so a
    // spilled sample must count as held even when memory is full.
    TempDir dir("lotus_cache_holds");
    CacheConfig config;
    config.budget_bytes = static_cast<std::int64_t>(
        SampleCache::sampleBytes(stampedSample(0)));
    config.materialize_dir = dir.file("spills");
    config.fingerprint = 5;
    SampleCache cache(config);
    PipelineContext ctx;

    EXPECT_FALSE(cache.holds(keyFor(0)));
    cache.insert(keyFor(0), stampedSample(0), ctx); // memory + spill
    cache.insert(keyFor(1), stampedSample(1), ctx); // spill only
    EXPECT_EQ(cache.stats().rejects, 1u);
    EXPECT_TRUE(cache.holds(keyFor(0)));
    EXPECT_TRUE(cache.holds(keyFor(1)));
    EXPECT_FALSE(cache.holds(keyFor(2)));
    auto from_disk = cache.lookup(keyFor(1), ctx);
    ASSERT_TRUE(from_disk.has_value());
    EXPECT_TRUE(sampleMatches(*from_disk, 1));
    EXPECT_EQ(cache.stats().disk_hits, 1u);
}

TEST(Materialize, DirectoryClaimReleasesOnDestruction)
{
    TempDir dir("lotus_cache_claim");
    {
        MaterializeStore first(dir.path(), 1);
    }
    // Releasing the claim makes the dir reusable...
    MaterializeStore second(dir.path(), 1);
    // ...but a concurrent second claim is a fatal config error.
    EXPECT_EXIT(MaterializeStore(dir.path(), 1),
                ::testing::ExitedWithCode(1), "already in use");
}

// --- Loader end-to-end ------------------------------------------------

std::shared_ptr<pipeline::InMemoryStore>
encodedStore(int count, int edge = 40)
{
    auto store = std::make_shared<pipeline::InMemoryStore>();
    Rng rng(77);
    for (int i = 0; i < count; ++i)
        store->add(
            image::codec::encode(image::synthesize(rng, edge, edge)));
    return store;
}

std::shared_ptr<pipeline::ImageFolderDataset>
icDataset(std::shared_ptr<const pipeline::BlobStore> store)
{
    return std::make_shared<pipeline::ImageFolderDataset>(
        std::move(store),
        std::shared_ptr<const Compose>(icCompose()),
        /*num_classes=*/10);
}

/** Payload bytes + labels for @p epochs consecutive epochs. */
std::vector<std::vector<std::uint8_t>>
epochContents(dataflow::DataLoader &loader, int epochs)
{
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

dataflow::DataLoaderOptions
cachedOptions(int workers, dataflow::CachePolicy policy,
              std::int64_t budget = 64 << 20)
{
    dataflow::DataLoaderOptions options;
    options.batch_size = 4;
    options.num_workers = workers;
    options.shuffle = true;
    options.seed = 9;
    options.cache_policy = policy;
    if (policy != dataflow::CachePolicy::kNone)
        options.cache_budget_bytes = budget;
    return options;
}

TEST(CachedLoader, WarmEpochsAreBitIdenticalAndSkipTheLoader)
{
    constexpr int kSamples = 24;
    auto store = encodedStore(kSamples);
    auto dataset = icDataset(store);
    auto collate = std::make_shared<pipeline::StackCollate>();

    dataflow::DataLoader uncached(
        dataset, collate,
        cachedOptions(2, dataflow::CachePolicy::kNone));
    const auto expected = epochContents(uncached, 3);

    trace::TraceLogger logger;
    auto options = cachedOptions(2, dataflow::CachePolicy::kMemory);
    options.logger = &logger;
    dataflow::DataLoader cached(dataset, collate, options);
    const auto got = epochContents(cached, 3);
    EXPECT_EQ(got, expected);

    ASSERT_NE(cached.cache(), nullptr);
    const auto stats = cached.cache()->stats();
    EXPECT_EQ(stats.misses, static_cast<std::uint64_t>(kSamples));
    EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(2 * kSamples));
    EXPECT_EQ(stats.rejects, 0u);

    // [T3] Loader spans (store read + decode) collapse to cold-epoch
    // only; CacheEvents mark every warm hit in worker lanes.
    std::int64_t loader_spans = 0, cache_hits = 0;
    for (const auto &record : logger.records()) {
        if (record.kind == trace::RecordKind::TransformOp &&
            record.op_name == pipeline::ImageFolderDataset::kLoaderOpName)
            ++loader_spans;
        if (record.kind == trace::RecordKind::CacheEvent &&
            record.op_name == "cache:hit")
            ++cache_hits;
    }
    EXPECT_EQ(loader_spans, kSamples);
    EXPECT_EQ(cache_hits, 2 * kSamples);
}

TEST(CachedLoader, MaterializeSpillsOnceThenServesFromDiskAndRecovers)
{
    constexpr int kSamples = 16;
    TempDir dir("lotus_cache_mat");
    auto store = encodedStore(kSamples);
    auto dataset = icDataset(store);
    auto collate = std::make_shared<pipeline::StackCollate>();

    dataflow::DataLoader uncached(
        dataset, collate,
        cachedOptions(2, dataflow::CachePolicy::kNone));
    const auto expected = epochContents(uncached, 3);

    // A memory budget below one decoded sample: every admission is
    // rejected, so warm epochs exercise the disk path exclusively.
    auto options = cachedOptions(2, dataflow::CachePolicy::kMaterialize,
                                 /*budget=*/1024);
    options.materialize_dir = dir.file("spills");
    dataflow::DataLoader cached(dataset, collate, options);

    auto epochs = epochContents(cached, 2);
    ASSERT_NE(cached.cache(), nullptr);
    auto stats = cached.cache()->stats();
    EXPECT_EQ(stats.disk_spills, static_cast<std::uint64_t>(kSamples));
    EXPECT_EQ(stats.disk_hits, static_cast<std::uint64_t>(kSamples));
    EXPECT_GT(stats.rejects, 0u);

    // Corrupt one spill mid-run: the loader must degrade to
    // re-decoding that sample, re-spill it, and stay bit-identical.
    const std::string victim =
        strFormat("%s/sample_0.lspl", options.materialize_dir.c_str());
    ASSERT_TRUE(fileExists(victim));
    std::string bytes = readFile(victim);
    bytes[bytes.size() / 3] ^= 0x11;
    writeFile(victim, bytes);

    epochs.push_back(epochContents(cached, 1)[0]);
    EXPECT_EQ(epochs, expected);
    stats = cached.cache()->stats();
    EXPECT_GE(stats.disk_corrupt, 1u);
    EXPECT_EQ(stats.disk_spills, static_cast<std::uint64_t>(kSamples) + 1)
        << "corrupt sample was not re-spilled";
    EXPECT_TRUE(fileExists(victim)) << "re-spill did not recreate the file";
}

// --- CacheEvent through the trace stack ------------------------------

TEST(CacheEventRecord, RoundTripsAndFlowsThroughVisualizeAndAnalysis)
{
    trace::TraceRecord record;
    record.kind = trace::RecordKind::CacheEvent;
    record.batch_id = 3;
    record.pid = 12;
    record.start = 1000;
    record.duration = 0;
    record.op_name = "cache:hit";
    record.sample_index = 9;

    const trace::TraceRecord back =
        trace::TraceRecord::fromLine(record.toLine());
    EXPECT_EQ(back.kind, trace::RecordKind::CacheEvent);
    EXPECT_EQ(back.op_name, "cache:hit");
    EXPECT_EQ(back.sample_index, 9);

    // Visualize: the event lands as an instant in a worker lane.
    std::vector<trace::TraceRecord> records;
    trace::TraceRecord batch;
    batch.kind = trace::RecordKind::BatchPreprocessed;
    batch.batch_id = 3;
    batch.pid = 12;
    batch.start = 500;
    batch.duration = 2000;
    records.push_back(batch);
    records.push_back(record);
    const std::string json = core::lotustrace::toChromeJson(records);
    EXPECT_NE(json.find("cache:hit"), std::string::npos);

    // Analysis: cache events don't perturb batch timelines.
    core::lotustrace::TraceAnalysis analysis(records);
    ASSERT_EQ(analysis.batches().size(), 1u);
    EXPECT_EQ(analysis.batches()[0].batch_id, 3);
}

} // namespace
} // namespace lotus::cache
