/**
 * @file
 * Tuner suite: signal extraction from snapshot diffs, the bottleneck
 * model's decisions (consumer / decode / store / collate verdicts,
 * the sentinel-ratio schedule flip, adaptive read-ahead depth),
 * epoch-boundary reconfiguration (validation, engine rebuild, and the
 * bit-identity contract under every ErrorPolicy x CachePolicy), live
 * convergence on a heavy-tailed fixture, and the replay parsers.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/clock.h"
#include "common/files.h"
#include "common/rng.h"
#include "common/strings.h"
#include "dataflow/data_loader.h"
#include "image/codec/codec.h"
#include "image/synth.h"
#include "metrics/export.h"
#include "metrics/metrics.h"
#include "pipeline/collate.h"
#include "pipeline/compose.h"
#include "pipeline/image_folder.h"
#include "pipeline/store.h"
#include "pipeline/traced_store.h"
#include "pipeline/transforms/vision.h"
#include "trace/chrome_trace.h"
#include "tuner/replay.h"
#include "tuner/tuner.h"
#include "workloads/synthetic.h"

namespace lotus {
namespace {

using dataflow::CachePolicy;
using dataflow::DataLoader;
using dataflow::DataLoaderOptions;
using dataflow::ErrorPolicy;
using dataflow::LoaderReconfig;
using dataflow::Schedule;
using tuner::Bottleneck;
using tuner::PipelineTuner;
using tuner::TunerDecision;
using tuner::TunerOptions;
using tuner::TunerSignals;

/** Fresh global metrics state per test: enabled on, values zeroed. */
class TunerTest : public ::testing::Test
{
  protected:
    TunerTest() : enable_(true)
    {
        metrics::MetricsRegistry::instance().reset();
    }
    ~TunerTest() override
    {
        metrics::MetricsRegistry::instance().reset();
    }

  private:
    metrics::ScopedEnable enable_;
};

LoaderReconfig
badStart()
{
    LoaderReconfig config;
    config.num_workers = 1;
    config.prefetch_factor = 1;
    config.schedule = Schedule::kRoundRobin;
    config.read_ahead_depth = 0;
    config.io_threads = 0;
    return config;
}

/** A decode-CPU-bound interval: the consumer is nearly always in the
 *  [T2] wait, no store I/O in sight. */
TunerSignals
decodeBoundSignals()
{
    TunerSignals signals;
    signals.interval_s = 1.0;
    signals.batches = 12;
    signals.wait_s = 0.90;
    signals.fetch_busy_s = 0.95;
    signals.observed_workers = 1;
    return signals;
}

TEST_F(TunerTest, SignalsExtractFromSnapshotDelta)
{
    metrics::Snapshot delta;
    delta.taken_at = 2'000'000'000; // 2 s
    delta.counters["lotus_loader_batches_total"] = 10;
    delta.counters["lotus_loader_ooo_batches_total"] = 3;
    delta.counters["lotus_loader_wait_ns_total"] = 500'000'000;
    delta.counters[dataflow::kReadAheadHitsMetric] = 90;
    delta.counters[dataflow::kReadAheadMissesMetric] = 10;
    auto &w0 = delta.histograms[metrics::labeled("lotus_loader_fetch_ns",
                                                 "worker", "0")];
    w0.count = 5;
    w0.sum = 600'000'000;
    auto &w1 = delta.histograms[metrics::labeled("lotus_loader_fetch_ns",
                                                 "worker", "1")];
    w1.count = 5;
    w1.sum = 400'000'000;
    auto &store = delta.histograms[pipeline::kStoreReadNsMetric];
    store.count = 40;
    store.sum = 200'000'000;
    auto &collate = delta.histograms[metrics::labeled(
        "lotus_pipeline_op_ns", "op", "Collate")];
    collate.count = 10;
    collate.sum = 50'000'000;

    const TunerSignals signals = tuner::signalsFromSnapshot(delta);
    EXPECT_DOUBLE_EQ(signals.interval_s, 2.0);
    EXPECT_DOUBLE_EQ(signals.batches, 10.0);
    EXPECT_DOUBLE_EQ(signals.ooo_batches, 3.0);
    EXPECT_DOUBLE_EQ(signals.wait_s, 0.5);
    EXPECT_DOUBLE_EQ(signals.fetch_busy_s, 1.0);
    EXPECT_DOUBLE_EQ(signals.store_read_s, 0.2);
    EXPECT_DOUBLE_EQ(signals.store_reads, 40.0);
    EXPECT_DOUBLE_EQ(signals.collate_s, 0.05);
    EXPECT_DOUBLE_EQ(signals.readahead_hits, 90.0);
    EXPECT_DOUBLE_EQ(signals.readahead_misses, 10.0);
    EXPECT_EQ(signals.observed_workers, 2);
    EXPECT_DOUBLE_EQ(signals.oooRatio(), 0.3);
    EXPECT_DOUBLE_EQ(signals.missRatio(), 0.1);
    EXPECT_DOUBLE_EQ(signals.storeFraction(), 0.2);
}

TEST_F(TunerTest, NoTrafficKeepsConfig)
{
    PipelineTuner tuner(badStart());
    TunerSignals signals; // all zero
    const TunerDecision decision = tuner.decide(signals);
    EXPECT_EQ(decision.bottleneck, Bottleneck::kUnknown);
    EXPECT_FALSE(decision.changed);
    EXPECT_EQ(decision.config, badStart());
}

TEST_F(TunerTest, DecodeBoundRaisesWorkersToDemand)
{
    TunerOptions options;
    options.max_workers = 8;
    PipelineTuner tuner(badStart(), options);
    const TunerDecision decision = tuner.decide(decodeBoundSignals());
    EXPECT_EQ(decision.bottleneck, Bottleneck::kDecodeCpu);
    EXPECT_TRUE(decision.changed);
    // Demand 0.95 worker-seconds against a 0.1 s consumer budget wants
    // ~10 workers; the ceiling clamps to 8.
    EXPECT_EQ(decision.config.num_workers, 8);
    EXPECT_GE(decision.config.prefetch_factor, options.min_prefetch);
    // One straggler-free interval never flips the schedule.
    EXPECT_EQ(decision.config.schedule, Schedule::kRoundRobin);
}

TEST_F(TunerTest, DecodeBoundNeverLowersWorkers)
{
    LoaderReconfig at_max = badStart();
    at_max.num_workers = 8;
    at_max.prefetch_factor = 2;
    PipelineTuner tuner(at_max);
    TunerSignals signals = decodeBoundSignals();
    signals.fetch_busy_s = 0.5; // demand ~5 workers
    signals.wait_s = 0.5;
    const TunerDecision decision = tuner.decide(signals);
    EXPECT_EQ(decision.bottleneck, Bottleneck::kDecodeCpu);
    // Hysteresis: pipeline-bound intervals only grow the fleet.
    EXPECT_EQ(decision.config.num_workers, 8);
}

TEST_F(TunerTest, ConsumerBoundTrimsWorkersToMeasuredDemand)
{
    LoaderReconfig config = badStart();
    config.num_workers = 4;
    config.prefetch_factor = 2;
    PipelineTuner tuner(config);
    TunerSignals signals;
    signals.interval_s = 1.0;
    signals.batches = 12;
    signals.wait_s = 0.01; // the consumer almost never waits
    signals.fetch_busy_s = 1.6;
    const TunerDecision decision = tuner.decide(signals);
    EXPECT_EQ(decision.bottleneck, Bottleneck::kConsumer);
    EXPECT_EQ(decision.config.num_workers, 2); // ceil(1.6 cores)
}

TEST_F(TunerTest, ConsumerBoundNeverRaisesWorkers)
{
    LoaderReconfig config = badStart();
    config.num_workers = 2;
    PipelineTuner tuner(config);
    TunerSignals signals;
    signals.interval_s = 1.0;
    signals.batches = 12;
    signals.wait_s = 0.01;
    signals.fetch_busy_s = 6.0; // demand 6 cores, but consumer-bound
    const TunerDecision decision = tuner.decide(signals);
    EXPECT_EQ(decision.bottleneck, Bottleneck::kConsumer);
    EXPECT_EQ(decision.config.num_workers, 2);
}

TEST_F(TunerTest, StoreBoundEnablesReadAheadByLittlesLaw)
{
    TunerOptions options;
    options.max_workers = 4;
    PipelineTuner tuner(badStart(), options);
    TunerSignals signals;
    signals.interval_s = 1.0;
    signals.batches = 12;
    signals.wait_s = 0.90;
    signals.fetch_busy_s = 0.96;
    signals.store_read_s = 0.72; // 75% of fetch time is store I/O
    signals.store_reads = 96;    // mean read 7.5 ms
    const TunerDecision decision = tuner.decide(signals);
    EXPECT_EQ(decision.bottleneck, Bottleneck::kStoreIo);
    EXPECT_TRUE(decision.changed);
    EXPECT_GT(decision.config.read_ahead_depth, 0);
    EXPECT_LE(decision.config.read_ahead_depth,
              options.max_read_ahead_depth);
    EXPECT_EQ(decision.config.io_threads,
              options.read_ahead_io_threads);
    // Decode demand (0.24 worker-seconds) also sizes the fleet.
    EXPECT_GE(decision.config.num_workers, 2);
}

TEST_F(TunerTest, ShallowWindowWithMissesDoublesDepth)
{
    LoaderReconfig config = badStart();
    config.num_workers = 4;
    config.read_ahead_depth = 8;
    config.io_threads = 2;
    PipelineTuner tuner(config);
    TunerSignals signals;
    signals.interval_s = 1.0;
    signals.batches = 12;
    signals.wait_s = 0.8;
    signals.fetch_busy_s = 0.4;
    signals.store_read_s = 0.6; // off-thread reads still dominate
    signals.store_reads = 96;
    signals.readahead_hits = 60;
    signals.readahead_misses = 36; // miss ratio 0.375
    const TunerDecision decision = tuner.decide(signals);
    EXPECT_EQ(decision.bottleneck, Bottleneck::kStoreIo);
    EXPECT_EQ(decision.config.read_ahead_depth, 16);
}

TEST_F(TunerTest, SaturatedIoThreadsDeepenWindowWithoutMisses)
{
    // Claims that block on in-flight entries count as hits, so a
    // too-shallow window can show a ~0 miss ratio while the I/O
    // threads never leave the store. The utilization term catches it.
    LoaderReconfig config = badStart();
    config.num_workers = 1;
    config.prefetch_factor = 2;
    config.read_ahead_depth = 8;
    config.io_threads = 2;
    PipelineTuner tuner(config);
    TunerSignals signals;
    signals.interval_s = 0.1;
    signals.batches = 12;
    signals.wait_s = 0.08;
    signals.fetch_busy_s = 0.06;
    signals.store_read_s = 0.16; // 2 io threads x 80% of the interval
    signals.store_reads = 30;
    signals.readahead_hits = 96;
    signals.readahead_misses = 0;
    const TunerDecision decision = tuner.decide(signals);
    EXPECT_EQ(decision.bottleneck, Bottleneck::kStoreIo);
    EXPECT_EQ(decision.config.read_ahead_depth, 16);
}

TEST_F(TunerTest, HiddenStoreTimeIsNotStoreBound)
{
    LoaderReconfig config = badStart();
    config.num_workers = 4;
    config.prefetch_factor = 2;
    config.read_ahead_depth = 32;
    config.io_threads = 2;
    PipelineTuner tuner(config);
    TunerSignals signals;
    signals.interval_s = 1.0;
    signals.batches = 12;
    signals.wait_s = 0.5;
    signals.fetch_busy_s = 0.4;
    signals.store_read_s = 0.6; // large, but fully overlapped:
    signals.store_reads = 96;
    signals.readahead_hits = 96; // every claim hit the window
    signals.readahead_misses = 0;
    const TunerDecision decision = tuner.decide(signals);
    EXPECT_NE(decision.bottleneck, Bottleneck::kStoreIo);
}

TEST_F(TunerTest, CollateShareClassifiesCollateBound)
{
    LoaderReconfig config = badStart();
    config.num_workers = 2;
    config.prefetch_factor = 2;
    PipelineTuner tuner(config);
    TunerSignals signals;
    signals.interval_s = 1.0;
    signals.batches = 12;
    signals.wait_s = 0.8;
    signals.fetch_busy_s = 1.0;
    signals.collate_s = 0.5; // half the busy time is collate
    const TunerDecision decision = tuner.decide(signals);
    EXPECT_EQ(decision.bottleneck, Bottleneck::kCollate);
}

TEST_F(TunerTest, SentinelRatioFlipsRoundRobinToWorkStealing)
{
    LoaderReconfig config = badStart();
    config.num_workers = 4;
    config.prefetch_factor = 2;
    PipelineTuner tuner(config);
    TunerSignals signals = decodeBoundSignals();
    signals.ooo_batches = 5; // ratio 5/12 > 0.25
    const TunerDecision decision = tuner.decide(signals);
    EXPECT_EQ(decision.config.schedule, Schedule::kWorkStealing);

    // The flip is gated off for characterization runs.
    TunerOptions no_flip;
    no_flip.allow_schedule_flip = false;
    PipelineTuner pinned(config, no_flip);
    const TunerDecision kept = pinned.decide(signals);
    EXPECT_EQ(kept.config.schedule, Schedule::kRoundRobin);
}

TEST_F(TunerTest, SingleWorkerNeverFlipsSchedule)
{
    TunerOptions options;
    options.max_workers = 1; // fleet pinned to one worker
    PipelineTuner tuner(badStart(), options);
    TunerSignals signals = decodeBoundSignals();
    signals.ooo_batches = 6;
    const TunerDecision decision = tuner.decide(signals);
    // Stealing needs peers; one worker keeps round-robin.
    EXPECT_EQ(decision.config.schedule, Schedule::kRoundRobin);
}

TEST_F(TunerTest, OnEpochEndDiffsAndPublishesGauges)
{
    auto &registry = metrics::MetricsRegistry::instance();
    PipelineTuner tuner(badStart());
    const TunerDecision baseline = tuner.onEpochEnd(registry.snapshot());
    EXPECT_EQ(baseline.bottleneck, Bottleneck::kUnknown);

    // One decode-bound epoch's worth of traffic.
    registry.counter("lotus_loader_batches_total")->add(12);
    registry.counter("lotus_loader_wait_ns_total")->add(900'000'000);
    auto *fetch = registry.histogram(
        metrics::labeled("lotus_loader_fetch_ns", "worker", "0"));
    for (int i = 0; i < 12; ++i)
        fetch->record(80'000'000);
    metrics::Snapshot snapshot = registry.snapshot();
    snapshot.taken_at = baseline.changed
                            ? snapshot.taken_at
                            : snapshot.taken_at + 1'000'000'000;
    const TunerDecision decision = tuner.onEpochEnd(snapshot);
    EXPECT_EQ(decision.bottleneck, Bottleneck::kDecodeCpu);
    EXPECT_GT(decision.config.num_workers, 1);

    EXPECT_EQ(registry.counter(tuner::kTunerDecisionsMetric)->value(),
              2u);
    EXPECT_EQ(registry.gauge(tuner::kTunerWorkersMetric)->value(),
              decision.config.num_workers);
    EXPECT_EQ(registry.gauge(tuner::kTunerBottleneckMetric)->value(),
              static_cast<int>(Bottleneck::kDecodeCpu));
}

// --- Epoch-boundary reconfiguration on a live loader ---------------

std::shared_ptr<pipeline::InMemoryStore>
makeEncodedStore(int count)
{
    auto store = std::make_shared<pipeline::InMemoryStore>();
    Rng rng(55);
    for (int i = 0; i < count; ++i)
        store->add(image::codec::encode(image::synthesize(rng, 16, 16)));
    return store;
}

/** ImageFolder whose chain starts with a random flip: the per-sample
 *  rng stream is live, so any execution-order leak would break the
 *  bit-identity checks below. */
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

std::vector<std::uint8_t>
epochBytes(DataLoader &loader)
{
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
    return bytes;
}

TEST_F(TunerTest, ReconfigureIsFatalMidEpoch)
{
    auto dataset = makeDataset(makeEncodedStore(16));
    DataLoaderOptions options;
    options.batch_size = 4;
    options.num_workers = 2;
    DataLoader loader(dataset,
                      std::make_shared<pipeline::StackCollate>(),
                      options);
    loader.startEpoch();
    ASSERT_TRUE(loader.next().has_value());
    LoaderReconfig next = loader.currentConfig();
    next.num_workers = 4;
    EXPECT_EXIT(loader.reconfigure(next),
                ::testing::ExitedWithCode(1), "epoch-boundary only");
}

TEST_F(TunerTest, ReconfigureRevalidatesLikeTheConstructor)
{
    auto dataset = makeDataset(makeEncodedStore(16));
    DataLoaderOptions options;
    options.batch_size = 4;
    options.num_workers = 1;
    DataLoader loader(dataset,
                      std::make_shared<pipeline::StackCollate>(),
                      options);
    LoaderReconfig bad = loader.currentConfig();
    bad.num_workers = -1;
    EXPECT_EXIT(loader.reconfigure(bad), ::testing::ExitedWithCode(1),
                "num_workers must be >= 0");
    LoaderReconfig mismatched = loader.currentConfig();
    mismatched.read_ahead_depth = 8; // io_threads left at 0
    EXPECT_EXIT(loader.reconfigure(mismatched),
                ::testing::ExitedWithCode(1),
                "must be enabled together");
}

TEST_F(TunerTest, ReconfigureRebuildsWorkersAndReadAhead)
{
    auto dataset = makeDataset(makeEncodedStore(24));
    DataLoaderOptions options;
    options.batch_size = 4;
    options.num_workers = 1;
    options.prefetch_factor = 1;
    DataLoader loader(dataset,
                      std::make_shared<pipeline::StackCollate>(),
                      options);
    EXPECT_EQ(loader.readAhead(), nullptr);
    EXPECT_FALSE(epochBytes(loader).empty());

    LoaderReconfig next;
    next.num_workers = 2;
    next.prefetch_factor = 2;
    next.schedule = Schedule::kWorkStealing;
    next.read_ahead_depth = 8;
    next.io_threads = 2;
    loader.reconfigure(next);
    EXPECT_EQ(loader.currentConfig(), next);
    ASSERT_NE(loader.readAhead(), nullptr);
    EXPECT_EQ(loader.readAhead()->options().depth, 8);
    EXPECT_FALSE(epochBytes(loader).empty());

    // Depth back through 0 tears the engine down.
    next.read_ahead_depth = 0;
    next.io_threads = 0;
    loader.reconfigure(next);
    EXPECT_EQ(loader.readAhead(), nullptr);
    EXPECT_FALSE(epochBytes(loader).empty());
}

TEST_F(TunerTest, ReconfigureFromWorkStealingToRoundRobinKeepsBatches)
{
    // A work-stealing epoch leaves its engine generation behind; the
    // round-robin epoch after it must still receive every batch.
    auto dataset = makeDataset(makeEncodedStore(24));
    DataLoaderOptions options;
    options.batch_size = 4;
    options.shuffle = true;
    options.seed = 11;
    options.num_workers = 2;
    options.prefetch_factor = 2;
    options.schedule = Schedule::kRoundRobin;
    DataLoader reference(dataset, std::make_shared<pipeline::StackCollate>(),
                         options);

    options.schedule = Schedule::kWorkStealing;
    DataLoader subject(dataset, std::make_shared<pipeline::StackCollate>(),
                       options);
    LoaderReconfig round_robin = subject.currentConfig();
    round_robin.schedule = Schedule::kRoundRobin;
    LoaderReconfig stealing = round_robin;
    stealing.schedule = Schedule::kWorkStealing;

    EXPECT_EQ(epochBytes(subject), epochBytes(reference));
    subject.reconfigure(round_robin);
    EXPECT_EQ(epochBytes(subject), epochBytes(reference));
    subject.reconfigure(stealing);
    EXPECT_EQ(epochBytes(subject), epochBytes(reference));
    subject.reconfigure(round_robin);
    EXPECT_EQ(epochBytes(subject), epochBytes(reference));
}

TEST_F(TunerTest, ReconfigurePreservesBitIdentityAcrossPolicies)
{
    // The satellite contract: a loader that starts badly configured
    // and is re-tuned at epoch boundaries must produce byte-identical
    // epochs to a fixed loader running the final parameters from the
    // start — under every ErrorPolicy and cache policy.
    auto store = makeEncodedStore(24);
    const ErrorPolicy policies[] = {ErrorPolicy::kFail,
                                    ErrorPolicy::kSkip,
                                    ErrorPolicy::kRetry};
    const CachePolicy caches[] = {CachePolicy::kNone,
                                  CachePolicy::kMemory,
                                  CachePolicy::kMaterialize};
    for (const ErrorPolicy policy : policies) {
        for (const CachePolicy cache : caches) {
            SCOPED_TRACE(strFormat("policy=%d cache=%d",
                                   static_cast<int>(policy),
                                   static_cast<int>(cache)));
            auto dataset = makeDataset(store);

            DataLoaderOptions base;
            base.batch_size = 4;
            base.shuffle = true;
            base.seed = 77;
            base.error_policy = policy;
            base.cache_policy = cache;
            if (cache != CachePolicy::kNone)
                base.cache_budget_bytes = 64 << 20;
            TempDir fixed_dir("lotus-tuner-fixed");
            TempDir tuned_dir("lotus-tuner-tuned");
            if (cache == CachePolicy::kMaterialize)
                base.materialize_dir = fixed_dir.path();

            // Final parameters, fixed from the start.
            LoaderReconfig final_config;
            final_config.num_workers = 2;
            final_config.prefetch_factor = 2;
            final_config.schedule = Schedule::kWorkStealing;
            final_config.read_ahead_depth = 8;
            final_config.io_threads = 2;

            DataLoaderOptions fixed = base;
            fixed.num_workers = final_config.num_workers;
            fixed.prefetch_factor = final_config.prefetch_factor;
            fixed.schedule = final_config.schedule;
            fixed.read_ahead_depth = final_config.read_ahead_depth;
            fixed.io_threads = final_config.io_threads;
            DataLoader reference(
                dataset, std::make_shared<pipeline::StackCollate>(),
                fixed);

            // Deliberately bad start, re-tuned at each boundary.
            DataLoaderOptions tuned = base;
            tuned.num_workers = 1;
            tuned.prefetch_factor = 1;
            if (cache == CachePolicy::kMaterialize)
                tuned.materialize_dir = tuned_dir.path();
            DataLoader subject(
                dataset, std::make_shared<pipeline::StackCollate>(),
                tuned);

            LoaderReconfig mid;
            mid.num_workers = 2;
            mid.prefetch_factor = 2;
            mid.schedule = Schedule::kRoundRobin;
            mid.read_ahead_depth = 4;
            mid.io_threads = 1;

            for (int epoch = 0; epoch < 3; ++epoch) {
                SCOPED_TRACE(strFormat("epoch=%d", epoch));
                EXPECT_EQ(epochBytes(subject), epochBytes(reference));
                if (epoch == 0)
                    subject.reconfigure(mid);
                else if (epoch == 1)
                    subject.reconfigure(final_config);
            }
        }
    }
}

TEST_F(TunerTest, LiveTunerConvergesOnHeavyTailedFixture)
{
    workloads::HeavyTailCostConfig cost;
    cost.median_cost = 200 * kMicrosecond;
    cost.straggler_fraction = 0.05;
    cost.straggler_multiplier = 10.0;
    auto dataset =
        std::make_shared<workloads::HeavyTailCostDataset>(48, cost);
    DataLoaderOptions options;
    options.batch_size = 4;
    options.num_workers = 1;
    options.prefetch_factor = 1;
    DataLoader loader(dataset,
                      std::make_shared<pipeline::StackCollate>(),
                      options);

    TunerOptions tuner_options;
    tuner_options.max_workers = 4;
    PipelineTuner tuner(loader.currentConfig(), tuner_options);
    auto &registry = metrics::MetricsRegistry::instance();
    tuner.onEpochEnd(registry.snapshot()); // baseline

    for (int epoch = 0; epoch < 2; ++epoch) {
        loader.startEpoch();
        while (loader.next().has_value()) {
        }
        const TunerDecision decision =
            tuner.onEpochEnd(registry.snapshot());
        if (decision.changed)
            loader.reconfigure(decision.config);
    }
    // The consumer does nothing between next() calls, so the first
    // measured epoch is pipeline-bound and the demand model jumps the
    // fleet to its ceiling at once.
    EXPECT_EQ(loader.currentConfig().num_workers, 4);
    EXPECT_GE(
        registry.counter(tuner::kTunerDecisionsMetric)->value(), 3u);
}

// --- Replay parsers ------------------------------------------------

TEST_F(TunerTest, MetricsJsonRoundTripsIntoSnapshot)
{
    auto &registry = metrics::MetricsRegistry::instance();
    registry.counter("lotus_loader_batches_total")->add(42);
    registry.gauge("lotus_loader_data_queue_depth")->set(-3);
    auto *hist = registry.histogram(
        metrics::labeled("lotus_loader_fetch_ns", "worker", "0"));
    hist->record(1'000);
    hist->record(2'000'000);
    const metrics::Snapshot snapshot = registry.snapshot();
    const std::string json = metrics::toJson(snapshot, nullptr);

    const metrics::Snapshot parsed =
        tuner::snapshotFromMetricsJson(json);
    EXPECT_EQ(parsed.taken_at, snapshot.taken_at);
    EXPECT_EQ(parsed.counters, snapshot.counters);
    EXPECT_EQ(parsed.gauges, snapshot.gauges);
    ASSERT_EQ(parsed.histograms.size(), snapshot.histograms.size());
    for (const auto &[name, h] : snapshot.histograms) {
        const auto &p = parsed.histograms.at(name);
        EXPECT_EQ(p.count, h.count) << name;
        EXPECT_EQ(p.sum, h.sum) << name;
        EXPECT_EQ(p.buckets, h.buckets) << name;
        EXPECT_EQ(p.p99, h.p99) << name;
    }
}

trace::ChromeEvent
completeEvent(const char *name, const char *category, double ts_us,
              double dur_us, std::int64_t pid)
{
    trace::ChromeEvent event;
    event.name = name;
    event.category = category;
    event.phase = 'X';
    event.ts_us = ts_us;
    event.dur_us = dur_us;
    event.pid = pid;
    event.tid = pid;
    return event;
}

TEST_F(TunerTest, ChromeEventsYieldSignals)
{
    std::vector<trace::ChromeEvent> events;
    // Two workers' batch spans.
    events.push_back(
        completeEvent("SBatchPreprocessed_0", "preprocess", 0, 40'000, 2));
    events.push_back(
        completeEvent("SBatchPreprocessed_1", "preprocess", 0, 60'000, 3));
    events.push_back(completeEvent("SBatchPreprocessed_2", "preprocess",
                                   40'000, 50'000, 2));
    // Consumer waits: one real, one out-of-order sentinel (1 us).
    events.push_back(completeEvent("SBatchWait_0", "wait", 0, 35'000, 1));
    events.push_back(completeEvent("SBatchWait_1", "wait", 60'000, 1, 1));
    events.push_back(completeEvent("SBatchWait_2", "wait", 61'000,
                                   29'000, 1));
    for (int b = 0; b < 3; ++b)
        events.push_back(completeEvent(
            strFormat("SBatchConsumed_%d", b).c_str(), "consume",
            90'000 + 100 * b, 50, 1));
    // Store reads and a collate op inside the worker spans.
    events.push_back(completeEvent("io:1024", "io", 100, 5'000, 2));
    events.push_back(completeEvent("io:1024", "io", 200, 7'000, 3));
    events.push_back(completeEvent("SCollate", "op", 40'500, 2'000, 2));

    const TunerSignals signals =
        tuner::signalsFromChromeEvents(events);
    EXPECT_DOUBLE_EQ(signals.batches, 3.0);
    EXPECT_DOUBLE_EQ(signals.ooo_batches, 1.0);
    EXPECT_NEAR(signals.wait_s, 0.064001, 1e-9);
    EXPECT_NEAR(signals.fetch_busy_s, 0.150, 1e-9);
    EXPECT_NEAR(signals.store_read_s, 0.012, 1e-9);
    EXPECT_DOUBLE_EQ(signals.store_reads, 2.0);
    EXPECT_NEAR(signals.collate_s, 0.002, 1e-9);
    EXPECT_EQ(signals.observed_workers, 2);
    EXPECT_GT(signals.interval_s, 0.0);
}

} // namespace
} // namespace lotus
