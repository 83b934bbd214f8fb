/**
 * @file
 * End-to-end integration tests: the full Lotus workflow over a real
 * (small) image-classification training epoch — LotusTrace capture,
 * data-flow analysis, Chrome visualization, LotusMap mapping, and
 * hardware-counter attribution per operation.
 */

#include <gtest/gtest.h>

#include "common/files.h"
#include "core/lotusmap/isolation.h"
#include "core/lotusmap/mapper.h"
#include "core/lotusmap/splitter.h"
#include "core/lotustrace/analysis.h"
#include "core/lotustrace/visualize.h"
#include "hwcount/collection.h"
#include "hwcount/cost_model.h"
#include "image/codec/codec.h"
#include "image/resample.h"
#include "image/geometry.h"
#include "image/synth.h"
#include "pipeline/transforms/vision.h"
#include "sim/training_loop.h"
#include "tensor/ops.h"
#include "workloads/pipelines.h"
#include "workloads/synthetic.h"

namespace lotus {
namespace {

class IntegrationTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        hwcount::KernelRegistry::instance().reset();
        hwcount::collection::reset();
    }

    void TearDown() override { SetUp(); }
};

TEST_F(IntegrationTest, InstrumentedEpochYieldsFullLotusView)
{
    // --- Build a small IC workload and run one instrumented epoch.
    workloads::ImageNetConfig data_config;
    data_config.num_images = 16;
    data_config.median_width = 64;
    auto store = workloads::buildImageNetStore(data_config);
    auto workload = workloads::makeImageClassification(store, 32);

    trace::TraceLogger logger;
    dataflow::DataLoaderOptions options;
    options.batch_size = 4;
    options.num_workers = 2;
    options.logger = &logger;
    dataflow::DataLoader loader(workload.dataset, workload.collate,
                                options);

    sim::GpuConfig gpu_config;
    gpu_config.time_per_sample = 200 * kMicrosecond;
    gpu_config.logger = &logger;
    sim::GpuModel gpu(gpu_config);
    sim::TrainingLoop trainer(loader, gpu);
    const auto stats = trainer.runEpoch();
    EXPECT_EQ(stats.batches, 4);
    EXPECT_EQ(stats.samples, 16);
    EXPECT_GT(stats.wall_time, 0);

    // --- LotusTrace analysis over the records.
    core::lotustrace::TraceAnalysis analysis(logger.records());
    ASSERT_EQ(analysis.batches().size(), 4u);
    for (const auto &batch : analysis.batches()) {
        EXPECT_TRUE(batch.has_preprocess);
        EXPECT_TRUE(batch.has_wait);
        EXPECT_TRUE(batch.has_consumed);
        EXPECT_TRUE(batch.has_gpu);
    }
    const auto op_stats = analysis.opStats();
    // Loader + 4 transforms + Collate.
    ASSERT_EQ(op_stats.size(), 6u);
    EXPECT_EQ(op_stats[0].name, "Loader");
    for (const auto &op : op_stats)
        EXPECT_GT(op.summary_ms.mean, 0.0) << op.name;

    // --- Visualization is well-formed and complete.
    const std::string json =
        core::lotustrace::toChromeJson(logger.records());
    EXPECT_NE(json.find("SBatchPreprocessed_3"), std::string::npos);
    EXPECT_NE(json.find("SGpuCompute_0"), std::string::npos);

    // --- Hardware view: the registry accumulated real kernel work.
    const auto snapshot = hwcount::KernelRegistry::instance().snapshot();
    const auto hot = snapshot.hotKernels();
    EXPECT_GT(hot.size(), 10u);
    const auto &decode_accum = snapshot.aggregate[static_cast<std::size_t>(
        hwcount::KernelId::DecodeMcu)];
    EXPECT_GT(decode_accum.calls, 0u);
    EXPECT_GT(decode_accum.stats.items, 0u);
    // Training-loop kernels unrelated to preprocessing also appear —
    // the clutter LotusMap exists to filter.
    EXPECT_GT(snapshot
                  .aggregate[static_cast<std::size_t>(
                      hwcount::KernelId::AdamStep)]
                  .calls,
              0u);
}

TEST_F(IntegrationTest, FullLotusMapAttributionWorkflow)
{
    // Shared sample content for the mapping phase.
    Rng rng(7);
    const image::Image img = image::synthesize(rng, 192, 192);
    const std::string blob = image::codec::encode(img);

    // --- Step 1 (paper §IV-B): per-op isolation profiling.
    core::lotusmap::IsolationConfig iso;
    iso.runs = 6;
    iso.warmup_runs = 1;
    iso.sleep_gap = 200 * kMicrosecond;
    iso.sampling.interval = 40 * kMicrosecond;
    iso.sampling.seed = 11;
    core::lotusmap::IsolationRunner runner(iso);

    core::lotusmap::LotusMapper mapper;
    mapper.addProfile(
        runner.profileOp("Loader", [&] { image::codec::decode(blob); }));
    mapper.addProfile(runner.profileOp("RandomResizedCrop", [&] {
        const auto cropped =
            image::crop(img, image::Rect{10, 10, 150, 150});
        image::resize(cropped, 64, 64);
    }));
    mapper.addProfile(runner.profileOp("ToTensor", [&] {
        // One SIMD pass over 192x192 is about one sampling interval;
        // repeat it so every run samples the op's kernel.
        for (int i = 0; i < 8; ++i)
            tensor::rgbToChwF32(img.raw(), img.height(), img.width());
    }));

    ASSERT_EQ(mapper.mappings().size(), 3u);
    for (const auto &mapping : mapper.mappings())
        EXPECT_FALSE(mapping.kernels.empty()) << mapping.op;

    // --- Step 2: an "end-to-end VTune profile": run the ops as a
    // pipeline and convert aggregate kernel work into counters.
    auto &registry = hwcount::KernelRegistry::instance();
    registry.reset();
    std::map<std::string, double> op_seconds;
    for (int i = 0; i < 3; ++i) {
        const auto t0 = SteadyClock::instance().now();
        image::codec::decode(blob);
        const auto t1 = SteadyClock::instance().now();
        const auto cropped =
            image::crop(img, image::Rect{10, 10, 150, 150});
        image::resize(cropped, 64, 64);
        const auto t2 = SteadyClock::instance().now();
        tensor::rgbToChwF32(img.raw(), img.height(), img.width());
        const auto t3 = SteadyClock::instance().now();
        op_seconds["Loader"] += toSec(t1 - t0);
        op_seconds["RandomResizedCrop"] += toSec(t2 - t1);
        op_seconds["ToTensor"] += toSec(t3 - t2);
    }
    hwcount::SimulatedPmu pmu;
    const auto per_kernel =
        pmu.countersForSnapshot(registry.snapshot(), 0.2);

    // --- Step 3: split counters across ops by LotusTrace weights.
    const auto attribution =
        core::lotusmap::splitCounters(mapper, per_kernel, op_seconds);
    ASSERT_EQ(attribution.per_op.size(), 3u);
    const auto &loader = attribution.per_op.at("Loader");
    const auto &crop = attribution.per_op.at("RandomResizedCrop");
    EXPECT_GT(loader.cycles, 0u);
    EXPECT_GT(crop.cycles, 0u);
    // Decode dominates this pipeline's cycles.
    EXPECT_GT(loader.cycles, crop.cycles);

    // Conservation: nothing vanishes in the split (within rounding).
    hwcount::CounterSet total_in;
    for (const auto &counters : per_kernel)
        total_in += counters;
    hwcount::CounterSet total_out = attribution.unattributed;
    for (const auto &[op, counters] : attribution.per_op)
        total_out += counters;
    EXPECT_NEAR(static_cast<double>(total_out.cycles),
                static_cast<double>(total_in.cycles),
                static_cast<double>(total_in.cycles) * 0.001 + 10);
}

TEST_F(IntegrationTest, TraceLogFileRoundTripsThroughAnalysis)
{
    workloads::ImageNetConfig data_config;
    data_config.num_images = 6;
    data_config.median_width = 48;
    auto workload = workloads::makeImageClassification(
        workloads::buildImageNetStore(data_config), 24);
    trace::TraceLogger logger;
    dataflow::DataLoaderOptions options;
    options.batch_size = 2;
    options.num_workers = 1;
    options.logger = &logger;
    dataflow::DataLoader loader(workload.dataset, workload.collate,
                                options);
    while (loader.next().has_value()) {
    }

    TempDir dir("lotus-int");
    const std::string path = dir.file("epoch.lotustrace");
    logger.writeTo(path);
    const auto loaded = trace::TraceLogger::readFrom(path);
    core::lotustrace::TraceAnalysis from_file(loaded);
    core::lotustrace::TraceAnalysis from_memory(logger.records());
    EXPECT_EQ(from_file.batches().size(), from_memory.batches().size());
    EXPECT_EQ(from_file.opStats().size(), from_memory.opStats().size());
}

} // namespace
} // namespace lotus
