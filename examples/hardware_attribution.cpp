/**
 * @file
 * The full LotusMap workflow (paper §IV): map each preprocessing
 * operation to the native functions it invokes via isolation runs
 * under the sampling driver, collect an end-to-end hardware profile,
 * and split the per-function counters back onto operations using
 * LotusTrace time weights — ending with the per-op hardware view of
 * Fig. 6(e)-(h).
 *
 * Uses the real perf_event PMU when the kernel allows it and falls
 * back to the deterministic simulated PMU otherwise (the common case
 * in containers).
 */

#include <cstdio>

#include "common/files.h"
#include "core/lotusmap/isolation.h"
#include "core/lotusmap/mapper.h"
#include "core/lotusmap/splitter.h"
#include "core/lotustrace/analysis.h"
#include "dataflow/data_loader.h"
#include "hwcount/perf_backend.h"
#include "hwcount/thread_counters.h"
#include "image/codec/codec.h"
#include "image/geometry.h"
#include "image/resample.h"
#include "image/synth.h"
#include "tensor/ops.h"
#include "workloads/pipelines.h"
#include "workloads/synthetic.h"

int
main()
{
    using namespace lotus;

    // Which PMU feeds attribution? The registry resolves LOTUS_PMU
    // and probes perf_event_open; workers attach themselves once the
    // DataLoader below spins up.
    auto &counters = hwcount::ThreadCounterRegistry::instance();
    counters.setEnabled(true);
    if (counters.resolvedBackend() == hwcount::PmuBackend::kPerf) {
        std::printf("real per-thread PMU counters via perf_event "
                    "(LOTUS_PMU=sim forces the model).\n");
    } else {
        std::printf("perf_event unavailable here (%s); using the "
                    "simulated PMU (DESIGN.md §12).\n",
                    counters.fallbackReason().c_str());
    }

    // --- Phase 1: build the mapping once (the paper's "preparatory
    // step"), one isolation profile per operation.
    Rng rng(2025);
    const image::Image sample_img =
        image::synthesize(rng, 320, 320, image::SynthOptions{0.6, 4});
    const std::string sample_blob = image::codec::encode(sample_img);

    core::lotusmap::IsolationConfig iso;
    iso.runs = 15;
    iso.warmup_runs = 2;
    iso.sleep_gap = kMillisecond;
    iso.sampling.interval = kMillisecond; // uProf-like
    iso.sampling.seed = 7;
    core::lotusmap::IsolationRunner runner(iso);

    core::lotusmap::LotusMapper mapper;
    mapper.addProfile(runner.profileOp(
        "Loader", [&] { image::codec::decode(sample_blob); }));
    mapper.addProfile(runner.profileOp("RandomResizedCrop", [&] {
        image::resize(image::crop(sample_img,
                                  image::Rect{16, 16, 280, 280}),
                      64, 64);
    }));
    mapper.addProfile(runner.profileOp("RandomHorizontalFlip", [&] {
        image::flipHorizontal(sample_img);
    }));
    mapper.addProfile(runner.profileOp("ToTensor", [&] {
        // One SIMD pass takes well under the 1 ms interval; repeat it
        // so the isolation runs capture the op's kernel.
        for (int i = 0; i < 16; ++i)
            tensor::rgbToChwF32(sample_img.raw(), sample_img.height(),
                                sample_img.width());
    }));

    std::printf("\n== operation -> native-function mapping (Table I "
                "style) ==\n%s", mapper.renderTable().c_str());
    writeFile("mapping_funcs.json", mapper.toJson());
    std::printf("wrote mapping_funcs.json\n");

    // --- Phase 2: an instrumented end-to-end run: LotusTrace gives
    // the per-op time weights, the registry accumulates per-kernel
    // work (what VTune would report per C/C++ function).
    hwcount::KernelRegistry::instance().reset();
    workloads::ImageNetConfig data;
    data.num_images = 32;
    data.median_width = 128;
    auto workload = workloads::makeImageClassification(
        workloads::buildImageNetStore(data), 64);
    trace::TraceLogger logger;
    dataflow::DataLoaderOptions options;
    options.batch_size = 8;
    options.num_workers = 2;
    options.logger = &logger;
    dataflow::DataLoader loader(workload.dataset, workload.collate,
                                options);
    while (loader.next().has_value()) {
    }

    core::lotustrace::TraceAnalysis analysis(logger.records());
    const auto op_seconds = analysis.cpuSecondsByOp();
    const auto snapshot = hwcount::KernelRegistry::instance().snapshot();
    // Measured per-kernel counters when any worker kept a live perf
    // group; the identically shaped cost-model fallback otherwise.
    const auto pmu_snap = counters.snapshot(0.1);
    const auto &per_kernel = pmu_snap.per_kernel;
    std::printf("counter source: %s\n", pmu_snap.source.c_str());

    std::printf("\n== end-to-end profile: %zu native functions with "
                "samples (the \"300+ candidates\" problem) ==\n",
                snapshot.hotKernels().size());

    // --- Phase 3: attribute counters per operation.
    const auto attribution =
        core::lotusmap::splitCounters(mapper, per_kernel, op_seconds);
    std::printf("\n== per-operation hardware view (Fig. 6(e-h) style) "
                "==\n");
    std::printf("%-22s %12s %14s %10s %10s\n", "op", "cycles (M)",
                "instr (M)", "fe-bound", "dram-bound");
    for (const auto &[op, counters] : attribution.per_op) {
        std::printf("%-22s %12.1f %14.1f %9.1f%% %9.1f%%\n", op.c_str(),
                    static_cast<double>(counters.cycles) / 1e6,
                    static_cast<double>(counters.instructions) / 1e6,
                    100.0 * counters.frontendBoundFraction(),
                    100.0 * counters.dramBoundFraction());
    }
    std::printf("\nunattributed (filtered as unrelated to preprocessing): "
                "%.1f M cycles\n",
                static_cast<double>(attribution.unattributed.cycles) /
                    1e6);
    return 0;
}
