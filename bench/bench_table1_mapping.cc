/**
 * @file
 * Table I: mapping of Python-level preprocessing operations to the
 * native functions they invoke, obtained via LotusMap's isolation
 * methodology under an Intel-VTune-like (10 ms) and an AMD-uProf-like
 * (1 ms) sampling driver — plus the bucketing-quality ablation §V-D
 * discusses (what misattributing decode_mcu to RandomResizedCrop
 * would do to its CPU time).
 */

#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "core/lotusmap/evaluate.h"
#include "core/lotusmap/isolation.h"
#include "core/lotusmap/mapper.h"
#include "hwcount/registry.h"
#include "image/codec/codec.h"
#include "image/geometry.h"
#include "image/resample.h"
#include "image/synth.h"
#include "tensor/ops.h"

namespace lotus {
namespace {

using core::lotusmap::IsolationConfig;
using core::lotusmap::IsolationRunner;
using core::lotusmap::LotusMapper;

struct OpDef
{
    std::string name;
    std::function<void()> body;
};

std::vector<OpDef>
makeOps(const image::Image &img, const std::string &blob)
{
    return {
        {"Loader (Image.convert)",
         [&blob] { image::codec::decode(blob); }},
        {"RandomResizedCrop",
         [&img] {
             const auto cropped =
                 image::crop(img, image::Rect{32, 32, 384, 384});
             // The SIMD-tier resample kernels finish in a fraction of
             // the modelled 1 ms sampling interval; repeat the resize
             // so the op stays above the driver's capture floor and
             // the 100 us ground-truth cutoff on every dispatch tier.
             for (int i = 0; i < 4; ++i)
                 image::resize(cropped, 224, 224);
         }},
        {"ToTensor",
         [&img] {
             // One SIMD pass over 512x512 takes ~0.2 ms, which a 10 ms
             // driver misses over 20 runs; repeat it, as above, so the
             // op stays capturable on every dispatch tier.
             for (int i = 0; i < 16; ++i)
                 tensor::rgbToChwF32(img.raw(), img.height(), img.width());
         }},
    };
}

LotusMapper
buildMapping(const std::vector<OpDef> &ops, TimeNs interval,
             std::uint64_t seed, int runs = 20)
{
    IsolationConfig iso;
    iso.runs = runs; // 20 = the paper's worked example
    iso.warmup_runs = 2;
    iso.sleep_gap = kMillisecond;
    iso.sampling.interval = interval;
    iso.sampling.seed = seed;
    IsolationRunner runner(iso);
    LotusMapper mapper;
    for (const auto &op : ops)
        mapper.addProfile(runner.profileOp(op.name, op.body));
    return mapper;
}

} // namespace
} // namespace lotus

int
main()
{
    using namespace lotus;
    bench::printHeader("Python-op -> native-function mapping (LotusMap)",
                       "Table I + the §V-D bucketing-quality example");

    Rng rng(2024);
    const image::Image img = image::synthesize(rng, 512, 512,
                                               image::SynthOptions{0.6, 4});
    const std::string blob = image::codec::encode(img);
    const auto ops = makeOps(img, blob);

    bench::printSection("Intel-like driver (10 ms user-mode sampling)");
    const auto intel = buildMapping(ops, 10 * kMillisecond, 21);
    std::printf("%s", intel.renderTable().c_str());

    bench::printSection("AMD-like driver (1 ms user-mode sampling)");
    const auto amd = buildMapping(ops, kMillisecond, 22);
    std::printf("%s", amd.renderTable().c_str());

    // Quality vs ground truth (a capability the paper's real setup
    // does not have; our reproduction can score the reconstruction).
    // Scored on a longer AMD-like campaign: the capture bound
    // C >= 1-(1-f/s)^n says n = 20 is no longer enough once the SIMD
    // tiers shrink every kernel's in-flight fraction f.
    bench::printSection("mapping quality vs ground truth (AMD-like)");
    const auto amd_long = buildMapping(ops, kMillisecond, 23, 60);
    auto &registry = hwcount::KernelRegistry::instance();
    registry.reset();
    registry.setGroundTruthEnabled(true);
    for (const auto &op : ops) {
        hwcount::OpTagScope scope(registry.registerOp(op.name));
        op.body();
    }
    const auto snapshot = registry.snapshot();
    registry.setGroundTruthEnabled(false);
    if (std::getenv("LOTUS_DEBUG_TRUTH")) {
        for (const auto &[key, accum] : snapshot.by_op)
            std::printf("  truth %-24s %-36s %8.1f us\n",
                        registry.opName(key.first).c_str(),
                        hwcount::kernelInfo(key.second).name,
                        accum.self_time / 1000.0);
    }
    for (const auto &quality : core::lotusmap::evaluateMapping(
             amd_long, snapshot, 100 * kMicrosecond)) {
        std::printf(
            "  %-28s precision %.2f  recall %.2f  time-weighted "
            "recall %.2f\n",
            quality.op.c_str(), quality.precision, quality.recall,
            quality.time_weighted_recall);
    }

    // Bucketing ablation: misassign decode_mcu to RandomResizedCrop
    // and report the CPU-time inflation (§V-D reports 30.21%).
    bench::printSection("bucketing ablation (decode_mcu misassigned)");
    TimeNs rrc_time = 0, decode_time = 0;
    for (const auto &[key, accum] : snapshot.by_op) {
        const auto op_name = registry.opName(key.first);
        if (op_name == "RandomResizedCrop")
            rrc_time += accum.self_time;
        if (key.second == hwcount::KernelId::DecodeMcu)
            decode_time += accum.self_time;
    }
    if (rrc_time > 0) {
        std::printf("  RandomResizedCrop CPU time would inflate by %.1f%% "
                    "(paper: 30.21%% on their trace)\n",
                    100.0 * static_cast<double>(decode_time) /
                        static_cast<double>(rrc_time));
    }
    return 0;
}
