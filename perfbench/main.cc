/**
 * @file
 * perfbench: samples/s delivered to the consumer by the IC/OD/IS
 * pipelines on three engines, with a traced per-layer waterfall.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Every run generates its inputs from the seed (outside any timed
 * window), spins all cores briefly so the host leaves its idle state,
 * then:
 *
 *  - --trace 0 sets the engine up several times (build + warm-up
 *    epoch; the median is setup_s), times whole epochs for the given
 *    seconds with instrumentation at the program defaults, and prints
 *    the end-to-end metrics;
 *  - --trace 1 runs an untraced and a traced engine on the same
 *    inputs, A for a quarter, B for half, A for a quarter of the
 *    seconds, and prints the per-layer metrics of B, whose layer
 *    self-times must add up to its worker-busy time within 5%.
 *
 * Either way the first two epochs of every engine are digested and
 * compared against a num_workers=0 DataLoader over the same inputs.
 * The last stdout line is one JSON object; lines before it start
 * with '#'.
 */

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "cache/sample_cache.h"
#include "common/logging.h"
#include "dataflow/data_loader.h"
#include "dataflow/read_ahead.h"
#include "engines.h"
#include "hwcount/registry.h"
#include "memory/buffer_pool.h"
#include "metrics/metrics.h"
#include "metrics/snapshot.h"
#include "pipeline/image_folder.h"
#include "service/preproc_server.h"

using namespace perfbench;
using namespace lotus;

namespace {

/** Engine set-ups per --trace 0 run; setup_s is their median. */
constexpr int kSetups = 3;
/** All-core spin before the first set-up. */
constexpr double kPreRollSeconds = 1.0;
/** Fewest batches behind a wait_p90_ms. */
constexpr std::int64_t kMinWaitBatches = 100;
/** Largest |trace.waterfall_residual_pct| accepted. */
constexpr double kMaxResidualPct = 5.0;

TimeNs
now()
{
    return SteadyClock::instance().now();
}

double
seconds(TimeNs ns)
{
    return static_cast<double>(ns) / 1e9;
}

/** Hand the buffers input generation left in the pool and the heap
 *  back to the kernel and restart the process's peak-RSS count from
 *  the current resident set, so peakRssMb() leaves out what the
 *  generator once used. Fatal where the kernel does not allow it: the
 *  peak would then include the generator's. */
void
resetPeakRss()
{
    memory::BufferPool::instance().trim();
    malloc_trim(0);
    std::ofstream clear_refs("/proc/self/clear_refs");
    clear_refs << "5";
    clear_refs.close();
    LOTUS_ASSERT(clear_refs.good(), "cannot reset the peak RSS count "
                                    "(/proc/self/clear_refs)");
}

/** Peak resident set (VmHWM) since the last resetPeakRss(). */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    LOTUS_ASSERT(false, "no VmHWM in /proc/self/status");
    return 0.0;
}

/** Linear-interpolated quantile (numpy's default) of @p values. */
double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] +
           (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Spin every core for @p duration_s so the timed phases do not start
 *  on vCPUs the host has parked. */
void
preRoll(double duration_s)
{
    const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
    const TimeNs deadline =
        now() + static_cast<TimeNs>(duration_s * static_cast<double>(kSecond));
    std::atomic<std::uint64_t> sink{0};
    std::vector<std::thread> spinners;
    for (unsigned t = 0; t < threads; ++t) {
        spinners.emplace_back([&, t] {
            std::uint64_t x = t + 1;
            while (now() < deadline) {
                for (int i = 0; i < 4096; ++i)
                    x = x * 6364136223846793005ull + 1442695040888963407ull;
            }
            sink += x;
        });
    }
    for (auto &spinner : spinners)
        spinner.join();
}

/** Ordered "name": {value, unit} pairs for the JSON line. */
class MetricSet
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        entries_.push_back({name, value, unit});
    }

    std::string
    json() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            char buf[256];
            std::snprintf(buf, sizeof(buf),
                          "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                          i == 0 ? "" : ", ", entries_[i].name.c_str(),
                          std::isfinite(entries_[i].value) ? entries_[i].value
                                                           : 0.0,
                          entries_[i].unit.c_str());
            out += buf;
        }
        return out + "}";
    }

    void
    print() const
    {
        for (const auto &entry : entries_)
            std::printf("# %-52s %14.6g %s\n", entry.name.c_str(),
                        entry.value, entry.unit.c_str());
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

/** Per-stream digests of epochs 0 and 1, as far as @p engine ran. */
using Digests = std::vector<std::vector<std::uint64_t>>;

Digests
digestsOf(const Engine &engine)
{
    Digests digests;
    for (const auto &stream : engine.streams())
        digests.push_back(stream->digests());
    return digests;
}

/** Batches attempted/failed and digest checks over a whole run. */
struct Verdict
{
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    bool correct = true;
    /** Batches per epoch of each stream (from the warm-up epoch). */
    std::vector<std::int64_t> epoch_batches;

    void
    count(const Window &window)
    {
        for (const auto &stream : window.streams) {
            attempted += stream.batches + stream.failed;
            failed += stream.failed;
            if (stream.failed > 0) {
                correct = false;
                std::printf("# LoaderError: %s\n", stream.error.c_str());
            }
        }
    }

    /** Compare epochs [0, @p epochs) of @p got with the reference; a
     *  mismatched epoch fails all its batches. */
    void
    check(const char *what, const Digests &got, const Digests &reference,
          std::size_t epochs)
    {
        for (std::size_t s = 0; s < got.size(); ++s) {
            for (std::size_t e = 0; e < epochs; ++e) {
                if (e < got[s].size() && got[s][e] == reference[s][e])
                    continue;
                correct = false;
                failed += epoch_batches[s];
                std::printf("# digest mismatch: %s engine, stream %zu, "
                            "epoch %zu\n",
                            what, s, e);
            }
        }
    }

    /** Print the verdict and the result line; false if the run
     *  failed. */
    bool
    print(const MetricSet &metrics) const
    {
        const bool ok = correct && failed == 0;
        std::printf("# correct: %s (attempted %" PRId64 ", failed %" PRId64
                    ")\n",
                    ok ? "yes" : "NO", attempted, failed);
        std::printf("{\"correct\": %s, \"attempted\": %" PRId64
                    ", \"failed\": %" PRId64 ", \"metrics\": %s}\n",
                    ok ? "true" : "false", attempted, failed,
                    metrics.json().c_str());
        return ok;
    }
};

/** Build + warm-up epoch; @p setup_s gets the time both took. */
std::unique_ptr<Engine>
setUp(WorkloadId workload, const Inputs &inputs, std::uint64_t seed,
      bool traced, Verdict &verdict, double &setup_s)
{
    const TimeNs start = now();
    auto engine = buildEngine(workload, inputs, seed, traced);
    const Window warm = engine->window(0.0);
    setup_s = seconds(now() - start);
    verdict.count(warm);
    verdict.epoch_batches.clear();
    for (const auto &stream : warm.streams)
        verdict.epoch_batches.push_back(stream.batches);
    return engine;
}

int
runTimed(WorkloadId workload, const Inputs &inputs, std::uint64_t seed,
         double window_s)
{
    Verdict verdict;
    std::vector<double> setups(kSetups);
    auto engine = setUp(workload, inputs, seed, false, verdict, setups[0]);

    const Window window = engine->window(window_s);
    const double rss_mb = peakRssMb();
    verdict.count(window);
    const Digests timed = digestsOf(*engine);
    engine.reset();

    // The remaining set-ups come after the window so that only one
    // engine's memory is resident before peak_rss_mb is read.
    std::vector<Digests> warm_ups;
    for (int i = 1; i < kSetups; ++i) {
        engine = setUp(workload, inputs, seed, false, verdict, setups[i]);
        warm_ups.push_back(digestsOf(*engine));
        engine.reset();
    }

    // The single-threaded reference also runs after the window, so it
    // cannot leave the host cold for it.
    const Digests reference = referenceDigests(workload, inputs, seed);
    verdict.check("timed", timed, reference, 2);
    for (const auto &warm_up : warm_ups)
        verdict.check("set-up", warm_up, reference, 1);

    const auto samples = static_cast<double>(window.samples());
    const StreamWindow &front = window.streams.front();
    if (front.batches < kMinWaitBatches) {
        verdict.correct = false;
        std::printf("# too few batches behind wait_p90_ms: %" PRId64 "\n",
                    front.batches);
    }
    for (std::size_t s = 0; s < window.streams.size(); ++s) {
        const StreamWindow &stream = window.streams[s];
        std::printf("# stream %zu: %" PRId64 " samples, %" PRId64
                    " batches, %" PRId64 " epochs\n",
                    s, stream.samples, stream.batches, stream.epochs);
    }
    std::printf("# window %.3f s; wait_p90_ms from %" PRId64
                " batches of stream 0; set-ups",
                window.wall_s, front.batches);
    for (const double s : setups)
        std::printf(" %.3f", s);
    std::printf(" s\n");

    MetricSet metrics;
    metrics.add("samples_per_s", ratio(samples, window.wall_s), "1/s");
    metrics.add("wait_p90_ms", quantile(front.wait_ms, 0.9), "ms");
    metrics.add("cpu_ms_per_sample", 1e3 * ratio(window.cpu_s, samples),
                "ms");
    metrics.add("peak_rss_mb", rss_mb, "MB");
    metrics.add("setup_s", quantile(setups, 0.5), "s");
    metrics.print();
    return verdict.print(metrics) ? 0 : 1;
}

/** Sum of every counter in @p family (all label sets). */
double
counterFamily(const metrics::Snapshot &delta, const std::string &family)
{
    double total = 0.0;
    for (const auto &[name, value] : delta.counters) {
        std::string fam, labels;
        metrics::splitLabeled(name, fam, labels);
        if (fam == family)
            total += static_cast<double>(value);
    }
    return total;
}

/** Layer-visible state of the traced engine at one instant. */
struct LayerState
{
    hwcount::RegistrySnapshot kernels;
    metrics::Snapshot metrics;
    memory::BufferPool::Stats pool;
    cache::SampleCache::Stats cache;
    std::uint64_t round_trips = 0;
    std::uint64_t wire_bytes = 0;
    std::map<std::int64_t, std::uint64_t> service_ns;

    static LayerState
    capture(const Engine &engine)
    {
        LayerState state;
        state.kernels = hwcount::KernelRegistry::instance().snapshot();
        state.metrics = metrics::MetricsRegistry::instance().snapshot();
        state.pool = memory::BufferPool::instance().stats();
        if (engine.loader() != nullptr && engine.loader()->cache() != nullptr)
            state.cache = engine.loader()->cache()->stats();
        if (engine.remote() != nullptr) {
            state.round_trips = engine.remote()->roundTrips();
            state.wire_bytes = engine.remote()->bytesTransferred();
        }
        if (engine.server() != nullptr) {
            for (const auto &client : engine.server()->stats().clients)
                state.service_ns[client.id] = client.service_ns;
        }
        return state;
    }
};

/** Every op of the three pipelines; each run reports all of them. */
const char *const kOps[] = {
    "Loader",           "RandomResizedCrop", "Resize",
    "RandomHorizontalFlip", "ToTensor",      "Normalize",
    "RandBalancedCrop", "RandomFlip",        "Cast",
    "RandomBrightnessAugmentation",          "GaussianNoise",
};

const std::pair<const char *, hwcount::KernelId> kKernels[] = {
    {"decode_mcu", hwcount::KernelId::DecodeMcu},
    {"jpeg_idct_islow", hwcount::KernelId::IdctBlock},
    {"sep_upsample", hwcount::KernelId::ChromaUpsample},
    {"ycc_rgb_convert", hwcount::KernelId::YccToRgb},
    {"resample_horizontal", hwcount::KernelId::ResampleHorizontal},
    {"resample_vertical", hwcount::KernelId::ResampleVertical},
};

/** Every codec kernel that runs under the Loader's decode. */
const hwcount::KernelId kDecodeKernels[] = {
    hwcount::KernelId::DecodeMcu,         hwcount::KernelId::FillBitBuffer,
    hwcount::KernelId::DequantizeBlock,   hwcount::KernelId::IdctBlock,
    hwcount::KernelId::ChromaUpsample,    hwcount::KernelId::YccToRgb,
    hwcount::KernelId::DecompressOnepass,
};

int
runTraced(WorkloadId workload, const Inputs &inputs, std::uint64_t seed,
          double window_s)
{
    Verdict verdict;
    double setup_s = 0.0;
    auto plain = setUp(workload, inputs, seed, false, verdict, setup_s);
    auto traced = setUp(workload, inputs, seed, true, verdict, setup_s);
    Instruments &instruments = *traced->instruments();

    // A, B, A: the untraced quarters bracket the traced half so a
    // drifting host moves both sides of trace.overhead_pct alike.
    const Window a1 = plain->window(window_s / 4);

    instruments.probes.reset();
    instruments.logger.reset();
    metrics::setEnabled(true);
    const LayerState before = LayerState::capture(*traced);
    const Window b = traced->window(window_s / 2);
    const LayerState after = LayerState::capture(*traced);
    metrics::setEnabled(false);

    const Window a2 = plain->window(window_s / 4);
    for (const Window *window : {&a1, &b, &a2})
        verdict.count(*window);
    const Digests reference = referenceDigests(workload, inputs, seed);
    verdict.check("untraced", digestsOf(*plain), reference, 2);
    verdict.check("traced", digestsOf(*traced), reference, 2);

    // --- per-layer numbers of the traced window -------------------------
    const auto samples = static_cast<double>(b.samples());
    const double wall_b = b.wall_s;
    double batches = 0.0, epochs = 0.0;
    std::vector<double> waits;
    for (const auto &window : b.streams) {
        batches += static_cast<double>(window.batches);
        epochs += static_cast<double>(window.epochs);
        waits.insert(waits.end(), window.wait_ms.begin(), window.wait_ms.end());
    }
    const Probes &probes = instruments.probes;
    auto ms = [](double ns) { return ns / 1e6; };
    auto tallyNs = [](const Tally &tally) {
        return static_cast<double>(tally.ns.load());
    };

    // The Loader (store read + decode) is not a Transform, so its time
    // comes from the program's own [T3] spans; the transforms' from
    // the decorators.
    std::map<std::string, double> op_ns;
    double loader_ns = 0.0, ops_ns = 0.0;
    for (const auto &record : instruments.logger.records()) {
        if (record.kind == trace::RecordKind::TransformOp &&
            record.op_name == pipeline::ImageFolderDataset::kLoaderOpName)
            loader_ns += static_cast<double>(record.duration);
    }
    op_ns[pipeline::ImageFolderDataset::kLoaderOpName] = loader_ns;
    for (const auto &[name, tally] : probes.ops) {
        op_ns[name] = tallyNs(*tally);
        ops_ns += tallyNs(*tally);
    }

    auto kernelDelta = [&](hwcount::KernelId id) {
        const auto i = static_cast<std::size_t>(id);
        return after.kernels.aggregate[i].self_time -
               before.kernels.aggregate[i].self_time;
    };
    double decode_ns = 0.0;
    for (const auto id : kDecodeKernels)
        decode_ns += static_cast<double>(kernelDelta(id));
    const auto idct = static_cast<std::size_t>(hwcount::KernelId::IdctBlock);
    const double idct_blocks = static_cast<double>(
        after.kernels.aggregate[idct].stats.items -
        before.kernels.aggregate[idct].stats.items);

    const metrics::Snapshot delta = metrics::diff(after.metrics, before.metrics);
    const double steals = counterFamily(delta, dataflow::kStealsMetric);
    const double ooo = counterFamily(delta, "lotus_loader_ooo_batches_total");
    const double ra_hits = counterFamily(delta, dataflow::kReadAheadHitsMetric);
    const double ra_misses =
        counterFamily(delta, dataflow::kReadAheadMissesMetric);
    const memory::BufferPool::Stats pool = after.pool - before.pool;
    const double cache_hits =
        static_cast<double>(after.cache.hits - before.cache.hits);
    const double cache_misses =
        static_cast<double>(after.cache.misses - before.cache.misses);

    // The IC tenant connects first, so it is client 0.
    double fleet_ns = 0.0, ic_fleet_ns = 0.0;
    for (const auto &[id, ns] : after.service_ns) {
        const double d = static_cast<double>(ns - before.service_ns.at(id));
        fleet_ns += d;
        if (id == 0)
            ic_fleet_ns += d;
    }

    // Waterfall: worker-busy time is time inside Dataset and Collate
    // calls; the layers inside it are the Loader span (store read +
    // decode), each transform, and collate. What they leave over is
    // dataset glue plus instrumentation, and must stay within 5%.
    const double busy_ns = tallyNs(probes.dataset) + tallyNs(probes.collate);
    const double store_ns = tallyNs(probes.store_in_dataset);
    const double residual_ns =
        busy_ns - loader_ns - ops_ns - tallyNs(probes.collate);
    const double residual_pct = 100.0 * ratio(residual_ns, busy_ns);

    std::printf("# waterfall of worker-busy time (%.1f ms/sample):\n",
                ms(ratio(busy_ns, samples)));
    auto row = [&](const std::string &layer, double ns) {
        std::printf("#   %-30s %9.4f ms/sample %6.2f%%\n", layer.c_str(),
                    ms(ratio(ns, samples)), 100.0 * ratio(ns, busy_ns));
    };
    row("store read (worker)", store_ns);
    row("Loader self (decode)", loader_ns - store_ns);
    for (const auto &[name, tally] : probes.ops)
        row("op " + name, tallyNs(*tally));
    row("collate", tallyNs(probes.collate));
    row("residual", residual_ns);

    const double sps_plain =
        ratio(static_cast<double>(a1.samples() + a2.samples()),
              a1.wall_s + a2.wall_s);
    const double sps_traced = ratio(samples, wall_b);
    std::printf("# samples/s untraced %.2f traced %.2f; traced window "
                "%.3f s, %.0f batches, %.0f epochs\n",
                sps_plain, sps_traced, wall_b, batches, epochs);

    std::vector<double> is_waits;
    for (std::size_t s = 0; s < b.streams.size(); ++s) {
        if (traced->streams()[s]->name() == "is")
            is_waits = b.streams[s].wait_ms;
    }
    std::vector<double> store_lat_ms;
    for (const TimeNs ns : probes.storeLatencies())
        store_lat_ms.push_back(ms(static_cast<double>(ns)));

    MetricSet m;
    m.add("image.decode_ms_per_sample", ms(ratio(decode_ns, samples)), "ms");
    for (const auto &[name, id] : kKernels)
        m.add(std::string("image.kernel_ms_per_sample.") + name,
              ms(ratio(static_cast<double>(kernelDelta(id)), samples)), "ms");
    m.add("image.idct_blocks_per_sample", ratio(idct_blocks, samples),
          "count");
    for (const char *op : kOps)
        m.add(std::string("pipeline.op_ms_per_sample.") + op,
              ms(ratio(op_ns[op], samples)), "ms");
    m.add("pipeline.collate_ms_per_batch",
          ms(ratio(tallyNs(probes.collate), batches)), "ms");
    m.add("pipeline.store.read_ms_per_sample",
          ms(ratio(tallyNs(probes.store_all), samples)), "ms");
    m.add("pipeline.store.read_p90_ms", quantile(store_lat_ms, 0.9), "ms");
    m.add("pipeline.store.bytes_per_sample",
          ratio(static_cast<double>(probes.store_bytes.load()), samples),
          "B");
    m.add("pipeline.remote.round_trips_per_epoch",
          ratio(static_cast<double>(after.round_trips - before.round_trips),
                epochs),
          "count");
    m.add("pipeline.remote.wire_bytes_per_sample",
          ratio(static_cast<double>(after.wire_bytes - before.wire_bytes),
                samples),
          "B");
    m.add("dataflow.worker_busy_frac",
          ratio(busy_ns, 1e9 * wall_b * kWorkers), "frac");
    m.add("dataflow.wait_ms_per_batch",
          ratio(std::accumulate(waits.begin(), waits.end(), 0.0), batches),
          "ms");
    m.add("dataflow.steals_per_batch", ratio(steals, batches), "count");
    m.add("dataflow.ooo_batch_frac", ratio(ooo, batches), "frac");
    m.add("dataflow.readahead.hit_ratio",
          ratio(ra_hits, ra_hits + ra_misses), "frac");
    m.add("cache.hit_ratio", ratio(cache_hits, cache_hits + cache_misses),
          "frac");
    m.add("cache.evictions_per_epoch",
          ratio(static_cast<double>(after.cache.evictions -
                                    before.cache.evictions),
                epochs),
          "count");
    m.add("cache.resident_mb",
          static_cast<double>(after.cache.bytes) / (1024.0 * 1024.0), "MB");
    m.add("memory.pool_miss_ratio",
          ratio(static_cast<double>(pool.misses),
                static_cast<double>(pool.hits + pool.misses)),
          "frac");
    m.add("service.ic_fleet_share", ratio(ic_fleet_ns, fleet_ns), "frac");
    m.add("service.is_wait_p90_ms", quantile(is_waits, 0.9), "ms");
    m.add("trace.overhead_pct",
          100.0 * ratio(sps_plain - sps_traced, sps_plain), "%");
    m.add("trace.waterfall_residual_pct", residual_pct, "%");
    m.print();

    if (std::fabs(residual_pct) > kMaxResidualPct) {
        verdict.correct = false;
        std::printf("# waterfall residual %.2f%% exceeds %.0f%%\n",
                    residual_pct, kMaxResidualPct);
    }
    return verdict.print(m) ? 0 : 1;
}

[[noreturn]] void
usage(const char *message)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<ic_steal_local|od_remote_cached|tenants_ic_is> --seed <n> "
                 "--seconds <s> --trace <0|1>\n",
                 message);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    // Line-buffered, so a run that dies still shows how far it got.
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2)
        args[argv[i]] = argv[i + 1];
    if (argc % 2 != 1)
        usage("flags take one value each");
    for (const char *flag : {"--workload", "--seed", "--seconds", "--trace"}) {
        if (!args.count(flag))
            usage((std::string("missing ") + flag).c_str());
    }
    const auto workload = parseWorkload(args["--workload"]);
    if (!workload)
        usage("unknown workload");
    char *end = nullptr;
    const std::uint64_t seed = std::strtoull(args["--seed"].c_str(), &end, 10);
    if (*end != '\0')
        usage("--seed must be a non-negative integer");
    const double window_s = std::strtod(args["--seconds"].c_str(), &end);
    if (*end != '\0' || !(window_s > 0.0 && window_s <= 120.0))
        usage("--seconds must be in (0, 120]");
    const std::string trace = args["--trace"];
    if (trace != "0" && trace != "1")
        usage("--trace must be 0 or 1");

    const TimeNs start = now();
    const Inputs inputs = makeInputs(*workload, seed);
    std::printf("# inputs generated in %.2f s\n", seconds(now() - start));
    resetPeakRss();
    std::printf("# resident after input generation: %.1f MB\n", peakRssMb());
    preRoll(kPreRollSeconds);
    return trace == "1" ? runTraced(*workload, inputs, seed, window_s)
                        : runTimed(*workload, inputs, seed, window_s);
}
