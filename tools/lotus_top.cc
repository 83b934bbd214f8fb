/**
 * @file
 * lotus_top — live view of a running (or finished) Lotus pipeline.
 *
 * Reads the JSON endpoint file a metrics::MetricsReporter publishes
 * (atomically replaced every tick) and renders a refreshing
 * per-worker / per-op table: batch throughput, main-process stall
 * ratio, queue depths, fetch/op latency quantiles and decode-path hit
 * rates. A stalled pipeline becomes diagnosable without replaying a
 * Chrome trace.
 *
 * Usage:
 *   lotus_top <metrics.json>                 # refresh until Ctrl-C
 *   lotus_top --once <metrics.json>          # render one frame
 *   lotus_top --interval-ms 500 <file.json>  # custom refresh period
 *   lotus_top --demo                         # built-in synthetic run
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/files.h"
#include "common/rng.h"
#include "common/strings.h"
#include "dataflow/data_loader.h"
#include "dataflow/read_ahead.h"
#include "hwcount/thread_counters.h"
#include "image/codec/codec.h"
#include "image/synth.h"
#include "metrics/export.h"
#include "metrics/metrics.h"
#include "metrics/reporter.h"
#include "pipeline/collate.h"
#include "pipeline/compose.h"
#include "pipeline/dataset.h"
#include "pipeline/image_folder.h"
#include "pipeline/remote_store.h"
#include "pipeline/store.h"
#include "pipeline/traced_store.h"
#include "pipeline/transforms/vision.h"
#include "service/loader_client.h"
#include "service/preproc_server.h"
#include "trace/chrome_reader.h"
#include "tuner/tuner.h"

namespace {

using namespace lotus;
using trace::detail::JsonValue;

/** Human-readable nanoseconds. */
std::string
formatNs(double ns)
{
    if (ns < 1e3)
        return strFormat("%.0fns", ns);
    if (ns < 1e6)
        return strFormat("%.1fus", ns / 1e3);
    if (ns < 1e9)
        return strFormat("%.1fms", ns / 1e6);
    return strFormat("%.2fs", ns / 1e9);
}

double
numberField(const JsonValue &object, const char *key, double fallback = 0.0)
{
    const JsonValue *value = object.find(key);
    if (value == nullptr || value->kind != JsonValue::Kind::Number)
        return fallback;
    return value->number;
}

double
rateFor(const JsonValue &document, const std::string &name)
{
    const JsonValue *rates = document.find("rates");
    if (rates == nullptr)
        return 0.0;
    return numberField(*rates, name.c_str());
}

void
render(const JsonValue &document, const std::string &source)
{
    const int schema = static_cast<int>(
        numberField(document, "schema_version", -1));
    if (schema != metrics::kJsonSchemaVersion) {
        std::printf("lotus_top: unsupported schema_version %d in %s "
                    "(expected %d)\n",
                    schema, source.c_str(), metrics::kJsonSchemaVersion);
        return;
    }
    const double interval_ns = numberField(document, "interval_ns");

    std::printf("lotus_top — %s  (interval %s)\n", source.c_str(),
                formatNs(interval_ns).c_str());

    // Headline: throughput and main-process stall ratio.
    const JsonValue *counters = document.find("counters");
    const double batch_rate =
        rateFor(document, "lotus_loader_batches_total");
    const double wait_rate =
        rateFor(document, "lotus_loader_wait_ns_total");
    // Wait-ns per wall-second; short final ticks can overshoot 100%.
    const double stall_pct =
        std::min(100.0, wait_rate / 1e9 * 100.0);
    std::printf("  batches/s %.1f   main-process stall %.1f%%   "
                "decode fast/ref %.0f/%.0f\n",
                batch_rate, stall_pct,
                counters != nullptr
                    ? numberField(*counters,
                                  "lotus_codec_decode_fast_total")
                    : 0.0,
                counters != nullptr
                    ? numberField(*counters,
                                  "lotus_codec_decode_reference_total")
                    : 0.0);

    // Buffer-pool headline: how well the sample path recycles
    // allocations (steady-state epochs should be all hits).
    const JsonValue *gauges = document.find("gauges");
    const double pool_hits =
        counters != nullptr
            ? numberField(*counters, "lotus_pool_hits_total")
            : 0.0;
    const double pool_misses =
        counters != nullptr
            ? numberField(*counters, "lotus_pool_misses_total")
            : 0.0;
    const double pool_bytes =
        gauges != nullptr ? numberField(*gauges, "lotus_pool_bytes") : 0.0;
    const double pool_requests = pool_hits + pool_misses;
    std::printf("  pool hit %.1f%%  (%.0f hits / %.0f misses)   "
                "pool cached %.1f MiB\n",
                pool_requests > 0 ? pool_hits / pool_requests * 100.0
                                  : 0.0,
                pool_hits, pool_misses, pool_bytes / (1024.0 * 1024.0));

    // Sample-error headline: sum the per-{policy,stage} series of
    // lotus_loader_sample_errors_total. Nonzero means the campaign is
    // skipping/retrying bad records — worth noticing even when the
    // pipeline keeps running.
    double error_total = 0.0, error_rate = 0.0;
    if (counters != nullptr) {
        for (const auto &[name, value] : counters->object) {
            if (name.rfind(dataflow::kSampleErrorsMetric, 0) == 0) {
                error_total += value.number;
                error_rate += rateFor(document, name);
            }
        }
    }
    std::printf("  sample errors %.0f  (%.1f/s)\n", error_total,
                error_rate);

    // Work-stealing headline: per-sample tasks executed and the share
    // a peer stole (sum of the per-thief lotus_loader_steals_total
    // series). All zeros under the round-robin schedule.
    double steals_total = 0.0, steal_rate = 0.0;
    if (counters != nullptr) {
        for (const auto &[name, value] : counters->object) {
            if (name.rfind(dataflow::kStealsMetric, 0) == 0) {
                steals_total += value.number;
                steal_rate += rateFor(document, name);
            }
        }
    }
    const double tasks_total =
        counters != nullptr
            ? numberField(*counters, dataflow::kTasksMetric)
            : 0.0;
    std::printf("  steals %.0f / %.0f tasks  (%.1f%% stolen, %.1f/s)\n",
                steals_total, tasks_total,
                tasks_total > 0 ? steals_total / tasks_total * 100.0
                                : 0.0,
                steal_rate);

    // Decoded-sample cache headline: warm epochs should show hit
    // rates near 100% and a byte level tracking the budget; nonzero
    // corrupt counts mean spill files failed validation (recovered by
    // re-decoding). All zeros when CachePolicy::kNone.
    const double cache_hits =
        counters != nullptr
            ? numberField(*counters, "lotus_cache_hits_total")
            : 0.0;
    const double cache_misses =
        counters != nullptr
            ? numberField(*counters, "lotus_cache_misses_total")
            : 0.0;
    const double cache_lookups = cache_hits + cache_misses;
    const double cache_bytes =
        gauges != nullptr ? numberField(*gauges, "lotus_cache_bytes")
                          : 0.0;
    std::printf("  cache hit %.1f%%  (%.0f hits / %.0f misses)   "
                "resident %.1f MiB   rejects %.0f\n",
                cache_lookups > 0 ? cache_hits / cache_lookups * 100.0
                                  : 0.0,
                cache_hits, cache_misses,
                cache_bytes / (1024.0 * 1024.0),
                counters != nullptr
                    ? numberField(*counters, "lotus_cache_rejects_total")
                    : 0.0);
    std::printf("  cache disk: hits %.0f  spills %.0f  corrupt %.0f\n",
                counters != nullptr
                    ? numberField(*counters,
                                  "lotus_cache_disk_hits_total")
                    : 0.0,
                counters != nullptr
                    ? numberField(*counters, "lotus_cache_spills_total")
                    : 0.0,
                counters != nullptr
                    ? numberField(*counters, "lotus_cache_corrupt_total")
                    : 0.0);

    // Read-ahead headline: how much of the epoch's store I/O the
    // prefetch window absorbed (hits) vs claims that outran the
    // issuers and fell back to synchronous reads (misses), plus the
    // live window occupancy against its configured depth. All zeros
    // when read_ahead_depth is off.
    const double ra_hits =
        counters != nullptr
            ? numberField(*counters, dataflow::kReadAheadHitsMetric)
            : 0.0;
    const double ra_misses =
        counters != nullptr
            ? numberField(*counters, dataflow::kReadAheadMissesMetric)
            : 0.0;
    const double ra_claims = ra_hits + ra_misses;
    std::printf("  read-ahead hit %.1f%%  (%.0f hits / %.0f misses)   "
                "window %.0f/%.0f   issued %.0f (%.1f/s)\n",
                ra_claims > 0 ? ra_hits / ra_claims * 100.0 : 0.0,
                ra_hits, ra_misses,
                gauges != nullptr
                    ? numberField(*gauges,
                                  dataflow::kReadAheadInFlightMetric)
                    : 0.0,
                gauges != nullptr
                    ? numberField(*gauges,
                                  dataflow::kReadAheadDepthMetric)
                    : 0.0,
                counters != nullptr
                    ? numberField(*counters,
                                  dataflow::kReadAheadIssuedMetric)
                    : 0.0,
                rateFor(document, dataflow::kReadAheadIssuedMetric));
    // Remote connection pool: slots in use now, and runs that found
    // none free. A climbing wait rate with every slot busy means the
    // pool, not the store's latency, bounds the I/O stage.
    std::printf("  remote pool: slots in use %.0f   slot waits %.0f "
                "(%.1f/s)\n",
                gauges != nullptr
                    ? numberField(*gauges, pipeline::kRemoteInflightMetric)
                    : 0.0,
                counters != nullptr
                    ? numberField(*counters,
                                  pipeline::kRemoteConnectionWaitsMetric)
                    : 0.0,
                rateFor(document, pipeline::kRemoteConnectionWaitsMetric));

    // Hardware-counter headline: measured per-thread PMU deltas over
    // fetch spans (lotus_pmu_*). All-zero counters mean the run used
    // the simulated backend (or attribution was off) — say so rather
    // than print a meaningless 0.00 IPC.
    const double pmu_cycles =
        counters != nullptr
            ? numberField(*counters, dataflow::kPmuCyclesMetric)
            : 0.0;
    const double pmu_instructions =
        counters != nullptr
            ? numberField(*counters, dataflow::kPmuInstructionsMetric)
            : 0.0;
    const double pmu_llc =
        counters != nullptr
            ? numberField(*counters, dataflow::kPmuLlcMissesMetric)
            : 0.0;
    if (pmu_cycles > 0 && pmu_instructions > 0) {
        std::printf("  pmu: IPC %.2f   LLC miss %.2f/kinst   "
                    "(%.0fM cycles measured)\n",
                    pmu_instructions / pmu_cycles,
                    pmu_llc / pmu_instructions * 1e3, pmu_cycles / 1e6);
    } else {
        std::printf("  pmu: simulated/off (no measured counters)\n");
    }

    // Store-I/O headline from the TracedStore histograms: read count,
    // latency quantiles and total bytes delivered. All zeros when the
    // run used an untraced store.
    const JsonValue *histograms = document.find("histograms");
    const JsonValue *read_ns =
        histograms != nullptr
            ? histograms->find(pipeline::kStoreReadNsMetric)
            : nullptr;
    const JsonValue *read_bytes =
        histograms != nullptr
            ? histograms->find(pipeline::kStoreReadBytesMetric)
            : nullptr;
    const double store_reads =
        read_ns != nullptr ? numberField(*read_ns, "count") : 0.0;
    std::printf("  store reads %.0f  (%.1f/s)   p50 %s  p99 %s   "
                "%.1f MiB read\n",
                store_reads,
                rateFor(document, pipeline::kStoreReadNsMetric),
                read_ns != nullptr
                    ? formatNs(numberField(*read_ns, "p50")).c_str()
                    : "-",
                read_ns != nullptr
                    ? formatNs(numberField(*read_ns, "p99")).c_str()
                    : "-",
                (read_bytes != nullptr ? numberField(*read_bytes, "sum")
                                       : 0.0) /
                    (1024.0 * 1024.0));

    // Tuner headline: the controller's last bottleneck verdict and
    // the config it decided on (see src/tuner/). "idle" until the
    // first onEpochEnd() decision of the run publishes the gauges.
    const double tuner_decisions =
        counters != nullptr
            ? numberField(*counters, tuner::kTunerDecisionsMetric)
            : 0.0;
    if (tuner_decisions > 0 && gauges != nullptr) {
        const auto verdict = static_cast<tuner::Bottleneck>(
            static_cast<int>(
                numberField(*gauges, tuner::kTunerBottleneckMetric)));
        const bool stealing =
            numberField(*gauges, tuner::kTunerScheduleMetric) != 0.0;
        std::printf(
            "  tuner: %s   workers %.0f  prefetch %.0f  %s  "
            "read-ahead %.0f   (%.0f decisions, %.0f changes)\n",
            tuner::bottleneckName(verdict),
            numberField(*gauges, tuner::kTunerWorkersMetric),
            numberField(*gauges, tuner::kTunerPrefetchMetric),
            stealing ? "work-stealing" : "round-robin",
            numberField(*gauges, tuner::kTunerReadAheadDepthMetric),
            tuner_decisions,
            numberField(*counters, tuner::kTunerChangesMetric));
    } else {
        std::printf("  tuner: idle (no decisions this run)\n");
    }

    // Multi-tenant service panel: one row per connected client, fed
    // by the lotus_service_* per-client series. Absent entirely when
    // no PreprocServer ran.
    struct ClientRow
    {
        long long id = 0;
        double tasks = 0.0;
        double rate = 0.0;
        double queue_depth = 0.0;
        double wait_p99 = 0.0;
    };
    std::vector<ClientRow> clients;
    double service_tasks_total = 0.0;
    if (counters != nullptr) {
        for (const auto &[name, value] : counters->object) {
            if (name.rfind(service::kServiceTasksMetric, 0) != 0)
                continue;
            const std::string id = metrics::labelValue(name, "client");
            if (id.empty())
                continue;
            ClientRow row;
            row.id = std::atoll(id.c_str());
            row.tasks = value.number;
            row.rate = rateFor(document, name);
            service_tasks_total += row.tasks;
            if (gauges != nullptr)
                row.queue_depth = numberField(
                    *gauges,
                    metrics::labeled(service::kServiceQueueDepthMetric,
                                     "client", id)
                        .c_str());
            if (histograms != nullptr) {
                const JsonValue *wait = histograms->find(
                    metrics::labeled(service::kServiceWaitNsMetric,
                                     "client", id));
                if (wait != nullptr)
                    row.wait_p99 = numberField(*wait, "p99");
            }
            clients.push_back(row);
        }
    }
    if (!clients.empty()) {
        std::sort(clients.begin(), clients.end(),
                  [](const ClientRow &a, const ClientRow &b) {
                      return a.id < b.id;
                  });
        const double live =
            gauges != nullptr
                ? numberField(*gauges, service::kServiceClientsMetric)
                : 0.0;
        const double rejected =
            counters != nullptr
                ? numberField(*counters, service::kServiceRejectedMetric)
                : 0.0;
        std::printf("\n  service: %.0f clients connected, %.0f rejected\n",
                    live, rejected);
        std::printf("  %-8s %12s %12s %8s %10s %8s\n", "client",
                    "samples", "samples/s", "queue", "t2_p99", "share");
        for (const ClientRow &row : clients)
            std::printf("  %-8lld %12.0f %12.1f %8.0f %10s %7.1f%%\n",
                        row.id, row.tasks, row.rate, row.queue_depth,
                        formatNs(row.wait_p99).c_str(),
                        service_tasks_total > 0
                            ? row.tasks / service_tasks_total * 100.0
                            : 0.0);
    }

    if (gauges != nullptr && !gauges->object.empty()) {
        std::printf("\n  %-44s %10s\n", "gauge", "value");
        for (const auto &[name, value] : gauges->object)
            std::printf("  %-44s %10.0f\n", name.c_str(), value.number);
    }

    if (counters != nullptr && !counters->object.empty()) {
        std::printf("\n  %-44s %12s %10s\n", "counter", "total", "rate/s");
        for (const auto &[name, value] : counters->object)
            std::printf("  %-44s %12.0f %10.1f\n", name.c_str(),
                        value.number, rateFor(document, name));
    }

    if (histograms != nullptr && !histograms->object.empty()) {
        std::printf("\n  %-44s %8s %8s %9s %9s %9s %9s\n", "histogram",
                    "count", "rate/s", "mean", "p50", "p90", "p99");
        for (const auto &[name, hist] : histograms->object) {
            const double count = numberField(hist, "count");
            const double mean =
                count > 0 ? numberField(hist, "sum") / count : 0.0;
            std::printf(
                "  %-44s %8.0f %8.1f %9s %9s %9s %9s\n", name.c_str(),
                count, rateFor(document, name), formatNs(mean).c_str(),
                formatNs(numberField(hist, "p50")).c_str(),
                formatNs(numberField(hist, "p90")).c_str(),
                formatNs(numberField(hist, "p99")).c_str());
        }
    }
    std::fflush(stdout);
}

int
watch(const std::string &path, bool once, int interval_ms)
{
    for (;;) {
        if (!fileExists(path)) {
            std::fprintf(stderr, "lotus_top: %s does not exist (yet?)\n",
                         path.c_str());
            if (once)
                return 1;
        } else {
            if (!once)
                std::printf("\033[2J\033[H"); // clear + home
            render(trace::detail::parseJson(readFile(path)), path);
        }
        if (once)
            return 0;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(interval_ms));
    }
}

/**
 * Demo dataset: synthesized encoded images through a cacheable
 * Resize -> Flip -> ToTensor chain, so --demo exercises the whole
 * stack — decode, transforms, the decoded-sample cache (epoch 2 runs
 * warm), pools, and the metrics endpoint.
 */
std::shared_ptr<pipeline::ImageFolderDataset>
demoDataset()
{
    auto blobs = std::make_shared<pipeline::InMemoryStore>();
    Rng rng(77);
    for (int i = 0; i < 96; ++i)
        blobs->add(image::codec::encode(image::synthesize(rng, 64, 64)));
    // Model a mild remote round trip so the read-ahead stage has real
    // latency to hide, and trace every read so the store-I/O headline
    // shows live numbers.
    pipeline::RemoteStoreOptions remote_options;
    remote_options.rtt = 200 * kMicrosecond;
    auto store = std::make_shared<pipeline::TracedStore>(
        std::make_shared<pipeline::RemoteStore>(std::move(blobs),
                                                remote_options));

    std::vector<pipeline::TransformPtr> transforms;
    transforms.push_back(std::make_unique<pipeline::Resize>(
        /*size=*/48, /*max_size=*/0, /*exact=*/true));
    transforms.push_back(
        std::make_unique<pipeline::RandomHorizontalFlip>(0.5));
    transforms.push_back(std::make_unique<pipeline::ToTensor>());
    return std::make_shared<pipeline::ImageFolderDataset>(
        std::move(store),
        std::make_shared<const pipeline::Compose>(std::move(transforms)),
        /*num_classes=*/10);
}

int
demo()
{
    metrics::ScopedEnable enable;
    // Try to measure real counters for the pmu headline; degrades to
    // the "simulated/off" line when the sandbox denies perf_event.
    hwcount::ThreadCounterRegistry::instance().setEnabled(true);
    const TempDir dir("lotus_top_demo");
    const std::string endpoint = dir.file("metrics.json");

    metrics::MetricsReporterOptions reporter_options;
    reporter_options.interval = 50 * kMillisecond;
    reporter_options.json_path = endpoint;

    {
        metrics::MetricsReporter reporter(reporter_options);
        dataflow::DataLoaderOptions options;
        options.batch_size = 8;
        options.num_workers = 4;
        options.cache_policy = dataflow::CachePolicy::kMemory;
        options.cache_budget_bytes = 64ll << 20;
        options.read_ahead_depth = 16;
        options.io_threads = 2;
        dataflow::DataLoader loader(
            demoDataset(), std::make_shared<pipeline::StackCollate>(),
            options);
        // Two epochs: the first fills the cache, the second runs warm
        // so the headline shows a live hit rate.
        for (int epoch = 0; epoch < 2; ++epoch) {
            loader.startEpoch();
            while (loader.next().has_value()) {
            }
        }

        // Two tenants on one shared fleet, so the per-client service
        // panel renders live rows (ids, rates, [T2] p99, steal share).
        service::PreprocServer server({.num_workers = 4});
        auto first =
            server
                .connect(demoDataset(),
                         std::make_shared<pipeline::StackCollate>(),
                         {.batch_size = 8, .shuffle = true, .seed = 1})
                .take();
        auto second =
            server
                .connect(demoDataset(),
                         std::make_shared<pipeline::StackCollate>(),
                         {.batch_size = 4,
                          .shuffle = true,
                          .seed = 2,
                          .weight = 2.0})
                .take();
        std::thread second_driver([&second] {
            while (second->next().has_value()) {
            }
        });
        while (first->next().has_value()) {
        }
        second_driver.join();
    } // reporter destructor publishes the final tick

    return watch(endpoint, /*once=*/true, /*interval_ms=*/0);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: lotus_top [--once] [--interval-ms N] "
                 "<metrics.json>\n"
                 "       lotus_top --demo\n"
                 "\n"
                 "Renders the JSON endpoint file written by "
                 "lotus::metrics::MetricsReporter.\n");
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    bool once = false;
    int interval_ms = 1000;
    std::string path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--demo") == 0)
            return demo();
        if (std::strcmp(argv[i], "--once") == 0) {
            once = true;
        } else if (std::strcmp(argv[i], "--interval-ms") == 0 &&
                   i + 1 < argc) {
            interval_ms = std::atoi(argv[++i]);
            if (interval_ms <= 0)
                return usage();
        } else if (argv[i][0] == '-') {
            return usage();
        } else {
            path = argv[i];
        }
    }
    if (path.empty())
        return usage();
    return watch(path, once, interval_ms);
}
