/**
 * @file
 * Dataset fetcher: produce one collated batch from a list of indices
 * (the common fetch() method across PyTorch's _MapDatasetFetcher /
 * _IterableDatasetFetcher that LotusTrace instruments for [T1]).
 */

#ifndef LOTUS_DATAFLOW_FETCHER_H
#define LOTUS_DATAFLOW_FETCHER_H

#include <memory>
#include <optional>

#include "cache/sample_cache.h"
#include "dataflow/error_policy.h"
#include "dataflow/read_ahead.h"
#include "dataflow/work_queue.h"
#include "hwcount/registry.h"
#include "pipeline/collate.h"
#include "pipeline/dataset.h"

namespace lotus::dataflow {

/** Counter family for recoverable sample errors; exported with
 *  {policy="...",stage="..."} labels. */
inline constexpr const char *kSampleErrorsMetric =
    "lotus_loader_sample_errors_total";

/**
 * Record one observed recoverable sample error: bump
 * lotus_loader_sample_errors_total{policy,stage} and, when ctx has a
 * tracer, log an ErrorEvent instant ("error:<stage>") in the calling
 * lane. Shared by the map-style Fetcher and the iterable loader.
 */
void noteSampleError(const Error &error, std::int64_t sample_index,
                     pipeline::PipelineContext &ctx, ErrorPolicy policy);

/**
 * Augmentation RNG seeding contract (DESIGN.md §10): every fetch path
 * reseeds ctx.rng with sampleRngSeed(epoch_base, index) immediately
 * before *every* sample attempt — including kSkip refill candidates
 * and kRetry re-reads — so a sample's random draws depend only on
 * (base seed, epoch, dataset index), never on which worker executes
 * it or in what order. This is what makes Schedule::kWorkStealing
 * bit-identical to round-robin and to num_workers=0 for the same
 * seed. The seed is a splitmix64-style mix of the epoch base and the
 * dataset index (not the batch slot), so refilled candidates draw
 * exactly what they would have drawn in their own slot.
 */
std::uint64_t sampleRngSeed(std::uint64_t epoch_base,
                            std::int64_t sample_index);

class Fetcher
{
  public:
    Fetcher(std::shared_ptr<const pipeline::Dataset> dataset,
            std::shared_ptr<const pipeline::Collate> collate);

    /**
     * Produce the batch for @p indices. ctx supplies the tracer, the
     * worker identity and RNG; per-op [T3] records come from the
     * dataset's Compose, and the collation is logged as a [T3] op
     * named "Collate".
     *
     * Recoverable sample errors are resolved by @p errors through
     * resolveTask (dataflow/task_runner.h), slot by slot in order:
     * kSkip refills the bad slot from spare indices
     * ((index + attempt) % dataset size — deterministic, may
     * duplicate a sample within the epoch, keeps the batch full),
     * kRetry re-reads the same index while the error is transient,
     * and kFail (or an unrecoverable error under the other policies)
     * stops at the first failed slot and returns its error, stamped
     * with the failing sample's stage. Every attempt reseeds ctx.rng
     * from (@p seed_base, candidate index). Every observed sample
     * error increments lotus_loader_sample_errors_total{policy,stage}
     * and logs an ErrorEvent trace record in the worker's lane.
     */
    Result<pipeline::Batch> tryFetch(std::int64_t batch_id,
                                     const std::vector<std::int64_t> &indices,
                                     pipeline::PipelineContext &ctx,
                                     const ErrorHandling &errors,
                                     std::uint64_t seed_base) const;

    /**
     * One attempt at @p task's current candidate: reseed ctx.rng with
     * sampleRngSeed(build seed base, candidate), point ctx at the
     * candidate, and read it through getSample(). The caller hands
     * the result to resolveTask.
     */
    Result<pipeline::Sample> attempt(const SampleTask &task,
                                     pipeline::PipelineContext &ctx) const;

    /**
     * The outcome of a fully resolved @p build: the lowest failed
     * slot's error — the first failure a sequential fetch hits, so
     * every schedule surfaces the same error for the same seed — or
     * else the collated batch. Consumes the build's samples/errors.
     */
    Result<pipeline::Batch> finishBuild(BatchBuild &build,
                                        pipeline::PipelineContext &ctx) const;

    /**
     * Collate already-fetched samples into the batch for @p batch_id,
     * with the [T3] "Collate" trace span and hwcount tag.
     */
    pipeline::Batch collateBatch(std::int64_t batch_id,
                                 std::vector<pipeline::Sample> samples,
                                 pipeline::PipelineContext &ctx) const;

    const pipeline::Dataset &dataset() const { return *dataset_; }

    /**
     * Attach a decoded-sample cache. Only engages when the dataset
     * opts in via cacheableSplit(); a non-cacheable dataset keeps the
     * plain tryGet path (warned once at attach time). Every fetch path
     * — pinned whole batches, engine tasks, and the synchronous loader
     * — funnels single-sample reads through getSample(), so attaching
     * here covers all three.
     */
    void setCache(std::shared_ptr<cache::SampleCache> cache);

    /**
     * Attach a read-ahead engine. getSample() then claims the
     * prefetched blob before any store-reading path and stages it for
     * the dataset's readBlobOrStaged(); a claim miss reads
     * synchronously, so the engine is purely opportunistic. With a
     * decoded-sample cache attached, claims happen only on the
     * cache-miss path — a warm hit never consumes (or waits for) a
     * prefetched blob, so the epoch plan leaves cached() indices out.
     */
    void setReadAhead(std::shared_ptr<ReadAhead> read_ahead);

    /**
     * Cache-aware single-sample read. On a warm hit the deterministic
     * prefix (store read + decode + deterministic transforms) is
     * skipped entirely and only the random suffix runs — the caller
     * must have reseeded ctx.rng exactly as for a full tryGet, and the
     * result is bit-identical because the prefix draws nothing. On a
     * miss, the prefix-stage sample is admitted to the cache before
     * the suffix runs. Without a cache (or for a non-cacheable
     * dataset) this is exactly dataset().tryGet().
     */
    Result<pipeline::Sample> getSample(std::int64_t index,
                                       pipeline::PipelineContext &ctx) const;

    /**
     * Would getSample(@p index) be a cache hit? False without a cache
     * or for a non-cacheable dataset. The cache never evicts, so a
     * true answer at epoch start holds for the whole epoch.
     */
    bool cached(std::int64_t index) const;

  private:
    /** The cache key of @p index; requires split_. */
    cache::CacheKey cacheKey(std::int64_t index) const;

    std::shared_ptr<const pipeline::Dataset> dataset_;
    std::shared_ptr<const pipeline::Collate> collate_;
    hwcount::OpTag collate_tag_;
    /** lotus_pipeline_op_ns{op="Collate"}: collate joins the per-op
     *  [T3] histograms so the tuner can weigh it against transforms. */
    metrics::Histogram *collate_ns_;
    std::shared_ptr<cache::SampleCache> cache_;
    /** Cached dataset cacheableSplit(); nullopt (always so without a
     *  cache) disables the cache. */
    std::optional<pipeline::CacheableSplit> split_;
    /** Read-ahead engine shared with the DataLoader (null = off). */
    std::shared_ptr<ReadAhead> read_ahead_;
};

} // namespace lotus::dataflow

#endif // LOTUS_DATAFLOW_FETCHER_H
