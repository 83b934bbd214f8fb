#include "dataflow/fetcher.h"

#include "common/clock.h"
#include "dataflow/task_runner.h"
#include "metrics/metrics.h"
#include "pipeline/traced_store.h"

namespace lotus::dataflow {

Fetcher::Fetcher(std::shared_ptr<const pipeline::Dataset> dataset,
                 std::shared_ptr<const pipeline::Collate> collate)
    : dataset_(std::move(dataset)), collate_(std::move(collate)),
      collate_tag_(hwcount::KernelRegistry::instance().registerOp(
          pipeline::Collate::kOpName)),
      collate_ns_(metrics::MetricsRegistry::instance().histogram(
          metrics::labeled("lotus_pipeline_op_ns", "op",
                           pipeline::Collate::kOpName)))
{
    LOTUS_ASSERT(dataset_ != nullptr && collate_ != nullptr);
}

void
noteSampleError(const Error &error, std::int64_t sample_index,
                pipeline::PipelineContext &ctx, ErrorPolicy policy)
{
    const std::string stage = error.stage.empty() ? "other" : error.stage;
    metrics::MetricsRegistry::instance()
        .counter(metrics::labeled(kSampleErrorsMetric, "policy",
                                  errorPolicyName(policy), "stage", stage))
        ->add(1);
    if (ctx.logger != nullptr) {
        trace::TraceRecord record;
        record.kind = trace::RecordKind::ErrorEvent;
        record.batch_id = ctx.batch_id;
        record.pid = ctx.pid;
        record.start = SteadyClock::instance().now();
        record.duration = 0;
        record.op_name = "error:" + stage;
        record.sample_index = sample_index;
        ctx.logger->log(std::move(record));
    }
}

std::uint64_t
sampleRngSeed(std::uint64_t epoch_base, std::int64_t sample_index)
{
    // splitmix64 finalizer over (epoch base, index): adjacent indices
    // land in unrelated streams, and the Rng's own splitmix64 seeding
    // expands the result into full generator state.
    std::uint64_t z = epoch_base +
                      0x9E3779B97F4A7C15ull *
                          (static_cast<std::uint64_t>(sample_index) + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

void
Fetcher::setCache(std::shared_ptr<cache::SampleCache> cache)
{
    cache_ = std::move(cache);
    split_ = cache_ != nullptr ? dataset_->cacheableSplit() : std::nullopt;
    if (cache_ != nullptr && !split_.has_value())
        LOTUS_WARN("sample cache attached to a dataset without "
                   "cacheableSplit(); every fetch will miss");
}

void
Fetcher::setReadAhead(std::shared_ptr<ReadAhead> read_ahead)
{
    read_ahead_ = std::move(read_ahead);
}

cache::CacheKey
Fetcher::cacheKey(std::int64_t index) const
{
    return cache::CacheKey{split_->dataset_id, split_->prefix_fingerprint,
                           index};
}

bool
Fetcher::cached(std::int64_t index) const
{
    return split_.has_value() && cache_->holds(cacheKey(index));
}

Result<pipeline::Sample>
Fetcher::getSample(std::int64_t index, pipeline::PipelineContext &ctx) const
{
    // Every fetch path funnels through here, so this one scope
    // correlates all TracedStore reads with the sample being fetched.
    pipeline::IoTraceScope io_scope(&ctx);
    const bool cacheable = split_.has_value();
    if (cacheable) {
        if (std::optional<pipeline::Sample> hit =
                cache_->lookup(cacheKey(index), ctx)) {
            // Warm path: the deterministic prefix is already done;
            // only the random suffix runs, replaying the same rng
            // stream a full fetch would (the prefix draws nothing). No
            // read-ahead claim — a warm hit must never wait on (or
            // consume) I/O.
            dataset_->applySuffix(*hit, ctx);
            return std::move(*hit);
        }
    }
    Result<pipeline::Sample> read = [&] {
        std::optional<pipeline::ScopedStagedBlob> staged;
        if (read_ahead_ != nullptr) {
            if (std::optional<Result<std::string>> blob =
                    read_ahead_->claim(index))
                staged.emplace(index, std::move(*blob));
        }
        return cacheable ? dataset_->tryGetPrefix(index, ctx)
                         : dataset_->tryGet(index, ctx);
    }();
    if (!cacheable || !read.ok())
        return read;
    pipeline::Sample sample = read.take();
    cache_->insert(cacheKey(index), sample, ctx);
    dataset_->applySuffix(sample, ctx);
    return sample;
}

Result<pipeline::Sample>
Fetcher::attempt(const SampleTask &task, pipeline::PipelineContext &ctx) const
{
    ctx.sample_index = task.index;
    // Reseed per attempt, keyed on the *current* candidate: a kSkip
    // refill draws what the replacement index would have drawn in its
    // own slot, and a kRetry re-read replays the same stream.
    if (ctx.rng != nullptr)
        *ctx.rng = Rng(sampleRngSeed(task.build->seed_base, task.index));
    return getSample(task.index, ctx);
}

Result<pipeline::Batch>
Fetcher::tryFetch(std::int64_t batch_id,
                  const std::vector<std::int64_t> &indices,
                  pipeline::PipelineContext &ctx,
                  const ErrorHandling &errors,
                  std::uint64_t seed_base) const
{
    BatchBuild build;
    initBuild(build, batch_id, indices, seed_base, errors);
    ctx.batch_id = batch_id;
    for (SampleTask &task : build.tasks) {
        while (resolveTask(&task, attempt(task, ctx), errors,
                           dataset_->size(),
                           ctx) == TaskOutcome::kRequeue) {
        }
        // Sequential fetches stop at the first failed slot.
        if (build.errors[static_cast<std::size_t>(task.slot)].has_value())
            break;
    }
    ctx.sample_index = -1;
    return finishBuild(build, ctx);
}

Result<pipeline::Batch>
Fetcher::finishBuild(BatchBuild &build,
                     pipeline::PipelineContext &ctx) const
{
    for (std::optional<Error> &error : build.errors) {
        if (error.has_value())
            return std::move(*error);
    }
    ctx.batch_id = build.batch_id;
    return collateBatch(build.batch_id, std::move(build.samples), ctx);
}

pipeline::Batch
Fetcher::collateBatch(std::int64_t batch_id,
                      std::vector<pipeline::Sample> samples,
                      pipeline::PipelineContext &ctx) const
{
    trace::SpanTimer span(ctx.logger, trace::RecordKind::TransformOp);
    span.record().op_name = pipeline::Collate::kOpName;
    span.record().batch_id = batch_id;
    span.record().pid = ctx.pid;
    pipeline::Batch batch;
    {
        metrics::ScopedTimer collate_timer(collate_ns_);
        hwcount::OpTagScope op_scope(collate_tag_);
        batch = collate_->collate(std::move(samples));
    }
    span.finish();
    batch.batch_id = batch_id;
    return batch;
}

} // namespace lotus::dataflow
