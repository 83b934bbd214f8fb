#include "dataflow/iterable_loader.h"

#include "common/strings.h"
#include "common/thread_util.h"
#include "dataflow/fetcher.h"
#include "dataflow/task_runner.h"

namespace lotus::dataflow {

using pipeline::Batch;
using pipeline::Sample;

IterableDataLoader::IterableDataLoader(
    std::shared_ptr<const pipeline::IterableDataset> dataset,
    std::shared_ptr<const pipeline::Collate> collate,
    IterableLoaderOptions options)
    : dataset_(std::move(dataset)), collate_(std::move(collate)),
      options_(options), main_pid_(currentTid()),
      collate_tag_(hwcount::KernelRegistry::instance().registerOp(
          pipeline::Collate::kOpName))
{
    LOTUS_ASSERT(dataset_ != nullptr && collate_ != nullptr);
    LOTUS_ASSERT(options_.batch_size > 0 && options_.num_workers > 0);
}

IterableDataLoader::~IterableDataLoader()
{
    shutdownWorkers();
}

void
IterableDataLoader::startEpoch()
{
    shutdownWorkers();
    ++epoch_;
    workers_done_ = 0;
    next_batch_id_.store(0);
    data_queue_ = std::make_unique<MpmcQueue<DataMsg>>();
    for (int w = 0; w < options_.num_workers; ++w)
        workers_.emplace_back([this, w] { workerLoop(w); });
    epoch_started_ = true;
}

void
IterableDataLoader::workerLoop(int worker_id)
{
    setCurrentThreadName(strFormat("stream-%d", worker_id));
    const std::uint32_t pid = currentTid();
    // Mix the restart counter into the seed through the map-style
    // loader's epochSeedBase, so augmentation streams differ across
    // epochs (epoch 0 keeps the historical seeds).
    // Unlike the map-style loader, seeding here stays per-(worker,
    // epoch): a sharded stream has no stable global sample index to
    // key the per-sample reseeding contract on, so iterable results
    // remain a function of the shard layout (= worker count).
    Rng rng(epochSeedBase(options_.seed, epoch_) +
            static_cast<std::uint64_t>(worker_id) + 1);

    auto stream = dataset_->shard(worker_id, options_.num_workers);
    pipeline::PipelineContext ctx;
    ctx.logger = options_.logger;
    ctx.pid = pid;
    ctx.rng = &rng;

    bool exhausted = false;
    while (!exhausted) {
        // [T1]: one fetch = stream batch_size samples + collate, the
        // same span the map-style fetcher instruments.
        trace::SpanTimer span(options_.logger,
                              trace::RecordKind::BatchPreprocessed);
        span.record().pid = pid;

        std::vector<Sample> samples;
        samples.reserve(static_cast<std::size_t>(options_.batch_size));
        while (static_cast<int>(samples.size()) < options_.batch_size) {
            auto sample = stream->tryNext(ctx);
            if (!sample.ok()) {
                noteSampleError(sample.error(), /*sample_index=*/-1, ctx,
                                options_.error_policy);
                if (options_.error_policy == ErrorPolicy::kFail) {
                    // Ship the failure to the consumer and stop this
                    // shard; next() re-raises it as a LoaderError.
                    DataMsg failed;
                    failed.worker_id = worker_id;
                    failed.batch = Batch{};
                    failed.batch.batch_id = next_batch_id_.fetch_add(1);
                    failed.error = sample.takeError();
                    span.finish();
                    data_queue_->push(std::move(failed));
                    DataMsg done;
                    done.done = true;
                    data_queue_->push(std::move(done));
                    return;
                }
                // kSkip (and kRetry, which degrades to skip on
                // streams: the bad sample is already consumed): drop
                // it and keep filling the batch.
                continue;
            }
            if (!sample.value().has_value()) {
                exhausted = true;
                break;
            }
            samples.push_back(std::move(*sample.value()));
        }
        if (samples.empty() ||
            (exhausted &&
             static_cast<int>(samples.size()) < options_.batch_size &&
             options_.drop_last))
            break;

        const std::int64_t batch_id = next_batch_id_.fetch_add(1);
        ctx.batch_id = batch_id;
        span.record().batch_id = batch_id;

        Batch batch;
        {
            trace::SpanTimer collate_span(options_.logger,
                                          trace::RecordKind::TransformOp);
            collate_span.record().op_name = pipeline::Collate::kOpName;
            collate_span.record().batch_id = batch_id;
            collate_span.record().pid = pid;
            hwcount::OpTagScope op_scope(collate_tag_);
            batch = collate_->collate(std::move(samples));
            collate_span.finish();
        }
        batch.batch_id = batch_id;
        span.finish();

        DataMsg msg;
        msg.worker_id = worker_id;
        msg.batch = std::move(batch);
        if (!data_queue_->push(std::move(msg)))
            return; // queue closed (loader destroyed mid-epoch)
    }

    DataMsg done;
    done.done = true;
    data_queue_->push(std::move(done));
}

std::optional<Batch>
IterableDataLoader::next()
{
    if (!epoch_started_)
        startEpoch();
    while (workers_done_ < options_.num_workers) {
        // [T2]: wait for whichever batch arrives next (no expected
        // order exists for iterable datasets).
        trace::SpanTimer wait_span(options_.logger,
                                   trace::RecordKind::BatchWait);
        wait_span.record().pid = main_pid_;
        auto msg = data_queue_->pop();
        LOTUS_ASSERT(msg.has_value(), "data queue closed mid-stream");
        if (msg->done) {
            ++workers_done_;
            continue;
        }
        if (msg->error.has_value()) {
            // kFail re-raise. The other shards are torn down with the
            // epoch; an explicit startEpoch() restarts streaming.
            const std::int64_t batch_id = msg->batch.batch_id;
            const int worker_id = msg->worker_id;
            Error error = std::move(*msg->error);
            shutdownWorkers();
            epoch_started_ = false;
            throw LoaderError(std::move(error), batch_id, worker_id);
        }
        wait_span.record().batch_id = msg->batch.batch_id;
        wait_span.finish();

        trace::SpanTimer consumed(options_.logger,
                                  trace::RecordKind::BatchConsumed);
        consumed.record().batch_id = msg->batch.batch_id;
        consumed.record().pid = main_pid_;
        consumed.finish();
        return std::move(msg->batch);
    }
    shutdownWorkers();
    return std::nullopt;
}

void
IterableDataLoader::shutdownWorkers()
{
    // Note: epoch_started_ stays true so an exhausted epoch keeps
    // returning nullopt; only an explicit startEpoch() restarts.
    if (data_queue_)
        data_queue_->close();
    for (auto &worker : workers_) {
        if (worker.joinable())
            worker.join();
    }
    workers_.clear();
}

} // namespace lotus::dataflow
