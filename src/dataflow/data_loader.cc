#include "dataflow/data_loader.h"

#include <limits>

#include "common/thread_util.h"
#include "dataflow/sampler.h"
#include "dataflow/task_runner.h"
#include "hwcount/thread_counters.h"

namespace lotus::dataflow {

using pipeline::Batch;

namespace {

/**
 * Option validation is a user-facing contract (fatal, not panic):
 * bad configs must fail loudly at construction — and now also at
 * reconfigure(), which funnels through the same checks — never
 * half-run.
 */
void
validateOptions(const DataLoaderOptions &options)
{
    if (options.batch_size <= 0)
        LOTUS_FATAL("DataLoaderOptions: batch_size must be > 0 (got %d)",
                    options.batch_size);
    if (options.num_workers < 0)
        LOTUS_FATAL("DataLoaderOptions: num_workers must be >= 0 (got %d)",
                    options.num_workers);
    if (options.prefetch_factor < 1)
        LOTUS_FATAL(
            "DataLoaderOptions: prefetch_factor must be >= 1 (got %d)",
            options.prefetch_factor);
    if (options.max_retries < 0)
        LOTUS_FATAL("DataLoaderOptions: max_retries must be >= 0 (got %d)",
                    options.max_retries);
    if (options.max_refill_attempts < 0)
        LOTUS_FATAL(
            "DataLoaderOptions: max_refill_attempts must be >= 0 (got %d)",
            options.max_refill_attempts);
    // The priming budget prefetch_factor * num_workers must stay an
    // int: overflow used to wrap silently and prime nothing (or spin
    // the epoch-start loop for minutes). Huge-but-valid factors are
    // fine — startEpoch caps the priming rounds at numBatches().
    if (static_cast<std::int64_t>(options.prefetch_factor) *
            std::max(options.num_workers, 1) >
        std::numeric_limits<int>::max())
        LOTUS_FATAL("DataLoaderOptions: prefetch_factor x num_workers "
                    "overflows (%d x %d)",
                    options.prefetch_factor, options.num_workers);
    if (options.cache_policy != CachePolicy::kNone) {
        if (options.cache_budget_bytes <= 0)
            LOTUS_FATAL("DataLoaderOptions: cache_budget_bytes must be "
                        "> 0 when caching (got %lld)",
                        static_cast<long long>(options.cache_budget_bytes));
        if (options.cache_shards <= 0)
            LOTUS_FATAL(
                "DataLoaderOptions: cache_shards must be > 0 (got %d)",
                options.cache_shards);
    }
    if (options.cache_policy == CachePolicy::kMaterialize &&
        options.materialize_dir.empty())
        LOTUS_FATAL("DataLoaderOptions: CachePolicy::kMaterialize needs "
                    "a materialize_dir");
    if (options.cache_policy != CachePolicy::kMaterialize &&
        !options.materialize_dir.empty())
        LOTUS_FATAL("DataLoaderOptions: materialize_dir is set but "
                    "cache_policy is not kMaterialize");
    if (options.read_ahead_depth < 0)
        LOTUS_FATAL(
            "DataLoaderOptions: read_ahead_depth must be >= 0 (got %d)",
            options.read_ahead_depth);
    if (options.io_threads < 0)
        LOTUS_FATAL("DataLoaderOptions: io_threads must be >= 0 (got %d)",
                    options.io_threads);
    if ((options.read_ahead_depth > 0) != (options.io_threads > 0))
        LOTUS_FATAL("DataLoaderOptions: read_ahead_depth and io_threads "
                    "must be enabled together (got %d and %d)",
                    options.read_ahead_depth, options.io_threads);
}

} // namespace

DataLoader::DataLoader(std::shared_ptr<const pipeline::Dataset> dataset,
                       std::shared_ptr<const pipeline::Collate> collate,
                       DataLoaderOptions options)
    : dataset_(dataset),
      fetcher_(std::make_shared<Fetcher>(std::move(dataset),
                                         std::move(collate))),
      options_(options), main_pid_(currentTid())
{
    validateOptions(options_);
    if (options_.cache_policy != CachePolicy::kNone) {
        cache::CacheConfig config;
        config.budget_bytes = options_.cache_budget_bytes;
        config.shards = options_.cache_shards;
        if (options_.cache_policy == CachePolicy::kMaterialize) {
            const auto split = dataset_->cacheableSplit();
            config.materialize_dir = options_.materialize_dir;
            config.fingerprint =
                split.has_value() ? split->prefix_fingerprint : 0;
        }
        // Directory collisions between live loaders are fatal inside
        // MaterializeStore's claim, i.e. right here at construction.
        cache_ = std::make_shared<cache::SampleCache>(config);
        fetcher_->setCache(cache_);
    }
    rebuildReadAhead();
    registerMetrics();
    rebuildBatches();
}

Result<std::unique_ptr<DataLoader>>
DataLoader::connect(std::shared_ptr<TaskEngine> engine,
                    std::shared_ptr<const pipeline::Dataset> dataset,
                    std::shared_ptr<const pipeline::Collate> collate,
                    DataLoaderOptions options, double weight)
{
    LOTUS_ASSERT(engine != nullptr && options.num_workers > 0,
                 "a connected loader needs an engine and a window");
    // Cache and read-ahead hang off the Fetcher the shared fleet runs;
    // a connected loader never rebuilds them, so it may not have them.
    LOTUS_ASSERT(options.cache_policy == CachePolicy::kNone &&
                     options.read_ahead_depth == 0,
                 "a connected loader runs without cache and read-ahead");
    std::unique_ptr<DataLoader> loader(
        new DataLoader(std::move(dataset), std::move(collate), options));
    auto client = engine->connect(loader->clientSpec(weight));
    if (!client.ok())
        return client.takeError();
    loader->engine_ = std::move(engine);
    loader->client_ = client.take();
    loader->bound_ = true;
    return loader;
}

ClientSpec
DataLoader::clientSpec(double weight) const
{
    ClientSpec spec;
    spec.fetcher = fetcher_;
    spec.errors = ErrorHandling{options_.error_policy, options_.max_retries,
                                options_.max_refill_attempts};
    spec.batch_size = options_.batch_size;
    spec.weight = weight;
    spec.logger = options_.logger;
    return spec;
}

void
DataLoader::rebuildReadAhead()
{
    if (options_.read_ahead_depth <= 0) {
        if (read_ahead_ != nullptr) {
            read_ahead_.reset();
            fetcher_->setReadAhead(nullptr);
        }
        return;
    }
    const pipeline::BlobStore *store = dataset_->blobStore();
    if (store == nullptr) {
        LOTUS_WARN("read_ahead_depth set but the dataset exposes no "
                   "blobStore(); running without read-ahead");
        return;
    }
    if (read_ahead_ != nullptr &&
        read_ahead_->options().depth == options_.read_ahead_depth &&
        read_ahead_->options().io_threads == options_.io_threads)
        return;
    ReadAheadOptions ra;
    ra.depth = options_.read_ahead_depth;
    ra.io_threads = options_.io_threads;
    // Build the replacement first, then swap: the fetcher's pointer is
    // never left dangling, and the old engine joins its I/O threads
    // when the last reference drops.
    read_ahead_ = std::make_shared<ReadAhead>(store, ra);
    fetcher_->setReadAhead(read_ahead_);
}

LoaderReconfig
DataLoader::currentConfig() const
{
    LoaderReconfig config;
    config.num_workers = options_.num_workers;
    config.prefetch_factor = options_.prefetch_factor;
    config.schedule = options_.schedule;
    config.read_ahead_depth = options_.read_ahead_depth;
    config.io_threads = options_.io_threads;
    return config;
}

void
DataLoader::reconfigure(const LoaderReconfig &next)
{
    // The worker fleet and the read-ahead plan are per-epoch state;
    // swapping them under a live epoch would orphan in-flight
    // batches. Epoch boundaries only (DESIGN.md §14). A connected
    // loader's fleet is the server's, and may still be draining this
    // client's canceled tasks through the shared Fetcher.
    if (bound_)
        LOTUS_FATAL("DataLoader::reconfigure: client %lld runs on a "
                    "shared task engine; its fleet is not reconfigurable",
                    static_cast<long long>(client_->id));
    if (epoch_started_ && rcvd_idx_ < numBatches())
        LOTUS_FATAL("DataLoader::reconfigure: epoch %lld still in "
                    "flight (batch %lld of %lld); reconfiguration is "
                    "epoch-boundary only",
                    static_cast<long long>(epoch_),
                    static_cast<long long>(rcvd_idx_),
                    static_cast<long long>(numBatches()));
    DataLoaderOptions candidate = options_;
    candidate.num_workers = next.num_workers;
    candidate.prefetch_factor = next.prefetch_factor;
    candidate.schedule = next.schedule;
    candidate.read_ahead_depth = next.read_ahead_depth;
    candidate.io_threads = next.io_threads;
    validateOptions(candidate);
    shutdownWorkers();
    options_ = candidate;
    if (options_.num_workers > 0)
        spare_ = tensor::Tensor(); // only a synchronous fetch reuses it
    rebuildReadAhead();
}

void
DataLoader::registerMetrics()
{
    auto &registry = metrics::MetricsRegistry::instance();
    metrics_.batches_total = registry.counter("lotus_loader_batches_total");
    metrics_.ooo_batches_total =
        registry.counter("lotus_loader_ooo_batches_total");
    metrics_.wait_ns_total = registry.counter("lotus_loader_wait_ns_total");
    metrics_.wait_ns = registry.histogram("lotus_loader_wait_ns");
    metrics_.data_queue_depth =
        registry.gauge("lotus_loader_data_queue_depth");
    metrics_.pin_cache_size =
        registry.gauge("lotus_loader_pin_cache_size");
    // Engine telemetry (the engine records it, and registers its
    // per-worker series) and the measured PMU totals register in every
    // mode — they just stay untouched under round-robin, the
    // synchronous loader or the simulated PMU backend — so dashboards
    // can diff schedules without conditional queries.
    registry.counter(kTasksMetric);
    registry.histogram("lotus_loader_batch_span_ns");
    registry.counter(kPmuCyclesMetric);
    registry.counter(kPmuInstructionsMetric);
    registry.counter(kPmuLlcMissesMetric);
}

void
DataLoader::rebuildBatches()
{
    batches_ = epochBatchPlan(dataset_->size(), options_.batch_size,
                              options_.shuffle, options_.drop_last,
                              options_.seed, epoch_);
}

DataLoader::~DataLoader()
{
    shutdownWorkers();
    if (bound_)
        engine_->disconnect(*client_);
}

std::int64_t
DataLoader::numBatches() const
{
    return static_cast<std::int64_t>(batches_.size());
}

void
DataLoader::startEpoch()
{
    shutdownWorkers();

    if (epoch_started_) {
        ++epoch_;
        rebuildBatches();
    }
    send_idx_ = 0;
    rcvd_idx_ = 0;
    reorder_cache_.clear();
    epoch_seed_base_ = epochSeedBase(options_.seed, epoch_);

    if (read_ahead_ != nullptr) {
        // Arm the I/O threads with this epoch's reads in fetch order,
        // each carrying its (batch, sample) trace correlation. This
        // covers every fetch path — the synchronous loader included.
        std::vector<pipeline::BlobReadRequest> plan;
        for (std::size_t b = 0; b < batches_.size(); ++b) {
            for (const std::int64_t index : batches_[b]) {
                pipeline::BlobReadRequest request;
                request.index = index;
                request.batch_id = static_cast<std::int64_t>(b);
                request.sample_index = index;
                plan.push_back(request);
            }
        }
        read_ahead_->startEpoch(std::move(plan), options_.logger);
    }

    if (options_.num_workers == 0) {
        // Synchronous mode: no engine; fetches reseed per sample from
        // epoch_seed_base_, so this object only provides the storage
        // the context points at.
        sync_rng_ = Rng(epoch_seed_base_);
        // The main thread does the fetching, so it carries the
        // counter group (no-op unless PMU attribution is enabled).
        hwcount::ThreadCounterRegistry::instance().attachCurrentThread();
        metrics_.sync_fetch_ns =
            metrics::MetricsRegistry::instance().histogram(
                metrics::labeled("lotus_loader_fetch_ns", "worker", "main"));
        worker_pids_.clear();
    } else {
        if (!bound_) {
            // A private engine sized so admission is never tighter
            // than the window: at most prefetch_factor x num_workers
            // batches are ever submitted and unconsumed.
            const int window = options_.prefetch_factor * options_.num_workers;
            EngineLimits limits;
            limits.num_workers = options_.num_workers;
            limits.max_clients = 1;
            limits.outbound_capacity = window;
            limits.max_inflight_samples =
                static_cast<std::int64_t>(window) * options_.batch_size;
            engine_ = std::make_shared<TaskEngine>(limits);
            client_ = engine_->connect(clientSpec(1.0)).take();
        }
        generation_ = engine_->beginEpoch(*client_);
        worker_pids_ = engine_->workerPids();
    }

    // Prime prefetch_factor batches per worker (paper §II-B); under
    // round-robin, sendNext places batch b on worker b mod
    // num_workers, so priming goes round-robin from worker 0. Capped
    // at numBatches(): beyond that every sendNext is a no-op.
    const std::int64_t window = std::min<std::int64_t>(
        static_cast<std::int64_t>(options_.prefetch_factor) *
            options_.num_workers,
        numBatches());
    for (std::int64_t i = 0; i < window; ++i)
        sendNext();
    if (options_.logger) {
        trace::TraceRecord marker;
        marker.kind = trace::RecordKind::EpochBoundary;
        marker.pid = main_pid_;
        marker.start = options_.logger->now();
        marker.op_name = "epoch_start";
        options_.logger->log(std::move(marker));
    }
    epoch_started_ = true;
}

void
DataLoader::sendNext()
{
    if (options_.num_workers == 0 || send_idx_ >= numBatches())
        return;
    Submission submission;
    submission.batch_id = send_idx_;
    submission.indices = batches_[static_cast<std::size_t>(send_idx_)];
    submission.seed_base = epoch_seed_base_;
    submission.generation = generation_;
    // Paper §II-B: the batch refilled after consuming batch b is
    // b + prefetch_factor x num_workers, which lands on b's worker.
    // A connected loader's batches are always stealable.
    if (!bound_ && options_.schedule == Schedule::kRoundRobin)
        submission.home_worker =
            static_cast<int>(send_idx_ % options_.num_workers);
    engine_->submit(*client_, std::move(submission));
    ++send_idx_;
}

void
DataLoader::pinBatch(Batch &batch) const
{
    if (!options_.pin_memory || batch.data.empty())
        return;
    hwcount::KernelScope scope(hwcount::KernelId::PinMemoryCopy);
    batch.data = batch.data.clone();
    scope.stats().bytes_read += batch.data.byteSize();
    scope.stats().bytes_written += batch.data.byteSize();
    scope.stats().items += 1;
}

BatchMsg
DataLoader::fetchInline(std::int64_t wanted)
{
    pipeline::PipelineContext ctx;
    ctx.logger = options_.logger;
    ctx.pid = main_pid_;
    ctx.rng = &sync_rng_;

    // [T1] happens inline on the main process; there is no [T2] wait.
    trace::SpanTimer span(options_.logger,
                          trace::RecordKind::BatchPreprocessed);
    span.record().batch_id = wanted;
    span.record().pid = main_pid_;
    BatchMsg msg;
    msg.batch_id = wanted; // worker id -1 marks the main process
    {
        metrics::ScopedTimer fetch_timer(metrics_.sync_fetch_ns);
        PmuSpanGuard pmu_span;
        const ErrorHandling errors{options_.error_policy,
                                   options_.max_retries,
                                   options_.max_refill_attempts};
        Result<Batch> fetched = fetcher_->tryFetch(
            wanted, batches_[static_cast<std::size_t>(wanted)], ctx, errors,
            epoch_seed_base_, std::move(spare_));
        spare_ = tensor::Tensor();
        if (!fetched.ok()) {
            msg.error = fetched.takeError();
            return msg;
        }
        msg.batch = fetched.take();
    }
    span.finish();
    pinBatch(msg.batch);
    return msg;
}

BatchMsg
DataLoader::receive(std::int64_t wanted)
{
    // [T2]: wait for the desired batch.
    trace::SpanTimer wait_span(options_.logger, trace::RecordKind::BatchWait);
    wait_span.record().batch_id = wanted;
    wait_span.record().pid = main_pid_;
    if (auto cached = reorder_cache_.find(wanted);
        cached != reorder_cache_.end()) {
        // An early out-of-order arrival, already pinned: its wait gets
        // the 1 µs sentinel duration.
        BatchMsg msg = std::move(cached->second);
        reorder_cache_.erase(cached);
        metrics_.pin_cache_size->sub(1);
        if (options_.logger != nullptr && !msg.error.has_value()) {
            trace::TraceRecord sentinel = wait_span.record();
            sentinel.duration = trace::kOutOfOrderSentinel;
            options_.logger->log(std::move(sentinel));
        }
        return msg;
    }
    MpmcQueue<BatchMsg> &queue = client_->outbound;
    const bool measured = metrics::enabled();
    const TimeNs wait_start = measured ? SteadyClock::instance().now() : 0;
    BatchMsg msg;
    for (;;) {
        auto received = queue.pop();
        LOTUS_ASSERT(received.has_value(),
                     "outbound queue closed with batches outstanding");
        metrics_.data_queue_depth->sub(1);
        if (client_->queue_depth_metric != nullptr)
            client_->queue_depth_metric->set(
                static_cast<std::int64_t>(queue.size()));
        if (received->generation != generation_)
            continue; // canceled incarnation residue
        if (received->batch_id == wanted) {
            msg = std::move(*received);
            break;
        }
        // Early arrival: pin to CPU memory and cache it (paper
        // §III-B). Failed batches are cached too so the error
        // surfaces in batch order, not arrival order.
        pinBatch(received->batch);
        reorder_cache_.emplace(received->batch_id, std::move(*received));
        metrics_.ooo_batches_total->add(1);
        metrics_.pin_cache_size->add(1);
    }
    if (msg.error.has_value())
        return msg;
    if (measured) {
        const TimeNs waited = SteadyClock::instance().now() - wait_start;
        const auto waited_u =
            static_cast<std::uint64_t>(waited > 0 ? waited : 0);
        metrics_.wait_ns->record(waited_u);
        metrics_.wait_ns_total->add(waited_u);
        if (client_->wait_ns_metric != nullptr)
            client_->wait_ns_metric->record(waited_u);
    }
    wait_span.finish();
    pinBatch(msg.batch);
    return msg;
}

void
DataLoader::recycle(Batch &&batch)
{
    // Only the synchronous fetch collates into a spare; with workers
    // the tensor drops here and its pages return to the buffer pool.
    tensor::Tensor data = std::move(batch.data);
    if (options_.num_workers == 0)
        spare_ = std::move(data);
    batch.labels.clear();
}

std::optional<Batch>
DataLoader::next()
{
    if (!epoch_started_)
        startEpoch();
    if (rcvd_idx_ >= numBatches()) {
        shutdownWorkers();
        return std::nullopt;
    }

    const std::int64_t wanted = rcvd_idx_;
    BatchMsg msg = options_.num_workers > 0 ? receive(wanted)
                                            : fetchInline(wanted);
    if (msg.error.has_value()) {
        // The epoch cannot continue past a failed batch: release the
        // workers (queued batches drain as canceled) and re-raise with
        // the batch and worker identity. startEpoch() restarts.
        shutdownWorkers();
        epoch_started_ = false;
        throw LoaderError(std::move(*msg.error), msg.batch_id, msg.worker_id);
    }

    // Consumption span: bookkeeping + dispatch of new work for the
    // producing worker (paper §II-B: one new batch of indices goes to
    // the worker that produced the consumed batch).
    trace::SpanTimer consumed_span(options_.logger,
                                   trace::RecordKind::BatchConsumed);
    consumed_span.record().batch_id = wanted;
    consumed_span.record().pid = main_pid_;
    sendNext();
    consumed_span.finish();

    metrics_.batches_total->add(1);
    ++rcvd_idx_;
    if (rcvd_idx_ >= numBatches()) {
        // All batches consumed; release the workers.
        shutdownWorkers();
    }
    return std::move(msg.batch);
}

void
DataLoader::shutdownWorkers()
{
    // Drop outstanding prefetches first: a worker blocked in a
    // read-ahead claim wakes with a miss, finishes its batch via
    // synchronous reads, and then observes the shutdown.
    if (read_ahead_ != nullptr)
        read_ahead_->cancel();
    if (bound_) {
        // The shared fleet drains this client's residue as no-ops.
        generation_ = engine_->beginEpoch(*client_);
    } else if (engine_ != nullptr) {
        // Joining the private fleet frees the client state with it.
        engine_->disconnect(*client_);
        client_.reset();
        engine_.reset();
    }
}

} // namespace lotus::dataflow
