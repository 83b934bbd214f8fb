#include "dataflow/task_engine.h"

#include <algorithm>

#include "common/strings.h"
#include "common/thread_util.h"
#include "hwcount/thread_counters.h"

namespace lotus::dataflow {

namespace {

/** Idle-worker wake backstop; WorkSignal events make the common case
 *  prompt. */
constexpr TimeNs kIdleWait = 200 * kMicrosecond;

/** True when work of @p generation has no consumer any more. */
bool
canceled(const ClientState &client, std::uint64_t generation)
{
    return client.disconnected.load(std::memory_order_acquire) ||
           generation != client.generation.load(std::memory_order_acquire);
}

/** Run @p fetch under a PMU span, recording its wall time in the
 *  worker's @p fetch_ns and charging it to @p client's service time. */
template <typename Fetch>
auto
chargedFetch(ClientState &client, metrics::Histogram *fetch_ns, Fetch &&fetch)
{
    const TimeNs start = SteadyClock::instance().now();
    auto result = [&] {
        PmuSpanGuard pmu_span;
        return fetch();
    }();
    const TimeNs elapsed = SteadyClock::instance().now() - start;
    const auto ns = static_cast<std::uint64_t>(elapsed > 0 ? elapsed : 0);
    if (metrics::enabled())
        fetch_ns->record(ns);
    // Weighted-fair accounting charges measured service time, not
    // task count: a straggler-heavy tenant's vtime advances faster,
    // which is exactly what shields the light tenant's [T2] tail.
    client.service_ns.fetch_add(ns, std::memory_order_relaxed);
    return result;
}

} // namespace

TaskEngine::TaskEngine(EngineLimits limits) : limits_(limits)
{
    LOTUS_ASSERT(limits_.num_workers > 0 && limits_.max_clients > 0 &&
                 limits_.max_inflight_samples > 0 &&
                 limits_.outbound_capacity > 0);
    auto &registry = metrics::MetricsRegistry::instance();
    for (int w = 0; w < limits_.num_workers; ++w) {
        const std::string id = strFormat("%d", w);
        fetch_ns_.push_back(registry.histogram(
            metrics::labeled("lotus_loader_fetch_ns", "worker", id)));
        steals_.push_back(registry.counter(
            metrics::labeled(kStealsMetric, "worker", id)));
        index_queue_depth_.push_back(registry.gauge(
            metrics::labeled("lotus_loader_index_queue_depth", "worker", id)));
    }
    tasks_total_ = registry.counter(kTasksMetric);
    batch_span_ns_ = registry.histogram("lotus_loader_batch_span_ns");
    data_queue_depth_ = registry.gauge("lotus_loader_data_queue_depth");
    if (limits_.shared) {
        clients_metric_ = registry.gauge(kServiceClientsMetric);
        rejected_metric_ = registry.counter(kServiceRejectedMetric);
    }

    worker_pids_.assign(static_cast<std::size_t>(limits_.num_workers), 0);
    workers_.reserve(static_cast<std::size_t>(limits_.num_workers));
    for (int w = 0; w < limits_.num_workers; ++w)
        workers_.emplace_back([this, w] { workerLoop(w); });
    // Every worker announces its pid before the first batch, so trace
    // lanes and workerPids() are complete from the start.
    std::unique_lock lock(pids_mutex_);
    pids_cv_.wait(lock, [this] {
        return std::find(worker_pids_.begin(), worker_pids_.end(), 0u) ==
               worker_pids_.end();
    });
}

TaskEngine::~TaskEngine()
{
    shutdown_.store(true, std::memory_order_release);
    signal_.notifyShutdown();
    for (auto &worker : workers_) {
        if (worker.joinable())
            worker.join();
    }
}

Result<std::shared_ptr<ClientState>>
TaskEngine::connect(ClientSpec spec)
{
    LOTUS_ASSERT(spec.fetcher != nullptr && spec.weight > 0.0);
    std::lock_guard lock(clients_mutex_);
    int live = 0;
    double min_vtime = -1.0;
    for (const auto &client : clients_) {
        if (client->disconnected.load(std::memory_order_acquire))
            continue;
        ++live;
        const double vtime = client->vtime();
        if (min_vtime < 0.0 || vtime < min_vtime)
            min_vtime = vtime;
    }
    if (live >= limits_.max_clients) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        if (rejected_metric_ != nullptr)
            rejected_metric_->add(1);
        return LOTUS_ERROR(ErrorCode::kRejected,
                           "task engine: admission control refused the "
                           "connection (%d of %d clients connected)",
                           live, limits_.max_clients);
    }
    const std::int64_t id = next_client_id_++;
    const double weight = spec.weight;
    auto state =
        std::make_shared<ClientState>(id, std::move(spec), limits_.num_workers);
    if (min_vtime > 0.0)
        state->service_ns.store(static_cast<std::uint64_t>(min_vtime * weight),
                                std::memory_order_relaxed);
    if (limits_.shared) {
        auto &registry = metrics::MetricsRegistry::instance();
        const std::string label =
            strFormat("%lld", static_cast<long long>(id));
        state->tasks_metric = registry.counter(
            metrics::labeled(kServiceTasksMetric, "client", label));
        state->batches_metric = registry.counter(
            metrics::labeled(kServiceBatchesMetric, "client", label));
        state->wait_ns_metric = registry.histogram(
            metrics::labeled(kServiceWaitNsMetric, "client", label));
        state->queue_depth_metric = registry.gauge(
            metrics::labeled(kServiceQueueDepthMetric, "client", label));
        state->inflight_metric = registry.gauge(
            metrics::labeled(kServiceInflightMetric, "client", label));
        clients_metric_->set(live + 1);
    }
    clients_.push_back(state);
    return state;
}

EngineStats
TaskEngine::stats() const
{
    EngineStats out;
    out.rejected_connects = rejected_.load(std::memory_order_relaxed);
    out.dropped_tasks = total_dropped_.load(std::memory_order_relaxed);
    std::lock_guard lock(clients_mutex_);
    out.clients.reserve(clients_.size());
    for (const auto &client : clients_) {
        ClientStats stats;
        stats.id = client->id;
        stats.weight = client->spec.weight;
        stats.executed_tasks =
            client->executed_tasks.load(std::memory_order_relaxed);
        stats.dropped_tasks =
            client->dropped_tasks.load(std::memory_order_relaxed);
        stats.shipped_batches =
            client->shipped_batches.load(std::memory_order_relaxed);
        stats.inflight_samples =
            client->inflight_samples.load(std::memory_order_relaxed);
        stats.peak_inflight_samples =
            client->peak_inflight.load(std::memory_order_relaxed);
        stats.service_ns = client->service_ns.load(std::memory_order_relaxed);
        stats.disconnected =
            client->disconnected.load(std::memory_order_relaxed);
        if (!stats.disconnected)
            ++out.live_clients;
        out.clients.push_back(std::move(stats));
    }
    return out;
}

void
TaskEngine::submit(ClientState &client, Submission submission)
{
    if (submission.home_worker < 0) {
        client.pending.push(std::move(submission));
    } else {
        LOTUS_ASSERT(submission.home_worker < limits_.num_workers,
                     "home worker %d outside a fleet of %d",
                     submission.home_worker, limits_.num_workers);
        const auto w = static_cast<std::size_t>(submission.home_worker);
        // Count before the push, so a pop can never take it below 0.
        index_queue_depth_[w]->add(1);
        client.pinned[w].push(std::move(submission));
    }
    signal_.notifyWork();
}

void
TaskEngine::countDropped(ClientState &client, std::uint64_t samples)
{
    client.dropped_tasks.fetch_add(samples, std::memory_order_relaxed);
    total_dropped_.fetch_add(samples, std::memory_order_relaxed);
}

void
TaskEngine::drainPending(ClientState &client)
{
    // Samples canceled before they ever became tasks count as dropped
    // alongside the stale-task no-op drain, so a canceled epoch's
    // accounting is complete whether or not decomposition got to it.
    while (auto submission = client.pending.tryPop())
        countDropped(client, submission->indices.size());
    for (std::size_t w = 0; w < client.pinned.size(); ++w) {
        while (auto submission = client.pinned[w].tryPop()) {
            index_queue_depth_[w]->sub(1);
            countDropped(client, submission->indices.size());
        }
    }
}

std::uint64_t
TaskEngine::beginEpoch(ClientState &client)
{
    // Bump first: workers decomposing concurrently see the new
    // generation and drop stale submissions the drain loop misses.
    const std::uint64_t generation =
        client.generation.fetch_add(1, std::memory_order_acq_rel) + 1;
    drainPending(client);
    signal_.notifyWork();
    return generation;
}

void
TaskEngine::disconnect(ClientState &client)
{
    client.disconnected.store(true, std::memory_order_release);
    client.generation.fetch_add(1, std::memory_order_acq_rel);
    drainPending(client);
    client.outbound.close();
    publishLiveClients();
    // Wake the fleet: idle workers drain the client's stale queued
    // tasks as no-ops, after which reapDisconnected drops the state.
    signal_.notifyWork();
}

void
TaskEngine::publishLiveClients()
{
    if (clients_metric_ == nullptr)
        return;
    std::lock_guard lock(clients_mutex_);
    int live = 0;
    for (const auto &client : clients_) {
        if (!client->disconnected.load(std::memory_order_acquire))
            ++live;
    }
    clients_metric_->set(live);
}

std::vector<std::shared_ptr<ClientState>>
TaskEngine::victimOrder() const
{
    struct Ranked
    {
        bool disconnected;
        double vtime;
        std::shared_ptr<ClientState> client;
    };
    std::vector<Ranked> ranked;
    {
        std::lock_guard lock(clients_mutex_);
        ranked.reserve(clients_.size());
        for (const auto &client : clients_)
            ranked.push_back(
                {client->disconnected.load(std::memory_order_relaxed),
                 client->vtime(), client});
    }
    // Sort the snapshots, never the live atomics: service_ns moves
    // under concurrent workers, and a comparator that reads it would
    // be inconsistent (std::sort may then run off the range).
    std::sort(ranked.begin(), ranked.end(),
              [](const Ranked &a, const Ranked &b) {
                  if (a.disconnected != b.disconnected)
                      return a.disconnected;
                  if (a.vtime != b.vtime)
                      return a.vtime < b.vtime;
                  return a.client->id < b.client->id;
              });
    std::vector<std::shared_ptr<ClientState>> order;
    order.reserve(ranked.size());
    for (Ranked &entry : ranked)
        order.push_back(std::move(entry.client));
    return order;
}

void
TaskEngine::reapDisconnected()
{
    std::lock_guard lock(clients_mutex_);
    std::erase_if(clients_, [](const auto &client) {
        return client->disconnected.load(std::memory_order_acquire) &&
               client->inflight_samples.load(std::memory_order_acquire) ==
                   0 &&
               client->inflight_builds.load(std::memory_order_acquire) ==
                   0 &&
               client->pending.empty() &&
               std::all_of(client->pinned.begin(), client->pinned.end(),
                           [](const auto &fifo) { return fifo.empty(); });
    });
}

bool
TaskEngine::admissible(const ClientState &client) const
{
    // Backpressure: in-flight builds plus the unconsumed outbound
    // backlog stay under the capacity, so a finisher's push can never
    // outrun a slow consumer unboundedly.
    if (client.inflight_builds.load(std::memory_order_acquire) +
            static_cast<std::int64_t>(client.outbound.size()) >=
        limits_.outbound_capacity)
        return false;
    // Admission: defer while in-flight samples would exceed the cap —
    // except from empty, so one oversized batch degrades to serial
    // batches instead of deadlocking.
    const std::int64_t inflight =
        client.inflight_samples.load(std::memory_order_acquire);
    return inflight == 0 ||
           inflight + client.spec.batch_size <= limits_.max_inflight_samples;
}

bool
TaskEngine::tryDecompose(
    const std::vector<std::shared_ptr<ClientState>> &order, int worker_id)
{
    for (const auto &client : order) {
        if (client->disconnected.load(std::memory_order_acquire)) {
            // Pending submissions of a disconnected client only need
            // discarding (disconnect drains; this catches races).
            drainPending(*client);
            continue;
        }
        if (client->pending.empty() || !admissible(*client))
            continue;
        std::lock_guard lock(client->decompose_mutex);
        if (!admissible(*client))
            continue;
        auto submission = client->pending.tryPop();
        if (!submission.has_value())
            continue;
        if (submission->generation !=
            client->generation.load(std::memory_order_acquire)) {
            // Stale epoch residue: discard, counting its samples.
            countDropped(*client, submission->indices.size());
            continue;
        }
        decompose(*client, std::move(*submission), worker_id);
        return true;
    }
    return false;
}

void
TaskEngine::decompose(ClientState &client, Submission submission,
                      int worker_id)
{
    // decompose_mutex is held by the caller.
    auto owned = std::make_unique<BatchBuild>();
    BatchBuild *build = owned.get();
    initBuild(*build, submission.batch_id, std::move(submission.indices),
              submission.seed_base, client.spec.errors);
    build->home_worker = worker_id;
    build->generation = submission.generation;
    if (client.spec.logger != nullptr)
        build->trace_start = client.spec.logger->now();
    if (metrics::enabled())
        build->start = SteadyClock::instance().now();
    const auto n = static_cast<std::int64_t>(build->indices.size());
    {
        std::lock_guard lock(client.builds_mutex);
        client.builds.push_back(std::move(owned));
    }
    // Count the build in before any task becomes poppable, so its
    // finisher can never take the in-flight counters below zero.
    tasks_total_->add(static_cast<std::uint64_t>(n));
    client.inflight_builds.fetch_add(1, std::memory_order_acq_rel);
    const std::int64_t inflight =
        client.inflight_samples.fetch_add(n, std::memory_order_acq_rel) + n;
    std::int64_t peak = client.peak_inflight.load(std::memory_order_relaxed);
    while (inflight > peak &&
           !client.peak_inflight.compare_exchange_weak(
               peak, inflight, std::memory_order_relaxed))
        ;
    if (client.inflight_metric != nullptr)
        client.inflight_metric->set(inflight);
    for (SampleTask &task : build->tasks)
        client.tasks.push(&task);
    signal_.notifyWork();
}

bool
TaskEngine::runPinned(const std::vector<std::shared_ptr<ClientState>> &order,
                      int worker_id, pipeline::PipelineContext &ctx)
{
    const auto w = static_cast<std::size_t>(worker_id);
    for (const auto &client : order) {
        if (auto submission = client->pinned[w].tryPop()) {
            index_queue_depth_[w]->sub(1);
            fetchWhole(*client, *submission, worker_id, ctx);
            return true;
        }
    }
    return false;
}

void
TaskEngine::fetchWhole(ClientState &client, const Submission &submission,
                       int worker_id, pipeline::PipelineContext &ctx)
{
    if (!canceled(client, submission.generation)) {
        ctx.logger = client.spec.logger;
        // [T1]: the fetch() call inside the paper's worker loop.
        trace::SpanTimer span(ctx.logger,
                              trace::RecordKind::BatchPreprocessed);
        span.record().batch_id = submission.batch_id;
        span.record().pid = ctx.pid;
        Result<pipeline::Batch> batch = chargedFetch(
            client, fetch_ns_[static_cast<std::size_t>(worker_id)], [&] {
                return client.spec.fetcher->tryFetch(
                    submission.batch_id, submission.indices, ctx,
                    client.spec.errors, submission.seed_base);
            });
        span.finish();
        // Canceled while it ran: the batch has no consumer.
        if (!canceled(client, submission.generation)) {
            ship(client, submission.batch_id, submission.generation,
                 worker_id, std::move(batch));
            return;
        }
    }
    countDropped(client, submission.indices.size());
}

bool
TaskEngine::runOneTask(const std::vector<std::shared_ptr<ClientState>> &order,
                       int worker_id, pipeline::PipelineContext &ctx)
{
    for (const auto &client : order) {
        if (auto task = client->tasks.tryPop()) {
            executeTask(*client, *task, worker_id, ctx);
            return true;
        }
    }
    return false;
}

void
TaskEngine::dropTask(ClientState &client, BatchBuild &build, int worker_id,
                     pipeline::PipelineContext &ctx)
{
    // The build still counts down so the last finisher can release it
    // and the in-flight budget.
    countDropped(client, 1);
    if (build.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
        finishBatch(client, build, worker_id, ctx);
}

void
TaskEngine::executeTask(ClientState &client, SampleTask *task,
                        int worker_id, pipeline::PipelineContext &ctx)
{
    BatchBuild &build = *task->build;
    // Canceled incarnation (epoch abort / disconnect): drain as a
    // no-op.
    if (canceled(client, build.generation)) {
        dropTask(client, build, worker_id, ctx);
        return;
    }

    ctx.logger = client.spec.logger;
    ctx.batch_id = build.batch_id;
    if (worker_id != build.home_worker) {
        steals_[static_cast<std::size_t>(worker_id)]->add(1);
        if (ctx.logger != nullptr) {
            trace::TraceRecord record;
            record.kind = trace::RecordKind::StealEvent;
            record.batch_id = build.batch_id;
            record.pid = ctx.pid;
            record.start = ctx.logger->now();
            record.op_name = strFormat("steal<-w%d", build.home_worker);
            record.sample_index = task->index;
            ctx.logger->log(std::move(record));
        }
    }

    trace::SpanTimer span(ctx.logger, trace::RecordKind::TaskSpan);
    span.record().op_name = "task";
    span.record().batch_id = build.batch_id;
    span.record().pid = ctx.pid;
    span.record().sample_index = task->index;
    Result<pipeline::Sample> sample = chargedFetch(
        client, fetch_ns_[static_cast<std::size_t>(worker_id)],
        [&] { return client.spec.fetcher->attempt(*task, ctx); });
    span.finish();
    ctx.sample_index = -1;
    client.executed_tasks.fetch_add(1, std::memory_order_relaxed);
    if (client.tasks_metric != nullptr)
        client.tasks_metric->add(1);

    // Canceled while it ran: the result has no consumer.
    if (canceled(client, build.generation)) {
        dropTask(client, build, worker_id, ctx);
        return;
    }
    switch (resolveTask(task, std::move(sample), client.spec.errors,
                        client.dataset_size, ctx)) {
      case TaskOutcome::kRequeue:
        client.tasks.push(task);
        signal_.notifyWork();
        break;
      case TaskOutcome::kResolved:
        break;
      case TaskOutcome::kBatchDone:
        finishBatch(client, build, worker_id, ctx);
        break;
    }
}

void
TaskEngine::ship(ClientState &client, std::int64_t batch_id,
                 std::uint64_t generation, int worker_id,
                 Result<pipeline::Batch> batch)
{
    BatchMsg msg;
    msg.batch_id = batch_id;
    msg.generation = generation;
    msg.worker_id = worker_id;
    // A failed batch still ships (not a silent worker death): the
    // consumer re-raises it in batch order as a LoaderError.
    if (batch.ok())
        msg.batch = batch.take();
    else
        msg.error = batch.takeError();
    client.outbound.push(std::move(msg));
    data_queue_depth_->add(1);
    client.shipped_batches.fetch_add(1, std::memory_order_relaxed);
    if (client.batches_metric != nullptr) {
        client.batches_metric->add(1);
        client.queue_depth_metric->set(
            static_cast<std::int64_t>(client.outbound.size()));
    }
}

void
TaskEngine::finishBatch(ClientState &client, BatchBuild &build,
                        int worker_id, pipeline::PipelineContext &ctx)
{
    const auto n = static_cast<std::int64_t>(build.indices.size());
    if (!canceled(client, build.generation)) {
        ctx.logger = client.spec.logger;
        Result<pipeline::Batch> batch =
            client.spec.fetcher->finishBuild(build, ctx);
        // [T1] for the whole build: decompose -> last slot + collate,
        // in the finisher's lane. The span can overlap other batches'
        // task spans in the same lane — that is the point of the
        // engine.
        if (client.spec.logger != nullptr) {
            trace::TraceRecord record;
            record.kind = trace::RecordKind::BatchPreprocessed;
            record.batch_id = build.batch_id;
            record.pid = ctx.pid;
            record.start = build.trace_start;
            record.duration = client.spec.logger->now() - build.trace_start;
            client.spec.logger->log(std::move(record));
        }
        if (build.start != 0 && metrics::enabled()) {
            const TimeNs span = SteadyClock::instance().now() - build.start;
            batch_span_ns_->record(
                static_cast<std::uint64_t>(span > 0 ? span : 0));
        }
        ship(client, build.batch_id, build.generation, worker_id,
             std::move(batch));
    }

    client.inflight_builds.fetch_sub(1, std::memory_order_acq_rel);
    const std::int64_t inflight =
        client.inflight_samples.fetch_sub(n, std::memory_order_acq_rel) - n;
    if (client.inflight_metric != nullptr)
        client.inflight_metric->set(inflight);
    {
        // Safe to free here: every slot resolved, so no task of this
        // build is queued or owned by a worker.
        std::lock_guard lock(client.builds_mutex);
        std::erase_if(client.builds, [&build](const auto &owned) {
            return owned.get() == &build;
        });
    }
    // In-flight budget freed: a deferred decompose may now be
    // admissible.
    signal_.notifyWork();
}

void
TaskEngine::workerLoop(int worker_id)
{
    setCurrentThreadName(strFormat("%s-%d",
                                   limits_.shared ? "preproc" : "loader",
                                   worker_id));
    {
        std::lock_guard lock(pids_mutex_);
        worker_pids_[static_cast<std::size_t>(worker_id)] = currentTid();
    }
    pids_cv_.notify_one();
    hwcount::ThreadCounterRegistry::instance().attachCurrentThread();
    // The rng object is only the storage ctx points at: every task
    // attempt reseeds it from (build seed base, dataset index), so
    // draws are identical no matter which worker runs the task.
    Rng rng(0);
    pipeline::PipelineContext ctx;
    ctx.pid = worker_pids_[static_cast<std::size_t>(worker_id)];
    ctx.rng = &rng;
    for (;;) {
        // Snapshot the wake counter *before* scanning so a notify
        // that lands mid-scan cuts the wait short instead of being
        // lost.
        const std::uint64_t idle_token = signal_.workEpoch();
        if (shutdown_.load(std::memory_order_acquire))
            break;
        bool worked = false;
        {
            // Scoped so an idle worker holds no client state.
            const auto order = victimOrder();
            // A worker's own pinned FIFO comes first: nobody else
            // can run it.
            worked = runPinned(order, worker_id, ctx) ||
                     runOneTask(order, worker_id, ctx) ||
                     tryDecompose(order, worker_id);
        }
        if (worked)
            continue;
        reapDisconnected();
        signal_.waitForWork(idle_token, kIdleWait);
    }
    hwcount::ThreadCounterRegistry::instance().detachCurrentThread();
}

} // namespace lotus::dataflow
