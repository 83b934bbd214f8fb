/**
 * @file
 * The task engine: the one worker fleet behind every DataLoader with
 * workers (DESIGN.md §10), running the decompose → per-sample task →
 * last-finisher-collates protocol for one or more clients.
 *
 * A standalone DataLoader runs a private single-client engine per
 * epoch; a PreprocServer (src/service/) runs one shared engine for
 * all of its LoaderClients (the tf.data shape: the same runtime
 * in-process and disaggregated, PAPERS.md arXiv:2101.12127). Either
 * way each client submits whole batches. A stealable submission is
 * decomposed by fleet workers into per-sample tasks on the client's
 * task queue, and the last worker to resolve a slot collates the
 * batch onto the client's outbound queue. A pinned submission (the
 * round-robin schedule) waits in its home worker's FIFO — the paper's
 * §II-B index queue — and runs whole there through Fetcher::tryFetch.
 *
 * Victim selection is weighted-fair: clients are ordered by virtual
 * time (executed fetch nanoseconds / weight), so a heavy-tailed tenant
 * self-penalizes instead of inflating a light tenant's [T2] tail.
 * Admission control bounds the client count, per-client in-flight
 * samples, and per-client in-flight builds plus unconsumed outbound
 * batches, all at decompose time, so a slow consumer never blocks a
 * fleet worker. Pinned submissions skip admission: the submitter's
 * window already bounds them.
 *
 * Ownership rule: a fleet worker can still touch a client's state
 * after the host DataLoader is gone (it holds a shared_ptr to the
 * ClientState while it runs a task), so the state owns everything a
 * task touches — its Fetcher (and through it the dataset, cache, and
 * read-ahead engine), its task queue, and its builds.
 */

#ifndef LOTUS_DATAFLOW_TASK_ENGINE_H
#define LOTUS_DATAFLOW_TASK_ENGINE_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/mpmc_queue.h"
#include "common/rng.h"
#include "dataflow/error_policy.h"
#include "dataflow/fetcher.h"
#include "dataflow/task_runner.h"
#include "dataflow/work_queue.h"
#include "metrics/metrics.h"
#include "trace/logger.h"

namespace lotus::dataflow {

/** Counter family for stolen tasks — tasks run by a worker other than
 *  the one that decomposed their batch — exported per thief as
 *  {worker=N}. */
inline constexpr const char *kStealsMetric = "lotus_loader_steals_total";
/** Per-sample tasks decomposed by the engine. */
inline constexpr const char *kTasksMetric = "lotus_loader_tasks_total";

/** Per-client task executions, exported as {client=N}. */
inline constexpr const char *kServiceTasksMetric =
    "lotus_service_tasks_total";
/** Per-client batches shipped, exported as {client=N}. */
inline constexpr const char *kServiceBatchesMetric =
    "lotus_service_batches_total";
/** Per-client [T2] wait (client blocked in next()), {client=N}. */
inline constexpr const char *kServiceWaitNsMetric =
    "lotus_service_wait_ns";
/** Per-client outbound (built, unconsumed) batch backlog, {client=N}. */
inline constexpr const char *kServiceQueueDepthMetric =
    "lotus_service_queue_depth";
/** Per-client decomposed-but-unfinished samples, {client=N}. */
inline constexpr const char *kServiceInflightMetric =
    "lotus_service_inflight_samples";
/** Live (connected) clients. */
inline constexpr const char *kServiceClientsMetric =
    "lotus_service_clients";
/** Connections refused by admission control. */
inline constexpr const char *kServiceRejectedMetric =
    "lotus_service_rejected_total";

/**
 * One completed batch (or its failure) on its way from the engine to
 * the consumer. `generation` stamps the submitting epoch incarnation;
 * the consumer drops messages from a canceled generation, so a batch
 * that raced an epoch abort can never be mistaken for the new epoch's
 * batch of the same id.
 */
struct BatchMsg
{
    std::int64_t batch_id = -1;
    std::uint64_t generation = 0;
    /** Worker that completed the batch (LoaderError identity). */
    int worker_id = -1;
    pipeline::Batch batch;
    /** Set when the batch failed unrecoverably; `batch` is then empty
     *  and the consumer re-raises a LoaderError in batch order. */
    std::optional<Error> error;
};

/** One not-yet-decomposed batch submission from a client. */
struct Submission
{
    std::int64_t batch_id = -1;
    std::vector<std::int64_t> indices;
    /** epochSeedBase(seed, epoch) of the submitting epoch. */
    std::uint64_t seed_base = 0;
    /** Epoch incarnation; stale generations drain as no-ops. */
    std::uint64_t generation = 0;
    /** -1: decompose into stealable per-sample tasks. >= 0 (and below
     *  the fleet size): run the batch whole on this worker, in FIFO
     *  order behind its earlier pinned submissions. */
    int home_worker = -1;
};

/** Fleet size and admission limits of one engine. */
struct EngineLimits
{
    int num_workers = 1;
    /** connect() past this many live clients is refused. */
    int max_clients = 1;
    /**
     * A client's next batch is not decomposed while its in-flight
     * samples would exceed this. One batch is always admitted even if
     * larger, so an oversized batch degrades to serial batches
     * instead of deadlocking.
     */
    std::int64_t max_inflight_samples = 1;
    /** Per client, in-flight builds plus unconsumed outbound batches
     *  never exceed this. */
    int outbound_capacity = 1;
    /** A PreprocServer's engine: exports the lotus_service_*
     *  families and names its workers preproc-N (a private engine's
     *  are loader-N). */
    bool shared = false;
};

/** What the engine needs to run one client's batches. */
struct ClientSpec
{
    std::shared_ptr<const Fetcher> fetcher;
    ErrorHandling errors;
    /** Admission: samples one batch adds to the in-flight count. */
    int batch_size = 1;
    /** Weighted-fair share: twice the weight, twice the fleet time
     *  under contention. */
    double weight = 1.0;
    /** Optional LotusTrace sink for this client's task records. */
    trace::TraceLogger *logger = nullptr;
};

/**
 * Engine-side per-client state. Tasks live in one FIFO that every
 * fleet worker pops (oldest batch first) and that decompose and
 * retry/skip requeue push onto. Pinned submissions live in one FIFO
 * per fleet worker, which only that worker pops.
 */
struct ClientState
{
    ClientState(std::int64_t client_id, ClientSpec spec_in,
                int num_workers)
        : id(client_id), spec(std::move(spec_in)),
          dataset_size(spec.fetcher->dataset().size()),
          pinned(static_cast<std::size_t>(num_workers))
    {
    }

    const std::int64_t id;
    const ClientSpec spec;
    const std::int64_t dataset_size;

    MpmcQueue<SampleTask *> tasks;
    /** Serializes the admission check with the decompose it admits,
     *  so concurrent workers cannot both admit past the limits. */
    std::mutex decompose_mutex;
    MpmcQueue<Submission> pending;
    /** Pinned submissions, indexed by home worker. */
    std::vector<MpmcQueue<Submission>> pinned;
    /** Completed batches, in completion order. Unbounded: the
     *  admission rule, not the queue, bounds it, so a push never
     *  blocks a fleet worker. */
    MpmcQueue<BatchMsg> outbound;

    std::atomic<std::int64_t> inflight_samples{0};
    std::atomic<std::int64_t> peak_inflight{0};
    std::atomic<int> inflight_builds{0};
    /** Weighted-fair numerator: executed fetch nanoseconds. */
    std::atomic<std::uint64_t> service_ns{0};
    /** Epoch incarnation; bumped by beginEpoch / disconnect. */
    std::atomic<std::uint64_t> generation{0};
    std::atomic<bool> disconnected{false};

    std::atomic<std::uint64_t> executed_tasks{0};
    std::atomic<std::uint64_t> dropped_tasks{0};
    std::atomic<std::uint64_t> shipped_batches{0};

    /** In-flight builds; an entry is erased by the completing worker
     *  (after the last slot resolves no task pointer survives). */
    std::mutex builds_mutex;
    std::vector<std::unique_ptr<BatchBuild>> builds;

    /** lotus_service_* series; all null on a private engine. */
    metrics::Counter *tasks_metric = nullptr;
    metrics::Counter *batches_metric = nullptr;
    metrics::Histogram *wait_ns_metric = nullptr;
    metrics::Gauge *queue_depth_metric = nullptr;
    metrics::Gauge *inflight_metric = nullptr;

    /** Virtual time: lower runs first. Relaxed reads — fairness is a
     *  scheduling heuristic, not a correctness edge. */
    double
    vtime() const
    {
        return static_cast<double>(
                   service_ns.load(std::memory_order_relaxed)) /
               spec.weight;
    }
};

/** Point-in-time per-client accounting (tests, benches, lotus_top). */
struct ClientStats
{
    std::int64_t id = -1;
    double weight = 1.0;
    std::uint64_t executed_tasks = 0;
    std::uint64_t dropped_tasks = 0;
    std::uint64_t shipped_batches = 0;
    std::int64_t inflight_samples = 0;
    std::int64_t peak_inflight_samples = 0;
    std::uint64_t service_ns = 0;
    bool disconnected = false;
};

struct EngineStats
{
    int live_clients = 0;
    std::uint64_t rejected_connects = 0;
    /** Samples canceled across all clients ever (canceled epochs /
     *  disconnects) — stale tasks drained as no-ops, tasks whose
     *  result was discarded, and submissions discarded before
     *  decomposition; survives client reaping. */
    std::uint64_t dropped_tasks = 0;
    std::vector<ClientStats> clients;
};

class TaskEngine
{
  public:
    /** Spawns the fleet and waits until every worker is running. */
    explicit TaskEngine(EngineLimits limits);

    /** Stops and joins the fleet; work still queued is dropped. */
    ~TaskEngine();

    TaskEngine(const TaskEngine &) = delete;
    TaskEngine &operator=(const TaskEngine &) = delete;

    /**
     * Admit a client. Refused (recoverable kRejected Error, counted
     * in stats() and lotus_service_rejected_total) when max_clients
     * are live. A fresh client starts at the fleet's minimum virtual
     * time scaled by its weight — starting at zero would let it
     * monopolize the fleet to "catch up" with long-running tenants.
     */
    Result<std::shared_ptr<ClientState>> connect(ClientSpec spec);

    /** Queue one batch: for decomposition, or on its home worker's
     *  FIFO when pinned. Pinned submissions bypass admission — the
     *  submitter's window bounds them. */
    void submit(ClientState &client, Submission submission);

    /** Cancel the client's outstanding work and open the next epoch
     *  incarnation; returns the new generation. */
    std::uint64_t beginEpoch(ClientState &client);

    /** Cancel everything outstanding and close the outbound queue;
     *  idle workers drain the residue and reap the state. */
    void disconnect(ClientState &client);

    EngineStats stats() const;

    /** Fleet worker thread ids, indexed by worker. */
    const std::vector<std::uint32_t> &workerPids() const
    {
        return worker_pids_;
    }

    /**
     * The roster in victim order: disconnected clients first (their
     * cancellation drain is cheap no-op tasks), then live clients by
     * ascending virtual time, id as tie-break. Each client's
     * (disconnected, vtime) is read once before sorting, so fleet
     * workers charging service time concurrently can never make the
     * comparator inconsistent.
     */
    std::vector<std::shared_ptr<ClientState>> victimOrder() const;

  private:
    void workerLoop(int worker_id);
    /** Run the oldest pinned submission on @p worker_id's FIFO of the
     *  first client in @p order that has one; true when one ran. */
    bool runPinned(const std::vector<std::shared_ptr<ClientState>> &order,
                   int worker_id, pipeline::PipelineContext &ctx);
    /** Fetch one pinned submission whole ([T1] span in the worker's
     *  lane) and ship it, unless its incarnation was canceled. */
    void fetchWhole(ClientState &client, const Submission &submission,
                    int worker_id, pipeline::PipelineContext &ctx);
    /** Pop one task from the first client in @p order with work;
     *  true when a task ran. */
    bool runOneTask(const std::vector<std::shared_ptr<ClientState>> &order,
                    int worker_id, pipeline::PipelineContext &ctx);
    /** Decompose the first admissible pending submission in @p order;
     *  true when one was decomposed. */
    bool tryDecompose(const std::vector<std::shared_ptr<ClientState>> &order,
                      int worker_id);
    bool admissible(const ClientState &client) const;
    void decompose(ClientState &client, Submission submission,
                   int worker_id);
    void executeTask(ClientState &client, SampleTask *task, int worker_id,
                     pipeline::PipelineContext &ctx);
    /** Push a finished batch's outcome onto the client's outbound
     *  queue. */
    void ship(ClientState &client, std::int64_t batch_id,
              std::uint64_t generation, int worker_id,
              Result<pipeline::Batch> batch);
    /** Last-finisher path: ship the batch outcome, or drop a canceled
     *  build; frees the build and the in-flight budget either way. */
    void finishBatch(ClientState &client, BatchBuild &build, int worker_id,
                     pipeline::PipelineContext &ctx);
    /** Count down one canceled task; the last one frees the build. */
    void dropTask(ClientState &client, BatchBuild &build, int worker_id,
                  pipeline::PipelineContext &ctx);
    void countDropped(ClientState &client, std::uint64_t samples);
    /** Discard undecomposed and pinned submissions, counting them as
     *  dropped. */
    void drainPending(ClientState &client);
    /** Drop fully-drained disconnected clients from the roster. */
    void reapDisconnected();
    /** Recount live clients into lotus_service_clients. */
    void publishLiveClients();

    const EngineLimits limits_;

    mutable std::mutex clients_mutex_;
    std::vector<std::shared_ptr<ClientState>> clients_;
    std::int64_t next_client_id_ = 0;
    std::atomic<std::uint64_t> rejected_{0};
    std::atomic<std::uint64_t> total_dropped_{0};

    WorkSignal signal_;
    std::atomic<bool> shutdown_{false};
    /** Written once per worker at start-up, under pids_mutex_; the
     *  constructor returns only after every entry is set. */
    std::vector<std::uint32_t> worker_pids_;
    std::mutex pids_mutex_;
    std::condition_variable pids_cv_;

    /** Fleet telemetry, indexed by worker where per-worker. */
    std::vector<metrics::Histogram *> fetch_ns_;
    std::vector<metrics::Counter *> steals_;
    /** Pinned submissions queued per home worker (all clients). */
    std::vector<metrics::Gauge *> index_queue_depth_;
    metrics::Counter *tasks_total_ = nullptr;
    metrics::Histogram *batch_span_ns_ = nullptr;
    metrics::Gauge *data_queue_depth_ = nullptr;
    metrics::Gauge *clients_metric_ = nullptr;
    metrics::Counter *rejected_metric_ = nullptr;

    /** Declared last: the workers use every member above. */
    std::vector<std::thread> workers_;
};

} // namespace lotus::dataflow

#endif // LOTUS_DATAFLOW_TASK_ENGINE_H
