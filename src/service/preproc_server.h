/**
 * @file
 * Multi-tenant preprocessing service over the task engine (the
 * tf.data-service direction, PAPERS.md arXiv:2101.12127).
 *
 * One PreprocServer owns one shared dataflow::TaskEngine; N concurrent
 * training clients (LoaderClient, src/service/loader_client.h) each
 * bring their own dataset view, seed, batch size, and ErrorPolicy.
 * Every client is a DataLoader bound to the server's engine, so the
 * service runs the same decompose / task / finish code, the same
 * reorder buffer, and the same retry/skip walk as a solo work-stealing
 * loader. The engine schedules weighted-fair (victims ordered by
 * executed service nanoseconds / weight), and its admission control
 * bounds the client count and per-client in-flight work, so a slow
 * consumer can never wedge a fleet worker.
 *
 * Determinism contract (DESIGN.md §10): every client's batches are
 * bit-identical to a solo DataLoader with the same config, because
 * the client *is* a DataLoader and only the fleet is shared.
 */

#ifndef LOTUS_SERVICE_PREPROC_SERVER_H
#define LOTUS_SERVICE_PREPROC_SERVER_H

#include <cstdint>
#include <memory>

#include "dataflow/error_policy.h"
#include "dataflow/task_engine.h"
#include "trace/logger.h"

namespace lotus::service {

class LoaderClient;

using dataflow::kServiceBatchesMetric;
using dataflow::kServiceClientsMetric;
using dataflow::kServiceInflightMetric;
using dataflow::kServiceQueueDepthMetric;
using dataflow::kServiceRejectedMetric;
using dataflow::kServiceTasksMetric;
using dataflow::kServiceWaitNsMetric;

struct ServerOptions
{
    /** Shared fleet size; every client's tasks run on these. */
    int num_workers = 4;
    /** Admission control: connect() past this count is refused. */
    int max_clients = 8;
    /**
     * Admission control: a client's next batch is not decomposed
     * while its in-flight samples would exceed this. One batch is
     * always admitted even if larger, so a batch bigger than the cap
     * degrades to serial batches instead of deadlocking.
     */
    std::int64_t max_inflight_samples = 256;
    /**
     * Per-client backpressure: in-flight builds plus unconsumed
     * outbound batches never exceed this, enforced at decompose time
     * so a finisher's push never outruns a slow consumer.
     */
    int outbound_capacity = 4;
};

/** One client's loader-equivalent configuration (the solo-DataLoader
 *  fields that define its batch plan and sample contents, plus the
 *  service-only weight and pacing knobs). */
struct ClientConfig
{
    int batch_size = 1;
    bool shuffle = false;
    std::uint64_t seed = 0;
    bool drop_last = true;
    dataflow::ErrorPolicy error_policy = dataflow::ErrorPolicy::kFail;
    /** kRetry: attempts after the first failure before giving up. */
    int max_retries = 2;
    /** kSkip: replacement candidates tried per bad batch slot. */
    int max_refill_attempts = 8;
    /**
     * Weighted-fair share. Victim selection orders clients by
     * service_ns / weight, so a weight-2 client receives twice the
     * fleet time of a weight-1 client under contention.
     */
    double weight = 1.0;
    /** Batches this client keeps submitted ahead of consumption (the
     *  per-client analogue of prefetch_factor; tunable per client). */
    int prefetch_batches = 2;
    /** Optional LotusTrace sink for this client's task spans. */
    trace::TraceLogger *logger = nullptr;
};

using ClientStats = dataflow::ClientStats;
using ServerStats = dataflow::EngineStats;

class PreprocServer
{
  public:
    explicit PreprocServer(ServerOptions options);

    /** Fatal with clients still connected — destroy every
     *  LoaderClient first (they disconnect in their destructors). */
    ~PreprocServer();

    PreprocServer(const PreprocServer &) = delete;
    PreprocServer &operator=(const PreprocServer &) = delete;

    /**
     * Admit a new client. Refused (recoverable Error, counted in
     * lotus_service_rejected_total) when max_clients are connected;
     * invalid configs are fatal, like DataLoaderOptions validation.
     * The returned handle disconnects on destruction and must not
     * outlive the server.
     */
    Result<std::shared_ptr<LoaderClient>>
    connect(std::shared_ptr<const pipeline::Dataset> dataset,
            std::shared_ptr<const pipeline::Collate> collate,
            ClientConfig config);

    ServerStats stats() const { return engine_->stats(); }

    const ServerOptions &options() const { return options_; }

  private:
    const ServerOptions options_;
    std::shared_ptr<dataflow::TaskEngine> engine_;
};

} // namespace lotus::service

#endif // LOTUS_SERVICE_PREPROC_SERVER_H
