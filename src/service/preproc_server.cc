#include "service/preproc_server.h"

#include "service/loader_client.h"

namespace lotus::service {

namespace {

void
validateOptions(const ServerOptions &options)
{
    if (options.num_workers <= 0)
        LOTUS_FATAL("ServerOptions: num_workers must be > 0 (got %d)",
                    options.num_workers);
    if (options.max_clients <= 0)
        LOTUS_FATAL("ServerOptions: max_clients must be > 0 (got %d)",
                    options.max_clients);
    if (options.max_inflight_samples <= 0)
        LOTUS_FATAL(
            "ServerOptions: max_inflight_samples must be > 0 (got %lld)",
            static_cast<long long>(options.max_inflight_samples));
    if (options.outbound_capacity < 1)
        LOTUS_FATAL(
            "ServerOptions: outbound_capacity must be >= 1 (got %d)",
            options.outbound_capacity);
}

/** Fatal like DataLoaderOptions validation: a bad client config is a
 *  caller bug, not an admission decision. */
void
validateClientConfig(const ClientConfig &config)
{
    if (config.batch_size <= 0)
        LOTUS_FATAL("ClientConfig: batch_size must be > 0 (got %d)",
                    config.batch_size);
    if (config.weight <= 0.0)
        LOTUS_FATAL("ClientConfig: weight must be > 0 (got %g)",
                    config.weight);
    if (config.prefetch_batches < 1)
        LOTUS_FATAL("ClientConfig: prefetch_batches must be >= 1 (got %d)",
                    config.prefetch_batches);
    if (config.max_retries < 0)
        LOTUS_FATAL("ClientConfig: max_retries must be >= 0 (got %d)",
                    config.max_retries);
    if (config.max_refill_attempts < 0)
        LOTUS_FATAL(
            "ClientConfig: max_refill_attempts must be >= 0 (got %d)",
            config.max_refill_attempts);
}

} // namespace

PreprocServer::PreprocServer(ServerOptions options)
    : options_(std::move(options))
{
    validateOptions(options_);
    dataflow::EngineLimits limits;
    limits.num_workers = options_.num_workers;
    limits.max_clients = options_.max_clients;
    limits.max_inflight_samples = options_.max_inflight_samples;
    limits.outbound_capacity = options_.outbound_capacity;
    limits.shared = true;
    engine_ = std::make_shared<dataflow::TaskEngine>(limits);
}

PreprocServer::~PreprocServer()
{
    for (const ClientStats &client : engine_->stats().clients) {
        if (!client.disconnected)
            LOTUS_FATAL("PreprocServer destroyed with client %lld still "
                        "connected; destroy every LoaderClient first (their "
                        "destructors disconnect)",
                        static_cast<long long>(client.id));
    }
}

Result<std::shared_ptr<LoaderClient>>
PreprocServer::connect(std::shared_ptr<const pipeline::Dataset> dataset,
                       std::shared_ptr<const pipeline::Collate> collate,
                       ClientConfig config)
{
    validateClientConfig(config);
    // The client's loader: the solo-loader fields that define batch
    // contents, a window of prefetch_batches submissions (one nominal
    // worker), and no pinning — a served batch is handed over as is.
    dataflow::DataLoaderOptions options;
    options.batch_size = config.batch_size;
    options.num_workers = 1;
    options.prefetch_factor = config.prefetch_batches;
    options.shuffle = config.shuffle;
    options.seed = config.seed;
    options.pin_memory = false;
    options.drop_last = config.drop_last;
    options.logger = config.logger;
    options.error_policy = config.error_policy;
    options.max_retries = config.max_retries;
    options.max_refill_attempts = config.max_refill_attempts;
    options.schedule = dataflow::Schedule::kWorkStealing;
    auto loader =
        dataflow::DataLoader::connect(engine_, std::move(dataset),
                                      std::move(collate), options,
                                      config.weight);
    if (!loader.ok())
        return loader.takeError();
    return std::shared_ptr<LoaderClient>(
        new LoaderClient(std::move(config), loader.take()));
}

} // namespace lotus::service
