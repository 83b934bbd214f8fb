/**
 * @file
 * The training-side handle onto a PreprocServer: a thin wrapper over
 * a DataLoader bound to the server's shared task engine.
 *
 * The loader owns the epoch state machine — the batch plan, the
 * submission pacing (prefetch_batches ahead of consumption), and the
 * in-order reorder buffer — and the server's fleet owns execution.
 * next() blocks on the client's outbound queue exactly like a solo
 * work-stealing loader, so the recorded wait is the same [T2]
 * quantity, also exported per client as
 * lotus_service_wait_ns{client=N}.
 */

#ifndef LOTUS_SERVICE_LOADER_CLIENT_H
#define LOTUS_SERVICE_LOADER_CLIENT_H

#include <cstdint>
#include <memory>
#include <optional>

#include "dataflow/data_loader.h"
#include "service/preproc_server.h"

namespace lotus::service {

class LoaderClient
{
  public:
    /** Disconnects: the server cancels and drains any outstanding
     *  work without stalling other clients. */
    ~LoaderClient() = default;

    LoaderClient(const LoaderClient &) = delete;
    LoaderClient &operator=(const LoaderClient &) = delete;

    std::int64_t id() const { return loader_->clientId(); }
    const ClientConfig &config() const { return config_; }

    /** Batches one epoch will produce (same plan as a solo loader). */
    std::int64_t numBatches() const { return loader_->numBatches(); }

    /**
     * Begin an epoch: cancel any outstanding incarnation, rebuild the
     * plan (reshuffling like a solo loader on re-start), and submit
     * the first prefetch_batches. Called implicitly by the first
     * next(); explicit restart supports multi-epoch use.
     */
    void startEpoch() { loader_->startEpoch(); }

    /**
     * Next in-order batch, or nullopt at epoch end. Blocks on the
     * shared fleet as needed ([T2]). Under ErrorPolicy::kFail (and
     * exhausted kRetry/kSkip) a failed batch surfaces here as a
     * LoaderError in batch order — the epoch is then aborted
     * (outstanding work drains server-side) and needs an explicit
     * startEpoch() to run again, matching DataLoader::next().
     */
    std::optional<pipeline::Batch> next() { return loader_->next(); }

    /** 0-based epoch counter (increments on re-startEpoch). */
    std::int64_t epoch() const { return loader_->epoch(); }

  private:
    friend class PreprocServer;

    LoaderClient(ClientConfig config,
                 std::unique_ptr<dataflow::DataLoader> loader)
        : config_(std::move(config)), loader_(std::move(loader))
    {
    }

    const ClientConfig config_;
    const std::unique_ptr<dataflow::DataLoader> loader_;
};

} // namespace lotus::service

#endif // LOTUS_SERVICE_LOADER_CLIENT_H
