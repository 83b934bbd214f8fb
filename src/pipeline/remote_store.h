/**
 * @file
 * Latency/bandwidth-modelled remote object store.
 *
 * RemoteStore decorates any BlobStore with the performance model of
 * an off-host object store (S3/GCS-style GETs over a connection
 * pool), opening the I/O-bound regime the paper's local-store
 * workloads could not explore (ROADMAP "streaming/off-host stores"):
 *
 *  - every request pays a configurable round-trip time (RTT);
 *  - payload transfer is capped at a per-connection bandwidth;
 *  - at most max_inflight requests progress concurrently — excess
 *    requests queue for a connection, like a saturated client pool;
 *  - tryReadMany() coalesces adjacent-index runs into one ranged GET:
 *    a run of blobs costs a single RTT plus the transfer of the whole
 *    covered span (gap blobs inside a tolerated gap are dead bytes on
 *    the wire — the classic range-coalescing trade);
 *  - an optional per-request deadline turns slow completions
 *    (including connection-queue waits) into ErrorCode::kTimeout,
 *    which errorIsTransient() classifies as retryable so
 *    ErrorPolicy::kRetry handles a congested store exactly like a
 *    flaky one.
 *
 * Unlike InMemoryStore's busy-wait latency (which models a *local*
 * synchronous device where blocked time should pin the worker),
 * RemoteStore sleeps: a remote GET is a blocking socket wait, and
 * descheduling is what lets a read-ahead stage overlap store latency
 * with decode CPU — the effect this store exists to expose.
 *
 * The model is deliberately deterministic given a serial request
 * pattern (no jitter): benches and tests reason about exact
 * round-trip counts via roundTrips()/coalescedReads().
 */

#ifndef LOTUS_PIPELINE_REMOTE_STORE_H
#define LOTUS_PIPELINE_REMOTE_STORE_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>

#include "pipeline/store.h"

namespace lotus::pipeline {

struct RemoteStoreOptions
{
    /** Fixed per-request latency (connection + first-byte). */
    TimeNs rtt = 5 * kMillisecond;
    /** Per-connection payload throughput cap, bytes per nanosecond
     *  (0.1 = 100 MB/s). <= 0 means unlimited. */
    double bytes_per_ns = 0.1;
    /** Concurrent in-flight requests; more requests queue for a
     *  connection slot. Must be >= 1. */
    int max_inflight = 8;
    /**
     * tryReadMany coalescing window: two requested indices join one
     * ranged GET when the run of unrequested indices between them is
     * <= this. 0 coalesces strictly adjacent indices; gap blobs are
     * fetched and discarded (their bytes still ride the wire and
     * count toward transfer time).
     */
    std::int64_t max_coalesce_gap = 0;
    /** Byte cap per coalesced range; a run splits when the covered
     *  span would exceed it. <= 0 means unlimited. */
    std::int64_t max_coalesced_bytes = 8ll << 20;
    /**
     * Per-request deadline measured from request submission to
     * completion, connection-queue wait included. 0 disables. A miss
     * consumes the modelled time up to the deadline, then fails every
     * read in the request with ErrorCode::kTimeout.
     */
    TimeNs deadline = 0;
};

class RemoteStore : public BlobStore
{
  public:
    RemoteStore(std::shared_ptr<const BlobStore> inner,
                const RemoteStoreOptions &options);

    std::int64_t size() const override;
    std::string read(std::int64_t index) const override;
    Result<std::string> tryRead(std::int64_t index) const override;
    /** Coalesces adjacent-index runs (request order need not be
     *  sorted; results come back in request order). */
    std::vector<Result<std::string>>
    tryReadMany(const std::vector<BlobReadRequest> &requests) const override;
    std::uint64_t blobSize(std::int64_t index) const override;

    const BlobStore &inner() const { return *inner_; }
    const RemoteStoreOptions &options() const { return options_; }

    /** Modelled round trips served (one per coalesced range). */
    std::uint64_t roundTrips() const
    {
        return round_trips_.load(std::memory_order_relaxed);
    }

    /** Blobs delivered by a range that carried more than one. */
    std::uint64_t coalescedReads() const
    {
        return coalesced_reads_.load(std::memory_order_relaxed);
    }

    /** Blob reads failed with kTimeout (one per affected slot). */
    std::uint64_t timeouts() const
    {
        return timeouts_.load(std::memory_order_relaxed);
    }

    /** Bytes that rode the wire (requested + coalescing gap blobs). */
    std::uint64_t bytesTransferred() const
    {
        return bytes_transferred_.load(std::memory_order_relaxed);
    }

    /** Sum of the modelled RTT + transfer delays of served requests
     *  (deadline misses excluded): the latency the model charged,
     *  independent of how late the sleeping thread woke. */
    TimeNs modelledDelayNs() const
    {
        return modelled_delay_ns_.load(std::memory_order_relaxed);
    }

    /** Connection acquisitions that found every slot busy and had to
     *  queue. */
    std::uint64_t connectionWaits() const
    {
        return connection_waits_.load(std::memory_order_relaxed);
    }

  private:
    /** One requested blob inside a coalesced range: inner index plus
     *  the slot of @p out it fills (requests may repeat an index, so
     *  a run can carry several slots for one blob). */
    struct RangeSlot
    {
        BlobReadRequest request;
        std::size_t out_slot;
    };

    /**
     * Serve one ranged GET covering the run's [front.index,
     * back.index] span: queue for a connection, sleep the modelled
     * RTT plus the transfer of the whole span (coalescing-gap blobs
     * included — dead bytes still ride the wire), then deliver the
     * requested subset from the inner store. On a deadline miss every
     * slot of the run becomes kTimeout instead.
     */
    void serveRange(const std::vector<RangeSlot> &run,
                    std::vector<std::optional<Result<std::string>>> &out)
        const;

    /** Block until a connection slot is free. */
    void acquireConnection() const;
    void releaseConnection() const;

    std::shared_ptr<const BlobStore> inner_;
    RemoteStoreOptions options_;

    mutable std::mutex slots_mutex_;
    mutable std::condition_variable slot_free_cv_;
    mutable int inflight_ = 0;

    mutable std::atomic<std::uint64_t> round_trips_{0};
    mutable std::atomic<std::uint64_t> coalesced_reads_{0};
    mutable std::atomic<std::uint64_t> timeouts_{0};
    mutable std::atomic<std::uint64_t> bytes_transferred_{0};
    mutable std::atomic<TimeNs> modelled_delay_ns_{0};
    mutable std::atomic<std::uint64_t> connection_waits_{0};
};

} // namespace lotus::pipeline

#endif // LOTUS_PIPELINE_REMOTE_STORE_H
