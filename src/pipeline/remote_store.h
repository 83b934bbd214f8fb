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
 *  - the runs of one tryReadMany() call are in flight at the same
 *    time, up to the free slots of the pool: the calling thread keeps
 *    a timeline of its in-flight runs, sleeps until the earliest one
 *    lands, releases that run's slot, delivers its blobs and starts
 *    pending runs on whatever slots are free. It blocks on the gate
 *    only when none of its own runs is in flight, so it never holds a
 *    slot while waiting for another. Blocked threads are served first
 *    come first served, and a free slot is never taken ahead of a
 *    thread already queued on the gate;
 *  - one serve path: tryRead() is a one-run call through the same
 *    loop;
 *  - an optional per-request deadline turns slow completions
 *    (including connection-queue waits) into ErrorCode::kTimeout,
 *    which errorIsTransient() classifies as retryable so
 *    ErrorPolicy::kRetry handles a congested store exactly like a
 *    flaky one. Each run has its own deadline clock. It starts when
 *    the call has nothing of its own left to wait on and turns to
 *    that run (it takes a free slot, or blocks on the gate for one),
 *    so a lone caller is charged exactly what a one-run-at-a-time
 *    client would be. A late run holds its slot up to its deadline,
 *    then releases it and fails with kTimeout; the call's other runs
 *    are unaffected.
 *
 * Unlike InMemoryStore's busy-wait latency (which models a *local*
 * synchronous device where blocked time should pin the worker),
 * RemoteStore sleeps: a remote GET is a blocking socket wait, and
 * descheduling is what lets a read-ahead stage overlap store latency
 * with decode CPU — the effect this store exists to expose.
 *
 * The model is deliberately deterministic (no jitter): for a given
 * request stream the run split, and so roundTrips(),
 * coalescedReads(), bytesTransferred() and modelledDelayNs(), do not
 * depend on timing.
 */

#ifndef LOTUS_PIPELINE_REMOTE_STORE_H
#define LOTUS_PIPELINE_REMOTE_STORE_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>

#include "metrics/metrics.h"
#include "pipeline/store.h"

namespace lotus::pipeline {

/** Connection slots in use (the RemoteStore that last changed it; a
 *  process normally has one). */
inline constexpr const char *kRemoteInflightMetric = "lotus_remote_inflight";
/** Runs that found no free connection slot and had to wait. */
inline constexpr const char *kRemoteConnectionWaitsMetric =
    "lotus_remote_connection_waits_total";

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
     * Per-request (per-run) deadline measured from the moment the
     * caller turns to the run to its completion, connection-queue
     * wait included. 0 disables. A miss consumes the modelled time up
     * to the deadline, then fails every read in the run with
     * ErrorCode::kTimeout.
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

    /** Runs that found every slot busy (or a slot free but promised
     *  to a queued thread) and had to wait; each run counts once. */
    std::uint64_t connectionWaits() const
    {
        return connection_waits_.load(std::memory_order_relaxed);
    }

    /** High-water mark of connection slots in use at once. */
    int inflightHighWater() const
    {
        return inflight_high_water_.load(std::memory_order_relaxed);
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

    /** One ranged GET: slots [begin, end) of the sorted request list.
     *  It covers every inner index from the first slot's to the last
     *  slot's, and span_bytes is their total size. */
    struct Run
    {
        std::size_t begin = 0;
        std::size_t end = 0;
        std::int64_t span_bytes = 0;
    };

    /**
     * Serve @p runs over the connection pool, concurrently (see the
     * file comment), and fill the @p out slots their RangeSlots name.
     */
    void serveRuns(const std::vector<RangeSlot> &slots,
                   const std::vector<Run> &runs,
                   std::vector<std::optional<Result<std::string>>> &out)
        const;

    /** Take a free slot unless none is free or a thread is queued on
     *  the gate (a free slot is then promised to it). */
    bool tryAcquireConnection() const;
    /** Queue for a connection slot, first come first served. */
    void acquireConnection() const;
    void releaseConnection() const;
    /** Take a slot; slots_mutex_ held and a slot free. */
    void takeSlotLocked() const;

    std::shared_ptr<const BlobStore> inner_;
    RemoteStoreOptions options_;

    mutable std::mutex slots_mutex_;
    mutable std::condition_variable slot_free_cv_;
    mutable int inflight_ = 0;
    /** FIFO gate for blocked acquirers: each takes the next ticket and
     *  gets a slot when `serving_` reaches it. serving_ != next_ticket_
     *  means a thread is queued, and tryAcquireConnection() then
     *  leaves a free slot to it. */
    mutable std::uint64_t next_ticket_ = 0;
    mutable std::uint64_t serving_ = 0;

    mutable std::atomic<std::uint64_t> round_trips_{0};
    mutable std::atomic<std::uint64_t> coalesced_reads_{0};
    mutable std::atomic<std::uint64_t> timeouts_{0};
    mutable std::atomic<std::uint64_t> bytes_transferred_{0};
    mutable std::atomic<TimeNs> modelled_delay_ns_{0};
    mutable std::atomic<std::uint64_t> connection_waits_{0};
    mutable std::atomic<int> inflight_high_water_{0};

    metrics::Gauge *inflight_gauge_ = nullptr;
    metrics::Counter *connection_waits_counter_ = nullptr;
};

} // namespace lotus::pipeline

#endif // LOTUS_PIPELINE_REMOTE_STORE_H
