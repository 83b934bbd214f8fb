/**
 * @file
 * Bounded asynchronous read-ahead for blob-backed datasets.
 *
 * The paper's loaders interleave store I/O and decode in one thread
 * per worker: a worker blocked on a 5 ms remote GET decodes nothing,
 * so store latency lands directly on epoch wall time. ReadAhead
 * splits the I/O off onto dedicated threads that walk the epoch's
 * batch plan ahead of the fetch paths, issuing batched
 * BlobStore::tryReadMany() reads (adjacent indices coalesce into one
 * round trip on stores that support it, e.g. RemoteStore) and parking
 * the bytes until the fetch thread claims them.
 *
 * Contract (DESIGN.md §13):
 *
 *  - Bounded depth: at most `depth` blobs are issued-but-unclaimed at
 *    any time. The issuers stall — they never run ahead of a stalled
 *    consumer by more than the window, so memory stays O(depth). The
 *    loader leaves cache-resident samples (which claim nothing) out of
 *    the plan, so no unclaimed read sits in the window.
 *  - Bit-identity: read-ahead moves *when and where* bytes are read,
 *    never *what* is decoded. claim() returns exactly the bytes a
 *    synchronous tryRead() would have returned (staged errors
 *    included), decode stays on the fetch thread, and the RNG
 *    reseeding contract is untouched — batches are bit-identical with
 *    the engine on or off, under every Schedule and num_workers=0.
 *  - Opportunistic: a claim() miss (not yet issued, already consumed
 *    by a retry, epoch cancelled mid-wait) simply means the caller
 *    reads synchronously. There is no path where forward progress
 *    waits on the engine being right.
 *  - Error propagation: a failed prefetch (kIoError, kTimeout, ...)
 *    is parked and claimed like a success; the dataset surfaces it
 *    with the same stage ("store") the synchronous path would, so
 *    ErrorPolicy retry/skip compose unchanged (a retry's re-claim
 *    misses and re-reads synchronously — identical to a sync retry).
 */

#ifndef LOTUS_DATAFLOW_READ_AHEAD_H
#define LOTUS_DATAFLOW_READ_AHEAD_H

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "metrics/metrics.h"
#include "pipeline/store.h"
#include "trace/logger.h"

namespace lotus::dataflow {

/** Blobs served from the read-ahead window (claim hits). */
inline constexpr const char *kReadAheadHitsMetric =
    "lotus_readahead_hits_total";
/** Claims that fell back to a synchronous read. */
inline constexpr const char *kReadAheadMissesMetric =
    "lotus_readahead_misses_total";
/** Blob reads issued by the I/O threads. */
inline constexpr const char *kReadAheadIssuedMetric =
    "lotus_readahead_issued_total";
/** Issued-but-unclaimed blobs (window occupancy). */
inline constexpr const char *kReadAheadInFlightMetric =
    "lotus_readahead_in_flight";
/** Configured window depth. */
inline constexpr const char *kReadAheadDepthMetric =
    "lotus_readahead_depth";

struct ReadAheadOptions
{
    /** Max issued-but-unclaimed blobs. Must be >= 1. */
    int depth = 32;
    /** Dedicated I/O threads. Must be >= 1. */
    int io_threads = 1;
    /** Max requests per tryReadMany() call (the coalescing window a
     *  batching store sees). 0 picks depth / (2 * io_threads),
     *  clamped to [1, 16]; the effective value is always capped at
     *  depth so one chunk can never overshoot the window. */
    int io_batch = 0;
};

class ReadAhead
{
  public:
    /** @p store must outlive the engine (the loader owns both via the
     *  dataset). Threads start immediately but idle until the first
     *  startEpoch(). */
    ReadAhead(const pipeline::BlobStore *store,
              const ReadAheadOptions &options);
    ~ReadAhead();

    ReadAhead(const ReadAhead &) = delete;
    ReadAhead &operator=(const ReadAhead &) = delete;

    /**
     * Arm the engine for a new epoch: @p plan is the epoch's blob
     * reads in fetch order (flattened batches, correlation included —
     * IoEvents from the I/O threads stamp each read's batch/sample).
     * Outstanding work from the previous epoch is dropped; in-flight
     * completions are discarded on arrival.
     */
    void startEpoch(std::vector<pipeline::BlobReadRequest> plan,
                    trace::TraceLogger *logger);

    /** Drop all outstanding work and wake blocked claims (they miss
     *  and fall back to synchronous reads). */
    void cancel();

    /**
     * Take the prefetched result for @p index: the blob (or prefetch
     * error) when the window holds or is fetching it — blocks for an
     * in-flight read to land — or nullopt when it was never issued,
     * was already claimed, or the epoch was cancelled mid-wait.
     */
    std::optional<Result<std::string>> claim(std::int64_t index);

    const ReadAheadOptions &options() const { return options_; }

    /** Effective per-tryReadMany chunk size after auto-derivation:
     *  in [1, min(16, depth)] when io_batch was 0, else the explicit
     *  value capped at depth. */
    int ioBatch() const { return io_batch_; }

  private:
    struct Entry
    {
        bool ready = false;
        std::optional<Result<std::string>> blob;
    };

    void ioLoop(int thread_id);
    /** entries_ changed size: refresh the occupancy gauge. */
    void updateInFlight();

    const pipeline::BlobStore *store_;
    ReadAheadOptions options_;
    int io_batch_;

    std::mutex mutex_;
    /** Issuers wait here for window space / a new epoch. */
    std::condition_variable issue_cv_;
    /** Claims wait here for an in-flight entry to land. */
    std::condition_variable ready_cv_;
    bool shutdown_ = false;
    /** Bumped by startEpoch/cancel; completions from an older
     *  generation are discarded on arrival. */
    std::uint64_t generation_ = 0;
    std::vector<pipeline::BlobReadRequest> plan_;
    std::size_t next_pos_ = 0;
    trace::TraceLogger *logger_ = nullptr;
    /** Window contents, keyed by blob index. */
    std::unordered_map<std::int64_t, Entry> entries_;
    /** Indices already claimed (or missed) this epoch; issuing them
     *  would be a read nobody will consume. */
    std::unordered_set<std::int64_t> consumed_;

    std::vector<std::thread> io_threads_;

    metrics::Counter *hits_ = nullptr;
    metrics::Counter *misses_ = nullptr;
    metrics::Counter *issued_ = nullptr;
    metrics::Gauge *in_flight_ = nullptr;
    metrics::Gauge *depth_gauge_ = nullptr;
};

} // namespace lotus::dataflow

#endif // LOTUS_DATAFLOW_READ_AHEAD_H
