#include "pipeline/remote_store.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/logging.h"
#include "pipeline/sample.h"

namespace lotus::pipeline {

namespace {

/**
 * Deschedule for the modelled duration. sleep_for (not busy-wait):
 * a remote GET blocks on a socket, and yielding the core is exactly
 * what makes read-ahead overlap possible on small machines — see the
 * header contrast with InMemoryStore.
 */
void
modelDelay(TimeNs duration)
{
    if (duration > 0)
        std::this_thread::sleep_for(std::chrono::nanoseconds(duration));
}

} // namespace

RemoteStore::RemoteStore(std::shared_ptr<const BlobStore> inner,
                         const RemoteStoreOptions &options)
    : inner_(std::move(inner)), options_(options)
{
    LOTUS_ASSERT(inner_ != nullptr);
    if (options_.rtt < 0)
        LOTUS_FATAL("RemoteStore rtt must be >= 0 (got %lld)",
                    static_cast<long long>(options_.rtt));
    if (options_.max_inflight < 1)
        LOTUS_FATAL("RemoteStore max_inflight must be >= 1 (got %d)",
                    options_.max_inflight);
    if (options_.max_coalesce_gap < 0)
        LOTUS_FATAL("RemoteStore max_coalesce_gap must be >= 0 (got %lld)",
                    static_cast<long long>(options_.max_coalesce_gap));
    if (options_.deadline < 0)
        LOTUS_FATAL("RemoteStore deadline must be >= 0 (got %lld)",
                    static_cast<long long>(options_.deadline));
}

std::int64_t
RemoteStore::size() const
{
    return inner_->size();
}

std::uint64_t
RemoteStore::blobSize(std::int64_t index) const
{
    return inner_->blobSize(index);
}

std::string
RemoteStore::read(std::int64_t index) const
{
    Result<std::string> blob = tryRead(index);
    if (!blob.ok())
        LOTUS_FATAL("remote blob %lld: %s", static_cast<long long>(index),
                    blob.error().describe().c_str());
    return blob.take();
}

Result<std::string>
RemoteStore::tryRead(std::int64_t index) const
{
    BlobReadRequest request;
    request.index = index;
    if (const PipelineContext *ambient = currentIoContext()) {
        request.batch_id = ambient->batch_id;
        request.sample_index = ambient->sample_index;
    }
    std::vector<std::optional<Result<std::string>>> out(1);
    serveRange({RangeSlot{request, 0}}, out);
    return std::move(*out[0]);
}

std::vector<Result<std::string>>
RemoteStore::tryReadMany(const std::vector<BlobReadRequest> &requests) const
{
    std::vector<std::optional<Result<std::string>>> out(requests.size());
    std::vector<RangeSlot> slots;
    slots.reserve(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i)
        slots.push_back(RangeSlot{requests[i], i});
    std::stable_sort(slots.begin(), slots.end(),
                     [](const RangeSlot &a, const RangeSlot &b) {
                         return a.request.index < b.request.index;
                     });

    // Split the sorted requests into runs; each run becomes one
    // ranged GET. A run breaks when the next index is beyond the
    // coalescing window or extending the span would blow the byte
    // cap (gap blobs count — they ride the wire too).
    std::vector<RangeSlot> run;
    std::int64_t span_bytes = 0;
    for (const RangeSlot &slot : slots) {
        if (!run.empty()) {
            const std::int64_t prev = run.back().request.index;
            const std::int64_t gap = slot.request.index - prev - 1;
            std::int64_t extension = 0;
            if (slot.request.index > prev)
                for (std::int64_t i = prev + 1; i <= slot.request.index; ++i)
                    extension += static_cast<std::int64_t>(
                        inner_->blobSize(i));
            const bool over_bytes =
                options_.max_coalesced_bytes > 0 &&
                span_bytes + extension > options_.max_coalesced_bytes;
            if (gap > options_.max_coalesce_gap || over_bytes) {
                serveRange(run, out);
                run.clear();
                span_bytes = 0;
            } else {
                run.push_back(slot);
                span_bytes += extension;
                continue;
            }
        }
        run.push_back(slot);
        span_bytes =
            static_cast<std::int64_t>(inner_->blobSize(slot.request.index));
    }
    if (!run.empty())
        serveRange(run, out);

    std::vector<Result<std::string>> blobs;
    blobs.reserve(out.size());
    for (std::optional<Result<std::string>> &blob : out) {
        LOTUS_ASSERT(blob.has_value());
        blobs.push_back(std::move(*blob));
    }
    return blobs;
}

void
RemoteStore::serveRange(
    const std::vector<RangeSlot> &run,
    std::vector<std::optional<Result<std::string>>> &out) const
{
    LOTUS_ASSERT(!run.empty());
    const std::int64_t first = run.front().request.index;
    const std::int64_t last = run.back().request.index;
    LOTUS_ASSERT(first >= 0 && last < inner_->size(),
                 "remote range [%lld, %lld] out of range",
                 static_cast<long long>(first),
                 static_cast<long long>(last));

    std::int64_t span_bytes = 0;
    for (std::int64_t i = first; i <= last; ++i)
        span_bytes += static_cast<std::int64_t>(inner_->blobSize(i));

    const TimeNs submitted = SteadyClock::instance().now();
    acquireConnection();

    TimeNs transfer = 0;
    if (options_.bytes_per_ns > 0.0)
        transfer = static_cast<TimeNs>(static_cast<double>(span_bytes) /
                                       options_.bytes_per_ns);
    const TimeNs served = SteadyClock::instance().now() - submitted +
                          options_.rtt + transfer;
    if (options_.deadline > 0 && served > options_.deadline) {
        // Miss: consume the time up to the deadline (the caller did
        // wait that long before giving up), then fail the whole run.
        modelDelay(options_.deadline -
                   (SteadyClock::instance().now() - submitted));
        releaseConnection();
        timeouts_.fetch_add(run.size(), std::memory_order_relaxed);
        for (const RangeSlot &slot : run)
            out[slot.out_slot] = LOTUS_ERROR(
                ErrorCode::kTimeout,
                "remote read [%lld, %lld] (%lld bytes) missed %.1f ms "
                "deadline",
                static_cast<long long>(first), static_cast<long long>(last),
                static_cast<long long>(span_bytes), toMs(options_.deadline));
        return;
    }

    modelDelay(options_.rtt + transfer);
    releaseConnection();
    modelled_delay_ns_.fetch_add(options_.rtt + transfer,
                                 std::memory_order_relaxed);

    round_trips_.fetch_add(1, std::memory_order_relaxed);
    bytes_transferred_.fetch_add(static_cast<std::uint64_t>(span_bytes),
                                 std::memory_order_relaxed);
    if (run.size() > 1)
        coalesced_reads_.fetch_add(run.size(), std::memory_order_relaxed);

    PipelineContext *ambient = currentIoContext();
    for (const RangeSlot &slot : run) {
        // Re-scope the ambient trace context per delivered blob so an
        // inner tracing store stamps it for the sample it serves.
        if (ambient != nullptr) {
            PipelineContext ctx = *ambient;
            ctx.batch_id = slot.request.batch_id;
            ctx.sample_index = slot.request.sample_index;
            IoTraceScope scope(&ctx);
            out[slot.out_slot] = inner_->tryRead(slot.request.index);
        } else {
            out[slot.out_slot] = inner_->tryRead(slot.request.index);
        }
    }
}

void
RemoteStore::acquireConnection() const
{
    std::unique_lock<std::mutex> lock(slots_mutex_);
    if (inflight_ >= options_.max_inflight)
        connection_waits_.fetch_add(1, std::memory_order_relaxed);
    slot_free_cv_.wait(lock,
                       [this] { return inflight_ < options_.max_inflight; });
    ++inflight_;
}

void
RemoteStore::releaseConnection() const
{
    {
        std::lock_guard<std::mutex> lock(slots_mutex_);
        --inflight_;
    }
    slot_free_cv_.notify_one();
}

} // namespace lotus::pipeline
