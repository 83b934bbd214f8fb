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
    auto &registry = metrics::MetricsRegistry::instance();
    inflight_gauge_ = registry.gauge(kRemoteInflightMetric);
    connection_waits_counter_ = registry.counter(kRemoteConnectionWaitsMetric);
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
    return std::move(tryReadMany({request}).front());
}

std::vector<Result<std::string>>
RemoteStore::tryReadMany(const std::vector<BlobReadRequest> &requests) const
{
    std::vector<RangeSlot> slots;
    slots.reserve(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i)
        slots.push_back(RangeSlot{requests[i], i});
    std::stable_sort(slots.begin(), slots.end(),
                     [](const RangeSlot &a, const RangeSlot &b) {
                         return a.request.index < b.request.index;
                     });
    LOTUS_ASSERT(slots.empty() || (slots.front().request.index >= 0 &&
                                   slots.back().request.index < size()),
                 "remote reads [%lld, %lld] out of range",
                 static_cast<long long>(slots.front().request.index),
                 static_cast<long long>(slots.back().request.index));

    // Split the sorted requests into runs; each run becomes one
    // ranged GET. A run breaks when the next index is beyond the
    // coalescing window or extending the span would blow the byte
    // cap (gap blobs count — they ride the wire too). The gap is
    // checked first, so sizes are summed only across gaps that may
    // join: a shuffled plan costs O(requests), not O(dataset span).
    std::vector<Run> runs;
    for (std::size_t s = 0; s < slots.size(); ++s) {
        const std::int64_t index = slots[s].request.index;
        if (!runs.empty()) {
            Run &run = runs.back();
            const std::int64_t prev = slots[s - 1].request.index;
            if (index - prev - 1 <= options_.max_coalesce_gap) {
                std::int64_t extension = 0;
                for (std::int64_t i = prev + 1; i <= index; ++i)
                    extension += static_cast<std::int64_t>(
                        inner_->blobSize(i));
                if (options_.max_coalesced_bytes <= 0 ||
                    run.span_bytes + extension <=
                        options_.max_coalesced_bytes) {
                    run.end = s + 1;
                    run.span_bytes += extension;
                    continue;
                }
            }
        }
        runs.push_back(
            Run{s, s + 1, static_cast<std::int64_t>(inner_->blobSize(index))});
    }

    std::vector<std::optional<Result<std::string>>> out(requests.size());
    serveRuns(slots, runs, out);

    std::vector<Result<std::string>> blobs;
    blobs.reserve(out.size());
    for (std::optional<Result<std::string>> &blob : out) {
        LOTUS_ASSERT(blob.has_value());
        blobs.push_back(std::move(*blob));
    }
    return blobs;
}

void
RemoteStore::serveRuns(
    const std::vector<RangeSlot> &slots, const std::vector<Run> &runs,
    std::vector<std::optional<Result<std::string>>> &out) const
{
    const SteadyClock &clock = SteadyClock::instance();

    // A run on the wire: it holds a connection slot until `lands`.
    struct InFlight
    {
        const Run *run;
        TimeNs lands;
        bool late;
    };
    std::vector<InFlight> inflight;
    std::size_t next = 0;
    // The next run already counted a connection wait.
    bool next_waited = false;

    // Put runs[next] on the wire with a slot already held. Its
    // deadline clock started at @p clock_start.
    auto launch = [&](TimeNs clock_start) {
        const Run &run = runs[next++];
        next_waited = false;
        TimeNs transfer = 0;
        if (options_.bytes_per_ns > 0.0)
            transfer = static_cast<TimeNs>(
                static_cast<double>(run.span_bytes) / options_.bytes_per_ns);
        const TimeNs acquired = clock.now();
        const TimeNs served =
            acquired - clock_start + options_.rtt + transfer;
        if (options_.deadline > 0 && served > options_.deadline) {
            // Miss: hold the slot up to the deadline (the caller did
            // wait that long before giving up), then fail the run.
            inflight.push_back({&run, clock_start + options_.deadline, true});
            return;
        }
        modelled_delay_ns_.fetch_add(options_.rtt + transfer,
                                     std::memory_order_relaxed);
        inflight.push_back({&run, acquired + options_.rtt + transfer, false});
    };

    while (next < runs.size() || !inflight.empty()) {
        // Start pending runs on whatever slots are free.
        while (next < runs.size()) {
            if (!tryAcquireConnection()) {
                if (!next_waited) {
                    connection_waits_.fetch_add(1, std::memory_order_relaxed);
                    connection_waits_counter_->add();
                }
                next_waited = true;
                break;
            }
            launch(clock.now());
        }
        if (inflight.empty()) {
            // No free slot and nothing of our own on the wire: block
            // on the gate for the next run. Its deadline clock starts
            // now.
            const TimeNs clock_start = clock.now();
            acquireConnection();
            launch(clock_start);
            continue;
        }

        // Sleep until the earliest run lands, free its slot, deliver.
        auto landed = std::min_element(
            inflight.begin(), inflight.end(),
            [](const InFlight &a, const InFlight &b) {
                return a.lands < b.lands;
            });
        const InFlight done = *landed;
        inflight.erase(landed);
        modelDelay(done.lands - clock.now());
        releaseConnection();

        const Run &run = *done.run;
        const std::int64_t first = slots[run.begin].request.index;
        const std::int64_t last = slots[run.end - 1].request.index;
        const std::size_t blob_count = run.end - run.begin;
        if (done.late) {
            timeouts_.fetch_add(blob_count, std::memory_order_relaxed);
            for (std::size_t s = run.begin; s < run.end; ++s)
                out[slots[s].out_slot] = LOTUS_ERROR(
                    ErrorCode::kTimeout,
                    "remote read [%lld, %lld] (%lld bytes) missed %.1f ms "
                    "deadline",
                    static_cast<long long>(first),
                    static_cast<long long>(last),
                    static_cast<long long>(run.span_bytes),
                    toMs(options_.deadline));
            continue;
        }

        round_trips_.fetch_add(1, std::memory_order_relaxed);
        bytes_transferred_.fetch_add(
            static_cast<std::uint64_t>(run.span_bytes),
            std::memory_order_relaxed);
        if (blob_count > 1)
            coalesced_reads_.fetch_add(blob_count, std::memory_order_relaxed);

        PipelineContext *ambient = currentIoContext();
        for (std::size_t s = run.begin; s < run.end; ++s) {
            const RangeSlot &slot = slots[s];
            // Re-scope the ambient trace context per delivered blob so
            // an inner tracing store stamps it for the sample it
            // serves.
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
}

bool
RemoteStore::tryAcquireConnection() const
{
    std::lock_guard<std::mutex> lock(slots_mutex_);
    if (inflight_ >= options_.max_inflight || serving_ != next_ticket_)
        return false;
    takeSlotLocked();
    return true;
}

void
RemoteStore::acquireConnection() const
{
    std::unique_lock<std::mutex> lock(slots_mutex_);
    const std::uint64_t ticket = next_ticket_++;
    slot_free_cv_.wait(lock, [this, ticket] {
        return serving_ == ticket && inflight_ < options_.max_inflight;
    });
    ++serving_;
    takeSlotLocked();
    // The next ticket may find a slot free too.
    if (serving_ != next_ticket_)
        slot_free_cv_.notify_all();
}

void
RemoteStore::takeSlotLocked() const
{
    ++inflight_;
    inflight_gauge_->set(inflight_);
    if (inflight_ > inflight_high_water_.load(std::memory_order_relaxed))
        inflight_high_water_.store(inflight_, std::memory_order_relaxed);
}

void
RemoteStore::releaseConnection() const
{
    {
        std::lock_guard<std::mutex> lock(slots_mutex_);
        --inflight_;
        inflight_gauge_->set(inflight_);
    }
    slot_free_cv_.notify_all();
}

} // namespace lotus::pipeline
