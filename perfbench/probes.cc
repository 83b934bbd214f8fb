#include "probes.h"

namespace perfbench {

using namespace lotus;
using namespace lotus::pipeline;

namespace {

TimeNs
now()
{
    return SteadyClock::instance().now();
}

/** Dataset-call nesting depth on this thread: store reads made while
 *  it is nonzero are worker time, the rest are read-ahead I/O. */
thread_local int t_dataset_depth = 0;

/** Times one Dataset call and marks the thread as inside it. */
class DatasetCall
{
  public:
    explicit DatasetCall(Tally &tally) : tally_(tally), start_(now())
    {
        ++t_dataset_depth;
    }
    ~DatasetCall()
    {
        --t_dataset_depth;
        // Nested calls (tryGet -> tryGetPrefix on the inner dataset)
        // never reach a decorator twice, but stay exact if they did.
        if (t_dataset_depth == 0)
            tally_.add(now() - start_);
    }

    DatasetCall(const DatasetCall &) = delete;
    DatasetCall &operator=(const DatasetCall &) = delete;

  private:
    Tally &tally_;
    TimeNs start_;
};

} // namespace

void
Tally::add(TimeNs elapsed)
{
    ns.fetch_add(static_cast<std::uint64_t>(elapsed > 0 ? elapsed : 0),
                 std::memory_order_relaxed);
    calls.fetch_add(1, std::memory_order_relaxed);
}

void
Tally::reset()
{
    ns.store(0, std::memory_order_relaxed);
    calls.store(0, std::memory_order_relaxed);
}

Tally &
Probes::op(const std::string &name)
{
    auto &slot = ops[name];
    if (!slot)
        slot = std::make_unique<Tally>();
    return *slot;
}

void
Probes::recordStoreLatency(TimeNs elapsed)
{
    std::lock_guard<std::mutex> lock(latency_mutex_);
    store_latency_ns_.push_back(elapsed);
}

std::vector<TimeNs>
Probes::storeLatencies() const
{
    std::lock_guard<std::mutex> lock(latency_mutex_);
    return store_latency_ns_;
}

void
Probes::reset()
{
    dataset.reset();
    collate.reset();
    store_in_dataset.reset();
    store_all.reset();
    store_bytes.store(0, std::memory_order_relaxed);
    for (auto &[name, tally] : ops)
        tally->reset();
    std::lock_guard<std::mutex> lock(latency_mutex_);
    store_latency_ns_.clear();
}

// --- TimedStore ------------------------------------------------------

TimedStore::TimedStore(std::shared_ptr<const BlobStore> inner,
                       Probes &probes)
    : inner_(std::move(inner)), probes_(probes)
{
}

void
TimedStore::charge(TimeNs start, std::uint64_t bytes) const
{
    const TimeNs elapsed = now() - start;
    probes_.store_all.add(elapsed);
    if (t_dataset_depth > 0)
        probes_.store_in_dataset.add(elapsed);
    probes_.store_bytes.fetch_add(bytes, std::memory_order_relaxed);
    probes_.recordStoreLatency(elapsed);
}

std::int64_t
TimedStore::size() const
{
    return inner_->size();
}

std::string
TimedStore::read(std::int64_t index) const
{
    const TimeNs start = now();
    std::string blob = inner_->read(index);
    charge(start, blob.size());
    return blob;
}

Result<std::string>
TimedStore::tryRead(std::int64_t index) const
{
    const TimeNs start = now();
    Result<std::string> blob = inner_->tryRead(index);
    charge(start, blob.ok() ? blob.value().size() : 0);
    return blob;
}

std::vector<Result<std::string>>
TimedStore::tryReadMany(const std::vector<BlobReadRequest> &requests) const
{
    const TimeNs start = now();
    std::vector<Result<std::string>> blobs = inner_->tryReadMany(requests);
    std::uint64_t bytes = 0;
    for (const auto &blob : blobs)
        bytes += blob.ok() ? blob.value().size() : 0;
    charge(start, bytes);
    return blobs;
}

std::uint64_t
TimedStore::blobSize(std::int64_t index) const
{
    return inner_->blobSize(index);
}

// --- TimedDataset ----------------------------------------------------

TimedDataset::TimedDataset(std::shared_ptr<const Dataset> inner,
                           Probes &probes)
    : inner_(std::move(inner)), probes_(probes)
{
}

std::int64_t
TimedDataset::size() const
{
    return inner_->size();
}

Sample
TimedDataset::get(std::int64_t index, PipelineContext &ctx) const
{
    DatasetCall call(probes_.dataset);
    return inner_->get(index, ctx);
}

Result<Sample>
TimedDataset::tryGet(std::int64_t index, PipelineContext &ctx) const
{
    DatasetCall call(probes_.dataset);
    return inner_->tryGet(index, ctx);
}

const BlobStore *
TimedDataset::blobStore() const
{
    return inner_->blobStore();
}

std::optional<CacheableSplit>
TimedDataset::cacheableSplit() const
{
    return inner_->cacheableSplit();
}

Result<Sample>
TimedDataset::tryGetPrefix(std::int64_t index, PipelineContext &ctx) const
{
    DatasetCall call(probes_.dataset);
    return inner_->tryGetPrefix(index, ctx);
}

void
TimedDataset::applySuffix(Sample &sample, PipelineContext &ctx) const
{
    DatasetCall call(probes_.dataset);
    inner_->applySuffix(sample, ctx);
}

// --- TimedTransform --------------------------------------------------

TimedTransform::TimedTransform(const Transform &inner, Probes &probes)
    : inner_(inner), tally_(probes.op(inner.name()))
{
}

const std::string &
TimedTransform::name() const
{
    return inner_.name();
}

void
TimedTransform::apply(Sample &sample, Rng &rng) const
{
    const TimeNs start = now();
    inner_.apply(sample, rng);
    tally_.add(now() - start);
}

bool
TimedTransform::deterministic() const
{
    return inner_.deterministic();
}

std::uint64_t
TimedTransform::configHash() const
{
    return inner_.configHash();
}

// --- TimedCollate ----------------------------------------------------

TimedCollate::TimedCollate(std::shared_ptr<const Collate> inner,
                           Probes &probes)
    : inner_(std::move(inner)), probes_(probes)
{
}

Batch
TimedCollate::collate(std::vector<Sample> samples) const
{
    const TimeNs start = now();
    Batch batch = inner_->collate(std::move(samples));
    probes_.collate.add(now() - start);
    return batch;
}

Batch
TimedCollate::collateInto(std::vector<Sample> samples,
                          tensor::Tensor reuse) const
{
    const TimeNs start = now();
    Batch batch = inner_->collateInto(std::move(samples), std::move(reuse));
    probes_.collate.add(now() - start);
    return batch;
}

} // namespace perfbench
