/**
 * @file
 * Timing decorators for the traced benchmark run.
 *
 * Each decorator wraps one public pipeline interface (BlobStore,
 * Dataset, Transform, Collate), forwards every call unchanged, and
 * adds the call's duration to a Probes tally. They live in the
 * benchmark, not in src/, so the program under test is the same code
 * in traced and untraced runs; the traced run only composes it
 * differently. Forwarding is exact: deterministic()/configHash() and
 * cacheableSplit() pass through, so the decoded-sample cache splits a
 * decorated pipeline exactly where it splits the plain one, and the
 * traced run's batches must equal the untraced run's bit for bit.
 */

#ifndef LOTUS_PERFBENCH_PROBES_H
#define LOTUS_PERFBENCH_PROBES_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "pipeline/collate.h"
#include "pipeline/dataset.h"
#include "pipeline/store.h"
#include "pipeline/transform.h"

namespace perfbench {

using lotus::TimeNs;

/** Summed duration and call count, updated from any thread. */
struct Tally
{
    std::atomic<std::uint64_t> ns{0};
    std::atomic<std::uint64_t> calls{0};

    void add(TimeNs elapsed);
    /** Zero both fields (only while no decorated call is running). */
    void reset();
};

/** Everything the decorators of one traced engine record. */
struct Probes
{
    /** Worker time inside Dataset calls: the worker-busy numerator. */
    Tally dataset;
    Tally collate;
    /** Store calls made from inside a Dataset call (worker threads). */
    Tally store_in_dataset;
    /** Every store call, read-ahead I/O threads included. */
    Tally store_all;
    std::atomic<std::uint64_t> store_bytes{0};

    /** Per-transform time, keyed by Transform::name(). Entries are
     *  created while the pipeline is built and only read afterwards. */
    std::map<std::string, std::unique_ptr<Tally>> ops;

    Tally &op(const std::string &name);

    void recordStoreLatency(TimeNs elapsed);
    /** Copy of every store-call latency recorded since reset(). */
    std::vector<TimeNs> storeLatencies() const;

    /** Zero every tally (call while the engine is quiescent). */
    void reset();

  private:
    mutable std::mutex latency_mutex_;
    std::vector<TimeNs> store_latency_ns_;
};

class TimedStore : public lotus::pipeline::BlobStore
{
  public:
    TimedStore(std::shared_ptr<const lotus::pipeline::BlobStore> inner,
               Probes &probes);

    std::int64_t size() const override;
    std::string read(std::int64_t index) const override;
    lotus::Result<std::string> tryRead(std::int64_t index) const override;
    std::vector<lotus::Result<std::string>> tryReadMany(
        const std::vector<lotus::pipeline::BlobReadRequest> &requests)
        const override;
    std::uint64_t blobSize(std::int64_t index) const override;

  private:
    void charge(TimeNs start, std::uint64_t bytes) const;

    std::shared_ptr<const lotus::pipeline::BlobStore> inner_;
    Probes &probes_;
};

class TimedDataset : public lotus::pipeline::Dataset
{
  public:
    TimedDataset(std::shared_ptr<const lotus::pipeline::Dataset> inner,
                 Probes &probes);

    std::int64_t size() const override;
    lotus::pipeline::Sample
    get(std::int64_t index, lotus::pipeline::PipelineContext &ctx) const override;
    lotus::Result<lotus::pipeline::Sample>
    tryGet(std::int64_t index,
           lotus::pipeline::PipelineContext &ctx) const override;
    const lotus::pipeline::BlobStore *blobStore() const override;
    std::optional<lotus::pipeline::CacheableSplit>
    cacheableSplit() const override;
    lotus::Result<lotus::pipeline::Sample>
    tryGetPrefix(std::int64_t index,
                 lotus::pipeline::PipelineContext &ctx) const override;
    void applySuffix(lotus::pipeline::Sample &sample,
                     lotus::pipeline::PipelineContext &ctx) const override;

  private:
    std::shared_ptr<const lotus::pipeline::Dataset> inner_;
    Probes &probes_;
};

/** Wraps a transform owned elsewhere; @p inner must outlive it. */
class TimedTransform : public lotus::pipeline::Transform
{
  public:
    TimedTransform(const lotus::pipeline::Transform &inner, Probes &probes);

    const std::string &name() const override;
    void apply(lotus::pipeline::Sample &sample,
               lotus::Rng &rng) const override;
    bool deterministic() const override;
    std::uint64_t configHash() const override;

  private:
    const lotus::pipeline::Transform &inner_;
    Tally &tally_;
};

class TimedCollate : public lotus::pipeline::Collate
{
  public:
    TimedCollate(std::shared_ptr<const lotus::pipeline::Collate> inner,
                 Probes &probes);

    lotus::pipeline::Batch
    collate(std::vector<lotus::pipeline::Sample> samples) const override;
    lotus::pipeline::Batch
    collateInto(std::vector<lotus::pipeline::Sample> samples,
                lotus::tensor::Tensor reuse) const override;

  private:
    std::shared_ptr<const lotus::pipeline::Collate> inner_;
    Probes &probes_;
};

} // namespace perfbench

#endif // LOTUS_PERFBENCH_PROBES_H
