/**
 * @file
 * The benchmark's three workloads: seeded inputs, the engine each
 * one runs on, and the consumers that drain it.
 *
 * An Engine is what a trainer would build: a DataLoader, or a
 * PreprocServer with its LoaderClients. Each source of batches is a
 * Stream with its own consumer thread. Streams run whole epochs; the
 * first two epochs of every stream (warm-up and first timed epoch)
 * are folded into digests that main.cc compares against a
 * num_workers=0 DataLoader over the same inputs.
 */

#ifndef LOTUS_PERFBENCH_ENGINES_H
#define LOTUS_PERFBENCH_ENGINES_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pipeline/remote_store.h"
#include "pipeline/sample.h"
#include "pipeline/store.h"
#include "probes.h"
#include "trace/logger.h"
#include "workloads/pipelines.h"

namespace lotus::dataflow {
class DataLoader;
}
namespace lotus::service {
class PreprocServer;
}

namespace perfbench {

enum class WorkloadId
{
    kIcStealLocal,
    kOdRemoteCached,
    kTenantsIcIs,
};

std::optional<WorkloadId> parseWorkload(const std::string &name);

/** Program workers of every engine (the host has 4 vCPUs: 3 workers
 *  plus the consumer threads). */
inline constexpr int kWorkers = 3;

/** Generated inputs; identical for identical seeds. */
struct Inputs
{
    /** ImageNet-like (IC) or COCO-like (OD) LJPG blobs. */
    std::shared_ptr<lotus::pipeline::InMemoryStore> images;
    /** KiTS19-like volumes (tenants only). */
    std::shared_ptr<lotus::pipeline::InMemoryStore> volumes;
    /** OD only: decoded-sample cache budget in bytes. */
    std::int64_t cache_budget_bytes = 0;
};

/** Build the workload's inputs from @p seed on kWorkers threads with
 *  the generators' default size distributions, image widths drawn at
 *  stratified quantiles (see stratifiedSizes in engines.cc). */
Inputs makeInputs(WorkloadId workload, std::uint64_t seed);

/** What one stream's consumer saw over one window. */
struct StreamWindow
{
    std::int64_t samples = 0;
    std::int64_t batches = 0;
    std::int64_t epochs = 0;
    /** Consumer time blocked in next(), one entry per batch. */
    std::vector<double> wait_ms;
    TimeNs end = 0;
    /** Batches that raised a LoaderError (the stream then stops). */
    std::int64_t failed = 0;
    std::string error;
};

/** One consumer's source of batches: a DataLoader or a LoaderClient. */
class Stream
{
  public:
    explicit Stream(std::string name) : name_(std::move(name)) {}
    virtual ~Stream() = default;

    Stream(const Stream &) = delete;
    Stream &operator=(const Stream &) = delete;

    const std::string &name() const { return name_; }

    /** Run whole epochs until @p deadline has passed (at least one). */
    StreamWindow run(TimeNs deadline);

    /** Digests of this stream's epochs 0 and 1, as far as run. */
    const std::vector<std::uint64_t> &digests() const { return digests_; }

  protected:
    virtual void startEpoch() = 0;
    virtual std::optional<lotus::pipeline::Batch> next() = 0;

  private:
    /** False when the epoch raised a LoaderError. */
    bool runEpoch(StreamWindow &window);

    std::string name_;
    std::int64_t epochs_started_ = 0;
    std::vector<std::uint64_t> digests_;
};

/** One window over every stream of an engine. */
struct Window
{
    std::vector<StreamWindow> streams;
    /** Start to the last stream's finish. */
    double wall_s = 0.0;
    /** Process user + system CPU over the same span. */
    double cpu_s = 0.0;

    std::int64_t samples() const;
};

/** Program objects a traced engine reads its per-layer numbers from. */
struct Instruments
{
    Probes probes;
    lotus::trace::TraceLogger logger;
};

/** A built engine and everything it needs kept alive. */
class Engine
{
  public:
    ~Engine();

    /** Run every stream on its own consumer thread until @p seconds
     *  have passed, each finishing its current epoch. */
    Window window(double seconds);

    const std::vector<std::unique_ptr<Stream>> &streams() const
    {
        return streams_;
    }

    /** Null unless built traced. */
    Instruments *instruments() { return instruments_.get(); }
    /** The modelled remote store (OD), else null. */
    const lotus::pipeline::RemoteStore *remote() const { return remote_.get(); }
    /** The solo loader (IC, OD), else null. */
    const lotus::dataflow::DataLoader *loader() const { return loader_; }
    /** The service (tenants), else null. */
    const lotus::service::PreprocServer *server() const
    {
        return server_.get();
    }

  private:
    friend std::unique_ptr<Engine> buildEngine(WorkloadId, const Inputs &,
                                               std::uint64_t, bool);

    Engine() = default;

    // Declaration order is teardown order reversed: streams (loaders
    // and clients) go first, then the server, then the pipelines and
    // instruments they point into.
    std::unique_ptr<Instruments> instruments_;
    std::vector<std::shared_ptr<const void>> keep_alive_;
    std::shared_ptr<lotus::pipeline::RemoteStore> remote_;
    std::unique_ptr<lotus::service::PreprocServer> server_;
    std::vector<std::unique_ptr<Stream>> streams_;
    const lotus::dataflow::DataLoader *loader_ = nullptr;
};

/**
 * Build the workload's engine over @p inputs. A traced engine routes
 * its store, dataset, transforms and collate through the Probes
 * decorators and hands the program a TraceLogger; its batches are
 * the same as an untraced engine's.
 */
std::unique_ptr<Engine> buildEngine(WorkloadId workload,
                                    const Inputs &inputs,
                                    std::uint64_t seed, bool traced);

/**
 * Digests of epochs 0 and 1 per stream (same order as the engine's
 * streams) from num_workers=0 DataLoaders over the plain pipelines
 * with the same batch plan. OD reads the in-memory blobs directly:
 * the remote model only adds latency, never changes bytes.
 */
std::vector<std::vector<std::uint64_t>>
referenceDigests(WorkloadId workload, const Inputs &inputs,
                 std::uint64_t seed);

} // namespace perfbench

#endif // LOTUS_PERFBENCH_ENGINES_H
