/**
 * @file
 * The task engine's building blocks (dataflow/task_engine.h): per-
 * sample tasks, the BatchBuild that assembles one decomposed batch,
 * and the fleet's WorkSignal.
 *
 * Every client of a TaskEngine owns one FIFO of per-sample fetch
 * tasks (an MpmcQueue<SampleTask *>) that any fleet worker pops. A
 * shared BatchBuild per in-flight batch collects the slot results; an
 * atomic countdown elects the last-finishing worker to collate and
 * ship the batch (DESIGN.md §10).
 */

#ifndef LOTUS_DATAFLOW_WORK_QUEUE_H
#define LOTUS_DATAFLOW_WORK_QUEUE_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "pipeline/sample.h"

namespace lotus::dataflow {

struct BatchBuild;

/**
 * One per-sample fetch task. Tasks live in their BatchBuild's `tasks`
 * array (stable addresses); the task queues traffic in pointers.
 * Exactly one worker owns a task at any time — the one that popped it
 * — so the non-atomic fields may be mutated and the task re-pushed
 * (retry / skip-refill) without further synchronization: the queue's
 * mutex publishes the writes to the next owner.
 */
struct SampleTask
{
    BatchBuild *build = nullptr;
    /** Collate slot this task resolves. */
    int slot = 0;
    /** Dataset index currently being attempted (advances on refill). */
    std::int64_t index = 0;
    int retries_left = 0;
    int refills_left = 0;
};

/**
 * Shared assembly state for one decomposed batch. Slot vectors are
 * single-writer (each slot belongs to exactly one task); `remaining`
 * counts unresolved slots, and the fetch_sub that takes it to zero
 * elects the collating worker. Builds are owned by their client's
 * state in the engine and freed by the finisher, after which no task
 * pointer of the build survives.
 *
 * The build also carries everything a worker needs to execute its
 * tasks without knowing who submitted them: `seed_base` drives the
 * per-(seed, epoch, sample) RNG reseeding (sampleRngSeed), and
 * `generation` identifies the submitting epoch incarnation. The
 * synchronous fetch path (Fetcher::tryFetch) resolves a stack-local
 * build slot by slot with the same code.
 */
struct BatchBuild
{
    std::int64_t batch_id = -1;
    /** Worker that decomposed the batch; a task run by any other
     *  worker counts as a steal. */
    int home_worker = 0;
    /** Decompose time on the metrics clock; 0 when metrics are off. */
    TimeNs start = 0;
    /** Decompose time on the tracer's clock; 0 when untraced. */
    TimeNs trace_start = 0;
    /** epochSeedBase(seed, epoch) of the submitting epoch: tasks
     *  reseed with sampleRngSeed(seed_base, index), so mixed-tenant
     *  fleets stay bit-identical to a solo loader per tenant. */
    std::uint64_t seed_base = 0;
    /** Submitting client's epoch incarnation; a mismatch against the
     *  client's live generation means the build was canceled
     *  (disconnect / aborted epoch) and must drain, not ship. */
    std::uint64_t generation = 0;
    std::vector<std::int64_t> indices;
    std::vector<pipeline::Sample> samples;
    std::vector<std::optional<Error>> errors;
    std::vector<SampleTask> tasks;
    std::atomic<int> remaining{0};
};

/**
 * Idle/wake coordination for a fleet of workers sharing task queues.
 *
 * Waking is event-counted: a worker snapshots workEpoch() *before*
 * scanning for work and passes the token to waitForWork(), so a
 * notify that lands between the scan and the wait is never lost. The
 * timeout is only a backstop against pathological scheduling.
 */
class WorkSignal
{
  public:
    /** Current wake-event count; snapshot before scanning for work. */
    std::uint64_t workEpoch() const;

    /** New work exists (task pushed / index queued): wake idlers. */
    void notifyWork();

    /** Fleet tear-down: wake everyone for their shutdown check. */
    void notifyShutdown();

    /**
     * Block until notifyWork() advances past @p seen_epoch,
     * notifyShutdown() ran, or @p timeout elapses.
     */
    void waitForWork(std::uint64_t seen_epoch, TimeNs timeout);

  private:
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::uint64_t work_epoch_ = 0;
    bool shutdown_ = false;
};

} // namespace lotus::dataflow

#endif // LOTUS_DATAFLOW_WORK_QUEUE_H
