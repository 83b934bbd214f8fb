/**
 * @file
 * The fleet-neutral half of per-sample task execution.
 *
 * Every fetch path resolves batch slots with the code here: the task
 * engine (dataflow/task_engine.h) one stolen task at a time, and the
 * round-robin and synchronous loaders slot by slot through
 * Fetcher::tryFetch. Everything that decides batch *contents* lives
 * here, in one place, so the paths cannot drift: the per-epoch seed
 * mix, the build layout, and the retry/skip candidate walk (the
 * determinism contract of DESIGN.md §10).
 */

#ifndef LOTUS_DATAFLOW_TASK_RUNNER_H
#define LOTUS_DATAFLOW_TASK_RUNNER_H

#include <cstdint>

#include "dataflow/error_policy.h"
#include "dataflow/work_queue.h"
#include "hwcount/thread_counters.h"
#include "metrics/metrics.h"
#include "pipeline/sample.h"

namespace lotus::dataflow {

/** Measured PMU totals over fetch spans (zero when the perf backend
 *  is unavailable — lotus_top then labels IPC "simulated/off"). */
inline constexpr const char *kPmuCyclesMetric = "lotus_pmu_cycles_total";
inline constexpr const char *kPmuInstructionsMetric =
    "lotus_pmu_instructions_total";
inline constexpr const char *kPmuLlcMissesMetric =
    "lotus_pmu_llc_misses_total";

/**
 * RAII publication of one fetch span's measured PMU delta into the
 * lotus_pmu_* counters. Costs one branch on threads without a live
 * counter group (the common case: registry disabled or sim backend),
 * so it can wrap every fetch unconditionally.
 */
class PmuSpanGuard
{
  public:
    /** Resolves the lotus_pmu_* counters from the registry. */
    PmuSpanGuard();
    ~PmuSpanGuard();

    PmuSpanGuard(const PmuSpanGuard &) = delete;
    PmuSpanGuard &operator=(const PmuSpanGuard &) = delete;

  private:
    bool active_;
    hwcount::CounterSet start_;
};

/**
 * Per-epoch RNG seed base for one (base seed, epoch) pair. The epoch
 * must be mixed in — otherwise random-transform augmentation streams
 * repeat identically every epoch even though the shuffle reseeds —
 * and the mix matches epochBatchPlan() (golden-ratio stride).
 * Augmentation draws are then per-sample: every fetch reseeds with
 * sampleRngSeed(epochSeedBase(...), dataset index), so batch contents
 * do not depend on worker count, schedule, tenancy, or execution
 * order (see sampleRngSeed in dataflow/fetcher.h).
 */
std::uint64_t epochSeedBase(std::uint64_t seed, std::int64_t epoch);

/**
 * Lay out @p build for one batch: one empty sample/error slot and one
 * SampleTask per index, each task carrying the policy's retry and
 * refill budgets, and the countdown armed at the slot count. The
 * build must not move afterwards (tasks point back at it).
 */
void initBuild(BatchBuild &build, std::int64_t batch_id,
               std::vector<std::int64_t> indices, std::uint64_t seed_base,
               const ErrorHandling &errors);

/** What resolving one task's fetch result means for its owner. */
enum class TaskOutcome
{
    /** Unresolved (transient retry / skip refill): the task object
     *  was mutated and must be re-enqueued by its current owner. */
    kRequeue,
    /** Slot resolved; other slots are still outstanding. */
    kResolved,
    /** Slot resolved and it was the last one: the caller was elected
     *  to complete (collate and ship, or drop) the batch. */
    kBatchDone,
};

/**
 * Resolve @p task's slot with @p sample under @p errors — the one
 * retry/skip candidate walk: kRetry re-attempts the same index while
 * the error is transient and retries remain, kSkip advances to
 * (index + 1) % dataset_size while refills remain, and kFail (or
 * exhaustion) records the error in the slot. Failures are
 * counted via noteSampleError in the caller's lane. The final
 * fetch_sub on the build's countdown uses acq_rel so every slot's
 * writes are visible to whichever worker observes kBatchDone.
 */
TaskOutcome resolveTask(SampleTask *task, Result<pipeline::Sample> sample,
                        const ErrorHandling &errors,
                        std::int64_t dataset_size,
                        pipeline::PipelineContext &ctx);

} // namespace lotus::dataflow

#endif // LOTUS_DATAFLOW_TASK_RUNNER_H
