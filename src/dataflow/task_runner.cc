#include "dataflow/task_runner.h"

#include "dataflow/fetcher.h"

namespace lotus::dataflow {

PmuSpanGuard::PmuSpanGuard()
    : active_(hwcount::ThreadCounterRegistry::threadHasPmu())
{
    if (active_)
        start_ = hwcount::ThreadCounterRegistry::readCurrent();
}

PmuSpanGuard::~PmuSpanGuard()
{
    if (!active_)
        return;
    const hwcount::CounterSet delta = hwcount::counterDelta(
        hwcount::ThreadCounterRegistry::readCurrent(), start_);
    // Registry pointers stay valid for the process lifetime.
    auto &registry = metrics::MetricsRegistry::instance();
    static metrics::Counter *const cycles =
        registry.counter(kPmuCyclesMetric);
    static metrics::Counter *const instructions =
        registry.counter(kPmuInstructionsMetric);
    static metrics::Counter *const llc_misses =
        registry.counter(kPmuLlcMissesMetric);
    cycles->add(delta.cycles);
    instructions->add(delta.instructions);
    llc_misses->add(delta.llc_misses);
}

std::uint64_t
epochSeedBase(std::uint64_t seed, std::int64_t epoch)
{
    constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;
    return (seed + kGolden * static_cast<std::uint64_t>(epoch)) * kGolden;
}

void
initBuild(BatchBuild &build, std::int64_t batch_id,
          std::vector<std::int64_t> indices, std::uint64_t seed_base,
          const ErrorHandling &errors)
{
    const auto n = indices.size();
    LOTUS_ASSERT(n > 0, "empty batch requested");
    build.batch_id = batch_id;
    build.seed_base = seed_base;
    build.indices = std::move(indices);
    build.samples.resize(n);
    build.errors.resize(n);
    build.tasks.resize(n);
    for (std::size_t slot = 0; slot < n; ++slot) {
        SampleTask &task = build.tasks[slot];
        task.build = &build;
        task.slot = static_cast<int>(slot);
        task.index = build.indices[slot];
        task.retries_left = errors.max_retries;
        task.refills_left = errors.max_refill_attempts;
    }
    build.remaining.store(static_cast<int>(n), std::memory_order_relaxed);
}

TaskOutcome
resolveTask(SampleTask *task, Result<pipeline::Sample> sample,
            const ErrorHandling &errors, std::int64_t dataset_size,
            pipeline::PipelineContext &ctx)
{
    BatchBuild &build = *task->build;
    if (sample.ok()) {
        build.samples[static_cast<std::size_t>(task->slot)] = sample.take();
    } else {
        noteSampleError(sample.error(), task->index, ctx, errors.policy);
        // Unresolved outcomes hand the same task object back to its
        // owner for re-enqueue instead of looping inline, so peers
        // can steal the follow-up attempt too; the sequential fetch
        // path simply re-attempts. Every path walks candidates here —
        // determinism depends on it.
        switch (errors.policy) {
          case ErrorPolicy::kFail:
            break;
          case ErrorPolicy::kRetry:
            if (errorIsTransient(sample.error().code) &&
                task->retries_left-- > 0)
                return TaskOutcome::kRequeue;
            break;
          case ErrorPolicy::kSkip:
            if (task->refills_left-- > 0) {
                task->index = (task->index + 1) % dataset_size;
                return TaskOutcome::kRequeue;
            }
            break;
        }
        build.errors[static_cast<std::size_t>(task->slot)] =
            sample.takeError();
    }

    // acq_rel: the release side joins this slot's writes to the
    // counter's release sequence; the acquire side makes every slot
    // visible to whichever worker observes the count hit zero.
    if (build.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
        return TaskOutcome::kBatchDone;
    return TaskOutcome::kResolved;
}

} // namespace lotus::dataflow
