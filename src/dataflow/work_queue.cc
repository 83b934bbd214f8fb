#include "dataflow/work_queue.h"

#include <chrono>

namespace lotus::dataflow {

std::uint64_t
WorkSignal::workEpoch() const
{
    std::lock_guard lock(mutex_);
    return work_epoch_;
}

void
WorkSignal::notifyWork()
{
    {
        std::lock_guard lock(mutex_);
        ++work_epoch_;
    }
    cv_.notify_all();
}

void
WorkSignal::notifyShutdown()
{
    {
        std::lock_guard lock(mutex_);
        shutdown_ = true;
    }
    cv_.notify_all();
}

void
WorkSignal::waitForWork(std::uint64_t seen_epoch, TimeNs timeout)
{
    std::unique_lock lock(mutex_);
    cv_.wait_for(lock, std::chrono::nanoseconds(timeout), [&] {
        return work_epoch_ != seen_epoch || shutdown_;
    });
}

} // namespace lotus::dataflow
