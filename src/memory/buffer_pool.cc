#include "memory/buffer_pool.h"

#include <algorithm>
#include <bit>
#include <mutex>
#include <new>
#include <vector>

#include "metrics/metrics.h"

namespace lotus::memory {

namespace {

/** 2^8 .. 2^26 pooled classes. */
constexpr int kNumClasses = 19;

/** Size class for a request, or -1 for oversize (heap-direct). */
inline int
classIndex(std::size_t bytes)
{
    const std::size_t need = bytes + kSlackBytes;
    if (need > kMaxClassBytes)
        return -1;
    const std::size_t rounded = std::max(need, kMinClassBytes);
    return static_cast<int>(std::bit_width(rounded - 1)) - 8;
}

inline std::size_t
classBytes(int cls)
{
    return std::size_t{1} << (cls + 8);
}

void *
rawAlloc(std::size_t bytes)
{
    return ::operator new(bytes, std::align_val_t{kPoolAlignment});
}

void
rawFree(void *ptr) noexcept
{
    ::operator delete(ptr, std::align_val_t{kPoolAlignment});
}

/** Gated metric handles, resolved once (hot paths keep pointers). */
struct PoolMetrics
{
    metrics::Counter *hits;
    metrics::Counter *misses;
    metrics::Gauge *bytes;

    static const PoolMetrics &
    instance()
    {
        static const PoolMetrics m = [] {
            auto &registry = metrics::MetricsRegistry::instance();
            return PoolMetrics{
                registry.counter("lotus_pool_hits_total"),
                registry.counter("lotus_pool_misses_total"),
                registry.gauge("lotus_pool_bytes"),
            };
        }();
        return m;
    }
};

} // namespace

struct BufferPool::Impl
{
    std::mutex mutex;
    /** The one freelist per class, shared by every thread. */
    std::vector<void *> freelist[kNumClasses];
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::int64_t> cached_bytes{0};

    Impl()
    {
        // A push never allocates, so release() stays noexcept.
        for (auto &list : freelist)
            list.reserve(kCentralCap);
    }

    void
    addCached(std::int64_t delta)
    {
        const std::int64_t now =
            cached_bytes.fetch_add(delta, std::memory_order_relaxed) +
            delta;
        PoolMetrics::instance().bytes->set(now);
    }
};

BufferPool::BufferPool() : impl_(new Impl) {}

BufferPool &
BufferPool::instance()
{
    // Leaked: buffers may be released from any destructor, including
    // during static teardown, so the pool must outlive everything.
    static BufferPool *pool = new BufferPool;
    return *pool;
}

std::size_t
BufferPool::capacityFor(std::size_t bytes)
{
    const int cls = classIndex(bytes);
    if (cls >= 0)
        return classBytes(cls);
    const std::size_t need = bytes + kSlackBytes;
    return (need + kPoolAlignment - 1) / kPoolAlignment * kPoolAlignment;
}

void *
BufferPool::acquire(std::size_t bytes)
{
    const PoolMetrics &m = PoolMetrics::instance();
    const int cls = classIndex(bytes);
    void *ptr = nullptr;
    if (cls >= 0) {
        std::lock_guard lock(impl_->mutex);
        auto &list = impl_->freelist[cls];
        if (!list.empty()) {
            ptr = list.back();
            list.pop_back();
        }
    }
    if (ptr != nullptr) {
        impl_->addCached(-static_cast<std::int64_t>(classBytes(cls)));
        impl_->hits.fetch_add(1, std::memory_order_relaxed);
        m.hits->add(1);
        return ptr;
    }
    impl_->misses.fetch_add(1, std::memory_order_relaxed);
    m.misses->add(1);
    return rawAlloc(capacityFor(bytes));
}

void
BufferPool::release(void *ptr, std::size_t bytes) noexcept
{
    if (ptr == nullptr)
        return;
    const int cls = classIndex(bytes);
    if (cls >= 0) {
        std::lock_guard lock(impl_->mutex);
        auto &list = impl_->freelist[cls];
        if (list.size() < kCentralCap) {
            list.push_back(ptr);
            ptr = nullptr;
        }
    }
    if (ptr == nullptr)
        impl_->addCached(static_cast<std::int64_t>(classBytes(cls)));
    else
        rawFree(ptr); // oversize, or the class is at its cap
}

BufferPool::Stats
BufferPool::stats() const
{
    Stats s;
    s.hits = impl_->hits.load(std::memory_order_relaxed);
    s.misses = impl_->misses.load(std::memory_order_relaxed);
    const std::int64_t cached =
        impl_->cached_bytes.load(std::memory_order_relaxed);
    s.cached_bytes = cached > 0 ? static_cast<std::uint64_t>(cached) : 0;
    return s;
}

void
BufferPool::trim()
{
    std::vector<void *> victims;
    {
        std::lock_guard lock(impl_->mutex);
        for (int cls = 0; cls < kNumClasses; ++cls) {
            for (void *ptr : impl_->freelist[cls]) {
                victims.push_back(ptr);
                impl_->addCached(
                    -static_cast<std::int64_t>(classBytes(cls)));
            }
            impl_->freelist[cls].clear();
        }
    }
    for (void *ptr : victims)
        rawFree(ptr);
}

} // namespace lotus::memory
