/**
 * @file
 * Size-class buffer pool for the decode -> transform -> collate hot
 * path.
 *
 * Every Image, Plane and Tensor in the sample path allocates and
 * frees a multi-hundred-KiB buffer per sample; under a multi-worker
 * DataLoader that is the allocator traffic the paper attributes to
 * `__libc_calloc` / `_int_free`. The pool turns the steady state into
 * zero heap allocations:
 *
 *  - requests round up to power-of-two size classes (256 B .. 64 MiB;
 *    larger requests go straight to the heap and count as misses);
 *  - one freelist per class, shared by every thread under one mutex,
 *    is the only place a freed buffer waits (up to kCentralCap buffers
 *    per class; past that a release frees to the heap). A buffer
 *    freed on any thread is at once reusable on every other: a batch
 *    allocated by a worker and dropped by the consumer feeds the next
 *    worker's acquire, and per-epoch DataLoader workers (spawned
 *    fresh every epoch) warm up from the previous epoch's buffers
 *    instead of the heap. There are no per-thread caches, so no
 *    thread can strand memory that the others would miss.
 *
 * Every pooled allocation is 64-byte aligned and carries at least
 * kSlackBytes of readable padding past the requested size, so SIMD
 * kernels may over-read (never over-write) up to kSlackBytes beyond
 * the logical end of any pooled buffer.
 *
 * Telemetry: `lotus_pool_hits_total`, `lotus_pool_misses_total`
 * (counters) and `lotus_pool_bytes` (gauge: bytes sitting in
 * freelists) via the metrics registry; raw always-on stats are
 * available through BufferPool::stats() for tests and benches.
 */

#ifndef LOTUS_MEMORY_BUFFER_POOL_H
#define LOTUS_MEMORY_BUFFER_POOL_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

namespace lotus::memory {

/** Guaranteed readable padding past the logical end of every pooled
 *  allocation (SIMD tail loads). */
constexpr std::size_t kSlackBytes = 32;

/** Pooled-allocation alignment. */
constexpr std::size_t kPoolAlignment = 64;

/** Smallest / largest pooled size class (bytes). Requests above the
 *  largest class bypass the freelists (and count as misses). */
constexpr std::size_t kMinClassBytes = 256;
constexpr std::size_t kMaxClassBytes = std::size_t{1} << 26; // 64 MiB

/** Buffers a size class's freelist keeps; a release past this frees
 *  to the heap. */
constexpr std::size_t kCentralCap = 64;

class BufferPool
{
  public:
    /** Raw pool stats (always on, relaxed): enough for tests and the
     *  bench's steady-state zero-miss check without enabling the
     *  metrics layer. */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        /** Bytes currently parked in the shared freelists. */
        std::uint64_t cached_bytes = 0;

        /** Counter delta since @p earlier (cached_bytes is a level,
         *  so the newer value is kept as-is). Lets tests and benches
         *  write `pool.stats() - before` to check a region of
         *  interest — e.g. that warm cache hits allocate nothing. */
        Stats
        operator-(const Stats &earlier) const
        {
            return Stats{hits - earlier.hits, misses - earlier.misses,
                         cached_bytes};
        }
    };

    /** The process-wide pool (leaked singleton: safe to release into
     *  from any thread's teardown). */
    static BufferPool &instance();

    /** Allocate at least @p bytes (+ kSlackBytes readable padding).
     *  Returns 64-byte-aligned memory whose usable capacity is the
     *  size class. Contents are indeterminate. */
    void *acquire(std::size_t bytes);

    /** Return a buffer obtained from acquire(@p bytes). */
    void release(void *ptr, std::size_t bytes) noexcept;

    /** Usable capacity acquire(@p bytes) provides (class size). */
    static std::size_t capacityFor(std::size_t bytes);

    Stats stats() const;

    /** Drop every freelist back to the heap; test isolation
     *  helper. */
    void trim();

    struct Impl;

  private:
    BufferPool();

    Impl *impl_;
};

/**
 * Move-only RAII handle to one pooled allocation. The logical size is
 * what was requested; the underlying capacity is the size class (see
 * BufferPool::capacityFor), so reads up to kSlackBytes past size()
 * are always in bounds.
 */
class PooledBuffer
{
  public:
    PooledBuffer() = default;

    explicit PooledBuffer(std::size_t bytes)
        : ptr_(bytes > 0 ? BufferPool::instance().acquire(bytes) : nullptr),
          size_(bytes)
    {
    }

    ~PooledBuffer() { reset(); }

    PooledBuffer(PooledBuffer &&other) noexcept
        : ptr_(std::exchange(other.ptr_, nullptr)),
          size_(std::exchange(other.size_, 0))
    {
    }

    PooledBuffer &
    operator=(PooledBuffer &&other) noexcept
    {
        if (this != &other) {
            reset();
            ptr_ = std::exchange(other.ptr_, nullptr);
            size_ = std::exchange(other.size_, 0);
        }
        return *this;
    }

    PooledBuffer(const PooledBuffer &) = delete;
    PooledBuffer &operator=(const PooledBuffer &) = delete;

    void *data() noexcept { return ptr_; }
    const void *data() const noexcept { return ptr_; }
    std::size_t size() const noexcept { return size_; }
    bool empty() const noexcept { return size_ == 0; }

    void
    reset() noexcept
    {
        if (ptr_ != nullptr)
            BufferPool::instance().release(ptr_, size_);
        ptr_ = nullptr;
        size_ = 0;
    }

  private:
    void *ptr_ = nullptr;
    std::size_t size_ = 0;
};

/**
 * Typed, fixed-size array over a PooledBuffer: the drop-in storage
 * for Tensor / Image / Plane (supports the container surface the
 * previous std::vector storage exposed: data/size/index/iterate).
 * Copying allocates a fresh pooled buffer; moving transfers it.
 */
template <typename T>
class PooledArray
{
  public:
    PooledArray() = default;

    /** @p zero selects zero-fill; pass false when every element is
     *  about to be overwritten (decode/resample outputs). */
    explicit PooledArray(std::size_t count, bool zero = true)
        : buffer_(count * sizeof(T)), count_(count)
    {
        if (zero && count > 0)
            std::memset(buffer_.data(), 0, count * sizeof(T));
    }

    PooledArray(PooledArray &&) noexcept = default;
    PooledArray &operator=(PooledArray &&) noexcept = default;

    PooledArray(const PooledArray &other)
        : buffer_(other.count_ * sizeof(T)), count_(other.count_)
    {
        if (count_ > 0)
            std::memcpy(buffer_.data(), other.buffer_.data(),
                        count_ * sizeof(T));
    }

    PooledArray &
    operator=(const PooledArray &other)
    {
        if (this != &other) {
            PooledArray copy(other);
            *this = std::move(copy);
        }
        return *this;
    }

    T *data() noexcept { return static_cast<T *>(buffer_.data()); }
    const T *
    data() const noexcept
    {
        return static_cast<const T *>(buffer_.data());
    }

    std::size_t size() const noexcept { return count_; }
    bool empty() const noexcept { return count_ == 0; }

    T &operator[](std::size_t i) noexcept { return data()[i]; }
    const T &operator[](std::size_t i) const noexcept { return data()[i]; }

    T *begin() noexcept { return data(); }
    T *end() noexcept { return data() + count_; }
    const T *begin() const noexcept { return data(); }
    const T *end() const noexcept { return data() + count_; }

  private:
    PooledBuffer buffer_;
    std::size_t count_ = 0;
};

} // namespace lotus::memory

#endif // LOTUS_MEMORY_BUFFER_POOL_H
