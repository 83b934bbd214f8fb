/**
 * @file
 * BufferPool / PooledArray unit tests: size-class rounding, same-
 * pointer recycling, cross-thread returns (one shared freelist, so a
 * buffer freed on any thread is a hit on every other), the per-class
 * cap, steady-state zero-miss behaviour, and the container semantics
 * Tensor/Image storage relies on. Thread-safety of the pool itself is
 * additionally exercised under TSan via tools/run_tsan.sh.
 */

#include <cstring>
#include <latch>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "memory/buffer_pool.h"

namespace lotus::memory {
namespace {

TEST(BufferPoolTest, CapacityForRoundsToSizeClasses)
{
    // Request + slack rounds up to the next power-of-two class.
    EXPECT_EQ(BufferPool::capacityFor(0), kMinClassBytes);
    EXPECT_EQ(BufferPool::capacityFor(1), kMinClassBytes);
    EXPECT_EQ(BufferPool::capacityFor(kMinClassBytes - kSlackBytes),
              kMinClassBytes);
    // 256 needs 256 + 32 readable bytes: next class up.
    EXPECT_EQ(BufferPool::capacityFor(kMinClassBytes), 2 * kMinClassBytes);
    EXPECT_EQ(BufferPool::capacityFor(1000), std::size_t{2048});
    EXPECT_EQ(BufferPool::capacityFor((1 << 20) - kSlackBytes),
              std::size_t{1} << 20);
    EXPECT_EQ(BufferPool::capacityFor(1 << 20), std::size_t{1} << 21);
    // Oversize requests fall through to alignment-rounded heap sizes.
    const std::size_t oversize = kMaxClassBytes + 1;
    const std::size_t cap = BufferPool::capacityFor(oversize);
    EXPECT_GE(cap, oversize + kSlackBytes);
    EXPECT_EQ(cap % kPoolAlignment, 0u);
}

TEST(BufferPoolTest, AcquireIsAlignedAndSlackReadable)
{
    auto &pool = BufferPool::instance();
    const std::size_t bytes = 1000;
    void *ptr = pool.acquire(bytes);
    ASSERT_NE(ptr, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(ptr) % kPoolAlignment, 0u);
    // The full size class, including the slack region, is writable
    // memory we own (ASan would flag this otherwise).
    std::memset(ptr, 0xAB, BufferPool::capacityFor(bytes));
    pool.release(ptr, bytes);
}

TEST(BufferPoolTest, ReleaseThenAcquireRecyclesSamePointer)
{
    auto &pool = BufferPool::instance();
    pool.trim();
    void *first = pool.acquire(4096);
    pool.release(first, 4096);
    // Same class, nothing in between: the class's freelist (a LIFO
    // shared by every thread) must hand the buffer straight back.
    void *second = pool.acquire(4096);
    EXPECT_EQ(first, second);
    // A *different* class must not alias it.
    void *other = pool.acquire(64 * 1024);
    EXPECT_NE(other, second);
    pool.release(second, 4096);
    pool.release(other, 64 * 1024);
    pool.trim();
}

TEST(BufferPoolTest, HitAndMissAccounting)
{
    auto &pool = BufferPool::instance();
    pool.trim();
    const auto before = pool.stats();
    void *ptr = pool.acquire(8192); // cold: miss
    pool.release(ptr, 8192);
    void *again = pool.acquire(8192); // warm: hit
    pool.release(again, 8192);
    const auto after = pool.stats();
    EXPECT_EQ(after.misses, before.misses + 1);
    EXPECT_EQ(after.hits, before.hits + 1);
    EXPECT_GT(after.cached_bytes, 0u);
    pool.trim();
    EXPECT_EQ(pool.stats().cached_bytes, 0u);
}

TEST(BufferPoolTest, CrossThreadReleaseIsReusedWhileTheFreerLives)
{
    auto &pool = BufferPool::instance();
    pool.trim();
    constexpr std::size_t kBytes = 123456;
    constexpr int kBuffers = 4;
    std::latch released(1);
    std::latch done(1);
    // Thread A frees buffers it allocated, then stays alive: nothing
    // of it may hold them back from other threads.
    std::thread freer([&] {
        void *ptrs[kBuffers];
        for (auto &ptr : ptrs)
            ptr = pool.acquire(kBytes);
        for (void *ptr : ptrs)
            pool.release(ptr, kBytes);
        released.count_down();
        done.wait();
    });
    released.wait();
    const auto before = pool.stats();
    EXPECT_EQ(before.cached_bytes,
              kBuffers * BufferPool::capacityFor(kBytes));
    void *ptrs[kBuffers];
    for (auto &ptr : ptrs)
        ptr = pool.acquire(kBytes);
    const auto delta = pool.stats() - before;
    done.count_down();
    freer.join();
    EXPECT_EQ(delta.hits, static_cast<std::uint64_t>(kBuffers));
    EXPECT_EQ(delta.misses, 0u);
    for (void *ptr : ptrs)
        pool.release(ptr, kBytes);
    pool.trim();
}

TEST(BufferPoolTest, ReleasesOfAnExitedThreadStayReusableUpToTheCap)
{
    auto &pool = BufferPool::instance();
    pool.trim();
    constexpr std::size_t kBytes = 200000;
    const std::size_t count = kCentralCap + 8;
    std::vector<void *> ptrs(count);
    for (auto &ptr : ptrs)
        ptr = pool.acquire(kBytes);
    // Another thread frees them all and exits. The class keeps
    // kCentralCap buffers; the rest go back to the heap.
    std::thread([&] {
        for (void *ptr : ptrs)
            pool.release(ptr, kBytes);
    }).join();
    const auto before = pool.stats();
    EXPECT_EQ(before.cached_bytes,
              kCentralCap * BufferPool::capacityFor(kBytes));
    for (auto &ptr : ptrs)
        ptr = pool.acquire(kBytes);
    const auto delta = pool.stats() - before;
    EXPECT_EQ(delta.hits, kCentralCap);
    EXPECT_EQ(delta.misses, count - kCentralCap);
    EXPECT_EQ(delta.cached_bytes, 0u);
    for (void *ptr : ptrs)
        pool.release(ptr, kBytes);
    pool.trim();
}

TEST(BufferPoolTest, SteadyStateHasZeroMisses)
{
    auto &pool = BufferPool::instance();
    pool.trim();
    // Mimic the sample path: a fixed working set of buffer sizes
    // cycling every "sample".
    const std::size_t sizes[] = {500 * 375 * 3, 224 * 224 * 3,
                                 224 * 224 * 3 * 4, 187 * 250 * 2};
    for (int warm = 0; warm < 2; ++warm) {
        for (const auto size : sizes) {
            void *ptr = pool.acquire(size);
            pool.release(ptr, size);
        }
    }
    const auto warmed = pool.stats();
    for (int epoch = 0; epoch < 50; ++epoch) {
        for (const auto size : sizes) {
            void *ptr = pool.acquire(size);
            pool.release(ptr, size);
        }
    }
    const auto after = pool.stats();
    EXPECT_EQ(after.misses, warmed.misses) << "steady state missed";
    pool.trim();
}

TEST(PooledArrayTest, ZeroFillAndUninitialized)
{
    PooledArray<std::uint8_t> zeroed(512);
    for (const auto byte : zeroed)
        EXPECT_EQ(byte, 0);
    // The uninitialized variant must still be fully writable.
    PooledArray<std::uint8_t> raw(512, /*zero=*/false);
    std::memset(raw.data(), 0x5A, raw.size());
    EXPECT_EQ(raw[511], 0x5A);
}

TEST(PooledArrayTest, CopyIsDeepMoveIsTransfer)
{
    PooledArray<int> a(64);
    for (std::size_t i = 0; i < a.size(); ++i)
        a[i] = static_cast<int>(i);
    PooledArray<int> b(a);
    ASSERT_EQ(b.size(), a.size());
    EXPECT_NE(b.data(), a.data());
    b[0] = -1;
    EXPECT_EQ(a[0], 0);

    const int *data = a.data();
    PooledArray<int> c(std::move(a));
    EXPECT_EQ(c.data(), data);
    EXPECT_EQ(c.size(), 64u);
    EXPECT_EQ(c[63], 63);

    PooledArray<int> d;
    EXPECT_TRUE(d.empty());
    d = std::move(c);
    EXPECT_EQ(d.data(), data);
}

TEST(PooledArrayTest, CopyAssignReplacesContents)
{
    PooledArray<float> a(16);
    a[3] = 3.5f;
    PooledArray<float> b(4);
    b = a;
    ASSERT_EQ(b.size(), 16u);
    EXPECT_EQ(b[3], 3.5f);
    EXPECT_NE(b.data(), a.data());
}

} // namespace
} // namespace lotus::memory
