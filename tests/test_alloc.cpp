/**
 * @file
 * Allocation-freedom tests for the event kernel hot path.
 *
 * Replaces the global operator new/delete with counting versions so a
 * test can assert that a warmed-up EventQueue schedules and runs events
 * with small captures without touching the heap at all: once the heap
 * vector has grown to steady-state capacity, the simulator's inner loop
 * performs zero allocations per event.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "sim/eventq.hpp"

namespace
{

std::atomic<std::uint64_t> g_allocs{0};

void *
countedMalloc(std::size_t n) noexcept
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n ? n : 1);
}

void *
countedAligned(std::size_t n, std::align_val_t al) noexcept
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    auto a = static_cast<std::size_t>(al);
    return std::aligned_alloc(a, ((n + a - 1) / a) * a);
}

} // namespace

// Program-wide counting allocator. Every form, nothrow included,
// allocates with malloc or aligned_alloc, so the one free() below is
// the matching release for all of them and the counter sees all C++
// heap traffic in the binary.
void *
operator new(std::size_t n)
{
    if (void *p = countedMalloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void *
operator new(std::size_t n, std::align_val_t al)
{
    if (void *p = countedAligned(n, al))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n, std::align_val_t al)
{
    return ::operator new(n, al);
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedMalloc(n);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedMalloc(n);
}

void *
operator new(std::size_t n, std::align_val_t al,
             const std::nothrow_t &) noexcept
{
    return countedAligned(n, al);
}

void *
operator new[](std::size_t n, std::align_val_t al,
               const std::nothrow_t &) noexcept
{
    return countedAligned(n, al);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace smtp
{
namespace
{

/** Schedule/run churn mimicking the simulator's steady state. */
std::uint64_t
churn(EventQueue &eq, int rounds)
{
    std::uint64_t ran = 0;
    for (int r = 0; r < rounds; ++r) {
        // The capture shapes the real schedulers use: this-pointer plus
        // a uid, a couple of raw pointers, small integers.
        std::uint64_t uid = static_cast<std::uint64_t>(r);
        std::uint64_t *counter = &ran;
        eq.scheduleIn(100 + static_cast<Tick>(r % 7) * 64,
                      [counter, uid] { *counter += uid ? 1 : 1; });
        eq.scheduleIn(static_cast<Tick>(r % 3) * 512,
                      [counter] { ++*counter; },
                      EventQueue::prioEarly);
        eq.runOne();
        eq.runOne();
    }
    eq.run();
    return ran;
}

/**
 * Warm the queue until one full churn pass completes without a single
 * allocation (heap vector at steady-state capacity), then assert the
 * next pass is allocation-free too. The test fails only if the kernel
 * never stops allocating.
 */
TEST(EventQueueAlloc, HotPathIsAllocationFree)
{
    EventQueue eq;
    bool warm = false;
    for (int pass = 0; pass < 16 && !warm; ++pass) {
        std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
        churn(eq, 4096);
        warm = g_allocs.load(std::memory_order_relaxed) == before;
    }
    ASSERT_TRUE(warm) << "event kernel still allocating after 16 passes";

    std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    std::uint64_t ran = churn(eq, 4096);
    std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
    EXPECT_EQ(ran, 2 * 4096u);
    EXPECT_EQ(after - before, 0u)
        << "scheduleIn/runOne allocated on the hot path";
}

TEST(EventQueueAlloc, LargeCapturesDoAllocate)
{
    // Sanity-check the counter actually observes InlineCallback's heap
    // fallback, so the zero readings above are meaningful.
    EventQueue eq;
    struct Fat
    {
        std::uint64_t pad[16];
    } fat{};
    std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    eq.scheduleIn(1, [fat] { (void)fat.pad[0]; });
    std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
    eq.run();
    EXPECT_GT(after - before, 0u);
}

} // namespace
} // namespace smtp
