/**
 * @file
 * Largest-allocation probe: replaces the global `operator new` of the
 * test binary whose one source file includes this header, so a test
 * can assert that a parse allocated no more than a bound —
 * deterministically, where a wall-time limit would be flaky.
 *
 * Include it from exactly one translation unit per binary (every test
 * binary here is one `tests/test_*.cc`).
 */
#ifndef SHREDDER_TESTS_ALLOC_PROBE_H
#define SHREDDER_TESTS_ALLOC_PROBE_H

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace shredder {
namespace test {

/** Largest single `operator new` request since the last probe began. */
inline std::atomic<std::size_t> g_largest_allocation{0};

/**
 * Starts a measurement: `bytes()` is the largest single allocation any
 * thread made since construction.
 */
class LargestAllocation
{
  public:
    LargestAllocation() { g_largest_allocation.store(0); }

    std::size_t bytes() const { return g_largest_allocation.load(); }
};

}  // namespace test
}  // namespace shredder

// The replaced allocation function and its matching deallocations.
// They stay out of line so the compiler pairs `new` with `delete` at
// each call site, not with the malloc/free inside.
[[gnu::noinline]] void*
operator new(std::size_t size)  // shredder-lint: allow(naked-new)
{
    auto& largest = shredder::test::g_largest_allocation;
    std::size_t seen = largest.load(std::memory_order_relaxed);
    while (size > seen && !largest.compare_exchange_weak(
                              seen, size, std::memory_order_relaxed)) {
    }
    if (void* p = std::malloc(size == 0 ? 1 : size)) {
        return p;
    }
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void* p) noexcept  // shredder-lint: allow(naked-new)
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void* p,  // shredder-lint: allow(naked-new)
                std::size_t) noexcept
{
    std::free(p);
}

#endif  // SHREDDER_TESTS_ALLOC_PROBE_H
