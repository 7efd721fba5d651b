/**
 * @file
 * Allocation counts of the two shot-independent structures: a circuit
 * stores its ops in flat arenas and a DEM its mechanisms in CSR
 * arrays, so neither should make a heap allocation per element.  This
 * binary replaces the global operator new with a counting one, so it
 * holds only tests that read the count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "lint/lint.hh"
#include "qec/surface_circuit.hh"
#include "stab/dem.hh"

namespace {

std::atomic<std::size_t> gAllocations{0};

void*
countedAlloc(std::size_t n)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void* operator new(std::size_t n) { return countedAlloc(n); }
void* operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace hetarch {
namespace {

/** Heap allocations made by @p f. */
template <typename F>
std::size_t
allocationsOf(F&& f)
{
    const std::size_t before = gAllocations.load();
    f();
    return gAllocations.load() - before;
}

TEST(AllocationCount, CircuitAndDemAllocateLessThanOncePerElement)
{
    // d = 13 at Fig. 6 noise: 35,373 ops and 41,911 mechanisms.
    stab::Circuit circuit;
    std::size_t circuit_allocs = allocationsOf([&] {
        circuit = qec::surfaceMemoryZ(13, 13, qec::CircuitNoise{});
    });
#ifndef NDEBUG
    // Debug builders lint what they return; the same call on the same
    // circuit makes the same allocations, so take them back out.
    circuit_allocs -= allocationsOf(
        [&] { lint::assertClean(circuit, "surfaceMemoryZ"); });
#endif
    stab::DetectorErrorModel dem;
    const std::size_t dem_allocs =
        allocationsOf([&] { dem = stab::buildDetectorErrorModel(circuit); });
    std::size_t nondeterministic = 0;
    const std::size_t walk_allocs = allocationsOf(
        [&] { nondeterministic = stab::findNondeterminism(circuit).size(); });
    EXPECT_EQ(nondeterministic, 0u);

    // What remains: the builder's detector({...}) argument vectors,
    // the arenas' doublings, and the walk's per-qubit sensitivity sets
    // growing.  Measured: 2,382 for the circuit, 1,138 for the DEM and
    // 1,072 for the walk alone.
    EXPECT_LT(static_cast<double>(circuit_allocs),
              0.1 * static_cast<double>(circuit.size()))
        << circuit_allocs << " allocations for " << circuit.size()
        << " ops";
    EXPECT_LT(static_cast<double>(dem_allocs),
              0.05 * static_cast<double>(dem.mechanisms.size()))
        << dem_allocs << " allocations for " << dem.mechanisms.size()
        << " mechanisms";
    EXPECT_LT(static_cast<double>(walk_allocs),
              0.05 * static_cast<double>(circuit.size()))
        << walk_allocs << " allocations for " << circuit.size() << " ops";
}

} // namespace
} // namespace hetarch
