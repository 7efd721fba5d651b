/**
 * @file
 * Bit pins of the decoder setup: 64-bit FNV-1a digests of every DEM
 * mechanism (probability bits, observable mask, detector ids) and of
 * all four decoding graphs of each DEM (both detector tags x both
 * carries_observables values: every edge's endpoints, probability
 * bits, observable mask and weight, plus the node and undecomposed
 * counts).  The goldens pin the accumulation order of
 * buildDetectorErrorModel and DecodingGraph::fromDem, so a rewrite of
 * either must reproduce them bit for bit.  The probabilities are exact
 * doubles derived through libm (std::exp in the idle twirl).
 *
 * The exact depolarizing conversion (ROADMAP item 6(b)) changes these
 * digests on purpose; regenerate them from the failure messages then.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/units.hh"
#include "dse/builder_registry.hh"
#include "qec/surface_circuit.hh"
#include "qec/union_find.hh"
#include "stab/dem.hh"

namespace hetarch {
namespace qec {
namespace {

struct Fnv1a
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    }
    void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

std::uint64_t
demDigest(const stab::DetectorErrorModel& dem)
{
    Fnv1a f;
    f.add(std::uint64_t{dem.mechanisms.size()});
    for (const auto& m : dem.mechanisms) {
        f.add(m.probability);
        f.add(std::uint64_t{m.observables});
        f.add(std::uint64_t{m.detectors.size()});
        for (const auto d : m.detectors)
            f.add(std::uint64_t{d});
    }
    return f.h;
}

std::uint64_t
graphDigest(const DecodingGraph& g)
{
    Fnv1a f;
    f.add(std::uint64_t{g.numNodes()});
    f.add(std::uint64_t{g.undecomposedCount()});
    f.add(std::uint64_t{g.edges().size()});
    for (const auto& e : g.edges()) {
        f.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(e.u)));
        f.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(e.v)));
        f.add(e.probability);
        f.add(std::uint64_t{e.observables});
        f.add(static_cast<std::uint64_t>(
            static_cast<std::int64_t>(e.weight)));
    }
    return f.h;
}

/**
 * Fig. 6's noise point: p2 = 1e-2, p1 = 1e-3, T1 = T2 = 0.1 ms.  These
 * are CircuitNoise's defaults, so the registry's surface-d3/d5/d7 pin
 * surfaceMemoryZ at d = 3, 5 and 7 under it already.
 */
CircuitNoise
fig6Noise()
{
    CircuitNoise noise;
    noise.p2 = 1e-2;
    noise.p1 = 1e-3;
    noise.dataT1 = noise.dataT2 = 0.1 * units::ms;
    noise.ancT1 = noise.ancT2 = 0.1 * units::ms;
    return noise;
}

struct Pin
{
    std::string name;
    std::uint64_t dem;
    /** (kTagZ, carries), (kTagZ, not), (kTagX, carries), (kTagX, not). */
    std::uint64_t graphs[4];
};

stab::Circuit
circuitFor(const std::string& name)
{
    if (name == "fig6-z-d13")
        return surfaceMemoryZ(13, 13, fig6Noise());
    if (name == "fig6-x-d5")
        return surfaceMemory(5, 5, fig6Noise(), MemoryBasis::X);
    return dse::findBuilder(name)->make();
}

TEST(SetupBits, DemAndGraphsMatchGoldens)
{
    const std::vector<Pin> pins = {
        {"surface-d3", 0x58c1c0eaa5c670c4,
         {0x35a80c18751744b7, 0x47b8c0e9322b6e8b, 0xb2e4806a32f79f25,
          0xb2e4806a32f79f25}},
        {"surface-d5", 0x3881c1843500809f,
         {0x649de3b85399e968, 0x685a6bc15e8eefc8, 0xa6a33245fd66f8ec,
          0xeb8c2e54cdb5e0c9}},
        {"surface-d7", 0x03b8f145641313bf,
         {0x653ffcc54ae4b456, 0xa5b9a5cc27a3e9da, 0x3ca60e05179eb5e2,
          0xb41ee6b8bde3f0f2}},
        {"surface-x-d3", 0x46f00083c4b03a3d,
         {0x7903971b215b6143, 0x2dfd2ae29257fa72, 0xfc42b36a567514ae,
          0x4ffff86d570cd816}},
        {"css-rep3", 0xac4686d922e1036f,
         {0x0eb902efcfee3a99, 0x464c1bf5a57bd469, 0x81d23fd7003c2305,
          0x81d23fd7003c2305}},
        {"css-steane", 0xe105b03af793de46,
         {0x630d48bf371cc5b5, 0x63a2ae0effeb67dd, 0x952f8dd03a0ad143,
          0x952f8dd03a0ad143}},
        {"uec-steane", 0xc0100dda677b8156,
         {0x586ce8efdc56c88e, 0xfbf5826cb4f23d26, 0x224ae4d3f1d43aa2,
          0x7148fa9c04e952e3}},
        {"uec-chained-steane", 0x28a29a517450d413,
         {0x320f662f8dfac396, 0x92478d1e56be83ea, 0x6fe8662e1cc20eab,
          0xf60dc47c7a458da7}},
        {"lattice-steane", 0xeb4f99e37bda714f,
         {0x0dcaea49c98d0776, 0xa0d94c2c254a4c42, 0x53b9212be651ec1d,
          0xa9d54313f58455ec}},
        {"dejmps", 0xa8c7f832281a39c5,
         {0x5b2a969b42d238a4, 0x5b2a969b42d238a4, 0x81d23fd7003c2305,
          0x81d23fd7003c2305}},
        {"fig6-z-d13", 0x92e97aa24c02ab99,
         {0xb2050375118a12fd, 0xb64fdcebfabe6c75, 0x93c7a9d7198d5424,
          0x1d35928502485fb1}},
        {"fig6-x-d5", 0x54788d854e6c731e,
         {0xbf19949890e92622, 0xc785d78a17910006, 0xf170b8dabe08fb41,
          0xc6e772bbc9891e25}},
    };
    ASSERT_EQ(pins.size(), dse::builderRegistry().size() + 2);

    for (const auto& pin : pins) {
        SCOPED_TRACE(pin.name);
        const auto circuit = circuitFor(pin.name);
        const auto dem = stab::buildDetectorErrorModel(circuit);
        std::uint64_t graphs[4];
        for (int i = 0; i < 4; ++i) {
            graphs[i] = graphDigest(DecodingGraph::fromDem(
                dem, circuit.detectorTags(), i < 2 ? kTagZ : kTagX,
                i % 2 == 0));
        }
        EXPECT_EQ(demDigest(dem), pin.dem)
            << std::hex << "dem 0x" << demDigest(dem);
        for (int i = 0; i < 4; ++i) {
            EXPECT_EQ(graphs[i], pin.graphs[i])
                << std::hex << "graph " << i << " 0x" << graphs[i];
        }
    }
}

} // namespace
} // namespace qec
} // namespace hetarch
