/**
 * @file
 * Bit pins of the paper's UEC-layer circuits: stab::hashCircuit of the
 * heterogeneous UEC memory (optimized assignment, Ts = 50 ms), the
 * homogeneous lattice memory and the code-capacity memory of every
 * code in qec::paperCodeZoo().  Table 3, Fig. 9, Fig. 12 and Table 4
 * sample these circuits, so a rewrite of the check scheduler, the
 * lattice router or the shared memory-Z record must reproduce them op
 * for op.  Regenerate a golden from the failure message only for a
 * change meant to move that circuit.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "qec/css_circuit.hh"
#include "qec/css_code.hh"
#include "stab/circuit_stats.hh"
#include "uec/lattice_baseline.hh"
#include "uec/uec_circuit.hh"

namespace hetarch {
namespace uec {
namespace {

struct Pin
{
    std::string code;
    std::uint64_t uec;
    std::uint64_t lattice;
    std::uint64_t codeCapacity;
};

TEST(UecCircuitBits, PaperCodesMatchGoldens)
{
    const std::vector<Pin> pins = {
        {"reed-muller-15", 0x1223e2914a9968d9, 0xe1598f8bf4be5b19,
         0x337f08ce1c281ce7},
        {"color-5", 0xf64f04e70858161d, 0xb5825e18a5b5b503,
         0x8ba71d739b791f3f},
        {"steane", 0x44e75b8f88c32686, 0x3fc9b4e0f3791c83,
         0xffbfaaf705c2ef4d},
        {"surface-3", 0xb2b6392dea4e5541, 0x395de9f226a85f05,
         0x52770f32e03505c3},
        {"surface-4", 0x1a975d6863de43c5, 0xc416cec53764209f,
         0x0ba67fbe00590396},
    };
    const auto zoo = qec::paperCodeZoo();
    ASSERT_EQ(zoo.size(), pins.size());
    for (std::size_t i = 0; i < zoo.size(); ++i) {
        const auto& code = zoo[i];
        const auto& pin = pins[i];
        SCOPED_TRACE(code.name);
        ASSERT_EQ(code.name, pin.code);
        const auto uec = stab::hashCircuit(
            uecMemoryZ(code, optimizeAssignment(code), 3, UecNoise{}));
        const auto lattice = stab::hashCircuit(
            latticeMemoryZ(code, embedOnLattice(code), 3, LatticeNoise{}));
        const auto code_capacity =
            stab::hashCircuit(qec::codeCapacityMemoryZ(code, 1, 0.01, 0.01));
        EXPECT_EQ(uec, pin.uec) << std::hex << "uec 0x" << uec;
        EXPECT_EQ(lattice, pin.lattice)
            << std::hex << "lattice 0x" << lattice;
        EXPECT_EQ(code_capacity, pin.codeCapacity)
            << std::hex << "code capacity 0x" << code_capacity;
    }
}

} // namespace
} // namespace uec
} // namespace hetarch
