/**
 * @file
 * Tests for circuit text serialization: parsing, round-tripping, and
 * equivalence of parsed circuits under simulation.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/units.hh"
#include "qec/surface_circuit.hh"
#include "stab/circuit_io.hh"
#include "stab/dem.hh"

namespace hetarch {
namespace stab {
namespace {

TEST(CircuitIo, ParsesBasicOps)
{
    const auto c = parseCircuit(R"(
        # prepare a Bell pair and check its parity
        H 0
        CX 0 1
        X_ERROR p=0.125 1
        M 0
        M 1
        DETECTOR 0 1
        OBSERVABLE_INCLUDE(0) 1
    )");
    EXPECT_EQ(c.numQubits(), 2u);
    EXPECT_EQ(c.numMeasurements(), 2u);
    EXPECT_EQ(c.numDetectors(), 1u);
    EXPECT_EQ(c.numObservables(), 1u);
}

TEST(CircuitIo, RoundTripSmallCircuit)
{
    Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.depolarize2(0, 1, 0.03125);
    c.pauliChannel1(2, 0.01, 0.02, 0.0303);
    c.swap(1, 2);
    const auto m0 = c.measureReset(1);
    const auto m1 = c.measure(2);
    c.detector({m0}, 1);
    c.detector({m0, m1}, 0);
    c.observableInclude(2, {m1});

    EXPECT_EQ(parseCircuit(c.toString()), c);
}

TEST(CircuitIo, RoundTripSurfaceCodeCircuit)
{
    qec::CircuitNoise noise;
    const auto c = qec::surfaceMemoryZ(3, 2, noise);
    const auto parsed = parseCircuit(c.toString());
    EXPECT_EQ(parsed, c);

    // Parsed circuit must produce the identical detector error model.
    const auto dem_a = buildDetectorErrorModel(c);
    const auto dem_b = buildDetectorErrorModel(parsed);
    ASSERT_EQ(dem_a.mechanisms.size(), dem_b.mechanisms.size());
    for (std::size_t i = 0; i < dem_a.mechanisms.size(); ++i) {
        EXPECT_EQ(dem_a.mechanisms[i].detectors,
                  dem_b.mechanisms[i].detectors);
        EXPECT_NEAR(dem_a.mechanisms[i].probability,
                    dem_b.mechanisms[i].probability, 1e-12);
    }
}

TEST(CircuitIo, RejectsUnknownOp)
{
    EXPECT_DEATH(parseCircuit("FROBNICATE 0"), "unknown op");
}

TEST(CircuitIo, RejectsBadArity)
{
    EXPECT_DEATH(parseCircuit("CX 0"), "expects");
    EXPECT_DEATH(parseCircuit("X_ERROR 0"), "expects");
    EXPECT_DEATH(parseCircuit("H p=0.5 0"), "expects 0 params");
    EXPECT_DEATH(parseCircuit("DETECTOR p=0.1 0"), "expects 0 params");
}

TEST(CircuitIo, RejectsDanglingRecordReference)
{
    EXPECT_DEATH(parseCircuit("M 0\nDETECTOR 5"),
                 "references measurement");
}

/** The error tryParseCircuit reports for @p text, or "" if it parses. */
std::string
parseError(const std::string& text)
{
    Circuit out;
    std::string error;
    return tryParseCircuit(text, out, error) ? "" : error;
}

TEST(CircuitIo, RejectsNanProbability)
{
    // NaN fails both p < 0 and p > 1, so the range check must be
    // phrased as !(0 <= p <= 1) or NaN reaches the noise builders.
    for (const char* text :
         {"X_ERROR p=nan 0\n", "DEPOLARIZE1 p=nan 0\n",
          "PAULI_CHANNEL_1 p=0 p=nan p=0 0\n",
          "DEPOLARIZE2 p=nan 0 1\n"}) {
        const auto error = parseError(text);
        EXPECT_NE(error.find("line 1"), std::string::npos) << text;
        EXPECT_NE(error.find("outside [0, 1]"), std::string::npos)
            << text;
    }
}

TEST(CircuitIo, RejectsIndicesThatWouldNarrow)
{
    // Each once wrapped modulo 2^32 into a small valid-looking index.
    for (const char* text :
         {"X 4294967296\n", "M 0\nDETECTOR 4294967297\n",
          "M 0\nOBSERVABLE_INCLUDE(4294967301) 0\n",
          "M 0\nDETECTOR(4294967296) 0\n"}) {
        EXPECT_NE(parseError(text).find("out of range"),
                  std::string::npos)
            << text;
    }
    // The largest 32-bit detector tag is kept, not reinterpreted.
    Circuit c;
    std::string error;
    ASSERT_TRUE(tryParseCircuit("M 0\nDETECTOR(4294967295) 0\n", c, error))
        << error;
    ASSERT_EQ(c.detectorTags().size(), 1u);
    EXPECT_EQ(c.detectorTags()[0], 4294967295u);
}

TEST(CircuitIo, RejectsQubitsPastTheRegisterCap)
{
    // The index fits 32 bits, so it parses as a number; as a qubit it
    // once asked for a 4e9-qubit register (std::bad_alloc).
    for (const char* text :
         {"H 4000000000\n", "M 65536\n", "CX 0 65536\n",
          "X_ERROR p=0.1 65536\n", "DEPOLARIZE2 p=0.1 1 65536\n"}) {
        const auto error = parseError(std::string("H 0\n") + text);
        EXPECT_NE(error.find("line 2"), std::string::npos) << text;
        EXPECT_NE(error.find("register cap"), std::string::npos)
            << text;
    }
    Circuit c;
    std::string error;
    ASSERT_TRUE(tryParseCircuit("H 65535\n", c, error)) << error;
    EXPECT_EQ(c.numQubits(), kMaxQubits);
    // Record indices and detector tags are not qubits.
    EXPECT_EQ(parseError("M 0\nDETECTOR(70000) 0\n"), "");
}

TEST(CircuitIo, RejectsObservablePastTheDemMask)
{
    // The DEM packs observables into a 32-bit mask; a larger index
    // must fail at parse time, not as a panic in the DEM builder.
    const auto error = parseError("M 0\nOBSERVABLE_INCLUDE(40) 0\n");
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
    EXPECT_NE(error.find("out of range"), std::string::npos) << error;
    EXPECT_NE(parseError("M 0\nOBSERVABLE_INCLUDE(32) 0\n"), "");
    EXPECT_EQ(parseError("M 0\nOBSERVABLE_INCLUDE(31) 0\n"), "");
}

TEST(CircuitIo, CommentsAndBlanksIgnored)
{
    const auto c = parseCircuit("\n  # nothing here\n\nH 0 # trailing\n");
    EXPECT_EQ(c.size(), 1u);
}

TEST(CircuitIo, EquivalenceDetectsDifferences)
{
    Circuit a(1), b(1);
    a.h(0);
    b.s(0);
    EXPECT_NE(a, b);
    Circuit c(1), d(1);
    c.xError(0, 0.1);
    d.xError(0, 0.2);
    EXPECT_NE(c, d);
}

} // namespace
} // namespace stab
} // namespace hetarch
