/**
 * @file
 * Tests for compiled frame programs and the bit-packed sampler: the
 * batch sampler must be bit-identical to a scalar reference
 * interpreter and to the slice-at-a-time stream on fixed seeds
 * (including RNG stream consumption), the packed layout
 * must keep idle lanes zero, and the DEPOL2 pick must produce the
 * advertised lane marginals.  Channel statistics under RNG contract v2
 * are pinned in tests/statistical.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "core/rng.hh"
#include "qec/surface_circuit.hh"
#include "stab/circuit.hh"
#include "stab/frame.hh"
#include "stab/frame_program.hh"
#include "support/packed_samples.hh"

namespace hetarch {
namespace stab {
namespace {

/** A circuit touching every opcode the compiler handles. */
Circuit
kitchenSinkCircuit()
{
    Circuit c(4);
    c.h(0);
    c.s(1);
    c.sdg(2);
    c.x(0); // dropped by the compiler: no frame effect, no rng draw
    c.y(1);
    c.z(2);
    c.cx(0, 1);
    c.cz(1, 2);
    c.swap(2, 3);
    c.xError(0, 0.3);
    c.zError(1, 0.2);
    c.xError(2, 0.0); // kept: a p = 0 op still draws its one uniform
    c.pauliChannel1(0, 0.1, 0.05, 0.02);
    c.pauliChannel1(1, 0.0, 0.0, 0.0); // dropped: breaks before drawing
    c.pauliChannel1(2, 0.1, 0.0, 0.0); // rest == 0 branch
    c.depolarize1(3, 0.15);
    c.depolarize2(0, 1, 0.2);
    const auto m0 = c.measureReset(0);
    const auto m1 = c.measure(1);
    c.reset(2);
    const auto m2 = c.measure(2);
    c.detector({m0});
    c.detector({m0, m1});
    c.detector({m2});
    c.observableInclude(0, {m1});
    c.observableInclude(0, {m2});
    c.observableInclude(1, {m0});
    return c;
}

/**
 * Random ops of every kind on a few qubits, each measurement its own
 * detector.  Frequent H gates turn Z frames into recorded X frames, so
 * a wrong update of either frame component by any opcode changes some
 * detector bit.
 */
Circuit
scrambledCircuit(std::uint64_t seed)
{
    Rng pick(seed);
    const std::uint32_t n = 5;
    Circuit c(n);
    for (int i = 0; i < 400; ++i) {
        const auto a = static_cast<std::uint32_t>(pick.uniformInt(n));
        const auto b = static_cast<std::uint32_t>(
            (a + 1 + pick.uniformInt(n - 1)) % n);
        const double p = 0.3 * pick.uniform();
        switch (pick.uniformInt(16)) {
          case 0: c.s(a); break;
          case 1: c.sdg(a); break;
          case 2: c.cx(a, b); break;
          case 3: c.cz(a, b); break;
          case 4: c.swap(a, b); break;
          case 5: c.reset(a); break;
          case 6: c.detector({c.measure(a)}); break;
          case 7: c.detector({c.measureReset(a)}); break;
          case 8: c.xError(a, p); break;
          case 9: c.zError(a, p); break;
          case 10: c.pauliChannel1(a, p / 3, p / 2, p / 4); break;
          case 11: c.depolarize1(a, p); break;
          case 12: c.depolarize2(a, b, p); break;
          default: c.h(a); break;
        }
    }
    for (std::uint32_t q = 0; q < n; ++q) {
        const auto m = c.measure(q);
        c.detector({m});
        c.observableInclude(q % 2, {m});
    }
    return c;
}

TEST(FrameProgram, CompileDropsInertOpsAndBuildsCsrMasks)
{
    const auto c = kitchenSinkCircuit();
    const auto prog = FrameProgram::compile(c);

    EXPECT_EQ(prog->numQubits(), c.numQubits());
    EXPECT_EQ(prog->numMeasurements(), c.numMeasurements());
    EXPECT_EQ(prog->numDetectors(), 3u);
    EXPECT_EQ(prog->numObservables(), 2u);

    // 3 Paulis, the zero-probability PAULI1, and 6 annotations are
    // gone; everything else (including the p=0 X_ERROR) is kept.
    std::size_t interpreted = 0;
    for (const auto& op : c.ops()) {
        switch (op.code) {
          case OpCode::X:
          case OpCode::Y:
          case OpCode::Z:
          case OpCode::DETECTOR:
          case OpCode::OBSERVABLE:
            break;
          case OpCode::PAULI1:
            if (op.params[0] + op.params[1] + op.params[2] > 0.0)
                ++interpreted;
            break;
          default:
            ++interpreted;
        }
    }
    EXPECT_EQ(prog->ops().size(), interpreted);

    // Detector 1 = {m0, m1} = measurement records 0 and 1.
    ASSERT_EQ(prog->detMeasEnd(1) - prog->detMeasBegin(1), 2);
    EXPECT_EQ(prog->detMeasBegin(1)[0], 0u);
    EXPECT_EQ(prog->detMeasBegin(1)[1], 1u);
    // Observable 0 concatenates both includes: {m1, m2}.
    ASSERT_EQ(prog->obsMeasEnd(0) - prog->obsMeasBegin(0), 2);
    EXPECT_EQ(prog->obsMeasBegin(0)[0], 1u);
    EXPECT_EQ(prog->obsMeasBegin(0)[1], 2u);
    // Observable 1 = {m0}.
    ASSERT_EQ(prog->obsMeasEnd(1) - prog->obsMeasBegin(1), 1);
    EXPECT_EQ(prog->obsMeasBegin(1)[0], 0u);
}

TEST(FrameProgram, NoiseOpsShareOneChannelPerDistinctProbability)
{
    // Resolution constants (a 65-entry threshold table and its search
    // buckets) are built once per distinct channel, never per op, so a
    // memory circuit's hundreds of noise ops index a handful of them.
    const auto prog =
        FrameProgram::compile(qec::surfaceMemoryZ(5, 5, qec::CircuitNoise{}));
    std::size_t noise_ops = 0;
    for (const auto& op : prog->ops()) {
        if (op.code < FrameOpCode::XError) // the noise opcodes end the enum
            continue;
        ++noise_ops;
        EXPECT_LT(op.channel, prog->noiseChannels().size());
    }
    EXPECT_GT(noise_ops, 500u);
    EXPECT_LE(prog->noiseChannels().size(), 8u);
}

TEST(FrameProgram, PackedSamplerMatchesReferenceBitForBit)
{
    // Two references: a scalar interpreter that shares no kernel with
    // the sampler, so every opcode's frame effect and RNG contract v2's
    // draws are checked against independent code; and the stream, which
    // runs the same kernels one slice at a time at one word into the
    // bounded measurement ring, where the batch sampler runs the whole
    // program over 8-word blocks.
    for (const auto& circuit :
         {kitchenSinkCircuit(), scrambledCircuit(1), scrambledCircuit(2),
          scrambledCircuit(3)}) {
        const auto prog = FrameProgram::compile(circuit);
        const FrameSimulator sim(prog);
        for (const std::size_t shots : {std::size_t{64}, std::size_t{37},
                                        std::size_t{1000}}) {
            for (const std::uint64_t seed : {1ull, 42ull, 987654321ull}) {
                SCOPED_TRACE(::testing::Message()
                             << "ops=" << circuit.ops().size()
                             << " shots=" << shots << " seed=" << seed);
                Rng rng_fast(seed);
                Rng rng_ref(seed);
                Rng rng_stream(seed);
                const auto fast = sim.sampleDetectors(shots, rng_fast);
                const auto ref = sampleByInterpreter(*prog, shots, rng_ref);
                const auto streamed =
                    sampleByStream(prog, shots, rng_stream);

                for (const auto* other : {&ref, &streamed}) {
                    const char* name =
                        other == &ref ? "interpreter" : "stream";
                    ASSERT_EQ(fast.numWords, other->numWords) << name;
                    EXPECT_EQ(fast.detWords, other->detWords) << name;
                    EXPECT_EQ(fast.obsWords, other->obsWords) << name;
                }

                // Every path must also consume the RNG stream
                // identically: the next draw after sampling agrees.
                const std::uint64_t next = rng_fast();
                EXPECT_EQ(next, rng_ref()) << "interpreter rng diverged";
                EXPECT_EQ(next, rng_stream()) << "stream rng diverged";
            }
        }
    }
}

/**
 * Noise at every edge of the replay-site mapping, over two slices: before
 * the first replay op (site 0), between slice 0's last gate and slice
 * 1's first measurement (the site both slices share), and after the
 * last op (the end site).  It also covers the p >= 1 path (X_ERROR(1),
 * DEPOLARIZE1(1)) and DEPOL2 words whose four masks are partly zero.
 */
Circuit
siteEdgeCircuit()
{
    Circuit c(4);
    c.xError(0, 0.3);
    c.zError(3, 0.4);
    c.depolarize1(1, 1.0);
    c.cx(0, 2); // spreads qubit 0's X error only if applied before it
    c.h(3);     // records qubit 3's Z error only if applied before it
    std::vector<std::size_t> r0, r1;
    for (std::uint32_t q = 0; q < 4; ++q)
        r0.push_back(c.measure(q));
    c.cx(1, 0);
    c.depolarize2(0, 1, 0.05); // mostly one erring lane per word
    c.xError(2, 1.0);
    for (std::uint32_t q = 0; q < 4; ++q)
        r1.push_back(c.measure(q));
    for (std::uint32_t q = 0; q < 4; ++q)
        c.detector({r0[q], r1[q]});
    c.observableInclude(0, {r1[0], r1[3]});
    c.depolarize2(2, 3, 0.3);
    c.xError(1, 0.2);
    return c;
}

TEST(FrameProgram, NoiseEventsAtSiteEdgesMatchInterpreter)
{
    const auto prog = FrameProgram::compile(siteEdgeCircuit());
    ASSERT_EQ(prog->numSlices(), 2u);
    const auto& s1 = prog->sliceInfo(1);
    ASSERT_EQ(prog->sliceInfo(0).opEnd, s1.opBegin);
    std::vector<std::uint32_t> sites;
    for (const auto& op : prog->ops())
        if (op.code >= FrameOpCode::XError) // the noise opcodes end the enum
            sites.push_back(op.site);
    for (const std::uint32_t edge : {0u, s1.opBegin, s1.opEnd})
        EXPECT_NE(std::find(sites.begin(), sites.end(), edge), sites.end())
            << "no noise op at site " << edge;

    const FrameSimulator sim(prog);
    for (const std::size_t shots : {std::size_t{37}, std::size_t{1000}}) {
        for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
            SCOPED_TRACE(::testing::Message()
                         << "shots=" << shots << " seed=" << seed);
            Rng rng_ref(seed);
            const auto ref = sampleByInterpreter(*prog, shots, rng_ref);
            const std::uint64_t next = rng_ref();

            Rng rng_batch(seed);
            const auto batch = sim.sampleDetectors(shots, rng_batch);
            EXPECT_EQ(batch.detWords, ref.detWords) << "batch";
            EXPECT_EQ(batch.obsWords, ref.obsWords) << "batch";
            EXPECT_EQ(rng_batch(), next) << "batch";

            for (const std::size_t width :
                 {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
                Rng rng(seed);
                const auto got = sampleAtWidth(*prog, shots, width, rng);
                EXPECT_EQ(got.detWords, ref.detWords) << "width " << width;
                EXPECT_EQ(got.obsWords, ref.obsWords) << "width " << width;
                EXPECT_EQ(rng(), next) << "width " << width;
            }

            Rng rng_stream(seed);
            const auto streamed = sampleByStream(prog, shots, rng_stream);
            EXPECT_EQ(streamed.detWords, ref.detWords) << "stream";
            EXPECT_EQ(streamed.obsWords, ref.obsWords) << "stream";
            EXPECT_EQ(rng_stream(), next) << "stream";
        }
    }
}

TEST(FrameProgram, IdleLanesOfFinalPartialWordStayZero)
{
    Circuit c(1);
    c.xError(0, 1.0); // every live lane fires
    c.detector({c.measure(0)});
    const FrameSimulator sim(c);
    Rng rng(7);
    const std::size_t shots = 100; // 64 + 36 live lanes
    const auto s = sim.sampleDetectors(shots, rng);
    ASSERT_EQ(s.numWords, 2u);
    EXPECT_EQ(s.detWord(0, 0), ~std::uint64_t{0});
    EXPECT_EQ(s.detWord(0, 1), (std::uint64_t{1} << 36) - 1);
    // shotWeight popcounts whole columns, so idle-lane garbage would
    // show up here too.
    for (std::size_t shot = 0; shot < shots; ++shot)
        EXPECT_EQ(shotWeight(s, shot), 1u);
}

/**
 * Observe the full two-qubit Pauli applied by DEPOL2 via ancilla
 * readout: CX/H draw no randomness, so the gadget leaves the channel's
 * RNG stream untouched.  Readout of (x0, z0, x1, z1):
 *   - cx(0,a) copies qubit 0's X frame onto ancilla a;
 *   - cx(a,0) then h(a) moves qubit 0's Z frame into a's X frame;
 * and measuring an ancilla records its X frame.
 */
Circuit
depol2ProbeCircuit()
{
    Circuit c(6);
    c.depolarize2(0, 1, 1.0);
    c.cx(0, 2);
    c.detector({c.measure(2)}); // x0
    c.cx(3, 0);
    c.h(3);
    c.detector({c.measure(3)}); // z0
    c.cx(1, 4);
    c.detector({c.measure(4)}); // x1
    c.cx(5, 1);
    c.h(5);
    c.detector({c.measure(5)}); // z1
    return c;
}

TEST(FrameProgram, Depol2LaneMarginalsAreUniformOverNonIdentityPaulis)
{
    const auto c = depol2ProbeCircuit();
    const FrameSimulator sim(c);
    Rng rng(12345);
    const std::size_t shots = 60000;
    const auto s = sim.sampleDetectors(shots, rng);

    std::array<std::size_t, 16> histogram{};
    for (std::size_t shot = 0; shot < shots; ++shot) {
        const unsigned pauli = detBit(s, shot, 0) | (detBit(s, shot, 1) << 1) |
                               (detBit(s, shot, 2) << 2) |
                               (detBit(s, shot, 3) << 3);
        ++histogram[pauli];
    }
    // At p=1 every lane errs, so the identity must never appear and
    // each of the 15 non-identity two-qubit Paulis is ~uniform.
    EXPECT_EQ(histogram[0], 0u);
    for (unsigned pauli = 1; pauli < 16; ++pauli) {
        const double freq = static_cast<double>(histogram[pauli]) /
                            static_cast<double>(shots);
        EXPECT_NEAR(freq, 1.0 / 15.0, 0.01) << "pauli " << pauli;
    }
}

TEST(FrameProgram, PackedAccessorsRejectOutOfRangeInDebugBuilds)
{
#ifdef NDEBUG
    GTEST_SKIP() << "bounds asserts compile out under NDEBUG";
#else
    Circuit c(1);
    c.detector({c.measure(0)});
    c.observableInclude(0, {0});
    const FrameSimulator sim(c);
    Rng rng(1);
    const auto s = sim.sampleDetectors(10, rng); // one packed word
    EXPECT_DEATH((void)s.detWord(0, 1), "out of range");
    EXPECT_DEATH((void)s.detWord(1, 0), "out of range");
    EXPECT_DEATH((void)s.obsWord(0, 1), "out of range");
    EXPECT_DEATH((void)s.obsWord(1, 0), "out of range");
#endif
}

} // namespace
} // namespace stab
} // namespace hetarch
