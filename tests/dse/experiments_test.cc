/**
 * @file
 * Smoke tests for the paper-artifact experiment runners at reduced
 * scale: row shapes, and the headline qualitative results.  The two
 * static rankings sample nothing, so they are pinned byte for byte.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "dse/experiments.hh"

namespace hetarch {
namespace dse {
namespace {

RunScale
quick()
{
    RunScale s;
    s.shotScale = 0.05;
    return s;
}

TEST(Experiments, Table1HasFiveDevices)
{
    EXPECT_EQ(table1Devices().rows(), 5u);
}

TEST(Experiments, Table2CoversFourCells)
{
    const auto t = table2Cells();
    EXPECT_GE(t.rows(), 4u);
}

std::string
csv(const TextTable& t)
{
    std::ostringstream os;
    t.printCsv(os);
    return os.str();
}

TEST(Experiments, BurdenTablesMatchGolden)
{
    EXPECT_EQ(csv(scheduleBurdenTable()),
              R"(circuit,device,latency(us),idle(us),idle-bound,hazards,score(us)
surface-d3,fixed-frequency-transmon,5.4,24.0,3.74e-04,0,5.4
surface-d3,flux-tunable-qubit,5.4,24.0,9.74e-04,0,5.4
surface-d5,fixed-frequency-transmon,8.4,124.9,4.96e-04,0,8.4
surface-d5,flux-tunable-qubit,8.4,124.9,2.08e-03,0,8.4
surface-d7,fixed-frequency-transmon,11.4,357.8,1.22e-03,0,11.4
surface-d7,flux-tunable-qubit,11.4,357.8,8.24e-03,0,11.5
)");
    EXPECT_EQ(csv(flowPressureTable()),
              R"(circuit,storage,swaps,movement(us),peak,storage(q*us),hazards,budget
surface-d3,-,0,0.00,0,0.00,0,4.23e-01
surface-d5,-,0,0.00,0,0.00,0,1.00e+00
surface-d7,-,0,0.00,0,0.00,0,1.00e+00
surface-x-d3,-,0,0.00,0,0.00,0,4.33e-01
css-rep3,-,0,0.00,0,0.00,0,1.73e-03
css-steane,-,0,0.00,0,0.00,0,2.37e-02
uec-steane,-,0,0.00,0,0.00,0,6.21e-01
uec-chained-steane,-,0,0.00,0,0.00,0,8.12e-01
lattice-steane,-,72,7.20,0,0.00,0,1.00e+00
dejmps,-,0,0.00,0,0.00,0,0.00e+00
parked-rep-d3,3d-quantum-memory,2,2.00,1,0.00,0,1.00e-03
parked-rep-d3,3d-multimode-resonator,2,0.80,1,0.00,0,1.00e-03
parked-rep-d3,on-chip-multimode-resonator,2,0.20,1,0.00,0,1.00e-03
)");
}

TEST(Experiments, Fig3TraceCovers100us)
{
    const auto t = fig3DistillationTrace(quick());
    EXPECT_EQ(t.rows(), 51u); // 0..100 us in 2 us steps
}

TEST(Experiments, Fig4SweepShape)
{
    const auto t = fig4DistillationRate(quick());
    // 7 rates x (4 het Ts + 1 hom).
    EXPECT_EQ(t.rows(), 35u);
}

TEST(Experiments, Fig9Shape)
{
    const auto t = fig9UecTsSweep(quick());
    EXPECT_EQ(t.rows(), 5u * 7u);
}

TEST(Experiments, Table3Shape)
{
    const auto t = table3UecComparison(quick());
    EXPECT_EQ(t.rows(), 5u);
}

TEST(Experiments, Table4CoversAllPairs)
{
    const auto t = table4CtMatrix(quick());
    EXPECT_EQ(t.rows(), 10u);
}

} // namespace
} // namespace dse
} // namespace hetarch
