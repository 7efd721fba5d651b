/**
 * @file
 * Tests for the simulation-burden estimator.
 */

#include <gtest/gtest.h>

#include "core/units.hh"
#include "distill/module_sim.hh"
#include "dse/burden.hh"
#include "teleport/code_teleport.hh"

namespace hetarch {
namespace dse {
namespace {

TEST(Burden, HierarchicalReductionIsLarge)
{
    const auto mod =
        distill::buildDistillationModule(12.5 * units::ms);
    const auto est = estimateBurden(mod);
    EXPECT_GT(est.totalQubits, est.largestCellQubits);
    // The paper's headline: >= 10^4 reduction in simulation burden.
    EXPECT_GE(est.reductionFactor(), 1e4);
}

TEST(Burden, CtModuleEvenLarger)
{
    const auto distill_mod =
        distill::buildDistillationModule(12.5 * units::ms);
    const auto ct = teleport::buildCodeTeleportModule(50.0 * units::ms);
    EXPECT_GT(estimateBurden(ct).reductionFactor(),
              estimateBurden(distill_mod).reductionFactor());
}

} // namespace
} // namespace dse
} // namespace hetarch
