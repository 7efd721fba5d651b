/**
 * @file
 * Integration tests: end-to-end flows crossing every layer of the
 * HetArch stack, at reduced Monte-Carlo scale.  These are the
 * "does the whole paper pipeline hang together" checks.
 */

#include <gtest/gtest.h>

#include "cells/characterize.hh"
#include "cells/design_rules.hh"
#include "cells/standard_cells.hh"
#include "core/units.hh"
#include "devices/device.hh"
#include "distill/module_sim.hh"
#include "dse/burden.hh"
#include "dse/experiments.hh"
#include "exec/thread_pool.hh"
#include "qec/css_code.hh"
#include "teleport/code_teleport.hh"
#include "uec/experiment.hh"

namespace hetarch {
namespace {

using namespace units;

TEST(FullStack, DeviceToModuleHierarchy)
{
    // Device -> cell -> module chain with DRC at each level, as the
    // paper's Fig. 2 prescribes.
    const auto storage = devices::storageWithCoherence(12.5 * ms, 3);
    const auto compute = devices::fixedFrequencyTransmon();
    storage.validate();
    compute.validate();

    const auto reg = cells::makeRegister(storage, compute);
    ASSERT_TRUE(cells::checkDesignRules(reg, 0).clean());

    const auto ch = cells::characterizeRegister(reg);
    EXPECT_GT(ch.op("load").errorRate, 0.0);

    const auto mod = distill::buildDistillationModule(12.5 * ms);
    EXPECT_EQ(mod.subModules().size(), 3u);
    EXPECT_GT(dse::estimateBurden(mod).reductionFactor(), 1e4);
}

TEST(FullStack, DistillationFeedsTeleportation)
{
    // The CT module consumes the distillation module's output quality;
    // degrading the EP link must degrade the CT state.
    const auto sc3 = qec::makeRotatedSurface(3);
    const auto st = qec::makeSteane();

    teleport::CtConfig good;
    good.shots = 400;
    good.seed = 3;
    teleport::CtConfig bad = good;
    bad.epRate = 20.0 * kHz; // starves the distiller
    bad.epInfidelity = 0.10;

    const auto r_good = teleport::prepareCtState(sc3, st, good);
    const auto r_bad = teleport::prepareCtState(sc3, st, bad);
    EXPECT_TRUE(r_good.epTargetMet);
    EXPECT_GE(r_bad.epInfidelity, r_good.epInfidelity);
    EXPECT_GE(r_bad.errorProbability, r_good.errorProbability);
}

TEST(FullStack, UecStudyFavoursLongStorageCoherence)
{
    // The Fig. 9 trend for one code, with the two storage coherences
    // evaluated the way the paper runners evaluate a grid.
    const std::vector<double> ts_ms = {0.5, 50.0};
    const auto code = qec::makeSteane();
    std::vector<double> errors(ts_ms.size());
    exec::parallelFor(ts_ms.size(), [&](std::size_t i) {
        errors[i] =
            uec::uecLogicalErrorPerRound(code, ts_ms[i] * ms, 2, 1500, 17);
    });
    EXPECT_LT(errors[1], errors[0]);
}

TEST(FullStack, QuickExperimentRunnersProduceAllArtifacts)
{
    dse::RunScale quick;
    quick.shotScale = 0.03;
    EXPECT_GT(dse::table1Devices().rows(), 0u);
    EXPECT_GT(dse::table2Cells().rows(), 0u);
    EXPECT_GT(dse::fig3DistillationTrace(quick).rows(), 0u);
    EXPECT_GT(dse::fig6SurfaceAlpha(quick).rows(), 0u);
}

TEST(FullStack, HeadlineOrderingHolds)
{
    // The paper's abstract in one test: heterogeneity helps
    // distillation, (non-planar) error correction, and teleportation.
    // Distillation at a starved link rate:
    distill::DistillConfig het_cfg;
    het_cfg.ts = 12.5 * ms;
    het_cfg.epRate = 200.0 * kHz;
    het_cfg.epInfidelity = 0.03;
    het_cfg.seed = 21;
    auto hom_cfg = het_cfg;
    hom_cfg.heterogeneous = false;
    hom_cfg.ts = hom_cfg.tc;
    const auto d_het = distill::simulateDistillation(het_cfg, 3.0 * ms);
    const auto d_hom = distill::simulateDistillation(hom_cfg, 3.0 * ms);
    EXPECT_GT(d_het.distilled, d_hom.distilled);

    // Error correction for a non-planar code:
    const auto rm = qec::makeReedMuller15();
    const double e_het =
        uec::uecLogicalErrorPerRound(rm, 50.0 * ms, 2, 1500, 23);
    const double e_hom =
        uec::homogeneousLogicalErrorPerRound(rm, 2, 1500, 25);
    EXPECT_LT(e_het, e_hom);

    // Teleportation:
    teleport::CtConfig ct;
    ct.shots = 400;
    ct.seed = 27;
    const auto sc3 = qec::makeRotatedSurface(3);
    const auto t_het = teleport::prepareCtState(sc3, rm, ct);
    ct.heterogeneous = false;
    const auto t_hom = teleport::prepareCtState(sc3, rm, ct);
    EXPECT_LT(t_het.errorProbability, t_hom.errorProbability);
}

} // namespace
} // namespace hetarch
