#include "dse/burden.hh"

#include <algorithm>
#include <cmath>

#include "lint/dataflow.hh"
#include "lint/schedule.hh"
#include "qec/decoder_cache.hh"

namespace hetarch {
namespace dse {

namespace {

void
accumulate(const module::Module& mod, BurdenEstimate& est)
{
    for (const auto& cell : mod.cellList()) {
        const auto q = static_cast<std::size_t>(cell.qubitCapacity());
        est.totalQubits += q;
        est.largestCellQubits = std::max(est.largestCellQubits, q);
        est.hierarchicalCostFlops += std::pow(8.0, static_cast<double>(q));
    }
    for (const auto& sub : mod.subModules())
        accumulate(sub, est);
}

} // namespace

BurdenEstimate
estimateBurden(const module::Module& mod)
{
    BurdenEstimate est;
    accumulate(mod, est);
    est.jointCostFlops =
        std::pow(8.0, static_cast<double>(est.totalQubits));
    return est;
}

ScheduleBurden
estimateScheduleBurden(const stab::Circuit& circuit,
                       const lint::sched::TimingModel& model)
{
    // Sweeps re-cost the same circuit under many timing assignments,
    // so the fault analysis comes from the cache; the schedule pass
    // itself is cheap and runs fresh for each model.
    const auto faults =
        qec::DecoderCache::instance().faultAnalysis(circuit);
    lint::sched::SchedOptions options;
    options.faults = faults.get();
    const auto analysis =
        lint::sched::analyzeSchedule(circuit, model, options);
    ScheduleBurden out;
    out.criticalPathNs = analysis.criticalPathNs;
    out.totalIdleNs = analysis.totalIdleNs;
    out.idleBound = analysis.certifiedIdleBound();
    out.hazardErrors = analysis.hazardErrors();
    return out;
}

FlowPressure
estimateFlowPressure(const stab::Circuit& circuit,
                     const lint::sched::TimingModel& model)
{
    // Same split as estimateScheduleBurden: one cached fault analysis
    // per circuit, a fresh flow pass per model.
    const auto faults =
        qec::DecoderCache::instance().faultAnalysis(circuit);
    lint::flow::FlowOptions options;
    options.faults = faults.get();
    options.gateBudget = true;
    const auto analysis =
        lint::flow::analyzeFlow(circuit, model, options);
    FlowPressure out;
    out.swaps = analysis.swapCount;
    out.movementNs = analysis.movementNs;
    out.peakStorage = analysis.peakStorageOccupancy;
    out.storageQubitNs = analysis.storageQubitNs;
    out.hazardErrors = analysis.hazardErrors();
    out.budget = analysis.maxBudget();
    return out;
}

} // namespace dse
} // namespace hetarch
