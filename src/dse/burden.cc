#include "dse/burden.hh"

#include <algorithm>
#include <cmath>

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

} // namespace dse
} // namespace hetarch
