#include "dse/builder_registry.hh"

#include "distill/dejmps.hh"
#include "qec/css_circuit.hh"
#include "qec/css_code.hh"
#include "qec/noise_model.hh"
#include "qec/surface_circuit.hh"
#include "uec/assignment.hh"
#include "uec/lattice_baseline.hh"
#include "uec/uec_circuit.hh"

namespace hetarch {
namespace dse {

namespace {

stab::Circuit
makeUecSteane()
{
    const auto code = qec::makeSteane();
    return uec::uecMemoryZ(code, uec::roundRobinAssignment(code), 2,
                           uec::UecNoise{});
}

stab::Circuit
makeUecChainedSteane()
{
    const auto code = qec::makeSteane();
    uec::UecChain chain;
    chain.numUscExt = 1;
    return uec::uecMemoryZ(code, uec::roundRobinAssignment(code, chain), 2,
                           uec::UecNoise{});
}

} // namespace

const std::vector<CircuitBuilder>&
builderRegistry()
{
    static const std::vector<CircuitBuilder> builders = {
        {"surface-d3",
         [] { return qec::surfaceMemoryZ(3, 3, qec::CircuitNoise{}); }},
        {"surface-d5",
         [] { return qec::surfaceMemoryZ(5, 5, qec::CircuitNoise{}); }},
        {"surface-d7",
         [] { return qec::surfaceMemoryZ(7, 7, qec::CircuitNoise{}); }},
        {"surface-x-d3",
         [] {
             return qec::surfaceMemory(3, 3, qec::CircuitNoise{},
                                       qec::MemoryBasis::X);
         }},
        {"css-rep3",
         [] {
             return qec::codeCapacityMemoryZ(qec::makeRepetition(3), 2,
                                             0.01, 0.01);
         }},
        {"css-steane",
         [] {
             return qec::codeCapacityMemoryZ(qec::makeSteane(), 2, 0.01,
                                             0.01);
         }},
        {"uec-steane", makeUecSteane},
        {"uec-chained-steane", makeUecChainedSteane},
        {"lattice-steane",
         [] {
             const auto code = qec::makeSteane();
             return uec::latticeMemoryZ(code, uec::embedOnLattice(code),
                                        2, uec::LatticeNoise{});
         }},
        {"dejmps", [] { return distill::dejmpsCircuit(); }},
    };
    return builders;
}

const CircuitBuilder*
findBuilder(const std::string& name)
{
    for (const auto& b : builderRegistry())
        if (name == b.name)
            return &b;
    return nullptr;
}

} // namespace dse
} // namespace hetarch
