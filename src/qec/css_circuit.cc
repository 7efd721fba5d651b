#include "qec/css_circuit.hh"

#include "core/logging.hh"
#include "lint/lint.hh"
#include "qec/surface_circuit.hh" // kTagZ / kTagX

namespace hetarch {
namespace qec {

MemoryZRecord::MemoryZRecord(stab::Circuit& circ, const CssCode& code)
    : circ_(circ), code_(code),
      last_(code.zChecks.size() + code.xChecks.size(), SIZE_MAX)
{
}

void
MemoryZRecord::measureCheck(std::uint32_t anc, std::size_t check)
{
    const auto m = circ_.measureReset(anc);
    const bool is_x = check >= code_.zChecks.size();
    if (last_[check] != SIZE_MAX)
        circ_.detector({last_[check], m}, is_x ? kTagX : kTagZ);
    else if (!is_x)
        circ_.detector({m}, kTagZ);
    last_[check] = m;
}

void
MemoryZRecord::close(std::span<const int> data_qubits)
{
    std::vector<std::size_t> data_meas(code_.n);
    for (std::size_t q = 0; q < code_.n; ++q) {
        const auto qubit = data_qubits.empty()
                               ? q
                               : static_cast<std::size_t>(data_qubits[q]);
        data_meas[q] = circ_.measure(static_cast<std::uint32_t>(qubit));
    }
    for (std::size_t c = 0; c < code_.zChecks.size(); ++c) {
        std::vector<std::size_t> refs;
        for (auto q : code_.zChecks[c])
            refs.push_back(data_meas[q]);
        refs.push_back(last_[c]);
        circ_.detector(refs, kTagZ);
    }
    std::vector<std::size_t> logical;
    for (auto q : code_.logicalZ)
        logical.push_back(data_meas[q]);
    circ_.observableInclude(0, logical);
}

stab::Circuit
codeCapacityMemoryZ(const CssCode& code, std::size_t rounds, double p_x,
                    double p_z)
{
    HETARCH_ASSERT(rounds >= 1, "need at least one round");
    const auto n = static_cast<std::uint32_t>(code.n);
    const auto n_z = code.zChecks.size();
    const auto n_x = code.xChecks.size();
    // Ancillas: one per Z check then one per X check.
    stab::Circuit circ(code.n + n_z + n_x);
    MemoryZRecord record(circ, code);

    for (std::size_t round = 0; round < rounds; ++round) {
        for (std::uint32_t q = 0; q < n; ++q) {
            circ.xError(q, p_x);
            circ.zError(q, p_z);
        }
        // Z checks: ancilla in |0>, CNOT data -> ancilla, measure.
        for (std::size_t c = 0; c < n_z; ++c) {
            const auto anc = n + static_cast<std::uint32_t>(c);
            for (auto q : code.zChecks[c])
                circ.cx(q, anc);
            record.measureCheck(anc, c);
        }
        // X checks: ancilla in |+>, CNOT ancilla -> data, measure X.
        for (std::size_t c = n_z; c < n_z + n_x; ++c) {
            const auto anc = n + static_cast<std::uint32_t>(c);
            circ.h(anc);
            for (auto q : code.xChecks[c - n_z])
                circ.cx(anc, q);
            circ.h(anc);
            record.measureCheck(anc, c);
        }
    }
    record.close();
#ifndef NDEBUG
    lint::assertClean(circ, "codeCapacityMemoryZ");
#endif
    return circ;
}

} // namespace qec
} // namespace hetarch
