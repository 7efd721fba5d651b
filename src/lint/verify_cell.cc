#include "lint/verify_cell.hh"

#include <sstream>

namespace hetarch {
namespace lint {

stab::Circuit
lowerCellSchedule(const cells::StandardCell& cell)
{
    const auto& devs = cell.deviceList();
    stab::Circuit circ(devs.size());

    for (std::uint32_t q = 0; q < devs.size(); ++q)
        circ.reset(q);

    // Readout devices act as parity ancillas for their neighborhood.
    std::vector<std::size_t> readouts;
    for (std::size_t i = 0; i < devs.size(); ++i)
        if (devs[i].readout)
            readouts.push_back(i);

    std::vector<std::size_t> prev(readouts.size(), 0);
    for (int round = 0; round < 2; ++round) {
        // Every coupling carries its two-qubit interaction once.
        for (const auto& edge : cell.couplings())
            circ.cx(static_cast<std::uint32_t>(edge.a),
                    static_cast<std::uint32_t>(edge.b));
        for (std::size_t r = 0; r < readouts.size(); ++r) {
            const auto anc = static_cast<std::uint32_t>(readouts[r]);
            for (auto n : cell.neighbors(readouts[r]))
                circ.cx(static_cast<std::uint32_t>(n), anc);
            const auto m = circ.measureReset(anc);
            if (round > 0)
                circ.detector({prev[r], m});
            prev[r] = m;
        }
    }

    // Final transversal readout; check each ancilla's last outcome
    // against the data it observed.
    std::vector<std::size_t> final_meas(devs.size(), 0);
    for (std::uint32_t q = 0; q < devs.size(); ++q)
        if (!devs[q].readout)
            final_meas[q] = circ.measure(q);
    for (std::size_t r = 0; r < readouts.size(); ++r) {
        std::vector<std::size_t> refs{prev[r]};
        for (auto n : cell.neighbors(readouts[r]))
            if (!devs[n].readout)
                refs.push_back(final_meas[n]);
        circ.detector(refs);
    }
    return circ;
}

LintReport
verifyCell(const cells::StandardCell& cell, std::size_t required_readouts)
{
    LintReport report;

    const auto drc = cells::checkDesignRules(cell, required_readouts);
    for (const auto& v : drc.violations) {
        std::ostringstream os;
        os << "DR" << v.rule << ": " << v.message;
        report.add("cell-drc", Severity::Error, kNoOpIndex, os.str());
    }

    const auto schedule = lowerCellSchedule(cell);
    auto circuit_report = lintCircuit(schedule);
    for (auto& f : circuit_report.findings)
        report.findings.push_back(std::move(f));
    return report;
}

LintReport
verifyCell(const cells::StandardCell& cell)
{
    return verifyCell(cell, cell.readoutCount());
}

} // namespace lint
} // namespace hetarch
