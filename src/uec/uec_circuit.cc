#include "uec/uec_circuit.hh"

#include <cmath>

#include "core/logging.hh"
#include "lint/lint.hh"
#include "qec/css_circuit.hh"
#include "qec/noise_model.hh"

namespace hetarch {
namespace uec {

stab::Circuit
uecMemoryZ(const qec::CssCode& code, const Assignment& assignment,
           std::size_t rounds, const UecNoise& noise, const UecTimes& times)
{
    HETARCH_ASSERT(rounds >= 1, "need at least one round");
    const auto sched = buildRoundSchedule(code, assignment, times);
    const int num_ancillas = assignment.chain.numAncillas();
    const auto n = static_cast<std::uint32_t>(code.n);
    stab::Circuit circ(code.n + static_cast<std::size_t>(num_ancillas));
    qec::MemoryZRecord record(circ, code);

    // Per-qubit clock for idle-noise accounting.  Data qubits idle at
    // the storage rate except while checked out; ancillas idle at the
    // compute rate.
    std::vector<double> last(circ.numQubits(), 0.0);
    auto idle_to = [&](std::uint32_t q, double t, double t1, double t2) {
        if (t > last[q]) {
            const auto p = qec::idleTwirl(t - last[q], t1, t2);
            circ.pauliChannel1(q, p.px, p.py, p.pz);
            last[q] = t;
        }
    };
    auto idle_data_storage = [&](std::uint32_t q, double t) {
        idle_to(q, t, noise.ts, noise.ts);
    };
    auto idle_compute = [&](std::uint32_t q, double t) {
        idle_to(q, t, noise.tc, noise.tc);
    };

    for (int a = 0; a < num_ancillas; ++a)
        circ.reset(n + static_cast<std::uint32_t>(a));

    for (std::size_t round = 0; round < rounds; ++round) {
        const double offset = static_cast<double>(round) * sched.duration;
        for (const auto& op : sched.ops) {
            const double start = offset + op.start;
            const double end = offset + op.end;
            const auto anc = n + static_cast<std::uint32_t>(op.ancilla);
            switch (op.kind) {
              case TimedOp::Kind::SwapOut:
                // Storage idle up to the swap, then compute-rate
                // decoherence during the (coherence-limited) swap.
                idle_data_storage(op.dataQubit, start);
                idle_compute(op.dataQubit, end);
                break;
              case TimedOp::Kind::Cnot: {
                idle_compute(op.dataQubit, end);
                idle_compute(anc, end);
                if (op.routeHops > 0) {
                    // Inter-cell routing: the data qubit rides hops
                    // SWAPs along the compute chain in each direction.
                    const double p_hop = 0.8 * noise.p2;
                    const double p_route =
                        1.0 - std::pow(1.0 - p_hop, 2.0 * op.routeHops);
                    circ.depolarize1(op.dataQubit, p_route);
                }
                if (op.isXCheck)
                    circ.cx(anc, op.dataQubit);
                else
                    circ.cx(op.dataQubit, anc);
                circ.depolarize2(op.dataQubit, anc, noise.p2);
                break;
              }
              case TimedOp::Kind::SwapIn:
                idle_compute(op.dataQubit, end);
                break;
              case TimedOp::Kind::AncPrep:
                idle_compute(anc, end);
                if (op.isXCheck)
                    circ.h(anc);
                break;
              case TimedOp::Kind::AncMeasure:
                idle_compute(anc, end);
                if (op.isXCheck)
                    circ.h(anc);
                circ.xError(anc, noise.pMeasFlip);
                record.measureCheck(anc,
                                    static_cast<std::size_t>(op.checkIndex));
                break;
            }
        }
        // Close out the round: every data qubit idles in storage to
        // the round boundary.
        const double round_end = offset + sched.duration;
        for (std::uint32_t q = 0; q < n; ++q)
            idle_data_storage(q, round_end);
        for (int a = 0; a < num_ancillas; ++a)
            idle_compute(n + static_cast<std::uint32_t>(a), round_end);
    }

    // Transversal data readout (error-free, as in the paper).
    record.close();
#ifndef NDEBUG
    lint::assertClean(circ, "uecMemoryZ");
#endif
    return circ;
}

} // namespace uec
} // namespace hetarch
