#include "uec/assignment.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "core/logging.hh"

namespace hetarch {
namespace uec {

RoundSchedule
buildRoundSchedule(const qec::CssCode& code, const Assignment& assignment,
                   const UecTimes& times)
{
    const UecChain& chain = assignment.chain;
    const auto num_registers =
        static_cast<std::size_t>(chain.numRegisters());
    HETARCH_ASSERT(assignment.registerOf.size() == code.n,
                   "assignment size mismatch");
    std::vector<int> load(num_registers, 0);
    for (auto r : assignment.registerOf) {
        HETARCH_ASSERT(r >= 0 && r < chain.numRegisters(),
                       "register id out of range");
        ++load[static_cast<std::size_t>(r)];
    }
    for (auto l : load) {
        if (l > kModesPerRegister)
            HETARCH_FATAL("register over capacity: ", l, " > ",
                          kModesPerRegister);
    }

    RoundSchedule sched;
    sched.outOfStorage.assign(code.n, 0.0);

    std::vector<double> reg_free(num_registers, 0.0);
    std::vector<double> anc_free(
        static_cast<std::size_t>(chain.numAncillas()), 0.0);
    auto cell_of = [&](std::uint32_t q) {
        return chain.cellOfRegister(assignment.registerOf[q]);
    };

    int check_index = 0;
    auto run_check = [&](const std::vector<std::uint32_t>& support,
                         bool is_x) {
        // Home cell: the one holding most of the support.
        std::vector<int> cell_count(anc_free.size(), 0);
        for (auto q : support)
            ++cell_count[static_cast<std::size_t>(cell_of(q))];
        const int home = static_cast<int>(
            std::max_element(cell_count.begin(), cell_count.end()) -
            cell_count.begin());
        auto& anc = anc_free[static_cast<std::size_t>(home)];

        // X checks put the ancilla in |+> before their CNOTs.
        if (is_x) {
            sched.ops.push_back({TimedOp::Kind::AncPrep, anc, anc + times.h,
                                 0, check_index, is_x, home, 0});
            anc += times.h;
        }

        // Take the support one Register at a time, round-robin, so
        // SWAPs pipeline against the serial ancilla CNOTs.
        std::vector<std::vector<std::uint32_t>> buckets(num_registers);
        for (auto q : support)
            buckets[static_cast<std::size_t>(assignment.registerOf[q])]
                .push_back(q);
        std::vector<std::uint32_t> order;
        for (std::size_t i = 0; order.size() < support.size(); ++i)
            for (const auto& b : buckets)
                if (i < b.size())
                    order.push_back(b[i]);

        for (auto q : order) {
            const auto reg =
                static_cast<std::size_t>(assignment.registerOf[q]);
            const int hops = std::abs(cell_of(q) - home);

            const double so_start = reg_free[reg];
            const double so_end = so_start + times.swap;
            sched.ops.push_back({TimedOp::Kind::SwapOut, so_start, so_end,
                                 q, check_index, is_x, home, 0});
            // Route along the compute chain (hops SWAPs), then CNOT.
            const double route = hops * times.swap;
            const double cx_start = std::max(so_end + route, anc);
            const double cx_end = cx_start + times.cnot;
            sched.ops.push_back({TimedOp::Kind::Cnot, cx_start, cx_end, q,
                                 check_index, is_x, home, hops});
            anc = cx_end;
            const double si_end = cx_end + route + times.swap;
            sched.ops.push_back({TimedOp::Kind::SwapIn, cx_end, si_end, q,
                                 check_index, is_x, home, 0});
            reg_free[reg] = si_end;
            sched.outOfStorage[q] += si_end - so_start;
        }

        // Ancilla measurement (+H first for X checks).
        const double m_end = anc + (is_x ? times.h : 0.0) + times.measure;
        sched.ops.push_back({TimedOp::Kind::AncMeasure, anc, m_end, 0,
                             check_index, is_x, home, 0});
        anc = m_end;
        ++check_index;
    };

    for (const auto& support : code.zChecks)
        run_check(support, false);
    for (const auto& support : code.xChecks)
        run_check(support, true);

    std::stable_sort(sched.ops.begin(), sched.ops.end(),
                     [](const TimedOp& a, const TimedOp& b) {
                         return a.start < b.start;
                     });
    for (auto f : anc_free)
        sched.duration = std::max(sched.duration, f);
    for (auto f : reg_free)
        sched.duration = std::max(sched.duration, f);
    return sched;
}

Assignment
roundRobinAssignment(const qec::CssCode& code, const UecChain& chain)
{
    Assignment a;
    a.chain = chain;
    a.registerOf.resize(code.n);
    for (std::size_t q = 0; q < code.n; ++q)
        a.registerOf[q] = static_cast<int>(q % chain.numRegisters());
    return a;
}

Assignment
optimizeAssignment(const qec::CssCode& code, const UecTimes& times)
{
    const UecChain usc;
    HETARCH_ASSERT(code.n <= static_cast<std::size_t>(
                                 usc.numRegisters() * kModesPerRegister),
                   code.name, " does not fit the UEC module");
    Assignment best = roundRobinAssignment(code, usc);

    auto cost = [&](const Assignment& a) {
        const auto sched = buildRoundSchedule(code, a, times);
        double out = 0.0;
        for (auto t : sched.outOfStorage)
            out += t;
        // Duration dominates; out-of-storage time breaks ties.
        return sched.duration + 1e-3 * out;
    };

    double best_cost = cost(best);
    // Local search: move one qubit to a different register, or swap
    // the registers of two qubits; iterate to a fixed point.
    bool improved = true;
    int guard = 0;
    while (improved && guard++ < 50) {
        improved = false;
        for (std::size_t q = 0; q < code.n; ++q) {
            for (int r = 0; r < usc.numRegisters(); ++r) {
                if (best.registerOf[q] == r)
                    continue;
                Assignment trial = best;
                trial.registerOf[q] = r;
                int load = 0;
                for (auto x : trial.registerOf)
                    if (x == r)
                        ++load;
                if (load > kModesPerRegister)
                    continue;
                const double c = cost(trial);
                if (c + 1e-9 < best_cost) {
                    best = trial;
                    best_cost = c;
                    improved = true;
                }
            }
        }
        for (std::size_t q1 = 0; q1 < code.n && !improved; ++q1) {
            for (std::size_t q2 = q1 + 1; q2 < code.n; ++q2) {
                if (best.registerOf[q1] == best.registerOf[q2])
                    continue;
                Assignment trial = best;
                std::swap(trial.registerOf[q1], trial.registerOf[q2]);
                const double c = cost(trial);
                if (c + 1e-9 < best_cost) {
                    best = trial;
                    best_cost = c;
                    improved = true;
                    break;
                }
            }
        }
    }
    return best;
}

} // namespace uec
} // namespace hetarch
