#include "stab/dem.hh"

#include <algorithm>
#include <map>
#include <utility>

#include "core/logging.hh"

namespace hetarch {
namespace stab {

namespace {

/**
 * A sensitivity set: sorted ids of annotations flipped by a Pauli error
 * at the current circuit position.  Detector d is id d; observable k is
 * id kObsBase + k.
 */
using SensSet = std::vector<std::uint32_t>;

constexpr std::uint32_t kObsBase = 0x80000000u;

/** Symmetric difference, keeping the result sorted. */
void
xorInto(SensSet& a, const SensSet& b)
{
    if (b.empty())
        return;
    SensSet out;
    out.reserve(a.size() + b.size());
    std::set_symmetric_difference(a.begin(), a.end(), b.begin(), b.end(),
                                  std::back_inserter(out));
    a = std::move(out);
}

SensSet
xorOf(const SensSet& a, const SensSet& b)
{
    SensSet out = a;
    xorInto(out, b);
    return out;
}

} // namespace

double
DetectorErrorModel::totalErrorWeight() const
{
    double w = 0.0;
    for (const auto& m : mechanisms)
        w += m.probability;
    return w;
}

std::vector<std::uint32_t>
DetectorErrorModel::detectorFlipCounts() const
{
    std::vector<std::uint32_t> counts(numDetectors, 0);
    for (const auto& m : mechanisms)
        for (auto d : m.detectors)
            ++counts[d];
    return counts;
}

std::pair<std::vector<std::uint8_t>, std::uint32_t>
DetectorErrorModel::applyMechanisms(
    const std::vector<std::uint32_t>& indices) const
{
    std::vector<std::uint8_t> dets(numDetectors, 0);
    std::uint32_t obs = 0;
    for (auto i : indices) {
        HETARCH_ASSERT(i < mechanisms.size(),
                       "mechanism index out of range");
        for (auto d : mechanisms[i].detectors)
            dets[d] ^= 1;
        obs ^= mechanisms[i].observables;
    }
    return {std::move(dets), obs};
}

std::pair<std::vector<std::uint8_t>, std::uint32_t>
DetectorErrorModel::sample(Rng& rng) const
{
    std::vector<std::uint8_t> dets(numDetectors, 0);
    std::uint32_t obs = 0;
    for (const auto& m : mechanisms) {
        if (rng.bernoulli(m.probability)) {
            for (auto d : m.detectors)
                dets[d] ^= 1;
            obs ^= m.observables;
        }
    }
    return {std::move(dets), obs};
}

DetectorErrorModel
buildDetectorErrorModel(const Circuit& circuit)
{
    HETARCH_ASSERT(circuit.numObservables() <= kMaxObservables,
                   "at most ", kMaxObservables, " observables supported");

    // Measurement index -> annotation ids referencing it.
    std::vector<SensSet> meas_ann(circuit.numMeasurements());
    {
        std::uint32_t det_id = 0;
        for (const auto& op : circuit.ops()) {
            if (op.code == OpCode::DETECTOR) {
                for (auto m : op.targets)
                    xorInto(meas_ann[m], {det_id});
                ++det_id;
            } else if (op.code == OpCode::OBSERVABLE) {
                for (auto m : op.targets)
                    xorInto(meas_ann[m], {kObsBase + op.id});
            }
        }
    }

    const std::size_t nq = circuit.numQubits();
    std::vector<SensSet> sens_x(nq), sens_z(nq);

    // Accumulate mechanisms keyed by their sensitivity set, combining
    // probabilities of independent identical mechanisms.
    std::map<SensSet, double> acc;
    auto emit = [&](double p, const SensSet& set) {
        if (p <= 0.0 || set.empty())
            return;
        auto [it, inserted] = acc.try_emplace(set, p);
        if (!inserted) {
            const double q = it->second;
            it->second = q * (1.0 - p) + p * (1.0 - q);
        }
    };

    // Measurement indices are assigned in forward order; walking in
    // reverse we count down.
    std::size_t next_meas = circuit.numMeasurements();

    const auto& ops = circuit.ops();
    for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
        const Op& op = *it;
        switch (op.code) {
          case OpCode::H:
            std::swap(sens_x[op.targets[0]], sens_z[op.targets[0]]);
            break;
          case OpCode::S:
          case OpCode::SDG:
            // X before S acts as Y after: pick up the Z sensitivity.
            xorInto(sens_x[op.targets[0]], sens_z[op.targets[0]]);
            break;
          case OpCode::X:
          case OpCode::Y:
          case OpCode::Z:
            break;
          case OpCode::CX: {
            const auto c = op.targets[0], t = op.targets[1];
            // X_c -> X_c X_t ; Z_t -> Z_t Z_c.
            xorInto(sens_x[c], sens_x[t]);
            xorInto(sens_z[t], sens_z[c]);
            break;
          }
          case OpCode::CZ: {
            const auto a = op.targets[0], b = op.targets[1];
            // X_a -> X_a Z_b ; X_b -> X_b Z_a.
            xorInto(sens_x[a], sens_z[b]);
            xorInto(sens_x[b], sens_z[a]);
            break;
          }
          case OpCode::SWAP: {
            const auto a = op.targets[0], b = op.targets[1];
            std::swap(sens_x[a], sens_x[b]);
            std::swap(sens_z[a], sens_z[b]);
            break;
          }
          case OpCode::M: {
            --next_meas;
            const auto q = op.targets[0];
            // X before a Z measurement flips the outcome and survives;
            // Z before it is erased by the collapse.
            xorInto(sens_x[q], meas_ann[next_meas]);
            sens_z[q].clear();
            break;
          }
          case OpCode::R: {
            const auto q = op.targets[0];
            sens_x[q].clear();
            sens_z[q].clear();
            break;
          }
          case OpCode::MR: {
            --next_meas;
            const auto q = op.targets[0];
            // Reverse of (M then R): the reset erases everything after,
            // then the measurement makes X sensitive to the record.
            sens_x[q] = meas_ann[next_meas];
            sens_z[q].clear();
            break;
          }
          case OpCode::X_ERROR:
            emit(op.params[0], sens_x[op.targets[0]]);
            break;
          case OpCode::Z_ERROR:
            emit(op.params[0], sens_z[op.targets[0]]);
            break;
          case OpCode::PAULI1: {
            const auto q = op.targets[0];
            emit(op.params[0], sens_x[q]);
            emit(op.params[1], xorOf(sens_x[q], sens_z[q]));
            emit(op.params[2], sens_z[q]);
            break;
          }
          case OpCode::DEPOL1: {
            const auto q = op.targets[0];
            const double p3 = op.params[0] / 3.0;
            emit(p3, sens_x[q]);
            emit(p3, xorOf(sens_x[q], sens_z[q]));
            emit(p3, sens_z[q]);
            break;
          }
          case OpCode::DEPOL2: {
            const auto qa = op.targets[0], qb = op.targets[1];
            const double p15 = op.params[0] / 15.0;
            const SensSet ya = xorOf(sens_x[qa], sens_z[qa]);
            const SensSet yb = xorOf(sens_x[qb], sens_z[qb]);
            const SensSet* setsA[4] = {nullptr, &sens_x[qa], &ya,
                                       &sens_z[qa]};
            const SensSet* setsB[4] = {nullptr, &sens_x[qb], &yb,
                                       &sens_z[qb]};
            for (int a = 0; a < 4; ++a) {
                for (int b = 0; b < 4; ++b) {
                    if (a == 0 && b == 0)
                        continue;
                    SensSet set;
                    if (setsA[a])
                        set = *setsA[a];
                    if (setsB[b])
                        xorInto(set, *setsB[b]);
                    emit(p15, set);
                }
            }
            break;
          }
          case OpCode::DETECTOR:
          case OpCode::OBSERVABLE:
            break; // handled through meas_ann
        }
    }
    HETARCH_ASSERT(next_meas == 0, "measurement bookkeeping out of sync");

    DetectorErrorModel dem;
    dem.numDetectors = circuit.numDetectors();
    dem.numObservables = circuit.numObservables();
    dem.mechanisms.reserve(acc.size());
    for (const auto& [set, p] : acc) {
        ErrorMechanism mech;
        mech.probability = p;
        for (auto id : set) {
            if (id >= kObsBase)
                mech.observables |= 1u << (id - kObsBase);
            else
                mech.detectors.push_back(id);
        }
        dem.mechanisms.push_back(std::move(mech));
    }
    return dem;
}

} // namespace stab
} // namespace hetarch
