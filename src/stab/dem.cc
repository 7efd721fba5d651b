#include "stab/dem.hh"

#include <algorithm>
#include <map>
#include <sstream>
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

/**
 * The reverse sensitivity walk behind both buildDetectorErrorModel and
 * findNondeterminism.  Walking from the last op to the first, sensX[q]
 * (sensZ[q]) holds the annotations flipped by an X (Z) error on q here:
 * those whose parity operator, carried back to here, has a Z or Y (an X
 * or Y) part on q.  Right after a Z-basis collapse of q (M, MR, R, or
 * the initial |0>) a parity in sensZ[q] anticommutes with Z_q, so it is
 * a fair coin; the walk tests that before erasing sensZ[q], which costs
 * O(1) per collapse when the circuit is deterministic.
 */
struct SensitivityWalk
{
    const Circuit& circuit;
    /** Measurement index -> annotation ids referencing it. */
    std::vector<SensSet> measAnn;
    std::vector<SensSet> sensX, sensZ;

    explicit SensitivityWalk(const Circuit& c)
        : circuit(c), measAnn(c.numMeasurements())
    {
        std::uint32_t det_id = 0;
        for (const auto& op : c.ops()) {
            if (op.code == OpCode::DETECTOR) {
                for (auto m : op.targets)
                    xorInto(measAnn[m], {det_id});
                ++det_id;
            } else if (op.code == OpCode::OBSERVABLE) {
                for (auto m : op.targets)
                    xorInto(measAnn[m], {kObsBase + op.id});
            }
        }
        sensX.resize(c.numQubits());
        sensZ.resize(c.numQubits());
    }

    /**
     * Walk once, calling @p on_noise(op) at each noise op with sensX and
     * sensZ as of that op.  Returns the random annotations by id (so
     * detectors first), each at its anticommuting collapse nearest the
     * end of the circuit.
     */
    template <typename OnNoise>
    std::vector<Nondeterminism> run(OnNoise&& on_noise)
    {
        std::map<std::uint32_t, Nondeterminism> random;
        auto collapse = [&](std::uint32_t q, std::size_t op_index) {
            for (auto id : sensZ[q]) {
                const bool obs = id >= kObsBase;
                random.try_emplace(id, Nondeterminism{
                    obs, obs ? id - kObsBase : id, q, op_index});
            }
        };

        // Measurement indices are assigned in forward order; walking in
        // reverse we count down.
        std::size_t next_meas = circuit.numMeasurements();

        const auto& ops = circuit.ops();
        for (std::size_t i = ops.size(); i-- > 0;) {
            const Op& op = ops[i];
            switch (op.code) {
              case OpCode::H:
                std::swap(sensX[op.targets[0]], sensZ[op.targets[0]]);
                break;
              case OpCode::S:
              case OpCode::SDG:
                // X before S acts as Y after: pick up the Z sensitivity.
                xorInto(sensX[op.targets[0]], sensZ[op.targets[0]]);
                break;
              case OpCode::X:
              case OpCode::Y:
              case OpCode::Z:
                break;
              case OpCode::CX: {
                const auto c = op.targets[0], t = op.targets[1];
                // X_c -> X_c X_t ; Z_t -> Z_t Z_c.
                xorInto(sensX[c], sensX[t]);
                xorInto(sensZ[t], sensZ[c]);
                break;
              }
              case OpCode::CZ: {
                const auto a = op.targets[0], b = op.targets[1];
                // X_a -> X_a Z_b ; X_b -> X_b Z_a.
                xorInto(sensX[a], sensZ[b]);
                xorInto(sensX[b], sensZ[a]);
                break;
              }
              case OpCode::SWAP: {
                const auto a = op.targets[0], b = op.targets[1];
                std::swap(sensX[a], sensX[b]);
                std::swap(sensZ[a], sensZ[b]);
                break;
              }
              case OpCode::M: {
                --next_meas;
                const auto q = op.targets[0];
                collapse(q, i);
                // X before a Z measurement flips the outcome and
                // survives; Z before it is erased by the collapse.
                xorInto(sensX[q], measAnn[next_meas]);
                sensZ[q].clear();
                break;
              }
              case OpCode::R: {
                const auto q = op.targets[0];
                collapse(q, i);
                sensX[q].clear();
                sensZ[q].clear();
                break;
              }
              case OpCode::MR: {
                --next_meas;
                const auto q = op.targets[0];
                collapse(q, i);
                // Reverse of (M then R): the reset erases everything
                // after, then the measurement makes X sensitive to the
                // record.
                sensX[q] = measAnn[next_meas];
                sensZ[q].clear();
                break;
              }
              case OpCode::X_ERROR:
              case OpCode::Z_ERROR:
              case OpCode::PAULI1:
              case OpCode::DEPOL1:
              case OpCode::DEPOL2:
                on_noise(op);
                break;
              case OpCode::DETECTOR:
              case OpCode::OBSERVABLE:
                break; // handled through measAnn
            }
        }
        HETARCH_ASSERT(next_meas == 0,
                       "measurement bookkeeping out of sync");
        for (std::uint32_t q = 0; q < sensZ.size(); ++q)
            collapse(q, kInitialState);
        std::vector<Nondeterminism> out;
        out.reserve(random.size());
        for (const auto& [id, n] : random)
            out.push_back(n);
        return out;
    }
};

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

std::string
Nondeterminism::message() const
{
    std::ostringstream os;
    os << (observable ? "observable " : "detector ") << index
       << " is not deterministic: its parity anticommutes with the ";
    if (collapseOp == kInitialState)
        os << "initial |0> of qubit " << qubit;
    else
        os << "Z-basis collapse of qubit " << qubit << " at op "
           << collapseOp;
    return os.str();
}

std::vector<Nondeterminism>
findNondeterminism(const Circuit& circuit)
{
    return SensitivityWalk(circuit).run([](const Op&) {});
}

DetectorErrorModel
buildDetectorErrorModel(const Circuit& circuit)
{
    HETARCH_ASSERT(circuit.numObservables() <= kMaxObservables,
                   "at most ", kMaxObservables, " observables supported");

    // Declared before the accumulator so that it is freed after it:
    // the other order shifts glibc's arena layout and peak RSS.
    SensitivityWalk walk(circuit);
    const auto& sens_x = walk.sensX;
    const auto& sens_z = walk.sensZ;

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

    const auto random = walk.run([&](const Op& op) {
        switch (op.code) {
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
          default: // the walk passes noise ops only
            break;
        }
    });
    if (!random.empty()) {
        HETARCH_FATAL("buildDetectorErrorModel: ",
                      random.front().message());
    }

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
