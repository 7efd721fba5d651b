#include "stab/dem.hh"

#include <algorithm>
#include <numeric>
#include <span>
#include <sstream>
#include <utility>

#include "core/flat_hash_index.hh"
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
using SensSpan = std::span<const std::uint32_t>;

constexpr std::uint32_t kObsBase = 0x80000000u;

/** @p out = the symmetric difference of @p a and @p b, sorted. */
void
xorOf(SensSpan a, SensSpan b, SensSet& out)
{
    out.clear();
    out.reserve(a.size() + b.size());
    std::set_symmetric_difference(a.begin(), a.end(), b.begin(), b.end(),
                                  std::back_inserter(out));
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
    /**
     * Measurement m's annotations, as CSR: the ids in
     * measIds[measBegin[m], measBegin[m + 1]), ascending, each one
     * that references m an odd number of times.
     */
    std::vector<std::uint32_t> measBegin, measIds;
    std::vector<SensSet> sensX, sensZ;
    /** xorInto's output; it trades storage with the set it replaces. */
    SensSet scratch;

    explicit SensitivityWalk(const Circuit& c)
        : circuit(c), measBegin(c.numMeasurements() + 1, 0)
    {
        const auto each_reference = [&](auto&& visit) {
            std::uint32_t det_id = 0;
            for (const auto& op : c.ops()) {
                if (op.code == OpCode::DETECTOR) {
                    for (auto m : op.targets)
                        visit(m, det_id);
                    ++det_id;
                } else if (op.code == OpCode::OBSERVABLE) {
                    for (auto m : op.targets)
                        visit(m, kObsBase + op.id);
                }
            }
        };
        each_reference([&](std::uint32_t m, std::uint32_t) {
            ++measBegin[m + 1];
        });
        std::partial_sum(measBegin.begin(), measBegin.end(),
                         measBegin.begin());
        measIds.resize(measBegin.back());
        auto fill = measBegin;
        each_reference([&](std::uint32_t m, std::uint32_t id) {
            measIds[fill[m]++] = id;
        });
        // Sort each slice and keep an id once per odd-length run,
        // compacting in place (a slice never moves right).
        std::uint32_t out = 0;
        for (std::size_t m = 0; m + 1 < measBegin.size(); ++m) {
            const auto begin = measIds.begin() + measBegin[m];
            const auto end = measIds.begin() + measBegin[m + 1];
            std::sort(begin, end);
            measBegin[m] = out;
            for (auto it = begin; it != end;) {
                const auto run = it;
                while (it != end && *it == *run)
                    ++it;
                if ((it - run) % 2)
                    measIds[out++] = *run;
            }
        }
        measBegin.back() = out;
        sensX.resize(c.numQubits());
        sensZ.resize(c.numQubits());
    }

    /** The annotations referencing measurement @p m. */
    SensSpan annotations(std::size_t m) const
    {
        return {measIds.data() + measBegin[m],
                measBegin[m + 1] - measBegin[m]};
    }

    /** @p a ^= @p b, allocating nothing once the buffers are warm. */
    void xorInto(SensSet& a, SensSpan b)
    {
        if (b.empty())
            return;
        xorOf(a, b, scratch);
        a.swap(scratch);
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
        std::vector<Nondeterminism> random;
        auto collapse = [&](std::uint32_t q, std::size_t op_index) {
            for (auto id : sensZ[q]) {
                const bool obs = id >= kObsBase;
                random.push_back({obs, obs ? id - kObsBase : id, q, op_index});
            }
        };

        // Measurement indices are assigned in forward order; walking in
        // reverse we count down.
        std::size_t next_meas = circuit.numMeasurements();

        const auto& ops = circuit.ops();
        for (std::size_t i = ops.size(); i-- > 0;) {
            const OpView op = ops[i];
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
                xorInto(sensX[q], annotations(next_meas));
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
                const auto record = annotations(next_meas);
                sensX[q].assign(record.begin(), record.end());
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
                break; // handled through annotations()
            }
        }
        HETARCH_ASSERT(next_meas == 0,
                       "measurement bookkeeping out of sync");
        for (std::uint32_t q = 0; q < sensZ.size(); ++q)
            collapse(q, kInitialState);
        // Reported in walk order, so an annotation's first report is
        // its collapse nearest the end.
        const auto id = [](const Nondeterminism& n) {
            return std::pair(n.observable, n.index);
        };
        std::ranges::stable_sort(random, {}, id);
        const auto repeats = std::ranges::unique(random, {}, id);
        random.erase(repeats.begin(), repeats.end());
        return random;
    }
};

/**
 * The distinct sensitivity sets emitted, each with its combined
 * probability.  The sets lie back to back in one id arena behind a
 * 64-bit hash index, so an emission allocates nothing once warm.
 */
struct MechanismAccumulator
{
    struct Entry
    {
        std::uint32_t begin = 0, size = 0; ///< the set's ids in `ids`
        double p = 0.0;
    };
    std::vector<std::uint32_t> ids;
    std::vector<Entry> entries; ///< in first-emission order
    FlatHashIndex index;

    SensSpan set(const Entry& e) const
    {
        return {ids.data() + e.begin, e.size};
    }

    /** Combine each set's probabilities in emission order. */
    void emit(double p, SensSpan s)
    {
        if (p <= 0.0 || s.empty())
            return;
        std::uint64_t h = s.size();
        for (const auto id : s)
            h = (h ^ id) * 0x9e3779b97f4a7c15ull;
        h = FlatHashIndex::mix(h);
        const auto e = index.find(h, [&](std::uint32_t i) {
            return std::ranges::equal(set(entries[i]), s);
        });
        if (e != FlatHashIndex::kAbsent) {
            const double q = entries[e].p;
            entries[e].p = q * (1.0 - p) + p * (1.0 - q);
            return;
        }
        index.insert(h, static_cast<std::uint32_t>(entries.size()));
        entries.push_back({static_cast<std::uint32_t>(ids.size()),
                           static_cast<std::uint32_t>(s.size()), p});
        ids.insert(ids.end(), s.begin(), s.end());
    }

    /**
     * The mechanisms in lexicographic set order: a counting sort by
     * first id (observables after the detectors), then each bucket by
     * second id and the rest.  Ids ascend strictly, so a second id is
     * at least 1, and 0 marks a one-id set, which comes first.
     */
    MechanismTable sorted(std::size_t num_detectors) const
    {
        const auto bucket = [&](std::uint32_t id) -> std::size_t {
            return id < kObsBase ? id : num_detectors + (id - kObsBase);
        };
        std::vector<std::uint32_t> start(num_detectors + kMaxObservables + 1);
        for (const auto& e : entries)
            ++start[bucket(ids[e.begin]) + 1];
        std::partial_sum(start.begin(), start.end(), start.begin());

        struct Ranked
        {
            std::uint32_t second, entry;
        };
        std::vector<Ranked> order(entries.size());
        auto fill = start;
        for (std::uint32_t i = 0; i < entries.size(); ++i) {
            const auto s = set(entries[i]);
            order[fill[bucket(s[0])]++] = {s.size() > 1 ? s[1] : 0, i};
        }
        const auto less = [&](const Ranked& a, const Ranked& b) {
            if (a.second != b.second || a.second == 0)
                return a.second < b.second;
            const auto x = set(entries[a.entry]).subspan(2);
            const auto y = set(entries[b.entry]).subspan(2);
            return std::lexicographical_compare(x.begin(), x.end(),
                                                y.begin(), y.end());
        };
        for (std::size_t b = 0; b + 1 < start.size(); ++b)
            std::sort(order.begin() + start[b], order.begin() + start[b + 1],
                      less);

        const auto detector_ids = std::ranges::count_if(
            ids, [](std::uint32_t id) { return id < kObsBase; });
        MechanismTable out;
        out.reserve(order.size(), static_cast<std::size_t>(detector_ids));
        for (const auto& r : order) {
            const Entry& e = entries[r.entry];
            const auto s = set(e);
            const auto obs = std::lower_bound(s.begin(), s.end(), kObsBase);
            std::uint32_t mask = 0;
            for (auto it = obs; it != s.end(); ++it)
                mask |= 1u << (*it - kObsBase);
            out.push_back(e.p, {s.begin(), obs}, mask);
        }
        return out;
    }
};

} // namespace

void
MechanismTable::reserve(std::size_t mechanisms, std::size_t ids)
{
    probs.reserve(mechanisms);
    masks.reserve(mechanisms);
    detectorBegin.reserve(mechanisms);
    detectorIds.reserve(ids);
}

void
MechanismTable::push_back(double probability,
                          std::span<const std::uint32_t> detectors,
                          std::uint32_t observables)
{
    probs.push_back(probability);
    masks.push_back(observables);
    detectorBegin.push_back(static_cast<std::uint32_t>(detectorIds.size()));
    detectorIds.insert(detectorIds.end(), detectors.begin(), detectors.end());
}

double
DetectorErrorModel::totalErrorWeight() const
{
    double w = 0.0;
    for (const double p : mechanisms.probabilities())
        w += p;
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
        const auto m = mechanisms[i];
        for (auto d : m.detectors)
            dets[d] ^= 1;
        obs ^= m.observables;
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
    return SensitivityWalk(circuit).run([](const OpView&) {});
}

DetectorErrorModel
buildDetectorErrorModel(const Circuit& circuit)
{
    HETARCH_ASSERT(circuit.numObservables() <= kMaxObservables,
                   "at most ", kMaxObservables, " observables supported");

    SensitivityWalk walk(circuit);
    const auto& sens_x = walk.sensX;
    const auto& sens_z = walk.sensZ;
    MechanismAccumulator acc;

    // Y and two-qubit combinations go through reused buffers.
    SensSet ya, yb, combo;
    const auto random = walk.run([&](const OpView& op) {
        switch (op.code) {
          case OpCode::X_ERROR:
            acc.emit(op.params[0], sens_x[op.targets[0]]);
            break;
          case OpCode::Z_ERROR:
            acc.emit(op.params[0], sens_z[op.targets[0]]);
            break;
          case OpCode::PAULI1: {
            const auto q = op.targets[0];
            xorOf(sens_x[q], sens_z[q], ya);
            acc.emit(op.params[0], sens_x[q]);
            acc.emit(op.params[1], ya);
            acc.emit(op.params[2], sens_z[q]);
            break;
          }
          case OpCode::DEPOL1: {
            const auto q = op.targets[0];
            const double p3 = op.params[0] / 3.0;
            xorOf(sens_x[q], sens_z[q], ya);
            acc.emit(p3, sens_x[q]);
            acc.emit(p3, ya);
            acc.emit(p3, sens_z[q]);
            break;
          }
          case OpCode::DEPOL2: {
            const auto qa = op.targets[0], qb = op.targets[1];
            const double p15 = op.params[0] / 15.0;
            xorOf(sens_x[qa], sens_z[qa], ya);
            xorOf(sens_x[qb], sens_z[qb], yb);
            const SensSpan setsA[4] = {{}, sens_x[qa], ya, sens_z[qa]};
            const SensSpan setsB[4] = {{}, sens_x[qb], yb, sens_z[qb]};
            for (int a = 0; a < 4; ++a) {
                for (int b = 0; b < 4; ++b) {
                    if (a == 0 && b == 0)
                        continue;
                    xorOf(setsA[a], setsB[b], combo);
                    acc.emit(p15, combo);
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
    dem.mechanisms = acc.sorted(circuit.numDetectors());
    return dem;
}

} // namespace stab
} // namespace hetarch
