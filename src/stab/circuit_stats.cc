#include "stab/circuit_stats.hh"

#include <algorithm>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

namespace hetarch {
namespace stab {

CircuitStats
analyzeCircuit(const Circuit& circuit)
{
    CircuitStats stats;
    stats.qubits = circuit.numQubits();
    stats.detectors = circuit.numDetectors();

    std::vector<std::size_t> ready(circuit.numQubits(), 0);
    auto schedule = [&](std::span<const std::uint32_t> targets) {
        std::size_t start = 0;
        for (auto t : targets)
            start = std::max(start, ready[t]);
        for (auto t : targets)
            ready[t] = start + 1;
        stats.depth = std::max(stats.depth, start + 1);
    };

    for (const auto& op : circuit.ops()) {
        switch (op.code) {
          case OpCode::H:
          case OpCode::S:
          case OpCode::SDG:
          case OpCode::X:
          case OpCode::Y:
          case OpCode::Z:
            ++stats.oneQubitGates;
            schedule(op.targets);
            break;
          case OpCode::CX:
          case OpCode::CZ:
          case OpCode::SWAP:
            ++stats.twoQubitGates;
            schedule(op.targets);
            break;
          case OpCode::M:
            ++stats.measurements;
            schedule(op.targets);
            break;
          case OpCode::R:
            ++stats.resets;
            schedule(op.targets);
            break;
          case OpCode::MR:
            ++stats.measurements;
            ++stats.resets;
            schedule(op.targets);
            break;
          case OpCode::X_ERROR:
          case OpCode::Z_ERROR:
          case OpCode::PAULI1:
          case OpCode::DEPOL1:
          case OpCode::DEPOL2:
            ++stats.noiseSites;
            break;
          case OpCode::DETECTOR:
          case OpCode::OBSERVABLE:
            break;
        }
    }
    return stats;
}

namespace {

/**
 * FNV-1a over 64-bit words in four interleaved lanes: word k of each
 * 32-byte block feeds lane k, so four multiply chains run side by side
 * instead of one.  An array ends with a zero-padded block, then its
 * length goes into lane 0.
 */
struct LaneHash
{
    static constexpr std::uint64_t kPrime = 1099511628211ull;
    std::uint64_t h0 = 1469598103934665603ull, h1 = h0 ^ 1, h2 = h0 ^ 2,
                  h3 = h0 ^ 3;

    static std::uint64_t step(std::uint64_t h, const unsigned char* p)
    {
        std::uint64_t w;
        std::memcpy(&w, p, sizeof w);
        return (h ^ w) * kPrime;
    }

    void word(std::uint64_t v) { h0 = (h0 ^ v) * kPrime; }

    /** The elements' bytes (doubles by bit pattern). */
    template <typename T>
    void array(const std::vector<T>& v)
    {
        // Local lanes stay in registers; the members could alias the
        // input bytes, so the compiler would store them every block.
        auto a = h0, b = h1, c = h2, d = h3;
        const auto block = [&](const unsigned char* p) {
            a = step(a, p);
            b = step(b, p + 8);
            c = step(c, p + 16);
            d = step(d, p + 24);
        };
        const auto* p = reinterpret_cast<const unsigned char*>(v.data());
        std::size_t n = v.size() * sizeof(T);
        for (; n >= 32; n -= 32, p += 32)
            block(p);
        unsigned char tail[32] = {};
        if (n > 0)
            std::memcpy(tail, p, n);
        block(tail);
        h0 = a, h1 = b, h2 = c, h3 = d;
        word(v.size());
    }

    std::uint64_t finish() const
    {
        return (((h0 ^ h1) * kPrime ^ h2) * kPrime ^ h3) * kPrime;
    }
};

} // namespace

std::uint64_t
hashCircuit(const Circuit& circuit)
{
    static_assert(std::has_unique_object_representations_v<OpTable::Record>,
                  "records are hashed as raw bytes");
    const OpTable& ops = circuit.ops();
    LaneHash h;
    h.word(circuit.numQubits());
    h.array(ops.recs);
    h.array(ops.targets);
    h.array(ops.params);
    return h.finish();
}

} // namespace stab
} // namespace hetarch
