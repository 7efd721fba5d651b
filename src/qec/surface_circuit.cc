#include "qec/surface_circuit.hh"

#include <utility>
#include <vector>

#include "core/logging.hh"
#include "lint/lint.hh"

namespace hetarch {
namespace qec {

namespace {

/** One stabilizer plaquette of the rotated layout. */
struct Plaquette
{
    long i, j;     ///< plaquette-grid position
    bool isX;      ///< X-type (else Z-type)
    std::uint32_t ancilla; ///< ancilla qubit index
    std::vector<std::uint32_t> data; ///< data-qubit support
};

void
applyIdle(stab::Circuit& c, std::uint32_t q, const PauliIdle& p)
{
    c.pauliChannel1(q, p.px, p.py, p.pz);
}

} // namespace

stab::Circuit
surfaceMemory(std::size_t distance, std::size_t rounds,
              const CircuitNoise& noise, MemoryBasis basis)
{
    HETARCH_ASSERT(distance >= 2 && rounds >= 1,
                   "surfaceMemory needs d >= 2 and rounds >= 1");
    const bool memory_x = basis == MemoryBasis::X;
    const auto d = static_cast<long>(distance);

    auto data_idx = [&](long r, long c) {
        return static_cast<std::uint32_t>(r * d + c);
    };
    auto valid = [&](long r, long c) {
        return r >= 0 && r < d && c >= 0 && c < d;
    };

    // Enumerate plaquettes with the same boundary rules as
    // makeRotatedSurface.
    std::vector<Plaquette> plaqs;
    std::uint32_t next_anc = static_cast<std::uint32_t>(d * d);
    for (long i = 0; i <= d; ++i) {
        for (long j = 0; j <= d; ++j) {
            std::vector<std::uint32_t> sup;
            sup.reserve(4);
            for (const auto& [dr, dc] :
                 {std::pair{-1L, -1L}, {-1L, 0L}, {0L, -1L}, {0L, 0L}}) {
                if (valid(i + dr, j + dc))
                    sup.push_back(data_idx(i + dr, j + dc));
            }
            const bool is_x = (i + j) % 2 == 0;
            bool keep = false;
            if (sup.size() == 4) {
                keep = true;
            } else if (sup.size() == 2) {
                const bool top_bottom = (i == 0 || i == d);
                keep = (is_x && top_bottom) || (!is_x && !top_bottom);
            }
            if (keep)
                plaqs.push_back({i, j, is_x, next_anc++, std::move(sup)});
        }
    }

    const std::size_t n_data = distance * distance;
    stab::Circuit circ(n_data + plaqs.size());

    // Interaction schedules: relative (dr, dc) of the data partner per
    // CNOT layer.  X-ancillas walk a "Z" (NW, NE, SW, SE) so their
    // late hook pairs are horizontal; Z-ancillas walk an "N"
    // (NW, SW, NE, SE) so theirs are vertical.  Logical Z lives on a
    // horizontal row (broken by vertical X chains) and logical X on a
    // vertical column (broken by horizontal Z chains), so these
    // orientations keep hook errors from accelerating logical chains.
    static const long x_order[4][2] = {{-1, -1}, {-1, 0}, {0, -1}, {0, 0}};
    static const long z_order[4][2] = {{-1, -1}, {0, -1}, {-1, 0}, {0, 0}};

    // Previous-round measurement record index per plaquette.
    std::vector<std::size_t> prev_meas(plaqs.size(), SIZE_MAX);
    std::vector<bool> busy;

    // Reset all ancillas up front.  Data qubits start in |0>; for a
    // memory-X experiment they are rotated into |+> (noiseless
    // transversal preparation, as in the standard memory experiment).
    for (const auto& p : plaqs)
        circ.reset(p.ancilla);
    if (memory_x)
        for (std::uint32_t q = 0; q < n_data; ++q)
            circ.h(q);

    for (std::size_t round = 0; round < rounds; ++round) {
        // --- layer A: H on X ancillas -------------------------------
        for (const auto& p : plaqs) {
            if (p.isX) {
                circ.h(p.ancilla);
                circ.depolarize1(p.ancilla, noise.p1);
            } else {
                applyIdle(circ, p.ancilla, noise.ancIdle(noise.t1q));
            }
        }
        for (std::uint32_t q = 0; q < n_data; ++q)
            applyIdle(circ, q, noise.dataIdle(noise.t1q));

        // --- layers 1..4: CNOT dance --------------------------------
        for (int layer = 0; layer < 4; ++layer) {
            busy.assign(circ.numQubits(), false);
            for (const auto& p : plaqs) {
                const long* off = p.isX ? x_order[layer] : z_order[layer];
                const long r = p.i + off[0], c = p.j + off[1];
                if (!valid(r, c))
                    continue;
                const std::uint32_t dq = data_idx(r, c);
                if (p.isX)
                    circ.cx(p.ancilla, dq);
                else
                    circ.cx(dq, p.ancilla);
                circ.depolarize2(p.ancilla, dq, noise.p2);
                busy[p.ancilla] = true;
                busy[dq] = true;
            }
            for (std::uint32_t q = 0; q < n_data; ++q)
                if (!busy[q])
                    applyIdle(circ, q, noise.dataIdle(noise.t2q));
            for (const auto& p : plaqs)
                if (!busy[p.ancilla])
                    applyIdle(circ, p.ancilla, noise.ancIdle(noise.t2q));
        }

        // --- layer B: H on X ancillas -------------------------------
        for (const auto& p : plaqs) {
            if (p.isX) {
                circ.h(p.ancilla);
                circ.depolarize1(p.ancilla, noise.p1);
            } else {
                applyIdle(circ, p.ancilla, noise.ancIdle(noise.t1q));
            }
        }
        for (std::uint32_t q = 0; q < n_data; ++q)
            applyIdle(circ, q, noise.dataIdle(noise.t1q));

        // --- measurement layer --------------------------------------
        // Data qubits idle for the full readout; this is the dominant
        // heterogeneity-sensitive error (paper Section 4.2.1).
        for (std::uint32_t q = 0; q < n_data; ++q)
            applyIdle(circ, q, noise.dataIdle(noise.tMeas));
        for (std::size_t pi = 0; pi < plaqs.size(); ++pi) {
            const auto& p = plaqs[pi];
            circ.xError(p.ancilla, noise.pMeasFlip);
            const auto m = circ.measureReset(p.ancilla);
            // First-round stabilizer outcomes are deterministic only
            // for the checks whose eigenstate the data was prepared
            // in: Z checks for memory-Z, X checks for memory-X.
            const bool first_round_deterministic =
                p.isX == memory_x;
            const auto tag = p.isX ? kTagX : kTagZ;
            if (round == 0) {
                if (first_round_deterministic)
                    circ.detector({m}, tag);
            } else {
                circ.detector({prev_meas[pi], m}, tag);
            }
            prev_meas[pi] = m;
        }
    }

    // --- final transversal data readout ------------------------------
    // Memory-X reads out in the X basis (H before measuring).
    if (memory_x)
        for (std::uint32_t q = 0; q < n_data; ++q)
            circ.h(q);
    std::vector<std::size_t> data_meas(n_data);
    for (std::uint32_t q = 0; q < n_data; ++q)
        data_meas[q] = circ.measure(q);

    std::vector<std::size_t> refs;
    for (std::size_t pi = 0; pi < plaqs.size(); ++pi) {
        const auto& p = plaqs[pi];
        if (p.isX != memory_x)
            continue;
        refs.clear();
        for (auto dq : p.data)
            refs.push_back(data_meas[dq]);
        refs.push_back(prev_meas[pi]);
        circ.detector(refs, p.isX ? kTagX : kTagZ);
    }

    // Logical Z runs along row 0; logical X along column 0.
    std::vector<std::size_t> logical;
    for (long k = 0; k < d; ++k)
        logical.push_back(data_meas[memory_x ? data_idx(k, 0)
                                             : data_idx(0, k)]);
    circ.observableInclude(0, logical);

#ifndef NDEBUG
    // Debug builds prove the generated circuit lint-clean (including
    // static detector determinism) before anyone simulates it.
    lint::assertClean(circ, "surfaceMemory");
#endif
    return circ;
}

stab::Circuit
surfaceMemoryZ(std::size_t distance, std::size_t rounds,
               const CircuitNoise& noise)
{
    return surfaceMemory(distance, rounds, noise, MemoryBasis::Z);
}

} // namespace qec
} // namespace hetarch
