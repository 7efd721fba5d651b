#include "stab/tableau.hh"

#include "core/logging.hh"

namespace hetarch {
namespace stab {

TableauSimulator::TableauSimulator(std::size_t num_qubits)
    : nq(num_qubits)
{
    rows.reserve(2 * nq);
    // Destabilizers: X_q; stabilizers: Z_q.
    for (std::size_t q = 0; q < nq; ++q)
        rows.push_back(PauliString::single(nq, q, 'X'));
    for (std::size_t q = 0; q < nq; ++q)
        rows.push_back(PauliString::single(nq, q, 'Z'));
}

void
TableauSimulator::rowMult(std::size_t h, std::size_t i)
{
    rows[h] *= rows[i];
    // Stabilizer rows are group elements with real signs; destabilizer
    // rows may legitimately pick up +-i phases (their signs carry no
    // meaning and are never read).
    HETARCH_ASSERT(h < nq || (rows[h].phase() & 1) == 0,
                   "stabilizer row acquired imaginary phase");
}

void
TableauSimulator::h(std::size_t q)
{
    for (auto& row : rows) {
        const bool xb = row.xBit(q), zb = row.zBit(q);
        if (xb && zb)
            row.setPhase(row.phase() + 2);
        row.setX(q, zb);
        row.setZ(q, xb);
    }
}

void
TableauSimulator::s(std::size_t q)
{
    for (auto& row : rows) {
        const bool xb = row.xBit(q), zb = row.zBit(q);
        if (xb && zb)
            row.setPhase(row.phase() + 2);
        row.setZ(q, zb ^ xb);
    }
}

void
TableauSimulator::sdg(std::size_t q)
{
    s(q);
    z(q);
}

void
TableauSimulator::x(std::size_t q)
{
    for (auto& row : rows)
        if (row.zBit(q))
            row.setPhase(row.phase() + 2);
}

void
TableauSimulator::z(std::size_t q)
{
    for (auto& row : rows)
        if (row.xBit(q))
            row.setPhase(row.phase() + 2);
}

void
TableauSimulator::y(std::size_t q)
{
    for (auto& row : rows)
        if (row.xBit(q) ^ row.zBit(q))
            row.setPhase(row.phase() + 2);
}

void
TableauSimulator::cx(std::size_t control, std::size_t target)
{
    for (auto& row : rows) {
        const bool xc = row.xBit(control), zc = row.zBit(control);
        const bool xt = row.xBit(target), zt = row.zBit(target);
        if (xc && zt && (xt == zc))
            row.setPhase(row.phase() + 2);
        row.setX(target, xt ^ xc);
        row.setZ(control, zc ^ zt);
    }
}

void
TableauSimulator::cz(std::size_t a, std::size_t b)
{
    h(b);
    cx(a, b);
    h(b);
}

void
TableauSimulator::swapQubits(std::size_t a, std::size_t b)
{
    cx(a, b);
    cx(b, a);
    cx(a, b);
}

bool
TableauSimulator::measure(std::size_t q, Rng& rng, bool* was_random)
{
    HETARCH_ASSERT(q < nq, "qubit out of range");

    // Find a stabilizer row anticommuting with Z_q (x bit set on q).
    std::size_t p = 2 * nq;
    for (std::size_t i = nq; i < 2 * nq; ++i) {
        if (rows[i].xBit(q)) {
            p = i;
            break;
        }
    }

    if (p < 2 * nq) {
        // Random outcome.
        if (was_random)
            *was_random = true;
        const bool outcome = rng.bernoulli(0.5);

        for (std::size_t i = 0; i < 2 * nq; ++i)
            if (i != p && rows[i].xBit(q))
                rowMult(i, p);

        rows[p - nq] = rows[p];
        PauliString zq = PauliString::single(nq, q, 'Z');
        zq.setPhase(outcome ? 2 : 0);
        rows[p] = zq;
        return outcome;
    }

    // Deterministic outcome: accumulate the matching stabilizers into a
    // scratch row using the destabilizer pattern.
    if (was_random)
        *was_random = false;
    PauliString scratch(nq);
    for (std::size_t i = 0; i < nq; ++i) {
        if (rows[i].xBit(q)) { // destabilizer i anticommutes with Z_q
            scratch *= rows[i + nq];
            HETARCH_ASSERT((scratch.phase() & 1) == 0,
                           "scratch acquired imaginary phase");
        }
    }
    return scratch.phase() == 2;
}

void
TableauSimulator::reset(std::size_t q, Rng& rng)
{
    if (measure(q, rng))
        x(q);
}

int
TableauSimulator::expectation(const PauliString& p) const
{
    HETARCH_ASSERT(p.numQubits() == nq, "Pauli size mismatch");
    // If p anticommutes with any stabilizer, expectation is 0.
    for (std::size_t i = nq; i < 2 * nq; ++i)
        if (!rows[i].commutesWith(p))
            return 0;
    // Otherwise p (up to sign) is a product of stabilizers; accumulate
    // the product of stabilizers matching via destabilizers.
    PauliString scratch(nq);
    for (std::size_t i = 0; i < nq; ++i)
        if (!rows[i].commutesWith(p))
            scratch *= rows[i + nq];
    HETARCH_ASSERT(scratch.xVec() == p.xVec() && scratch.zVec() == p.zVec(),
                   "expectation: Pauli not in stabilizer group span");
    const int rel = (scratch.phase() - p.phase() + 4) % 4;
    HETARCH_ASSERT(rel == 0 || rel == 2, "non-real relative phase");
    return rel == 0 ? 1 : -1;
}

std::vector<bool>
TableauSimulator::run(const Circuit& circuit, Rng& rng)
{
    HETARCH_ASSERT(circuit.numQubits() <= nq,
                   "circuit does not fit the register");
    std::vector<bool> record;
    record.reserve(circuit.numMeasurements());

    for (const auto& op : circuit.ops()) {
        switch (op.code) {
          case OpCode::H: h(op.targets[0]); break;
          case OpCode::S: s(op.targets[0]); break;
          case OpCode::SDG: sdg(op.targets[0]); break;
          case OpCode::X: x(op.targets[0]); break;
          case OpCode::Y: y(op.targets[0]); break;
          case OpCode::Z: z(op.targets[0]); break;
          case OpCode::CX: cx(op.targets[0], op.targets[1]); break;
          case OpCode::CZ: cz(op.targets[0], op.targets[1]); break;
          case OpCode::SWAP: swapQubits(op.targets[0], op.targets[1]); break;
          case OpCode::M:
            record.push_back(measure(op.targets[0], rng));
            break;
          case OpCode::R:
            reset(op.targets[0], rng);
            break;
          case OpCode::MR:
            record.push_back(measure(op.targets[0], rng));
            if (record.back())
                x(op.targets[0]);
            break;
          case OpCode::X_ERROR:
            if (rng.bernoulli(op.params[0]))
                x(op.targets[0]);
            break;
          case OpCode::Z_ERROR:
            if (rng.bernoulli(op.params[0]))
                z(op.targets[0]);
            break;
          case OpCode::PAULI1: {
            const double u = rng.uniform();
            if (u < op.params[0])
                x(op.targets[0]);
            else if (u < op.params[0] + op.params[1])
                y(op.targets[0]);
            else if (u < op.params[0] + op.params[1] + op.params[2])
                z(op.targets[0]);
            break;
          }
          case OpCode::DEPOL1: {
            if (rng.bernoulli(op.params[0])) {
                switch (rng.uniformInt(3)) {
                  case 0: x(op.targets[0]); break;
                  case 1: y(op.targets[0]); break;
                  default: z(op.targets[0]); break;
                }
            }
            break;
          }
          case OpCode::DEPOL2: {
            if (rng.bernoulli(op.params[0])) {
                const auto k = 1 + rng.uniformInt(15); // skip II
                const auto pa = k & 3, pb = (k >> 2) & 3;
                auto apply1 = [&](std::size_t q, std::uint64_t which) {
                    switch (which) {
                      case 1: x(q); break;
                      case 2: y(q); break;
                      case 3: z(q); break;
                      default: break;
                    }
                };
                apply1(op.targets[0], pa);
                apply1(op.targets[1], pb);
            }
            break;
          }
          case OpCode::DETECTOR:
          case OpCode::OBSERVABLE:
            break; // evaluated from the record afterwards
        }
    }
    return record;
}

std::pair<std::vector<bool>, std::vector<bool>>
TableauSimulator::annotationsFromRecord(const Circuit& circuit,
                                        const std::vector<bool>& record)
{
    std::vector<bool> dets;
    dets.reserve(circuit.numDetectors());
    std::vector<bool> obs(circuit.numObservables(), false);

    for (const auto& op : circuit.ops()) {
        if (op.code == OpCode::DETECTOR) {
            bool parity = false;
            for (auto m : op.targets)
                parity = parity ^ record[m];
            dets.push_back(parity);
        } else if (op.code == OpCode::OBSERVABLE) {
            bool parity = obs[op.id];
            for (auto m : op.targets)
                parity = parity ^ record[m];
            obs[op.id] = parity;
        }
    }
    return {dets, obs};
}

bool
TableauSimulator::checkDetectorsDeterministic(const Circuit& circuit,
                                              int trials, std::uint64_t seed)
{
    // Strip noise and run several times with random measurement
    // outcomes; all detector and observable parities must agree.
    std::vector<bool> first_dets, first_obs;
    Rng rng(seed);
    for (int t = 0; t < trials; ++t) {
        TableauSimulator sim(circuit.numQubits());
        // Noiseless run, but *random* outcomes this time.
        std::vector<bool> record;
        for (const auto& op : circuit.ops()) {
            switch (op.code) {
              case OpCode::X_ERROR:
              case OpCode::Z_ERROR:
              case OpCode::PAULI1:
              case OpCode::DEPOL1:
              case OpCode::DEPOL2:
                break;
              case OpCode::M:
                record.push_back(sim.measure(op.targets[0], rng));
                break;
              case OpCode::MR:
                record.push_back(sim.measure(op.targets[0], rng));
                if (record.back())
                    sim.x(op.targets[0]);
                break;
              case OpCode::R:
                sim.reset(op.targets[0], rng);
                break;
              case OpCode::H: sim.h(op.targets[0]); break;
              case OpCode::S: sim.s(op.targets[0]); break;
              case OpCode::SDG: sim.sdg(op.targets[0]); break;
              case OpCode::X: sim.x(op.targets[0]); break;
              case OpCode::Y: sim.y(op.targets[0]); break;
              case OpCode::Z: sim.z(op.targets[0]); break;
              case OpCode::CX: sim.cx(op.targets[0], op.targets[1]); break;
              case OpCode::CZ: sim.cz(op.targets[0], op.targets[1]); break;
              case OpCode::SWAP:
                sim.swapQubits(op.targets[0], op.targets[1]);
                break;
              default:
                break;
            }
        }
        auto [dets, obs] = annotationsFromRecord(circuit, record);
        if (t == 0) {
            first_dets = dets;
            first_obs = obs;
        } else if (dets != first_dets || obs != first_obs) {
            return false;
        }
    }
    return true;
}

} // namespace stab
} // namespace hetarch
