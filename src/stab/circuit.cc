#include "stab/circuit.hh"

#include <sstream>

#include "core/logging.hh"

namespace hetarch {
namespace stab {

const char*
opCodeName(OpCode code)
{
    switch (code) {
      case OpCode::H: return "H";
      case OpCode::S: return "S";
      case OpCode::SDG: return "SDG";
      case OpCode::X: return "X";
      case OpCode::Y: return "Y";
      case OpCode::Z: return "Z";
      case OpCode::CX: return "CX";
      case OpCode::CZ: return "CZ";
      case OpCode::SWAP: return "SWAP";
      case OpCode::M: return "M";
      case OpCode::R: return "R";
      case OpCode::MR: return "MR";
      case OpCode::X_ERROR: return "X_ERROR";
      case OpCode::Z_ERROR: return "Z_ERROR";
      case OpCode::PAULI1: return "PAULI_CHANNEL_1";
      case OpCode::DEPOL1: return "DEPOLARIZE1";
      case OpCode::DEPOL2: return "DEPOLARIZE2";
      case OpCode::DETECTOR: return "DETECTOR";
      case OpCode::OBSERVABLE: return "OBSERVABLE_INCLUDE";
    }
    return "?";
}

void
OpTable::add(OpCode code, std::uint32_t id,
             std::initializer_list<std::uint32_t> op_targets,
             std::initializer_list<double> op_params)
{
    // Offsets are 32-bit; 2^32 targets would be a 16 GB circuit.
    HETARCH_ASSERT(targets.size() < UINT32_MAX && params.size() < UINT32_MAX,
                   "circuit arenas past 32-bit offsets");
    recs.push_back({static_cast<std::uint32_t>(targets.size()),
                    static_cast<std::uint32_t>(params.size()), id,
                    static_cast<std::uint32_t>(code)});
    targets.insert(targets.end(), op_targets);
    params.insert(params.end(), op_params);
}

Circuit::Circuit(std::size_t num_qubits)
    : nq(num_qubits)
{
}

void
Circuit::ensureQubit(std::size_t q)
{
    if (q >= nq)
        nq = q + 1;
}

void
Circuit::pushUnary(OpCode code, std::uint32_t q)
{
    ensureQubit(q);
    opTable.add(code, 0, {q});
}

void
Circuit::pushPair(OpCode code, std::uint32_t a, std::uint32_t b)
{
    HETARCH_ASSERT(a != b, "two-qubit op needs distinct qubits");
    ensureQubit(a);
    ensureQubit(b);
    opTable.add(code, 0, {a, b});
}

void
Circuit::pushAnnotation(OpCode code, std::uint32_t id,
                        const std::vector<std::size_t>& meas_indices)
{
    opTable.add(code, id, {});
    for (auto m : meas_indices) {
        HETARCH_ASSERT(m < nMeas,
                       code == OpCode::DETECTOR ? "detector" : "observable",
                       " references measurement ", m, " but only ", nMeas,
                       " exist");
        opTable.targets.push_back(static_cast<std::uint32_t>(m));
    }
}

void Circuit::h(std::uint32_t q) { pushUnary(OpCode::H, q); }
void Circuit::s(std::uint32_t q) { pushUnary(OpCode::S, q); }
void Circuit::sdg(std::uint32_t q) { pushUnary(OpCode::SDG, q); }
void Circuit::x(std::uint32_t q) { pushUnary(OpCode::X, q); }
void Circuit::y(std::uint32_t q) { pushUnary(OpCode::Y, q); }
void Circuit::z(std::uint32_t q) { pushUnary(OpCode::Z, q); }

void
Circuit::cx(std::uint32_t control, std::uint32_t target)
{
    pushPair(OpCode::CX, control, target);
}

void
Circuit::cz(std::uint32_t a, std::uint32_t b)
{
    pushPair(OpCode::CZ, a, b);
}

void
Circuit::swap(std::uint32_t a, std::uint32_t b)
{
    pushPair(OpCode::SWAP, a, b);
}

std::size_t
Circuit::measure(std::uint32_t q)
{
    pushUnary(OpCode::M, q);
    return nMeas++;
}

void
Circuit::reset(std::uint32_t q)
{
    pushUnary(OpCode::R, q);
}

std::size_t
Circuit::measureReset(std::uint32_t q)
{
    pushUnary(OpCode::MR, q);
    return nMeas++;
}

void
Circuit::xError(std::uint32_t q, double p)
{
    HETARCH_ASSERT(p >= 0.0 && p <= 1.0, "probability out of range");
    ensureQubit(q);
    if (p > 0.0)
        opTable.add(OpCode::X_ERROR, 0, {q}, {p});
}

void
Circuit::zError(std::uint32_t q, double p)
{
    HETARCH_ASSERT(p >= 0.0 && p <= 1.0, "probability out of range");
    ensureQubit(q);
    if (p > 0.0)
        opTable.add(OpCode::Z_ERROR, 0, {q}, {p});
}

void
Circuit::pauliChannel1(std::uint32_t q, double px, double py, double pz)
{
    HETARCH_ASSERT(px >= 0.0 && py >= 0.0 && pz >= 0.0 &&
                   px + py + pz <= 1.0 + 1e-12,
                   "invalid Pauli channel probabilities");
    ensureQubit(q);
    if (px + py + pz > 0.0)
        opTable.add(OpCode::PAULI1, 0, {q}, {px, py, pz});
}

void
Circuit::depolarize1(std::uint32_t q, double p)
{
    HETARCH_ASSERT(p >= 0.0 && p <= 1.0, "probability out of range");
    ensureQubit(q);
    if (p > 0.0)
        opTable.add(OpCode::DEPOL1, 0, {q}, {p});
}

void
Circuit::depolarize2(std::uint32_t a, std::uint32_t b, double p)
{
    HETARCH_ASSERT(p >= 0.0 && p <= 1.0, "probability out of range");
    HETARCH_ASSERT(a != b, "depolarize2 needs distinct qubits");
    ensureQubit(a);
    ensureQubit(b);
    if (p > 0.0)
        opTable.add(OpCode::DEPOL2, 0, {a, b}, {p});
}

std::size_t
Circuit::detector(const std::vector<std::size_t>& meas_indices,
                  std::uint32_t tag)
{
    pushAnnotation(OpCode::DETECTOR, tag, meas_indices);
    detTags.push_back(tag);
    return nDets++;
}

void
Circuit::observableInclude(std::uint32_t index,
                           const std::vector<std::size_t>& meas_indices)
{
    pushAnnotation(OpCode::OBSERVABLE, index, meas_indices);
    if (index + 1 > nObs)
        nObs = index + 1;
}

void
Circuit::appendOp(const Op& op, const std::string& context)
{
    const auto* name = opCodeName(op.code);
    auto need_params = [&](std::size_t n) {
        if (op.params.size() != n)
            HETARCH_FATAL(context, "'", name, "' expects ", n,
                          " params, got ", op.params.size());
    };
    auto need_prob = [&](double p) {
        if (!(p >= 0.0 && p <= 1.0)) // NaN fails both comparisons
            HETARCH_FATAL(context, "'", name, "' probability ", p,
                          " outside [0, 1]");
    };
    auto need_pairs = [&]() {
        if (op.targets.empty() || op.targets.size() % 2 != 0)
            HETARCH_FATAL(context, "'", name,
                          "' expects an even number of targets "
                          "(pairs), got ", op.targets.size());
        for (std::size_t k = 0; k < op.targets.size(); k += 2)
            if (op.targets[k] == op.targets[k + 1])
                HETARCH_FATAL(context, "'", name,
                              "' pairs qubit ", op.targets[k],
                              " with itself");
    };
    auto need_targets = [&]() {
        if (op.targets.empty())
            HETARCH_FATAL(context, "'", name, "' expects at least one "
                          "target");
    };

    // Annotation targets are record indices, not qubits.
    if (op.code != OpCode::DETECTOR && op.code != OpCode::OBSERVABLE)
        for (auto q : op.targets)
            if (q >= kMaxQubits)
                HETARCH_FATAL(context, "'", name, "' targets qubit ", q,
                              ", past the register cap of ", kMaxQubits);

    switch (op.code) {
      case OpCode::H:
      case OpCode::S:
      case OpCode::SDG:
      case OpCode::X:
      case OpCode::Y:
      case OpCode::Z:
      case OpCode::M:
      case OpCode::R:
      case OpCode::MR:
        need_params(0);
        need_targets();
        for (auto q : op.targets) {
            switch (op.code) {
              case OpCode::M: measure(q); break;
              case OpCode::R: reset(q); break;
              case OpCode::MR: measureReset(q); break;
              default: pushUnary(op.code, q); break;
            }
        }
        break;
      case OpCode::CX:
      case OpCode::CZ:
      case OpCode::SWAP:
        need_params(0);
        need_pairs();
        for (std::size_t k = 0; k < op.targets.size(); k += 2)
            pushPair(op.code, op.targets[k], op.targets[k + 1]);
        break;
      case OpCode::X_ERROR:
      case OpCode::Z_ERROR:
      case OpCode::DEPOL1:
        need_params(1);
        need_prob(op.params[0]);
        need_targets();
        for (auto q : op.targets) {
            if (op.code == OpCode::X_ERROR)
                xError(q, op.params[0]);
            else if (op.code == OpCode::Z_ERROR)
                zError(q, op.params[0]);
            else
                depolarize1(q, op.params[0]);
        }
        break;
      case OpCode::PAULI1: {
        need_params(3);
        for (auto p : op.params)
            need_prob(p);
        const double sum = op.params[0] + op.params[1] + op.params[2];
        if (sum > 1.0 + 1e-12)
            HETARCH_FATAL(context, "'", name, "' probabilities sum to ",
                          sum, " (> 1)");
        need_targets();
        for (auto q : op.targets)
            pauliChannel1(q, op.params[0], op.params[1], op.params[2]);
        break;
      }
      case OpCode::DEPOL2:
        need_params(1);
        need_prob(op.params[0]);
        need_pairs();
        for (std::size_t k = 0; k < op.targets.size(); k += 2)
            depolarize2(op.targets[k], op.targets[k + 1], op.params[0]);
        break;
      case OpCode::DETECTOR:
      case OpCode::OBSERVABLE: {
        need_params(0);
        std::vector<std::size_t> refs;
        refs.reserve(op.targets.size());
        for (auto m : op.targets) {
            if (m >= nMeas)
                HETARCH_FATAL(context, "'", name,
                              "' references measurement ", m,
                              " but only ", nMeas, " exist");
            refs.push_back(m);
        }
        if (op.code == OpCode::DETECTOR)
            detector(refs, op.id);
        else
            observableInclude(op.id, refs);
        break;
      }
    }
}

void
Circuit::appendOp(const OpView& op, const std::string& context)
{
    appendOp(Op{op.code, op.targets, {op.params.begin(), op.params.end()},
                op.id},
             context);
}

std::string
Circuit::toString() const
{
    std::ostringstream os;
    os.precision(17);
    for (const auto& op : opTable) {
        os << opCodeName(op.code);
        if (op.code == OpCode::OBSERVABLE ||
            (op.code == OpCode::DETECTOR && op.id != 0))
            os << "(" << op.id << ")";
        for (auto p : op.params)
            os << " p=" << p;
        for (auto t : op.targets)
            os << " " << t;
        os << "\n";
    }
    return os.str();
}

} // namespace stab
} // namespace hetarch
