#include "lint/lint.hh"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "core/logging.hh"
#include "stab/dem.hh"

namespace hetarch {
namespace lint {

using stab::OpCode;

const char*
severityName(Severity s)
{
    switch (s) {
      case Severity::Info: return "info";
      case Severity::Warning: return "warning";
      case Severity::Error: return "error";
    }
    return "?";
}

void
LintReport::add(std::string pass, Severity severity, std::size_t op_index,
                std::string message)
{
    findings.push_back(
        {std::move(pass), severity, op_index, std::move(message)});
}

std::size_t
LintReport::errorCount() const
{
    return static_cast<std::size_t>(
        std::count_if(findings.begin(), findings.end(), [](const auto& f) {
            return f.severity == Severity::Error;
        }));
}

std::size_t
LintReport::warningCount() const
{
    return static_cast<std::size_t>(
        std::count_if(findings.begin(), findings.end(), [](const auto& f) {
            return f.severity == Severity::Warning;
        }));
}

std::string
LintReport::toString() const
{
    std::ostringstream os;
    for (const auto& f : findings) {
        os << severityName(f.severity) << "[" << f.pass << "]";
        if (f.opIndex != kNoOpIndex)
            os << " op " << f.opIndex;
        os << ": " << f.message << "\n";
    }
    return os.str();
}

namespace {

bool
isAnnotation(OpCode code)
{
    return code == OpCode::DETECTOR || code == OpCode::OBSERVABLE;
}

bool
isNoise(OpCode code)
{
    switch (code) {
      case OpCode::X_ERROR:
      case OpCode::Z_ERROR:
      case OpCode::PAULI1:
      case OpCode::DEPOL1:
      case OpCode::DEPOL2:
        return true;
      default:
        return false;
    }
}

void
passStructural(const stab::Circuit& circuit, LintReport& report)
{
    const auto& ops = circuit.ops();
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const auto& op = ops[i];
        if (isAnnotation(op.code) && op.targets.empty()) {
            std::ostringstream os;
            os << stab::opCodeName(op.code)
               << " references no measurements (constant parity; "
                  "dead annotation)";
            report.add("structural", Severity::Warning, i, os.str());
        }
    }
}

void
passRecordRefs(const stab::Circuit& circuit, LintReport& report)
{
    const auto& ops = circuit.ops();
    std::vector<std::uint32_t> sorted;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const auto op = ops[i];
        if (!isAnnotation(op.code))
            continue;
        // A record index referenced twice cancels out of the parity.
        sorted.assign(op.targets.begin(), op.targets.end());
        std::sort(sorted.begin(), sorted.end());
        if (std::adjacent_find(sorted.begin(), sorted.end()) !=
            sorted.end()) {
            std::ostringstream os;
            os << stab::opCodeName(op.code)
               << " references the same measurement twice; "
                  "duplicate pairs cancel out of the parity";
            report.add("record-ref", Severity::Warning, i, os.str());
        }
    }
}

void
passLiveness(const stab::Circuit& circuit, LintReport& report)
{
    const std::size_t nq = circuit.numQubits();

    enum class Last : std::uint8_t { None, Gate, Noise, Measure, Reset };
    std::vector<Last> last(nq, Last::None);

    // Union-find over the coupling graph of two-qubit ops: a component
    // that is operated on but never measured does dead work.
    std::vector<std::size_t> parent(nq);
    std::iota(parent.begin(), parent.end(), std::size_t{0});
    auto find = [&](std::size_t a) {
        while (parent[a] != a) {
            parent[a] = parent[parent[a]];
            a = parent[a];
        }
        return a;
    };
    auto unite = [&](std::size_t a, std::size_t b) {
        a = find(a);
        b = find(b);
        if (a != b)
            parent[b] = a;
    };

    std::vector<bool> gated(nq, false);
    std::vector<bool> measured(nq, false);

    const auto& ops = circuit.ops();
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const auto& op = ops[i];
        if (isAnnotation(op.code))
            continue;

        switch (op.code) {
          case OpCode::M:
          case OpCode::MR: {
            const auto q = op.targets[0];
            if (last[q] == Last::Measure) {
                std::ostringstream os;
                os << "qubit " << q << " measured again with no "
                      "intervening operation (redundant measurement)";
                report.add("liveness", Severity::Warning, i, os.str());
            }
            if (last[q] == Last::None) {
                std::ostringstream os;
                os << "qubit " << q << " is measured before any gate "
                      "or reset touches it (reads a fresh |0>)";
                report.add("liveness", Severity::Warning, i, os.str());
            }
            measured[q] = true;
            last[q] = op.code == OpCode::MR ? Last::Reset : Last::Measure;
            break;
          }
          case OpCode::R:
            last[op.targets[0]] = Last::Reset;
            break;
          default: {
            const bool noise = isNoise(op.code);
            for (auto t : op.targets) {
                last[t] = noise ? Last::Noise : Last::Gate;
                if (!noise)
                    gated[t] = true;
            }
            if (op.targets.size() == 2)
                unite(op.targets[0], op.targets[1]);
            break;
          }
        }
    }

    // Report each dead component once, at its smallest qubit.
    std::vector<bool> component_measured(nq, false);
    for (std::size_t q = 0; q < nq; ++q)
        if (measured[q])
            component_measured[find(q)] = true;
    std::vector<bool> reported(nq, false);
    for (std::size_t q = 0; q < nq; ++q) {
        if (!gated[q])
            continue;
        const auto root = find(q);
        if (component_measured[root] || reported[root])
            continue;
        reported[root] = true;
        std::ostringstream os;
        os << "qubit " << q << "'s coupling component is operated on "
              "but never measured (dead work)";
        report.add("liveness", Severity::Warning, kNoOpIndex, os.str());
    }
}

} // namespace

void
passDeterminism(const stab::Circuit& circuit, LintReport& report)
{
    const auto random = stab::findNondeterminism(circuit);
    if (random.empty())
        return;
    // Anchor each finding at its DETECTOR op, or at the observable's
    // last OBSERVABLE_INCLUDE.
    std::vector<std::size_t> det_op, obs_op(circuit.numObservables());
    const auto& ops = circuit.ops();
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].code == OpCode::DETECTOR)
            det_op.push_back(i);
        else if (ops[i].code == OpCode::OBSERVABLE)
            obs_op[ops[i].id] = i;
    }
    for (const auto& n : random)
        report.add("determinism", Severity::Error,
                   n.observable ? obs_op[n.index] : det_op[n.index],
                   n.message());
}

LintReport
lintCircuit(const stab::Circuit& circuit)
{
    LintReport report;
    passStructural(circuit, report);
    passRecordRefs(circuit, report);
    passLiveness(circuit, report);
    passDeterminism(circuit, report);
    return report;
}

void
assertClean(const stab::Circuit& circuit, const char* context)
{
    const auto report = lintCircuit(circuit);
    if (!report.clean()) {
        HETARCH_PANIC(context, ": circuit fails lint:\n",
                      report.toString());
    }
}

} // namespace lint
} // namespace hetarch
