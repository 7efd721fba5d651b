#include "stab/circuit_io.hh"

#include <charconv>
#include <optional>
#include <sstream>
#include <vector>

#include "core/logging.hh"
#include "stab/dem.hh"

namespace hetarch {
namespace stab {

namespace {

struct ParsedLine
{
    std::string name;
    /** The "(k)" suffix: an observable index or a detector tag. */
    std::optional<std::uint32_t> id;
    std::vector<double> params;
    std::vector<std::uint32_t> targets;
};

/** Targets and record indices are stored as 32-bit ids. */
constexpr std::size_t kIndexLimit = std::size_t{1} << 32;

/** A decimal index below @p limit (at most 2^32), checked before the
    narrowing to 32 bits. */
std::uint32_t
parseIndex(const std::string& token, std::size_t line_no, const char* what,
           std::size_t limit)
{
    if (token.empty() ||
        token.find_first_not_of("0123456789") != std::string::npos)
        HETARCH_FATAL("line ", line_no, ": expected ", what, ", got '",
                      token, "'");
    std::size_t value = 0;
    const auto res =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (res.ec != std::errc{} || value >= limit)
        HETARCH_FATAL("line ", line_no, ": ", what, " '", token,
                      "' out of range (must be below ", limit, ")");
    return static_cast<std::uint32_t>(value);
}

double
parseParam(const std::string& token, std::size_t line_no)
{
    std::size_t pos = 0;
    double value = 0.0;
    try {
        value = std::stod(token, &pos);
    } catch (const std::exception&) {
        pos = 0;
    }
    if (pos == 0 || pos != token.size())
        HETARCH_FATAL("line ", line_no, ": bad parameter value '", token,
                      "' (expected p=<number>)");
    return value;
}

ParsedLine
tokenize(const std::string& line, std::size_t line_no)
{
    ParsedLine out;
    std::istringstream in(line);
    std::string token;
    if (!(in >> token))
        return out; // blank

    // OBSERVABLE_INCLUDE(k) and DETECTOR(tag) carry an id in the
    // mnemonic.
    const auto paren = token.find('(');
    out.name = token.substr(0, paren);
    if (paren != std::string::npos) {
        const auto close = token.find(')', paren);
        if (close == std::string::npos)
            HETARCH_FATAL("line ", line_no, ": unterminated '(' in '",
                          token, "'");
        const bool observable = out.name == "OBSERVABLE_INCLUDE";
        out.id = parseIndex(token.substr(paren + 1, close - paren - 1),
                            line_no,
                            observable ? "an observable index" : "a tag",
                            observable ? kMaxObservables : kIndexLimit);
    }

    while (in >> token) {
        if (token.rfind("p=", 0) == 0) {
            out.params.push_back(parseParam(token.substr(2), line_no));
        } else {
            out.targets.push_back(
                parseIndex(token, line_no, "a target index", kIndexLimit));
        }
    }
    return out;
}

} // namespace

namespace {

/** Mnemonic -> opcode; false when the name is unknown. */
bool
lookupOpCode(const std::string& name, OpCode& code)
{
    static const std::pair<const char*, OpCode> table[] = {
        {"H", OpCode::H},
        {"S", OpCode::S},
        {"SDG", OpCode::SDG},
        {"X", OpCode::X},
        {"Y", OpCode::Y},
        {"Z", OpCode::Z},
        {"CX", OpCode::CX},
        {"CZ", OpCode::CZ},
        {"SWAP", OpCode::SWAP},
        {"M", OpCode::M},
        {"R", OpCode::R},
        {"MR", OpCode::MR},
        {"X_ERROR", OpCode::X_ERROR},
        {"Z_ERROR", OpCode::Z_ERROR},
        {"PAULI_CHANNEL_1", OpCode::PAULI1},
        {"DEPOLARIZE1", OpCode::DEPOL1},
        {"DEPOLARIZE2", OpCode::DEPOL2},
        {"DETECTOR", OpCode::DETECTOR},
        {"OBSERVABLE_INCLUDE", OpCode::OBSERVABLE},
    };
    for (const auto& [n, c] : table) {
        if (name == n) {
            code = c;
            return true;
        }
    }
    return false;
}

} // namespace

Circuit
parseCircuit(const std::string& text)
{
    Circuit circ;
    std::istringstream in(text);
    std::string raw;
    std::size_t line_no = 0;

    while (std::getline(in, raw)) {
        ++line_no;
        const auto hash = raw.find('#');
        if (hash != std::string::npos)
            raw = raw.substr(0, hash);
        const auto l = tokenize(raw, line_no);
        if (l.name.empty())
            continue;

        Op op;
        if (!lookupOpCode(l.name, op.code))
            HETARCH_FATAL("line ", line_no, ": unknown op '", l.name,
                          "'");
        if (op.code == OpCode::OBSERVABLE && !l.id)
            HETARCH_FATAL("line ", line_no,
                          ": OBSERVABLE_INCLUDE needs an index");
        op.id = l.id.value_or(0);
        op.params = l.params;
        op.targets = l.targets;

        // appendOp validates arity, probability ranges and
        // measurement-record references, and reports them against the
        // offending line.
        std::ostringstream ctx;
        ctx << "line " << line_no << ": ";
        circ.appendOp(op, ctx.str());
    }
    return circ;
}

bool
tryParseCircuit(const std::string& text, Circuit& out,
                std::string& error)
{
    ScopedFatalCapture capture;
    try {
        out = parseCircuit(text);
    } catch (const FatalError& e) {
        error = e.what();
        return false;
    }
    return true;
}

} // namespace stab
} // namespace hetarch
