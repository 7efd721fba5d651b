#include "service/job_validation.hh"

#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>

#include "dse/builder_registry.hh"
#include "lint/lint.hh"
#include "stab/circuit_io.hh"

namespace hetarch {
namespace service {

namespace {

// Range of one numeric parameter.  Integer parameters additionally
// require an integral value; flags require exactly 0 or 1.
struct ParamRule
{
    const char* key;
    bool required = false;
    bool integer = false;
    double min = 0.0;
    double max = 0.0;
};

Validation
checkNumber(const JobSpec& spec, const ParamRule& rule)
{
    const ParamValue* p = spec.find(rule.key);
    if (p == nullptr) {
        if (rule.required) {
            return Validation::fail(std::string("missing required param '") +
                                    rule.key + "'");
        }
        return Validation::pass();
    }
    if (p->kind != ParamValue::Kind::Number) {
        return Validation::fail(std::string("param '") + rule.key +
                                "' must be a number");
    }
    const double v = p->number;
    if (!(v >= rule.min && v <= rule.max)) {
        std::ostringstream os;
        os << "param '" << rule.key << "' out of range [" << rule.min
           << ", " << rule.max << "]: " << v;
        return Validation::fail(os.str());
    }
    if (rule.integer && std::floor(v) != v) {
        return Validation::fail(std::string("param '") + rule.key +
                                "' must be an integer");
    }
    return Validation::pass();
}

// Reject duplicate keys and anything outside the allowlist, then run
// the numeric rules.  Text-valued params are listed in @p textKeys.
Validation
checkParams(const JobSpec& spec, const std::vector<ParamRule>& rules,
            const std::vector<const char*>& textKeys = {})
{
    std::set<std::string> seen;
    for (const auto& [key, value] : spec.params) {
        if (!seen.insert(key).second)
            return Validation::fail("duplicate param '" + key + "'");
        bool known = false;
        for (const auto& rule : rules)
            known = known || key == rule.key;
        for (const char* text_key : textKeys)
            known = known || key == text_key;
        if (!known) {
            return Validation::fail("unknown param '" + key + "' for kind " +
                                    jobKindName(spec.kind));
        }
    }
    for (const auto& rule : rules) {
        Validation v = checkNumber(spec, rule);
        if (!v.ok)
            return v;
    }
    for (const char* text_key : textKeys) {
        const ParamValue* p = spec.find(text_key);
        if (p != nullptr && p->kind != ParamValue::Kind::Text) {
            return Validation::fail(std::string("param '") + text_key +
                                    "' must be a string");
        }
    }
    return Validation::pass();
}

Validation
checkDecoderName(const JobSpec& spec)
{
    const ParamValue* p = spec.find("decoder");
    if (p == nullptr)
        return Validation::pass();
    if (p->text != "union-find" && p->text != "greedy") {
        return Validation::fail("unknown decoder '" + p->text +
                                "' (expected union-find or greedy)");
    }
    return Validation::pass();
}

// Size cap on the surface-code memory circuit of a memory, stream or
// sweep-point job, as distance^2 x rounds.  The per-param ranges alone
// admit d = 25 at 100,000 rounds: a d = 25 circuit has 9,991 ops per
// round, so that is ~1e9 ops, while a d = 25, 100-round setup already
// peaks at 351 MiB.  2^17 admits d = 25 up to 209 rounds and d = 13
// up to 775, keeping one setup near 0.75 GiB.
constexpr std::uint64_t kMaxDistanceSqRounds = std::uint64_t{1} << 17;

// Shape checks of the surface-memory kinds, run after checkParams (so
// both params are in-range integers): odd distance, and the size cap.
Validation
checkSurfaceShape(const JobSpec& spec)
{
    const auto d = static_cast<std::uint64_t>(spec.numberOr("distance", 3));
    if (d % 2 == 0)
        return Validation::fail("param 'distance' must be odd");
    const std::uint64_t size =
        d * d * static_cast<std::uint64_t>(spec.numberOr("rounds", 1));
    if (size > kMaxDistanceSqRounds) {
        return Validation::fail(
            "distance^2 x rounds = " + std::to_string(size) +
            " exceeds the memory-job size cap kMaxDistanceSqRounds = " +
            std::to_string(kMaxDistanceSqRounds));
    }
    return Validation::pass();
}

const std::vector<ParamRule>&
memoryRules()
{
    static const std::vector<ParamRule> rules = {
        {"distance", true, true, 3, 25},
        {"rounds", true, true, 1, 100000},
        {"shots", true, true, 1, 100000000},
        {"p1", false, false, 0.0, 1.0},
        {"p2", false, false, 0.0, 1.0},
    };
    return rules;
}

Validation
validateMemory(const JobSpec& spec)
{
    Validation v = checkParams(spec, memoryRules(), {"decoder"});
    if (!v.ok)
        return v;
    v = checkSurfaceShape(spec);
    if (!v.ok)
        return v;
    return checkDecoderName(spec);
}

Validation
validateStream(const JobSpec& spec)
{
    std::vector<ParamRule> rules = memoryRules();
    rules.push_back({"window", false, true, 0, 100000});
    rules.push_back({"commit", false, true, 0, 100000});
    rules.push_back({"chunk", false, true, 0, 1000000});
    Validation v = checkParams(spec, rules, {"decoder"});
    if (!v.ok)
        return v;
    v = checkSurfaceShape(spec);
    if (!v.ok)
        return v;
    v = checkDecoderName(spec);
    if (!v.ok)
        return v;
    const double window = spec.numberOr("window", 0);
    const double commit = spec.numberOr("commit", 0);
    if (commit > window)
        return Validation::fail("param 'commit' must not exceed 'window'");
    const ParamValue* decoder = spec.find("decoder");
    if (window > 0 && decoder != nullptr && decoder->text != "union-find") {
        return Validation::fail(
            "windowed streaming requires the union-find decoder");
    }
    return Validation::pass();
}

Validation
validateSweepPoint(const JobSpec& spec)
{
    Validation v = checkParams(spec, memoryRules());
    if (!v.ok)
        return v;
    return checkSurfaceShape(spec);
}

Validation
validateDistill(const JobSpec& spec)
{
    static const std::vector<ParamRule> rules = {
        {"trajectories", true, true, 1, 100000},
        {"horizon_us", true, false, 1e-3, 1e9},
        {"heterogeneous", false, true, 0, 1},
        {"target_fidelity", false, false, 0.5, 1.0},
    };
    return checkParams(spec, rules);
}

Validation
validateAnalysis(const JobSpec& spec)
{
    static const std::vector<ParamRule> rules = {
        {"distance", false, true, 0, 1},
        {"timing", false, true, 0, 1},
        {"flow", false, true, 0, 1},
    };
    Validation v = checkParams(spec, rules, {"circuit", "builder"});
    if (!v.ok)
        return v;

    const ParamValue* text = spec.find("circuit");
    const ParamValue* builder = spec.find("builder");
    if ((text == nullptr) == (builder == nullptr)) {
        return Validation::fail(
            "analysis jobs take exactly one of 'circuit' or 'builder'");
    }
    if (builder != nullptr) {
        if (dse::findBuilder(builder->text) == nullptr)
            return Validation::fail("unknown builder '" + builder->text + "'");
        return Validation::pass();
    }

    // Inline circuits are vetted up front: the text must parse, and the
    // cheap structural passes must come back clean — a circuit that
    // cannot survive them would only fail later inside the runner.
    stab::Circuit circuit;
    std::string parse_error;
    if (!stab::tryParseCircuit(text->text, circuit, parse_error))
        return Validation::fail("circuit does not parse: " + parse_error);
    lint::LintReport report;
    lint::passStructural(circuit, report);
    lint::passRecordRefs(circuit, report);
    lint::passProbability(circuit, report);
    if (!report.clean())
        return Validation::fail("circuit fails lint: " + report.toString());
    return Validation::pass();
}

} // namespace

Validation
validateJob(const JobSpec& spec)
{
    if (spec.name.empty())
        return Validation::fail("job name must not be empty");
    switch (spec.kind) {
    case JobKind::Memory:
        return validateMemory(spec);
    case JobKind::Stream:
        return validateStream(spec);
    case JobKind::SweepPoint:
        return validateSweepPoint(spec);
    case JobKind::Distill:
        return validateDistill(spec);
    case JobKind::Analysis:
        return validateAnalysis(spec);
    }
    return Validation::fail("unknown job kind");
}

} // namespace service
} // namespace hetarch
