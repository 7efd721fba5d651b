#include "service/wire.hh"

#include <charconv>
#include <sstream>
#include <string>

#include "core/strict_json.hh"

namespace hetarch {
namespace service {

namespace {

// --- writer -----------------------------------------------------------

using core::json::writeString;

/**
 * Shortest round-trip form, always carrying a real marker ('.', 'e',
 * "inf", "nan") so the reader can tell reals from u64 counts by token
 * shape alone.
 */
void
writeReal(std::ostream& os, double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    std::string s(buf, res.ptr);
    if (s.find_first_of(".eEn") == std::string::npos)
        s += ".0";
    os << s;
}

void
writeResult(std::ostream& os, const JobResult& result)
{
    os << '{';
    bool first = true;
    for (const auto& [key, value] : result.fields) {
        if (!first)
            os << ',';
        first = false;
        writeString(os, key);
        os << ':';
        switch (value.kind) {
        case ResultValue::Kind::U64:
            os << value.u64;
            break;
        case ResultValue::Kind::Real:
            writeReal(os, value.real);
            break;
        case ResultValue::Kind::Text:
            writeString(os, value.text);
            break;
        }
    }
    os << '}';
}

void
writeHead(std::ostream& os, const char* type)
{
    os << "{\"schema\":\"" << kJobSchema << "\",\"type\":\"" << type
       << '"';
}

const char*
requestTypeName(RequestType type)
{
    switch (type) {
    case RequestType::Submit:
        return "submit";
    case RequestType::Status:
        return "status";
    case RequestType::Cancel:
        return "cancel";
    case RequestType::Wait:
        return "wait";
    case RequestType::Shutdown:
        return "shutdown";
    }
    return "?";
}

const char*
responseTypeName(ResponseType type)
{
    switch (type) {
    case ResponseType::Submitted:
        return "submitted";
    case ResponseType::Rejected:
        return "rejected";
    case ResponseType::Status:
        return "status";
    case ResponseType::Cancelled:
        return "cancelled";
    case ResponseType::Idle:
        return "idle";
    case ResponseType::Error:
        return "error";
    case ResponseType::Bye:
        return "bye";
    }
    return "?";
}

// --- strict scanner ---------------------------------------------------

/**
 * The shared strict scanner plus the wire dialect: number tokens are
 * classified U64-vs-Real by shape, and job ids must be positive.
 */
class Scanner : public core::json::Scanner
{
  public:
    explicit Scanner(const std::string& text)
        : core::json::Scanner(text)
    {}

    /**
     * A JSON number token, classified by shape: digits only is U64,
     * anything with a sign, '.', or exponent is Real.
     */
    ResultValue parseNumberValue()
    {
        skipWs();
        const std::string token = src.substr(pos, numberTokenEnd() - pos);
        ResultValue value;
        if (!token.empty() &&
            token.find_first_not_of("0123456789") == std::string::npos) {
            value.kind = ResultValue::Kind::U64;
            value.u64 = parseU64();
        } else {
            value.kind = ResultValue::Kind::Real;
            value.real = parseDouble();
        }
        return value;
    }

    double parseReal()
    {
        const ResultValue v = parseNumberValue();
        return v.kind == ResultValue::Kind::U64
                   ? static_cast<double>(v.u64)
                   : v.real;
    }

    JobId parseJobId()
    {
        const std::uint64_t id = parseU64();
        if (id == kInvalidJobId)
            fail("job id must be positive");
        return id;
    }
};

/** Format a scan failure as the diagnostic parse*Line() returns. */
std::string
scanDiagnostic(const core::json::ScanError& e)
{
    return "offset " + std::to_string(e.offset) + ": " + e.reason;
}

// --- request / response payloads --------------------------------------

void
parseParams(Scanner& sc, JobSpec& spec)
{
    sc.expect('{');
    if (sc.consume('}'))
        return;
    do {
        const std::string key = sc.parseString();
        if (spec.find(key) != nullptr)
            sc.fail("duplicate param \"" + key + "\"");
        sc.expect(':');
        if (sc.peek() == '"') {
            spec.add(key, ParamValue::str(sc.parseString()));
        } else {
            spec.add(key, ParamValue::num(sc.parseReal()));
        }
    } while (sc.consume(','));
    sc.expect('}');
}

void
parseResult(Scanner& sc, JobResult& result)
{
    sc.expect('{');
    if (sc.consume('}'))
        return;
    do {
        const std::string key = sc.parseString();
        if (result.find(key) != nullptr)
            sc.fail("duplicate result field \"" + key + "\"");
        sc.expect(':');
        if (sc.peek() == '"') {
            result.addText(key, sc.parseString());
        } else {
            ResultValue value = sc.parseNumberValue();
            result.fields.emplace_back(key, std::move(value));
        }
    } while (sc.consume(','));
    sc.expect('}');
}

void
parseMetrics(Scanner& sc,
             std::vector<std::pair<std::string, std::uint64_t>>& metrics)
{
    sc.expect('{');
    if (sc.consume('}'))
        return;
    do {
        const std::string key = sc.parseString();
        for (const auto& [name, count] : metrics) {
            (void) count;
            if (name == key)
                sc.fail("duplicate metric \"" + key + "\"");
        }
        sc.expect(':');
        metrics.emplace_back(key, sc.parseU64());
    } while (sc.consume(','));
    sc.expect('}');
}

JobKind
parseKindName(Scanner& sc)
{
    const std::string name = sc.parseString();
    JobKind kind;
    if (!parseJobKind(name, kind))
        sc.fail("unknown job kind \"" + name + "\"");
    return kind;
}

JobState
parseStateName(Scanner& sc)
{
    const std::string name = sc.parseString();
    JobState state;
    if (!parseJobState(name, state))
        sc.fail("unknown job state \"" + name + "\"");
    return state;
}

} // namespace

std::string
writeRequestLine(const Request& request)
{
    std::ostringstream os;
    writeHead(os, requestTypeName(request.type));
    switch (request.type) {
    case RequestType::Submit: {
        os << ",\"name\":";
        writeString(os, request.job.name);
        os << ",\"kind\":\"" << jobKindName(request.job.kind) << '"';
        os << ",\"priority\":" << request.job.priority;
        os << ",\"seed\":" << request.job.seed;
        os << ",\"params\":{";
        bool first = true;
        for (const auto& [key, value] : request.job.params) {
            if (!first)
                os << ',';
            first = false;
            writeString(os, key);
            os << ':';
            if (value.kind == ParamValue::Kind::Text)
                writeString(os, value.text);
            else
                writeReal(os, value.number);
        }
        os << '}';
        break;
    }
    case RequestType::Status:
    case RequestType::Cancel:
        os << ",\"id\":" << request.id;
        break;
    case RequestType::Wait:
    case RequestType::Shutdown:
        break;
    }
    os << '}';
    return os.str();
}

std::string
writeResponseLine(const Response& response)
{
    std::ostringstream os;
    writeHead(os, responseTypeName(response.type));
    switch (response.type) {
    case ResponseType::Submitted:
        os << ",\"id\":" << response.id;
        os << ",\"name\":";
        writeString(os, response.name);
        os << ",\"state\":\"" << jobStateName(response.state) << '"';
        break;
    case ResponseType::Rejected:
        os << ",\"name\":";
        writeString(os, response.name);
        os << ",\"error\":";
        writeString(os, response.message);
        break;
    case ResponseType::Status:
        os << ",\"id\":" << response.id;
        os << ",\"name\":";
        writeString(os, response.name);
        os << ",\"kind\":\"" << jobKindName(response.kind) << '"';
        os << ",\"state\":\"" << jobStateName(response.state) << '"';
        os << ",\"error\":";
        writeString(os, response.message);
        os << ",\"result\":";
        if (response.hasResult)
            writeResult(os, response.result);
        else
            os << "null";
        os << ",\"metrics\":";
        if (response.hasMetrics) {
            os << '{';
            bool first = true;
            for (const auto& [key, count] : response.metrics) {
                if (!first)
                    os << ',';
                first = false;
                writeString(os, key);
                os << ':' << count;
            }
            os << '}';
        } else {
            os << "null";
        }
        break;
    case ResponseType::Cancelled:
        os << ",\"id\":" << response.id;
        os << ",\"ok\":" << (response.ok ? "true" : "false");
        break;
    case ResponseType::Idle:
        os << ",\"jobs\":" << response.jobs;
        break;
    case ResponseType::Error:
        os << ",\"message\":";
        writeString(os, response.message);
        break;
    case ResponseType::Bye:
        os << ",\"submitted\":" << response.submitted;
        os << ",\"completed\":" << response.completed;
        os << ",\"failed\":" << response.failed;
        os << ",\"cancelled\":" << response.cancelled;
        os << ",\"rejected\":" << response.rejected;
        break;
    }
    os << '}';
    return os.str();
}

bool
parseRequestLine(const std::string& line, Request& out, std::string& error)
{
    try {
        Scanner sc(line);
        out = Request{};
        sc.expect('{');
        sc.expectKey("schema");
        const std::string schema = sc.parseString();
        if (schema != kJobSchema)
            sc.fail("unsupported schema \"" + schema + "\"");
        sc.expect(',');
        sc.expectKey("type");
        const std::string type = sc.parseString();
        if (type == "submit") {
            out.type = RequestType::Submit;
            sc.expect(',');
            sc.expectKey("name");
            out.job.name = sc.parseString();
            sc.expect(',');
            sc.expectKey("kind");
            out.job.kind = parseKindName(sc);
            sc.expect(',');
            sc.expectKey("priority");
            out.job.priority = sc.parseI64();
            sc.expect(',');
            sc.expectKey("seed");
            out.job.seed = sc.parseU64();
            sc.expect(',');
            sc.expectKey("params");
            parseParams(sc, out.job);
        } else if (type == "status" || type == "cancel") {
            out.type = type == "status" ? RequestType::Status
                                        : RequestType::Cancel;
            sc.expect(',');
            sc.expectKey("id");
            out.id = sc.parseJobId();
        } else if (type == "wait") {
            out.type = RequestType::Wait;
        } else if (type == "shutdown") {
            out.type = RequestType::Shutdown;
        } else {
            sc.fail("unknown request type \"" + type + "\"");
        }
        sc.expect('}');
        sc.finish();
        return true;
    } catch (const core::json::ScanError& e) {
        error = scanDiagnostic(e);
        return false;
    }
}

bool
parseResponseLine(const std::string& line, Response& out,
                  std::string& error)
{
    try {
        Scanner sc(line);
        out = Response{};
        sc.expect('{');
        sc.expectKey("schema");
        const std::string schema = sc.parseString();
        if (schema != kJobSchema)
            sc.fail("unsupported schema \"" + schema + "\"");
        sc.expect(',');
        sc.expectKey("type");
        const std::string type = sc.parseString();
        if (type == "submitted") {
            out.type = ResponseType::Submitted;
            sc.expect(',');
            sc.expectKey("id");
            out.id = sc.parseJobId();
            sc.expect(',');
            sc.expectKey("name");
            out.name = sc.parseString();
            sc.expect(',');
            sc.expectKey("state");
            out.state = parseStateName(sc);
        } else if (type == "rejected") {
            out.type = ResponseType::Rejected;
            sc.expect(',');
            sc.expectKey("name");
            out.name = sc.parseString();
            sc.expect(',');
            sc.expectKey("error");
            out.message = sc.parseString();
        } else if (type == "status") {
            out.type = ResponseType::Status;
            sc.expect(',');
            sc.expectKey("id");
            out.id = sc.parseJobId();
            sc.expect(',');
            sc.expectKey("name");
            out.name = sc.parseString();
            sc.expect(',');
            sc.expectKey("kind");
            out.kind = parseKindName(sc);
            sc.expect(',');
            sc.expectKey("state");
            out.state = parseStateName(sc);
            sc.expect(',');
            sc.expectKey("error");
            out.message = sc.parseString();
            sc.expect(',');
            sc.expectKey("result");
            if (sc.consumeNull()) {
                out.hasResult = false;
            } else {
                out.hasResult = true;
                parseResult(sc, out.result);
            }
            sc.expect(',');
            sc.expectKey("metrics");
            if (sc.consumeNull()) {
                out.hasMetrics = false;
            } else {
                out.hasMetrics = true;
                parseMetrics(sc, out.metrics);
            }
        } else if (type == "cancelled") {
            out.type = ResponseType::Cancelled;
            sc.expect(',');
            sc.expectKey("id");
            out.id = sc.parseJobId();
            sc.expect(',');
            sc.expectKey("ok");
            out.ok = sc.parseBool();
        } else if (type == "idle") {
            out.type = ResponseType::Idle;
            sc.expect(',');
            sc.expectKey("jobs");
            out.jobs = sc.parseU64();
        } else if (type == "error") {
            out.type = ResponseType::Error;
            sc.expect(',');
            sc.expectKey("message");
            out.message = sc.parseString();
        } else if (type == "bye") {
            out.type = ResponseType::Bye;
            sc.expect(',');
            sc.expectKey("submitted");
            out.submitted = sc.parseU64();
            sc.expect(',');
            sc.expectKey("completed");
            out.completed = sc.parseU64();
            sc.expect(',');
            sc.expectKey("failed");
            out.failed = sc.parseU64();
            sc.expect(',');
            sc.expectKey("cancelled");
            out.cancelled = sc.parseU64();
            sc.expect(',');
            sc.expectKey("rejected");
            out.rejected = sc.parseU64();
        } else {
            sc.fail("unknown response type \"" + type + "\"");
        }
        sc.expect('}');
        sc.finish();
        return true;
    } catch (const core::json::ScanError& e) {
        error = scanDiagnostic(e);
        return false;
    }
}

Response
makeStatusResponse(const JobStatus& status)
{
    Response response;
    response.type = ResponseType::Status;
    response.id = status.id;
    response.name = status.spec.name;
    response.kind = status.spec.kind;
    response.state = status.state;
    response.message = status.error;
    if (status.state == JobState::Done) {
        response.hasResult = true;
        response.result = status.result;
    }
    if (!status.metricsDelta.empty()) {
        response.hasMetrics = true;
        response.metrics = status.metricsDelta;
    }
    return response;
}

} // namespace service
} // namespace hetarch
