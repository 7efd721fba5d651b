/**
 * @file
 * hetarch-job: client-side of the hetarch-job-v1 wire protocol.
 *
 * Usage: hetarch-job <command> [options]
 *
 * Request generators (one request line on stdout, for piping into
 * hetarch-serve):
 *
 *   submit --kind=KIND [--name=S] [--priority=N] [--seed=N]
 *          [--param key=value ...] [--circuit-file=PATH]
 *            kinds: memory stream sweep-point distill analysis
 *            --param values that are whole number tokens travel as
 *            numbers, anything else as strings; --circuit-file reads
 *            PATH into the "circuit" param for analysis jobs
 *   status --id=N
 *   cancel --id=N
 *   wait
 *   shutdown
 *
 * Transcript consumers (response lines on stdin):
 *
 *   check [--require-counters=submitted=3,completed=2,...]
 *            strict-parse every line; with --require-counters, compare
 *            the bye tallies against the expectation
 *   watch    strict-parse and pretty-print one human line per response
 *
 * Exit status:
 *   0  request emitted / transcript clean and expectations met
 *   1  usage error, or a transcript line failed to parse
 *   2  transcript parsed but an expectation failed
 */

#include <charconv>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "service/job.hh"
#include "service/wire.hh"

namespace {

using namespace hetarch;

int
usage()
{
    std::cerr
        << "usage: hetarch-job submit --kind=KIND [--name=S] "
           "[--priority=N] [--seed=N]\n"
           "                          [--param key=value ...] "
           "[--circuit-file=PATH]\n"
           "       hetarch-job status --id=N\n"
           "       hetarch-job cancel --id=N\n"
           "       hetarch-job wait\n"
           "       hetarch-job shutdown\n"
           "       hetarch-job check "
           "[--require-counters=submitted=N,...]\n"
           "       hetarch-job watch\n";
    return 1;
}

/**
 * A whole std::from_chars token, as the wire parser reads numbers: no
 * '+', no blanks, no hex prefix, no overflow, and no sign on an
 * unsigned value.
 */
template <typename T>
bool
parseToken(const std::string& text, T& out)
{
    const char* end = text.data() + text.size();
    const auto res = std::from_chars(text.data(), end, out);
    return res.ec == std::errc{} && res.ptr == end;
}

int
cmdSubmit(const std::vector<std::string>& args)
{
    service::Request request;
    request.type = service::RequestType::Submit;
    request.job.name = "job";
    bool have_kind = false;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& arg = args[i];
        if (arg.rfind("--kind=", 0) == 0) {
            if (!service::parseJobKind(arg.substr(7), request.job.kind)) {
                std::cerr << "hetarch-job: unknown kind '"
                          << arg.substr(7) << "'\n";
                return 1;
            }
            have_kind = true;
        } else if (arg.rfind("--name=", 0) == 0) {
            request.job.name = arg.substr(7);
        } else if (arg.rfind("--priority=", 0) == 0) {
            if (!parseToken(arg.substr(11), request.job.priority))
                return usage();
        } else if (arg.rfind("--seed=", 0) == 0) {
            if (!parseToken(arg.substr(7), request.job.seed))
                return usage();
        } else if (arg == "--param") {
            if (i + 1 >= args.size())
                return usage();
            const std::string& kv = args[++i];
            const std::size_t eq = kv.find('=');
            if (eq == std::string::npos || eq == 0)
                return usage();
            const std::string key = kv.substr(0, eq);
            const std::string value = kv.substr(eq + 1);
            double number = 0.0;
            if (parseToken(value, number))
                request.job.add(key, service::ParamValue::num(number));
            else
                request.job.add(key, service::ParamValue::str(value));
        } else if (arg.rfind("--circuit-file=", 0) == 0) {
            const std::string path = arg.substr(15);
            std::ifstream in(path);
            if (!in) {
                std::cerr << "hetarch-job: cannot read '" << path
                          << "'\n";
                return 1;
            }
            std::ostringstream text;
            text << in.rdbuf();
            request.job.add("circuit",
                            service::ParamValue::str(text.str()));
        } else {
            return usage();
        }
    }
    if (!have_kind)
        return usage();
    std::cout << service::writeRequestLine(request) << '\n';
    return 0;
}

int
cmdWithId(service::RequestType type, const std::vector<std::string>& args)
{
    service::Request request;
    request.type = type;
    bool have_id = false;
    for (const std::string& arg : args) {
        if (arg.rfind("--id=", 0) == 0) {
            if (!parseToken(arg.substr(5), request.id) ||
                request.id == service::kInvalidJobId)
                return usage();
            have_id = true;
        } else {
            return usage();
        }
    }
    if (!have_id)
        return usage();
    std::cout << service::writeRequestLine(request) << '\n';
    return 0;
}

int
cmdBare(service::RequestType type, const std::vector<std::string>& args)
{
    if (!args.empty())
        return usage();
    service::Request request;
    request.type = type;
    std::cout << service::writeRequestLine(request) << '\n';
    return 0;
}

struct CounterExpectation
{
    std::string key;
    std::uint64_t value = 0;
};

bool
parseExpectations(const std::string& text,
                  std::vector<CounterExpectation>& out)
{
    std::istringstream in(text);
    std::string item;
    while (std::getline(in, item, ',')) {
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos || eq == 0)
            return false;
        CounterExpectation expectation;
        expectation.key = item.substr(0, eq);
        if (!parseToken(item.substr(eq + 1), expectation.value))
            return false;
        out.push_back(expectation);
    }
    return !out.empty();
}

std::uint64_t
byeCounter(const service::Response& bye, const std::string& key,
           bool& known)
{
    known = true;
    if (key == "submitted")
        return bye.submitted;
    if (key == "completed")
        return bye.completed;
    if (key == "failed")
        return bye.failed;
    if (key == "cancelled")
        return bye.cancelled;
    if (key == "rejected")
        return bye.rejected;
    known = false;
    return 0;
}

int
cmdCheck(const std::vector<std::string>& args)
{
    std::vector<CounterExpectation> expectations;
    for (const std::string& arg : args) {
        if (arg.rfind("--require-counters=", 0) == 0) {
            if (!parseExpectations(arg.substr(19), expectations))
                return usage();
        } else {
            return usage();
        }
    }

    std::size_t lines = 0;
    bool have_bye = false;
    service::Response bye;
    std::string line;
    while (std::getline(std::cin, line)) {
        if (line.empty())
            continue;
        ++lines;
        service::Response response;
        std::string error;
        if (!service::parseResponseLine(line, response, error)) {
            std::cerr << "hetarch-job: line " << lines << ": " << error
                      << '\n';
            return 1;
        }
        if (response.type == service::ResponseType::Bye) {
            have_bye = true;
            bye = response;
        }
    }
    if (lines == 0) {
        std::cerr << "hetarch-job: empty transcript\n";
        return 1;
    }
    if (!expectations.empty()) {
        if (!have_bye) {
            std::cerr << "hetarch-job: no bye response to check "
                         "counters against\n";
            return 2;
        }
        int failures = 0;
        for (const CounterExpectation& expectation : expectations) {
            bool known = false;
            const std::uint64_t actual =
                byeCounter(bye, expectation.key, known);
            if (!known) {
                std::cerr << "hetarch-job: unknown counter '"
                          << expectation.key << "'\n";
                return usage();
            }
            if (actual != expectation.value) {
                std::cerr << "hetarch-job: counter " << expectation.key
                          << " = " << actual << ", expected "
                          << expectation.value << '\n';
                ++failures;
            }
        }
        if (failures != 0)
            return 2;
    }
    std::cerr << "hetarch-job: " << lines << " response line(s) ok\n";
    return 0;
}

int
cmdWatch(const std::vector<std::string>& args)
{
    if (!args.empty())
        return usage();
    std::size_t lines = 0;
    std::string line;
    while (std::getline(std::cin, line)) {
        if (line.empty())
            continue;
        ++lines;
        service::Response response;
        std::string error;
        if (!service::parseResponseLine(line, response, error)) {
            std::cerr << "hetarch-job: line " << lines << ": " << error
                      << '\n';
            return 1;
        }
        switch (response.type) {
        case service::ResponseType::Submitted:
            std::cout << "job " << response.id << " '" << response.name
                      << "' queued\n";
            break;
        case service::ResponseType::Rejected:
            std::cout << "rejected '" << response.name
                      << "': " << response.message << '\n';
            break;
        case service::ResponseType::Status: {
            std::cout << "job " << response.id << " '" << response.name
                      << "' [" << service::jobKindName(response.kind)
                      << "] " << service::jobStateName(response.state);
            if (response.hasResult) {
                for (const auto& [key, value] : response.result.fields) {
                    std::cout << ' ' << key << '=';
                    switch (value.kind) {
                    case service::ResultValue::Kind::U64:
                        std::cout << value.u64;
                        break;
                    case service::ResultValue::Kind::Real:
                        std::cout << value.real;
                        break;
                    case service::ResultValue::Kind::Text:
                        std::cout << value.text;
                        break;
                    }
                }
            }
            if (!response.message.empty())
                std::cout << " error=" << response.message;
            std::cout << '\n';
            break;
        }
        case service::ResponseType::Cancelled:
            std::cout << "cancel " << response.id << ' '
                      << (response.ok ? "ok" : "refused") << '\n';
            break;
        case service::ResponseType::Idle:
            std::cout << "idle (" << response.jobs << " job(s))\n";
            break;
        case service::ResponseType::Error:
            std::cout << "server error: " << response.message << '\n';
            break;
        case service::ResponseType::Bye:
            std::cout << "bye submitted=" << response.submitted
                      << " completed=" << response.completed
                      << " failed=" << response.failed
                      << " cancelled=" << response.cancelled
                      << " rejected=" << response.rejected << '\n';
            break;
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    if (command == "--help" || command == "-h") {
        usage();
        return 0;
    }
    std::vector<std::string> args(argv + 2, argv + argc);
    if (command == "submit")
        return cmdSubmit(args);
    if (command == "status")
        return cmdWithId(service::RequestType::Status, args);
    if (command == "cancel")
        return cmdWithId(service::RequestType::Cancel, args);
    if (command == "wait")
        return cmdBare(service::RequestType::Wait, args);
    if (command == "shutdown")
        return cmdBare(service::RequestType::Shutdown, args);
    if (command == "check")
        return cmdCheck(args);
    if (command == "watch")
        return cmdWatch(args);
    return usage();
}
