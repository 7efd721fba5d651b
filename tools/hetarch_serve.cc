/**
 * @file
 * hetarch-serve: the experiment job service on a stdio transport.
 *
 * Usage: hetarch-serve [options]
 *
 *   --max-queue=N       queued-job admission capacity [256]
 *   --max-concurrent=N  jobs dispatched per batch [4]
 *   --hold              do not start the dispatcher until the first
 *                       wait/shutdown request arrives; submissions and
 *                       cancellations against the held queue are fully
 *                       deterministic (the smoke test relies on this)
 *   --job-metrics       attach advisory per-job obs counter deltas to
 *                       status responses
 *   --threads=N         exec pool worker count (0 = hardware; at
 *                       most exec::kMaxThreads, else fatal)
 *   --metrics-out=FILE  write an obs metrics snapshot on exit
 *
 * Reads one hetarch-job-v1 request per stdin line and answers with
 * hetarch-job-v1 response lines on stdout (see src/service/wire.hh
 * for the schema).  A malformed line gets an `error` response and the
 * daemon keeps serving; EOF acts like a `shutdown` request.
 *
 * Exit status:
 *   0  clean session (rejected submissions are still clean)
 *   1  usage error
 *   2  at least one request line was malformed
 */

#include <charconv>
#include <iostream>
#include <string>

#include "exec/thread_pool.hh"
#include "obs/json.hh"
#include "obs/obs.hh"
#include "service/job_service.hh"
#include "service/wire.hh"

namespace {

using namespace hetarch;

int
usage()
{
    std::cerr << "usage: hetarch-serve [--max-queue=N] "
                 "[--max-concurrent=N] [--hold]\n"
                 "                     [--job-metrics] [--threads=N] "
                 "[--metrics-out=FILE]\n";
    return 1;
}

/** A whole unsigned decimal token: no sign, no blanks, no overflow. */
template <typename T>
bool
parseCount(const std::string& text, T& out)
{
    const char* end = text.data() + text.size();
    const auto res = std::from_chars(text.data(), end, out);
    return res.ec == std::errc{} && res.ptr == end;
}

void
emit(const service::Response& response)
{
    std::cout << service::writeResponseLine(response) << '\n';
    std::cout.flush();
}

void
emitError(std::string message)
{
    service::Response response;
    response.type = service::ResponseType::Error;
    response.message = std::move(message);
    emit(response);
}

/** Run every queued job to completion and report one status line per
    job (ascending id), then the idle tally. */
void
settle(service::JobService& jobs)
{
    jobs.start();
    jobs.waitIdle();
    for (const service::JobStatus& status : jobs.statusAll())
        emit(service::makeStatusResponse(status));
    service::Response idle;
    idle.type = service::ResponseType::Idle;
    idle.jobs = jobs.statusAll().size();
    emit(idle);
}

void
bye(service::JobService& jobs)
{
    jobs.start();
    jobs.waitIdle();
    service::Response response;
    response.type = service::ResponseType::Bye;
    response.submitted = obs::counter("service.jobs.submitted").load();
    response.completed = obs::counter("service.jobs.completed").load();
    response.failed = obs::counter("service.jobs.failed").load();
    response.cancelled = obs::counter("service.jobs.cancelled").load();
    response.rejected = obs::counter("service.jobs.rejected").load();
    emit(response);
}

} // namespace

int
main(int argc, char** argv)
{
    obs::configureMetricsFromArgs(argc, argv);

    service::ServiceConfig config;
    config.autoStart = true;
    unsigned threads = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--max-queue=", 0) == 0) {
            if (!parseCount(arg.substr(12), config.maxQueued) ||
                config.maxQueued == 0)
                return usage();
        } else if (arg.rfind("--max-concurrent=", 0) == 0) {
            if (!parseCount(arg.substr(17), config.maxConcurrent) ||
                config.maxConcurrent == 0)
                return usage();
        } else if (arg == "--hold") {
            config.autoStart = false;
        } else if (arg == "--job-metrics") {
            config.captureMetrics = true;
        } else if (arg.rfind("--threads=", 0) == 0) {
            if (!parseCount(arg.substr(10), threads))
                return usage();
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            return usage();
        }
    }
    if (threads != 0)
        exec::setThreadCount(threads);

    service::JobService jobs(config);
    bool malformed = false;
    bool said_bye = false;
    std::string line;
    while (std::getline(std::cin, line)) {
        if (line.empty())
            continue;
        service::Request request;
        std::string parse_error;
        if (!service::parseRequestLine(line, request, parse_error)) {
            malformed = true;
            emitError("bad request: " + parse_error);
            continue;
        }
        switch (request.type) {
        case service::RequestType::Submit: {
            const service::SubmitOutcome outcome =
                jobs.submit(request.job);
            service::Response response;
            if (outcome.accepted()) {
                response.type = service::ResponseType::Submitted;
                response.id = outcome.id;
                response.name = request.job.name;
                response.state = service::JobState::Queued;
            } else {
                response.type = service::ResponseType::Rejected;
                response.name = request.job.name;
                response.message = outcome.error;
            }
            emit(response);
            break;
        }
        case service::RequestType::Status: {
            service::JobStatus status;
            if (jobs.status(request.id, status)) {
                emit(service::makeStatusResponse(status));
            } else {
                emitError("unknown job id " +
                          std::to_string(request.id));
            }
            break;
        }
        case service::RequestType::Cancel: {
            service::Response response;
            response.type = service::ResponseType::Cancelled;
            response.id = request.id;
            response.ok = jobs.cancel(request.id);
            emit(response);
            break;
        }
        case service::RequestType::Wait:
            settle(jobs);
            break;
        case service::RequestType::Shutdown:
            bye(jobs);
            said_bye = true;
            break;
        }
        if (said_bye)
            break;
    }
    if (!said_bye)
        bye(jobs);
    return malformed ? 2 : 0;
}
