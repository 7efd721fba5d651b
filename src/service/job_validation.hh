/**
 * @file
 * Admission validation for job specs.
 *
 * validateJob() is the service's front door: every spec is checked
 * here *before* an id is assigned, so a malformed job is rejected
 * synchronously (wire `rejected` response) instead of failing minutes
 * later inside a runner.  Checks are per-kind allowlists — unknown or
 * duplicate parameters are rejections, not warnings — plus range
 * checks, and for analysis jobs the actual circuit resolution: inline
 * text must parse with stab::tryParseCircuit (which refuses every
 * malformed op), builder names are resolved against
 * dse::builderRegistry().
 *
 * Validation is pure on the spec (no service state), so the same
 * predicate serves the in-process API, the wire server, and tests.
 */

#pragma once

#include <string>

#include "service/job.hh"

namespace hetarch {
namespace service {

/** Outcome of admission validation. */
struct Validation
{
    bool ok = true;
    std::string error;

    static Validation pass() { return {}; }
    static Validation fail(std::string why)
    {
        Validation v;
        v.ok = false;
        v.error = std::move(why);
        return v;
    }
};

/** Check @p spec against its kind's parameter contract. */
Validation validateJob(const JobSpec& spec);

} // namespace service
} // namespace hetarch
