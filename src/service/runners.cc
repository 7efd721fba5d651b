/**
 * @file
 * Builtin job runners: the bridge from validated JobSpecs to the
 * repo's experiment entry points.
 *
 * Every runner derives all randomness from `Rng(spec.seed)` and emits
 * only deterministic fields into the JobResult, so a job's result is
 * a pure function of its spec — the property the service determinism
 * tests compare against direct API calls.  Runners poll
 * JobContext::cancelled() at phase boundaries; work between
 * boundaries always completes (cancellation is cooperative, never
 * preemptive).
 */

#include <cstdint>

#include "core/rng.hh"
#include "distill/module_sim.hh"
#include "dse/builder_registry.hh"
#include "lint/dataflow.hh"
#include "lint/faults.hh"
#include "lint/lint.hh"
#include "lint/schedule.hh"
#include "lint/timing_model.hh"
#include "qec/decoder_cache.hh"
#include "qec/memory_experiment.hh"
#include "qec/noise_model.hh"
#include "qec/stream_experiment.hh"
#include "qec/surface_circuit.hh"
#include "service/job_service.hh"
#include "stab/circuit_io.hh"

namespace hetarch {
namespace service {

namespace {

std::size_t
sizeParam(const JobSpec& spec, const char* key, std::size_t fallback)
{
    return static_cast<std::size_t>(
        spec.numberOr(key, static_cast<double>(fallback)));
}

qec::CircuitNoise
noiseFromSpec(const JobSpec& spec)
{
    qec::CircuitNoise noise;
    noise.p1 = spec.numberOr("p1", noise.p1);
    noise.p2 = spec.numberOr("p2", noise.p2);
    return noise;
}

qec::DecoderKind
decoderFromSpec(const JobSpec& spec)
{
    const ParamValue* p = spec.find("decoder");
    if (p != nullptr && p->text == "greedy")
        return qec::DecoderKind::GreedyDem;
    return qec::DecoderKind::UnionFind;
}

JobResult
runMemory(const JobSpec& spec, JobContext& ctx)
{
    const std::size_t distance = sizeParam(spec, "distance", 3);
    const std::size_t rounds = sizeParam(spec, "rounds", 1);
    const std::size_t shots = sizeParam(spec, "shots", 1);
    const stab::Circuit circuit =
        qec::surfaceMemoryZ(distance, rounds, noiseFromSpec(spec));
    JobResult result;
    if (ctx.cancelled())
        return result;
    Rng rng(spec.seed);
    const qec::MemoryResult memory = qec::runMemoryExperiment(
        circuit, shots, rounds, decoderFromSpec(spec), rng);
    result.addU64("shots", memory.shots);
    result.addU64("failures", memory.failures);
    result.addU64("rounds", memory.rounds);
    result.addReal("per_shot", memory.perShot());
    result.addReal("per_round", memory.perRound());
    return result;
}

JobResult
runStream(const JobSpec& spec, JobContext& ctx)
{
    const std::size_t distance = sizeParam(spec, "distance", 3);
    const std::size_t rounds = sizeParam(spec, "rounds", 1);
    const std::size_t shots = sizeParam(spec, "shots", 1);
    qec::StreamConfig config;
    config.windowRounds = sizeParam(spec, "window", 0);
    config.commitRounds = sizeParam(spec, "commit", 0);
    config.chunkShots = sizeParam(spec, "chunk", 0);
    const stab::Circuit circuit =
        qec::surfaceMemoryZ(distance, rounds, noiseFromSpec(spec));
    JobResult result;
    if (ctx.cancelled())
        return result;
    Rng rng(spec.seed);
    const qec::StreamingResult stream = qec::runStreamingMemoryExperiment(
        circuit, shots, rounds, decoderFromSpec(spec), rng, config);
    result.addU64("shots", stream.memory.shots);
    result.addU64("failures", stream.memory.failures);
    result.addU64("rounds", stream.memory.rounds);
    result.addU64("window", stream.windowRounds);
    result.addU64("commit", stream.commitRounds);
    result.addU64("peak_rounds", stream.peakStoredRounds);
    result.addU64("blocks", stream.blocks);
    result.addU64("windows", stream.windows);
    result.addU64("lane_decodes", stream.laneDecodes);
    result.addU64("committed_rounds", stream.committedRounds);
    result.addU64("carry_defects", stream.carryDefects);
    result.addU64("trivial_shots", stream.trivialShots);
    result.addReal("per_shot", stream.memory.perShot());
    return result;
}

JobResult
runSweepPoint(const JobSpec& spec, JobContext& ctx)
{
    const std::size_t distance = sizeParam(spec, "distance", 3);
    const std::size_t rounds = sizeParam(spec, "rounds", 1);
    const std::size_t shots = sizeParam(spec, "shots", 1);
    JobResult result;
    if (ctx.cancelled())
        return result;
    const double per_round = qec::surfaceLogicalErrorPerRound(
        distance, rounds, noiseFromSpec(spec), shots, spec.seed);
    result.addU64("distance", distance);
    result.addU64("rounds", rounds);
    result.addU64("shots", shots);
    result.addReal("per_round", per_round);
    return result;
}

JobResult
runDistill(const JobSpec& spec, JobContext& ctx)
{
    distill::DistillConfig config;
    config.seed = spec.seed;
    config.heterogeneous = spec.numberOr("heterogeneous", 1) != 0;
    config.targetFidelity =
        spec.numberOr("target_fidelity", config.targetFidelity);
    const double horizon_ns = spec.numberOr("horizon_us", 1) * 1000.0;
    const std::size_t trajectories = sizeParam(spec, "trajectories", 1);
    JobResult result;
    if (ctx.cancelled())
        return result;
    const distill::DistillEnsemble ensemble =
        distill::simulateDistillationEnsemble(config, horizon_ns,
                                              trajectories);
    result.addU64("trajectories", ensemble.runs.size());
    result.addU64("distilled", ensemble.totalDistilled());
    result.addU64("attempts", ensemble.totalAttempts());
    result.addReal("rate_per_ms", ensemble.meanDistilledRatePerMs());
    return result;
}

JobResult
runAnalysis(const JobSpec& spec, JobContext& ctx)
{
    stab::Circuit circuit;
    if (const ParamValue* builder = spec.find("builder")) {
        circuit = dse::findBuilder(builder->text)->make();
    } else {
        // Validation already proved the text parses; parse again here
        // because specs carry text, not IR.
        circuit = stab::parseCircuit(spec.find("circuit")->text);
    }

    JobResult result;
    if (ctx.cancelled())
        return result;
    const lint::LintReport report = lint::lintCircuit(circuit);
    result.addU64("errors", report.errorCount());
    result.addU64("warnings", report.warningCount());

    if (spec.numberOr("distance", 0) != 0 && report.clean()) {
        if (ctx.cancelled())
            return result;
        const auto faults =
            qec::DecoderCache::instance().faultAnalysis(circuit, {});
        const std::size_t min_distance = faults->minDistance();
        if (min_distance == lint::kInfiniteDistance)
            result.addText("min_distance", "unbounded");
        else
            result.addU64("min_distance", min_distance);
        result.addU64("undetectable", faults->undetectableMechanisms.size());
    }

    if (spec.numberOr("timing", 0) != 0) {
        if (ctx.cancelled())
            return result;
        const auto timing =
            lint::sched::TimingModel::unit(circuit.numQubits());
        const auto sched = lint::sched::analyzeSchedule(circuit, timing);
        result.addReal("critical_path_ns", sched.criticalPathNs);
        result.addU64("hazard_errors", sched.hazardErrors());
    }

    if (spec.numberOr("flow", 0) != 0) {
        if (ctx.cancelled())
            return result;
        const auto timing =
            lint::sched::TimingModel::unit(circuit.numQubits());
        lint::flow::FlowOptions options;
        // The certified budget needs the fault structure; only compose
        // it when the caller asked for distance analysis and the
        // circuit survived lint (the DEM builder refuses nondeterminism).
        std::shared_ptr<const lint::FaultAnalysis> faults;
        if (spec.numberOr("distance", 0) != 0 && report.clean()) {
            faults = qec::DecoderCache::instance().faultAnalysis(circuit, {});
            options.faults = faults.get();
            options.gateBudget = true;
        }
        const auto flow = lint::flow::analyzeFlow(circuit, timing, options);
        result.addU64("flow_swaps", flow.swapCount);
        result.addReal("flow_movement_ns", flow.movementNs);
        result.addU64("flow_peak_storage", flow.peakStorageOccupancy);
        result.addU64("flow_hazard_errors", flow.hazardErrors());
        if (options.gateBudget)
            result.addReal("flow_budget", flow.maxBudget());
    }
    return result;
}

} // namespace

JobRunner
builtinRunner(JobKind kind)
{
    switch (kind) {
    case JobKind::Memory:
        return runMemory;
    case JobKind::Stream:
        return runStream;
    case JobKind::SweepPoint:
        return runSweepPoint;
    case JobKind::Distill:
        return runDistill;
    case JobKind::Analysis:
        return runAnalysis;
    }
    return nullptr;
}

} // namespace service
} // namespace hetarch
